"""Machine and build record attached to every run's report."""
from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "QGLD_THREADS")


def _openblas(package) -> dict:
    """Version string and thread count of the OpenBLAS a wheel bundles."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    return {"config": config().decode(), "threads": threads()}
    return {"config": "unknown", "threads": None}


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def source_digest(src: Path) -> str:
    """sha256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def record(root: Path, src: Path) -> dict:
    return {
        "git_sha": _git_sha(root),
        "src_sha256": source_digest(src),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _openblas(np),
        "scipy_openblas": _openblas(scipy),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }
