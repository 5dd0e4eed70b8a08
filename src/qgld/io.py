"""File formats: matrix and vector JSON, reports, and deterministic CSV."""
from __future__ import annotations

import json

import numpy as np


def matrix_from_dict(data: dict) -> np.ndarray:
    dim = data["dim"]
    if not (type(dim) is int or type(dim) is float and dim.is_integer()):  # type(): a bool is an int
        raise ValueError(f"field 'dim' is {dim!r}, expected an integer")
    dim = int(dim)
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data["im"], dtype=float) if "im" in data else np.zeros_like(re)
    for field, part in (("re", re), ("im", im)):
        if part.shape != (dim, dim):
            raise ValueError(f"field {field!r} has shape {part.shape}, expected ({dim}, {dim}) from 'dim'")
    return re + 1j * im


def vector_from_dict(data: dict) -> np.ndarray:
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data.get("im", np.zeros_like(re)), dtype=float)
    if im.shape != re.shape:
        raise ValueError(f"field 'im' has shape {im.shape}, expected {re.shape} as 're'")
    return re + 1j * im


def _load(path: str, from_dict) -> np.ndarray:
    """``from_dict`` of the JSON in ``path``; malformed content raises a ValueError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return from_dict(json.load(fh))
        except KeyError as exc:
            raise ValueError(f"{path}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def load_matrix(path: str) -> np.ndarray:
    return _load(path, matrix_from_dict)


def load_vector(path: str) -> np.ndarray:
    return _load(path, vector_from_dict)


def format_number(x) -> str:
    """Nine significant digits, '.' decimal separator."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.9g}"


def _csv_field(value) -> str:
    """A number through :func:`format_number`, or text, quoted as RFC 4180
    asks when it holds a comma, a quote or a line break, quotes doubled."""
    if isinstance(value, (int, float, np.floating, np.integer)):
        return format_number(value)
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def render_csv(header: list[str], rows: list[list]) -> str:
    return "".join(",".join(map(_csv_field, line)) + "\n" for line in [header, *rows])


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
