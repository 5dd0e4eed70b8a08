"""Randomized block Lanczos as the eigenpair source for the probe pipelines.

A random orthonormal block is driven through the three-term recursion with
full reorthogonalization; the measured blocks assemble into a small
block-tridiagonal matrix whose lifted eigenpairs approximate the extremal
spectrum long before the subspace exhausts the full dimension.

=== EXAMPLE OUTPUT ===
64x64 decaying spectrum, block size 2
  k= 2 (kb= 4)  top error 3.4e-03  orthonormality 2.1e-15
  k= 4 (kb= 8)  top error 1.4e-06  orthonormality 3.0e-15
  ...
"""
import numpy as np

from qgld import assemble_and_solve, build_factorization, run_rqbl


def decaying_symmetric(rng, n, top=10.0, ratio=0.7):
    gauss = rng.standard_normal((n, n))
    q, _ = np.linalg.qr(gauss)
    values = top * ratio ** np.arange(n) * rng.choice([1.0, -1.0], size=n)
    x = (q * values) @ q.T
    return (x + x.T) / 2


def convergence_table():
    rng = np.random.default_rng(31)
    x = decaying_symmetric(rng, 64)
    dense = np.linalg.eigvalsh(x)
    target = dense[np.argmax(np.abs(dense))]
    print("64x64 decaying spectrum, block size 2")
    for k in (2, 4, 6, 8, 10, 12):
        sol = run_rqbl(x, b=2, k=k, rng_seed=7)
        fact = build_factorization(x, b=2, k=k, rng_seed=7)
        err = abs(sol.values[0] - target)
        print(f"  k={k:>2} (kb={2 * k:>3})  top error {err:.1e}  "
              f"orthonormality {fact.orthonormality_defect():.1e}")


def breakdown_on_invariant_subspace():
    print("invariant subspace: recursion stops early with the converged blocks")
    # two distinct eigenvalues: every Krylov space has dimension 2, so 4
    # requested steps stop after 2; exhausting the dimension is not breakdown
    x = np.diag([5.0, 5.0, 2.0, 2.0]).astype(complex)
    fact = build_factorization(x, b=1, k=4, rng_seed=3)
    sol = assemble_and_solve(x, fact)
    print(f"  breakdown={fact.breakdown}  steps={fact.steps} of 4  "
          f"ritz values={np.round(np.sort(sol.values), 10)}")


def ritz_residuals():
    print("Ritz residuals are measured, not assumed")
    rng = np.random.default_rng(5)
    x = decaying_symmetric(rng, 32, ratio=0.8)
    sol = run_rqbl(x, b=2, k=6, rng_seed=11)
    for value, residual in list(zip(sol.values, sol.residuals))[:4]:
        print(f"  value={value:+.6f}  residual={residual:.2e}")


def main():
    convergence_table()
    print()
    breakdown_on_invariant_subspace()
    print()
    ritz_residuals()


if __name__ == "__main__":
    main()
