"""One-shot inverse expectations on an equal superposition of eigenvectors.

Instead of looping k probe circuits over eigenpairs, the superposition
pipeline prepares (1/sqrt(N)) sum_p |p> once, rescales the perturbation by
1/E_p per eigenstate in a controlled family built straight in the
eigenbasis of X (so the bare eigenphases never appear), and reads
<phi| X^-1 |phi> from a single conditioned probe.
The sampled variant replaces the equal superposition with random states and
averages self-normalized readouts.

=== EXAMPLE OUTPUT ===
sigma-z, phi uniform: superposed readout +0.00e+00 (exact 0 by cancellation)
diag(2, 4), phi uniform: 0.37500000 vs classical 0.375
...
"""
import numpy as np

from qgld import (
    classical_reference_expectation,
    sampled_qgld,
    sigma_qgld_expectation,
)


def exact_cases():
    sigma_z = np.diag([1.0, -1.0]).astype(complex)
    uniform2 = np.array([1.0, 1.0]) / np.sqrt(2)
    got = sigma_qgld_expectation(sigma_z, uniform2)
    print(f"sigma-z, phi uniform: superposed readout {got:+.2e} (exact 0 by cancellation)")

    diag = np.diag([2.0, 4.0]).astype(complex)
    got = sigma_qgld_expectation(diag, uniform2)
    print(f"diag(2, 4), phi uniform: {got:.8f} vs classical "
          f"{classical_reference_expectation(diag, uniform2)}")


def random_comparison(rng):
    print("random 8x8 SPD: superposed vs classical reference")
    n = 8
    gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(gauss)
    values = 0.8 + 0.4 * np.arange(n) + rng.uniform(0.0, 0.25, size=n)
    x = (q * values) @ q.conj().T
    phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    phi /= np.linalg.norm(phi)
    got = sigma_qgld_expectation(x, phi)
    want = classical_reference_expectation(x, phi)
    print(f"  superposed={got:.10f}  classical={want:.10f}  error={abs(got - want):.1e}")


def sampled_variant():
    print("sampled variant: random starting states, self-normalized readouts")
    x = np.diag([2.0, 4.0]).astype(complex)
    phi = np.array([1.0, 1.0]) / np.sqrt(2)
    for n_samples in (4, 16, 64, 256):
        estimate, spread = sampled_qgld(x, phi, n_samples, rng_seed=2)
        print(f"  samples={n_samples:>3}  estimate={estimate:.6f}  spread={spread:.4f}")
    print("  (identity input returns 1.0 exactly from a single sample)")
    est, _ = sampled_qgld(np.eye(4, dtype=complex), np.ones(4) / 2.0, 1, rng_seed=0)
    print(f"  identity, one sample: {est}")


def main():
    exact_cases()
    print()
    random_comparison(np.random.default_rng(23))
    print()
    sampled_variant()


if __name__ == "__main__":
    main()
