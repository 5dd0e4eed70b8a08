"""Eigenvalue gradients from a single-deviation-qubit probe circuit.

A Hadamard fans the deviation register across perturbation strengths, a
controlled evolution family imprints the perturbed eigenphases, and the
inverse QFT turns the phase difference into a measurable distribution.
For one deviation qubit the gradient magnitude is 2*arccos(sqrt(p0)).

=== EXAMPLE OUTPUT ===
probing X = sigma-x eigenstates, L = 1e-06
  delta=X        state=+  probe=1.000000000  oracle=1.000000000
  delta=X        state=-  probe=1.000000000  oracle=1.000000000
  delta=|0><0|   state=+  probe=0.500000062  oracle=0.500000000
  ...
Hadamard matrix, delta = sigma-x: probe residual vs 1/sqrt(2)
  L=1e-04  residual=1.25e-05
  L=1e-05  residual=1.25e-06
  L=1e-06  residual=1.25e-07
"""
import numpy as np

from qgld import GradientEncoding, build_delta, eig_hermitian, eigenvalue_gradient_probes

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def probe_sigma_x():
    enc = GradientEncoding(L=1e-6)
    print(f"probing X = sigma-x eigenstates, L = {enc.L}")
    dec = eig_hermitian(SIGMA_X)
    states = dec.vectors[:, [1, 0]]  # |+>, |->
    directions = {
        "X": build_delta("custom", 2, matrix=SIGMA_X),
        "|0><0|": build_delta("element", 2, i=0, j=0),
        "|1><1|": build_delta("element", 2, i=1, j=1),
        "I": build_delta("custom", 2, matrix=np.eye(2, dtype=complex)),
    }
    for name, delta in directions.items():
        probes = eigenvalue_gradient_probes(SIGMA_X, states, delta, enc)
        for label, vec, probe in zip("+-", states.T, probes):
            oracle = abs(np.real(vec.conj() @ delta.matrix @ vec))
            print(f"  delta={name:<8} state={label}  probe={probe:.9f}  oracle={oracle:.9f}")


def hadamard_residual_sweep():
    print("Hadamard matrix, delta = sigma-x: probe residual vs 1/sqrt(2)")
    dec = eig_hermitian(HADAMARD)
    delta = build_delta("custom", 2, matrix=SIGMA_X)
    for l_value in (1e-4, 1e-5, 1e-6):
        [probe] = eigenvalue_gradient_probes(HADAMARD, dec.vectors[:, [1]], delta, GradientEncoding(L=l_value))
        print(f"  L={l_value:.0e}  residual={abs(probe - 1 / np.sqrt(2)):.2e}")


def peak_readout_with_more_qubits():
    print("six deviation qubits: signed gradient from the distribution peak")
    enc = GradientEncoding(L=1e-6, m=6, shift="centered")
    width = 2 * np.pi * enc.W / enc.deviation_dim
    dec = eig_hermitian(HADAMARD)
    delta = build_delta("custom", 2, matrix=SIGMA_X)
    decoded = eigenvalue_gradient_probes(HADAMARD, dec.vectors[:, [1, 0]], delta, enc)
    for label, grad in zip(("H+", "H-"), decoded):
        peak = round(grad / width) % enc.deviation_dim
        print(f"  state={label}  peak bin={peak}  decoded={grad:+.4f} (bin width {width:.4f})")


def main():
    probe_sigma_x()
    print()
    hadamard_residual_sweep()
    print()
    peak_readout_with_more_qubits()


if __name__ == "__main__":
    main()
