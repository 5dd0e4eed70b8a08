"""Kernel ridge regression with the inverse solved by gradient probes.

The ridge weights alpha = (K + lambda I)^-1 f need a matrix inverse; each
entry e_i^T (K + lambda I)^-1 f is ||f|| times one log-determinant
directional derivative, along the signed direction (e_i f^T + f e_i^T)/(2||f||),
read from one probe set.  The probe solver matches the classical solve to
~5e-5 and the fitted model reproduces sin(x) to ~3.6e-3 between training
points.

=== EXAMPLE OUTPUT ===
16-point fit of sin(x), sigma=1, ridge=1e-06
  max |alpha_qgld - alpha_classical| = 5.5e-05
  held-out max error: classical 3.5e-03, probe-solved 3.6e-03
"""
import numpy as np

from qgld import kernel_fit, kernel_predict


def main():
    points = np.linspace(0.0, 2 * np.pi, 16)
    targets = np.sin(points)
    print("16-point fit of sin(x), sigma=1, ridge=1e-06")

    classical = kernel_fit(points, targets, sigma=1.0, ridge=1e-6)
    probe = kernel_fit(points, targets, sigma=1.0, ridge=1e-6, solver="qgld", k=16)
    diff = np.max(np.abs(probe.alpha - classical.alpha))
    print(f"  max |alpha_qgld - alpha_classical| = {diff:.1e}")

    grid = np.linspace(0.0, 2 * np.pi, 50)
    err_classical = np.max(np.abs(kernel_predict(classical, grid) - np.sin(grid)))
    err_probe = np.max(np.abs(kernel_predict(probe, grid) - np.sin(grid)))
    print(f"  held-out max error: classical {err_classical:.1e}, probe-solved {err_probe:.1e}")

    print("\n  x      sin(x)    alpha_classical  alpha_qgld")
    for i in (0, 4, 8, 12, 15):
        print(f"  {points[i]:5.2f}  {targets[i]:+.4f}   {classical.alpha[i]:+12.6f}"
              f"   {probe.alpha[i]:+12.6f}")


if __name__ == "__main__":
    main()
