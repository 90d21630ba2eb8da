"""
Chebyshev polynomials by recurrence
===================================

Both polynomial families used by the network come from the same three-term
recurrence P_k(x) = 2x P_{k-1}(x) - P_{k-2}(x); only the seeds differ
(T_1 = x versus U_1 = 2x). No arccos anywhere, so the evaluation is stable
for every x, not just [-1, 1].
"""

import numpy as np

from chebykan import (PolyKind, eval_basis, eval_basis_derivative, extrema,
                      gauss_chebyshev, orthogonality_integral, roots)

# a value table: T_0..T_5 and U_0..U_5 at a few points
points = [-1.0, -0.5, 0.0, 0.5, 1.0]
print("x      " + "  ".join(f"T_{k}" for k in range(6)))
for x in points:
    vals = eval_basis(x, 5, PolyKind.FIRST)
    print(f"{x:+.2f}  " + "  ".join(f"{v:+.3f}" for v in vals))
print()
print("x      " + "  ".join(f"U_{k}" for k in range(6)))
for x in points:
    vals = eval_basis(x, 5, PolyKind.SECOND)
    print(f"{x:+.2f}  " + "  ".join(f"{v:+.3f}" for v in vals))

# the trigonometric identity T_n(cos t) = cos(nt) holds to machine precision
theta = np.linspace(0.1, 3.0, 7)
worst = max(abs(eval_basis(np.cos(t), 8, PolyKind.FIRST)[8] - np.cos(8 * t))
            for t in theta)
print(f"\nmax |T_8(cos t) - cos(8t)| over a grid: {worst:.2e}")

# derivatives by the differentiated recurrence agree with T'_n = n U_{n-1}
x = 0.37
d = eval_basis_derivative(x, 5, PolyKind.FIRST)
u = eval_basis(x, 4, PolyKind.SECOND)
print(f"T'_5({x}) = {d[5]:.6f}, 5*U_4({x}) = {5 * u[4]:.6f}")

# roots interlace the extrema; both are plain cosines of rational angles
print(f"\nroots of T_4:   {np.round(roots(4), 6)}")
print(f"extrema of T_4: {np.round(extrema(4), 6)}")

# Gauss-Chebyshev quadrature turns the weighted orthogonality integrals into
# finite sums that are exact for polynomial integrands
x1, w1 = gauss_chebyshev(16, PolyKind.FIRST)
print(f"\nfirst-kind rule: {len(x1)} nodes, uniform weight {w1[0]:.6f}")
print("inner products <T_m, T_n> (should be pi, pi/2 on the diagonal, 0 off):")
for m in range(4):
    row = [orthogonality_integral(m, n, PolyKind.FIRST) for n in range(4)]
    print("  " + "  ".join(f"{v:+.6f}" for v in row))

# optional picture of the first few polynomials
try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
else:
    grid = np.linspace(-1, 1, 400)
    curves = np.stack([eval_basis(g, 5, PolyKind.FIRST) for g in grid])
    for k in range(6):
        plt.plot(grid, curves[:, k], label=f"T_{k}")
    plt.legend()
    plt.title("Chebyshev polynomials of the first kind")
    plt.savefig("chebyshev_basis.png", dpi=120)
    print("\nwrote chebyshev_basis.png")
