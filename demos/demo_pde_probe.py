"""Bounding the support of an unknown PDE solution.

Given g = P(d) f with f unknown, dividing the transform of g by the symbol
P(i lam) recovers Ff away from the symbol's zeros.  The grid is self-dual,
so the quotient can be re-read as a function whose own transform is f again:
running the growth machinery on it with a probe polynomial Q bounds supp f
inside the sublevel set {x : |Q(-ix)| <= M}.  Here P = d^2 + 1 (symbol
1 - lam^2, zeros at lam = +-1 falling harmlessly between lattice cells),
f is a bump on [-1, 1], and the probe recovers its support to one cell.
"""

import numpy as np

from realpw import (make_grid, sample_builtin, SampledFunction, parse_poly,
                    apply_op_spectral, pde_support_probe, Spectrum)

M, h = 1024, 0.005
grid = make_grid(1, M, h)
b = 200.5 * h
f = sample_builtin({"kind": "spatial_bump",
                    "support": {"shape": "box", "lo": [-b], "hi": [b]},
                    "edge_width": 1.5 * h}, grid)

P = parse_poly("x1^2 + 1", 1)
spec = Spectrum.of(f, 1e-14)
g_norm, S = apply_op_spectral(spec, P, 1)
g = SampledFunction(grid, "spatial", np.exp(S) * g_norm.values,
                    label="right-hand side g = (d^2 + 1) f")
print(f"synthesized {g.label}; true supp f = [{-b:.4f}, {b:.4f}]")

rep = pde_support_probe(g, P, Q=parse_poly("x1", 1), delta_zero=1e-3,
                        p=2, n_max=64)
lo, hi = rep.sublevel_bounds()
print(f"probe bound M = {rep.M_limit:.6f}")
print(f"recovered sublevel [{lo[0]:.4f}, {hi[0]:.4f}] "
      f"({abs(hi[0] - 1.0) / h:.1f} cells off the true edge)")
print(f"excluded symbol-floor mass: {rep.excluded_mass:.2e} "
      f"(heuristic flag: {rep.heuristic})")

# A probe whose operator vanishes inside the spectrum must be flagged:
gp, Sp = apply_op_spectral(spec, parse_poly("x1", 1), 1)
g_bad = SampledFunction(grid, "spatial", np.exp(Sp) * gp.values)
rep_bad = pde_support_probe(g_bad, parse_poly("x1", 1), parse_poly("x1", 1),
                            delta_zero=2.0, p=2, n_max=64)
print(f"\nzero-crossing counterexample: excluded mass {rep_bad.excluded_mass:.2e}, "
      f"heuristic flag {rep_bad.heuristic}")
