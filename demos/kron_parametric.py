"""Joint frequency/parameter reduction with a Kronecker-structured operator.

The target is a synthetic two-variable rational map with 6 x 5 pole pairs;
the reduced operator is (sE - A) kron (xi E_xi - A_xi) with (2, 2) factors.
Random restarts on a coarse product quadrature find the basin, a fine-grid
refinement polishes the winner, and the two-variable interpolation
conditions (including the weighted derivative sums) certify the result.

Run:  python3 demos/kron_parametric.py     (takes about 15 seconds)
"""

import numpy as np

from l2rom import FitOptions, fit, h2l2_residuals, kron_rom, pole_residue
from l2rom.models import make_kron_parametric, sample_h2l2


def random_init(seed, rs=2, rx=2, n_i=2, n_o=2):
    g = np.random.default_rng(seed)
    a = g.standard_normal((rs, rs))
    a = -(a @ a.T) / 2 - 0.5 * np.eye(rs)
    ax = g.standard_normal((rx, rx))
    ax = ax @ ax.T / 2 + 1.5 * np.eye(rx)
    return kron_rom(np.eye(rs), a, np.eye(rx), ax,
                    g.standard_normal((rs * rx, n_i)), g.standard_normal((n_o, rs * rx)))


fom = make_kron_parametric(6, 5, 2, 2, seed=3)
coarse = sample_h2l2(fom, n_s=48, n_xi=32)

best = None
for restart in range(5):
    trace = fit(random_init(restart), coarse, FitOptions(max_iters=300))
    print(f"restart {restart}: objective {trace.objectives[-1]:.6e}")
    if best is None or trace.objectives[-1] < best.objectives[-1]:
        best = trace

fine = sample_h2l2(fom, n_s=192, n_xi=96)
best = fit(best.rom, fine, FitOptions(max_iters=400))
print(f"refined objective {best.objectives[-1]:.6e}")

pr = pole_residue(best.rom)
print(f"frequency poles: {np.sort_complex(pr.s_poles)}")
print(f"parameter poles: {np.sort_complex(pr.xi_poles)}")

cert = h2l2_residuals(fom, pr, tolerance=1e-4)
print(f"joint-domain certificate: max residual {cert.max_residual:.3e} "
      f"-> {'PASS' if cert.passed else 'FAIL'}")
