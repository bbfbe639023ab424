"""Reduce a parametric Poisson model over its diffusion parameter.

The full model solves (A1 + p A2) x = B for the 961 interior nodes of a
32 x 32-cell finite element mesh, for p in [0.1, 10].  A greedy reduced-basis initializer seeds an order-2
structured model, the fit minimizes the Gauss-quadrature L2 misfit, and the
stationary interpolation conditions certify optimality at the reduced poles.
The certificate integrates the full model's output over [0.1, 10] with a
quadrature in ln p, through the same banded solves as the samples; it needs
no eigendecomposition of the full model.

Run:  python3 demos/poisson_stationary.py
"""

import numpy as np

from l2rom import (
    Interval,
    fit,
    greedy_rb_init,
    pole_residue,
    stationary_residuals,
)
from l2rom.models import make_poisson, sample_stationary

fom = make_poisson()
print(f"mesh unknowns: {fom.n}, parameter interval: {fom.interval}")

data = sample_stationary(fom, 60)
init = greedy_rb_init(fom, 2, np.logspace(-1, 1, 20))
trace = fit(init, data)
print(f"fit: {trace.iterations} iterations, objective {trace.objectives[-1]:.3e}")

rom_pr = pole_residue(trace.rom)
print(f"reduced poles: {np.sort(rom_pr.poles.real)}")

cert = stationary_residuals(fom, rom_pr, Interval(*fom.interval), tolerance=1e-6)
print(f"stationary certificate: max residual {cert.max_residual:.3e} "
      f"-> {'PASS' if cert.passed else 'FAIL'}")
