"""Fit an order-2 model to frequency samples of the order-1006 spiral benchmark.

Samples the transfer function at 50 log-spaced frequencies on the positive
imaginary axis (weight 2 each, standing for the conjugates too), starts from
a tangential-Krylov initializer and minimizes the weighted least-squares
misfit.  The optimal model is certified through the Hermite
interpolation conditions of the sampled (discrete least-squares) problem.

Run:  python3 demos/penzl_ls_fit.py
"""

import numpy as np

from l2rom import FitOptions, fit, irka_init, ls_residuals, pole_residue
from l2rom.models import make_penzl, sample_frequency_response

fom = make_penzl()
print(f"full model order: {fom.n}")

data = sample_frequency_response(fom, np.logspace(0, 4, 50))
print(f"sampled {len(data)} points on the imaginary axis")

init = irka_init(fom, 2)
trace = fit(init, data, FitOptions(max_iters=500))
print(f"fit: {trace.iterations} iterations, objective {trace.objectives[-1]:.3e}, "
      f"converged: {trace.converged} ({trace.message})")

pr = pole_residue(trace.rom)
print(f"reduced poles: {np.sort(pr.poles.real)}")

cert = ls_residuals(data, pr, tolerance=1e-6)
print(f"least-squares certificate: max residual {cert.max_residual:.3e} "
      f"-> {'PASS' if cert.passed else 'FAIL'}")
