"""H2-optimal reduction of random stable systems, continuous and discrete.

The tangential rational Krylov fixed point alone reaches an H2-optimal
model.  It is certified through the interpolation conditions at the mirror
images of the reduced poles; the model's time domain picks the mirror map:
-conj(lambda) across the imaginary axis (H2_CT) or 1/conj(lambda) across the
unit circle (H2_DT).

Run:  python3 demos/h2_irka.py
"""

import numpy as np

from l2rom import h2_residuals, irka_init, pole_residue
from l2rom.models import make_random_stable


# continuous time, n = 30 SISO down to r = 4
fom = make_random_stable(30, seed=70)
rom = irka_init(fom, 4)
cert = h2_residuals(fom, pole_residue(rom), tolerance=1e-6)
print(f"{cert.family}, n=30 -> r=4: max residual {cert.max_residual:.3e} "
      f"-> {'PASS' if cert.passed else 'FAIL'}")

# discrete time, n = 20 with 2 inputs / 2 outputs
fom = make_random_stable(20, 2, 2, seed=73, time_domain="dt")
pr = pole_residue(irka_init(fom, 4))
cert = h2_residuals(fom, pr, tolerance=1e-4)
print(f"{cert.family}, n=20 2x2 -> r=4: max residual {cert.max_residual:.3e} "
      f"-> {'PASS' if cert.passed else 'FAIL'}")
print(f"reduced poles (moduli): {np.sort(np.abs(pr.poles))}")
