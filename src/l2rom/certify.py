"""Residual certificates for interpolatory optimality conditions.

Each family of L2-optimal approximation problems comes with necessary
bitangential Hermite interpolation conditions.  The functions here evaluate
those conditions as relative residuals and collect them in a Certificate:

- H2_CT / H2_DT: tangential interpolation of the transfer function at the
  mirror images of the reduced poles (half-plane / unit-circle geometry).
- H2xL2: two-variable conditions at mirrored pole pairs, including the
  weighted derivative-sum conditions.
- DISCRETE_LS: Hermite interpolation between the modified transfer
  functions G and Ghat built from the sampling data.
- STATIONARY: Hermite interpolation of modified outputs Y and Yhat at the
  reduced poles themselves (not mirrored).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import _points

__all__ = [
    "Certificate",
    "CertificateRow",
    "Interval",
    "h2_ct_residuals",
    "h2_dt_residuals",
    "h2l2_residuals",
    "modified_ls_tf_eval",
    "ls_residuals",
    "f_sigma_eval",
    "modified_output_eval",
    "stationary_residuals",
]

FAMILIES = ("H2_CT", "H2_DT", "H2xL2", "DISCRETE_LS", "STATIONARY")
NORM_FLOOR = 1e-300
# stationary poles must sit strictly outside [a, b] by this margin
STATIONARY_POLE_MARGIN = 1e-10


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("interval requires a < b")


@dataclass(frozen=True)
class CertificateRow:
    """Residuals of one interpolation condition instance."""

    label: str
    residuals: tuple  # of (condition name, relative residual)

    def max_residual(self):
        return max(v for _, v in self.residuals)


@dataclass(frozen=True)
class Certificate:
    family: str
    rows: tuple
    tolerance: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown certificate family {self.family!r}")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")

    @property
    def max_residual(self):
        return max(row.max_residual() for row in self.rows)

    @property
    def passed(self):
        return bool(self.max_residual <= self.tolerance)


def _rel(diff, ref):
    return float(np.linalg.norm(diff) / max(np.linalg.norm(ref), NORM_FLOOR))


def _hermite_rows(left, right, h, h_hat, hd, hd_hat):
    """Right, left and bitangential Hermite residuals, one row per pole k.

    ``left[k]``, ``right[k]`` are c_k, b_k; ``h``, ``hd`` (reference side) and
    ``h_hat``, ``hd_hat`` (reduced side) are the values and first derivatives
    at the k-th interpolation point, each (r, n_o, n_i).
    """
    rows = []
    for k in range(len(left)):
        b, c = right[k], left[k].conj()
        diff = h[k] - h_hat[k]
        rows.append(
            CertificateRow(
                label=f"k={k}",
                residuals=(
                    ("right", _rel(diff @ b, h[k] @ b)),
                    ("left", _rel(c @ diff, c @ h[k])),
                    ("hermite", _rel(c @ (hd[k] - hd_hat[k]) @ b, c @ hd[k] @ b)),
                ),
            )
        )
    return tuple(rows)


def h2_ct_residuals(fom, rom_pr, tolerance=1e-6):
    """Interpolation residuals at -conj(lambda_k) for continuous-time H2.

    Per pole: right tangential H(sigma) b_k, left tangential c_k^* H(sigma),
    and bitangential Hermite c_k^* H'(sigma) b_k, each relative to the
    full-order-side magnitude.  ``fom`` is any object with the full-order
    protocol of ``l2rom.models``: ``evaluate(points)`` and
    ``partial(points)``, each (N, n_o, n_i) at N points; ``rom_pr`` is a
    ``PoleResidue`` and is evaluated through the same two methods.
    """
    if np.any(rom_pr.poles.real >= 0):
        raise ValueError("continuous-time certificate requires poles in the open left half-plane")
    sig = -np.conj(rom_pr.poles)
    h, h_hat = fom.evaluate(sig), rom_pr.evaluate(sig)
    hd, hd_hat = fom.partial(sig), rom_pr.partial(sig)
    rows = _hermite_rows(rom_pr.left_factors, rom_pr.right_factors, h, h_hat, hd, hd_hat)
    return Certificate(family="H2_CT", rows=rows, tolerance=tolerance)


def h2_dt_residuals(fom, rom_pr, tolerance=1e-4):
    """Interpolation residuals at 1/conj(lambda_k) for discrete-time h2.

    ``fom`` and ``rom_pr`` are evaluated through ``evaluate``/``partial``, as
    for h2_ct_residuals.
    """
    if np.any(np.abs(rom_pr.poles) >= 1):
        raise ValueError("discrete-time certificate requires poles inside the open unit disk")
    sig = 1.0 / np.conj(rom_pr.poles)
    h, h_hat = fom.evaluate(sig), rom_pr.evaluate(sig)
    hd, hd_hat = fom.partial(sig), rom_pr.partial(sig)
    rows = _hermite_rows(rom_pr.left_factors, rom_pr.right_factors, h, h_hat, hd, hd_hat)
    return Certificate(family="H2_DT", rows=rows, tolerance=tolerance)


def h2l2_residuals(fom, rom2d, tolerance=1e-4):
    """Two-variable interpolation residuals at (-conj lambda_k, 1/conj pi_l).

    Per pole pair: right and left tangential conditions; per s-pole the
    pi-weighted sum of c_kj^* dH/ds b_kj over j; per xi-pole the sum of
    c_il^* dH/dxi b_il over i.  ``fom`` is any object with ``evaluate`` and
    ``partial(points, wrt)`` at (N, 2) points (s, xi), as for h2_ct_residuals;
    the ``PoleResidue2D`` ``rom2d`` is evaluated through the same methods.
    """
    lam = rom2d.s_poles
    pi = rom2d.xi_poles
    if np.any(lam.real >= 0):
        raise ValueError("s-poles must lie in the open left half-plane")
    if np.any(np.abs(pi) <= 1):
        raise ValueError("xi-poles must lie outside the closed unit disk")
    sig = -np.conj(lam)
    eta = 1.0 / np.conj(pi)

    r_s, r_xi = len(lam), len(pi)
    pts = np.stack([np.repeat(sig, r_xi), np.tile(eta, r_s)], axis=1)  # pair (k, l) is row k * r_xi + l

    def grid(vals):
        return vals.reshape(r_s, r_xi, *vals.shape[1:])

    h, h_hat = grid(fom.evaluate(pts)), grid(rom2d.evaluate(pts))
    hs, hs_hat = grid(fom.partial(pts, wrt=0)), grid(rom2d.partial(pts, wrt=0))
    hxi, hxi_hat = grid(fom.partial(pts, wrt=1)), grid(rom2d.partial(pts, wrt=1))
    b = rom2d.right_factors
    c = rom2d.left_factors.conj()

    def bitangential(vals):  # c_kl^* vals[k, l] b_kl, shape (r_s, r_xi)
        return np.einsum("klo,kloi,kli->kl", c, vals, b)

    rows = []
    for k in range(r_s):
        for l in range(r_xi):
            diff = h[k, l] - h_hat[k, l]
            rows.append(
                CertificateRow(
                    label=f"k={k},l={l}",
                    residuals=(
                        ("right", _rel(diff @ b[k, l], h[k, l] @ b[k, l])),
                        ("left", _rel(c[k, l] @ diff, c[k, l] @ h[k, l])),
                    ),
                )
            )
    lhs, rhs = bitangential(hs) @ eta, bitangential(hs_hat) @ eta
    for k in range(r_s):
        rows.append(
            CertificateRow(label=f"s-sum k={k}", residuals=(("hermite-s", _rel(lhs[k] - rhs[k], lhs[k])),))
        )
    lhs, rhs = bitangential(hxi).sum(axis=0), bitangential(hxi_hat).sum(axis=0)
    for l in range(r_xi):
        rows.append(
            CertificateRow(label=f"xi-sum l={l}", residuals=(("hermite-xi", _rel(lhs[l] - rhs[l], lhs[l])),))
        )
    return Certificate(family="H2xL2", rows=tuple(rows), tolerance=tolerance)


def _ls_sum(data, vals, points, order):
    """sum_i rho_i vals_i / (s - iw_i) over the data nodes iw_i, or its derivative in s.

    Evaluated at each of the M points s; returns (M, n_o, n_i).
    """
    nodes = data.points[:, 0]
    diffs = points[:, None] - nodes  # (M, N)
    scale = max(np.max(np.abs(nodes)), 1.0)
    near = np.min(np.abs(diffs), axis=1) < 1e-12 * scale
    if np.any(near):
        raise ValueError(f"evaluation point {points[np.argmax(near)]} coincides with a data node")
    coeff = data.weights / diffs if order == 0 else -data.weights / diffs**2
    return np.einsum("mn,noi->moi", coeff, vals)


def modified_ls_tf_eval(data, rom_pr, points, order=0):
    """Evaluate G (rom_pr None) or Ghat at M points s, shape (M, n_o, n_i).

    G(s) = sum_i rho_i H_i / (s - iw_i); Ghat replaces H_i by the rom
    transfer function evaluated at the data nodes, once per call.  Order 1
    gives the termwise derivative.
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    vals = data.values if rom_pr is None else rom_pr.evaluate(data.points)
    return _ls_sum(data, vals, _points(points, 1)[:, 0], order)


def ls_residuals(data, rom_pr, tolerance=1e-6):
    """Hermite interpolation residuals of Ghat against G at -conj(lambda_k).

    The reduced model is evaluated at the data nodes once, and G, Ghat and
    their derivatives are summed at all r mirrored poles in one call each.
    """
    sig = -np.conj(rom_pr.poles)
    rom_at_nodes = rom_pr.evaluate(data.points)
    g, gd = (_ls_sum(data, data.values, sig, order) for order in (0, 1))
    g_hat, gd_hat = (_ls_sum(data, rom_at_nodes, sig, order) for order in (0, 1))
    rows = _hermite_rows(rom_pr.left_factors, rom_pr.right_factors, g, g_hat, gd, gd_hat)
    return Certificate(family="DISCRETE_LS", rows=rows, tolerance=tolerance)


def f_sigma_eval(a, b, sigma, p, order=0):
    """The interval kernel function f_sigma(p) and its derivative.

    f_sigma(p) = (ln|(p-b)/(p-a)| - ln|(sigma-b)/(sigma-a)|) / (p - sigma)
    with the removable singularity filled in at p = sigma; continuously
    differentiable on R minus {a, b}.
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    a, b, sigma, p = float(a), float(b), float(sigma), float(p)
    if not a < b:
        raise ValueError("interval requires a < b")
    guard = 1e-14 * (b - a)
    for name, val in (("sigma", sigma), ("p", p)):
        if min(abs(val - a), abs(val - b)) <= guard:
            raise ValueError(f"{name} must differ from the interval endpoints")

    log_p = np.log(abs((p - b) / (p - a)))
    log_s = np.log(abs((sigma - b) / (sigma - a)))
    near = abs(p - sigma) <= 1e-12 * (1.0 + abs(sigma))
    if order == 0:
        if near:
            return (b - a) / ((sigma - a) * (sigma - b))
        return (log_p - log_s) / (p - sigma)
    if near:
        return (b - a) * (a + b - 2 * sigma) / (2 * (sigma - a) ** 2 * (sigma - b) ** 2)
    return ((b - a) * (p - sigma) / ((p - a) * (p - b)) - log_p + log_s) / (p - sigma) ** 2


def _f_sigma_many(a, b, sigma, p, order):
    """f_sigma(p) or its derivative for an array of sigma at one point p.

    The formulas of f_sigma_eval, elementwise, including the removable
    singularity where p is within 1e-12 (1 + |sigma|) of sigma; the callers
    keep sigma and p off the interval endpoints.
    """
    near = np.abs(p - sigma) <= 1e-12 * (1.0 + np.abs(sigma))
    dp = np.where(near, 1.0, p - sigma)  # placeholder where the limit is used
    log_p = np.log(abs((p - b) / (p - a)))
    log_s = np.log(np.abs((sigma - b) / (sigma - a)))
    if order == 0:
        return np.where(near, (b - a) / ((sigma - a) * (sigma - b)), (log_p - log_s) / dp)
    return np.where(
        near,
        (b - a) * (a + b - 2 * sigma) / (2 * (sigma - a) ** 2 * (sigma - b) ** 2),
        ((b - a) * dp / ((p - a) * (p - b)) - log_p + log_s) / dp**2,
    )


def _stationary_terms(pr, interval, what, with_constant):
    """Real poles, residues and constant term (or None) of a stationary form.

    Raises ValueError when poles or residues are not real or a pole lies in
    [a, b] (widened by STATIONARY_POLE_MARGIN).
    """
    poles = pr.poles
    scale = max(np.max(np.abs(poles)), 1.0)
    if np.max(np.abs(poles.imag)) > 1e-8 * scale:
        raise ValueError(f"{what} poles must be real for the stationary certificate")
    residues = np.einsum("ko,ki->koi", pr.left_factors, np.conj(pr.right_factors))
    res_scale = max(np.max(np.abs(residues)), NORM_FLOOR)
    if np.max(np.abs(residues.imag)) > 1e-8 * res_scale:
        raise ValueError(f"{what} residues must be real for the stationary certificate")
    poles = poles.real
    margin = STATIONARY_POLE_MARGIN * (interval.b - interval.a)
    if np.any((poles > interval.a - margin) & (poles < interval.b + margin)):
        raise ValueError("stationary poles must lie strictly outside the interval [a, b]")
    phi0 = np.real(pr.constant_term()) if with_constant and pr.constant is not None else None
    return poles, residues.real, phi0


def _modified_output(terms, interval, p, order):
    """sum_i f_{nu_i}(p) Phi_i (or its derivative) plus the log-weighted constant."""
    poles, residues, phi0 = terms
    a, b = interval.a, interval.b
    out = np.einsum("k,koi->oi", _f_sigma_many(a, b, poles, p, order), residues)
    if phi0 is not None:
        if order == 0:
            out = out + np.log(abs((p - b) / (p - a))) * phi0
        else:
            out = out + (b - a) / ((p - a) * (p - b)) * phi0
    return out


def modified_output_eval(fom_pr, rom_pr, interval, p, order=0, which="Y"):
    """Modified stationary outputs Y(p) or Yhat(p) (and first derivatives).

    Y(p) = ln|(p-b)/(p-a)| Phi0 + sum_i f_{nu_i}(p) Phi_i over the fom
    poles/residues; Yhat(p) = sum_j f_{lambda_j}(p) c_j b_j^T over the rom.
    """
    if which not in ("Y", "Yhat"):
        raise ValueError("which must be 'Y' or 'Yhat'")
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    p = float(p)
    if min(abs(p - interval.a), abs(p - interval.b)) <= 1e-14 * (interval.b - interval.a):
        raise ValueError("p must differ from the interval endpoints")
    if which == "Y":
        terms = _stationary_terms(fom_pr, interval, "full-order", with_constant=True)
    else:
        terms = _stationary_terms(rom_pr, interval, "reduced", with_constant=False)
    return _modified_output(terms, interval, p, order)


def stationary_residuals(fom_pr, rom_pr, interval, tolerance=1e-6):
    """Hermite residuals of Yhat against Y at the reduced poles lambda_k.

    Interpolation for the stationary family happens at the poles themselves,
    not their mirror images.
    """
    rom_terms = _stationary_terms(rom_pr, interval, "reduced", with_constant=False)
    fom_terms = _stationary_terms(fom_pr, interval, "full-order", with_constant=True)
    lam = rom_terms[0]

    def at_poles(terms, order):
        return np.stack([_modified_output(terms, interval, p, order) for p in lam])

    y, y_hat = at_poles(fom_terms, 0), at_poles(rom_terms, 0)
    yd, yd_hat = at_poles(fom_terms, 1), at_poles(rom_terms, 1)
    rows = _hermite_rows(np.real(rom_pr.left_factors), np.real(rom_pr.right_factors), y, y_hat, yd, yd_hat)
    return Certificate(family="STATIONARY", rows=rows, tolerance=tolerance)
