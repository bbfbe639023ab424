"""Residual certificates for interpolatory optimality conditions.

Each family of L2-optimal approximation problems comes with necessary
bitangential Hermite interpolation conditions.  The functions here evaluate
those conditions as relative residuals and collect them in a Certificate:

- H2_CT / H2_DT: tangential interpolation of the transfer function at the
  mirror images of the reduced poles (half-plane / unit-circle geometry);
  the full-order model's time domain picks the family.
- H2xL2: two-variable conditions at mirrored pole pairs, including the
  weighted derivative-sum conditions.
- DISCRETE_LS and STATIONARY: Hermite interpolation of the L2 projection
  T(z) = int H(p) / (conj p - z) dmu(p) by its reduced counterpart That at
  z = conj(lambda_k), for the point measure mu of the samples or of a Gauss
  rule of [a, b].  One Cauchy sum serves both: it runs over the measure and
  its conjugate mirror, so a real model's conditions hold on any sample set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import _guard_pole_distance, _points, mirror, stable

__all__ = [
    "Certificate",
    "CertificateRow",
    "Interval",
    "h2_residuals",
    "h2l2_residuals",
    "modified_ls_tf_eval",
    "ls_residuals",
    "modified_output_eval",
    "stationary_residuals",
]

FAMILIES = ("H2_CT", "H2_DT", "H2xL2", "DISCRETE_LS", "STATIONARY")
NORM_FLOOR = 1e-300
# stationary poles must sit strictly outside [a, b] by this margin
STATIONARY_POLE_MARGIN = 1e-10
# interval quadrature rules tried in turn for the stationary modified outputs,
# and the relative agreement of two successive rules that accepts the later one
STATIONARY_RULE_NODES = (16, 32, 64, 128, 256, 512)
STATIONARY_RULE_RTOL = 1e-12
# per time domain: the H2 certificate's family, default tolerance and stability region
H2_FAMILIES = {
    "ct": ("H2_CT", 1e-6, "in the open left half-plane"),
    "dt": ("H2_DT", 1e-4, "inside the open unit disk"),
}


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"interval requires finite a < b, got [{self.a}, {self.b}]")


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
        if not 0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be positive and finite")

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


def h2_residuals(fom, rom_pr, tolerance=None):
    """Interpolation residuals at the mirror images sigma_k of the reduced poles, for H2.

    ``fom.time_domain`` ("ct" or "dt") picks the family and its default
    tolerance (H2_FAMILIES), the stability region that the poles must lie
    in and the mirror map (``spectral.stable``, ``spectral.mirror``).  Per
    pole: right tangential H(sigma) b_k, left tangential c_k^* H(sigma) and
    bitangential Hermite c_k^* H'(sigma) b_k, each relative to the
    full-order-side magnitude.  Both ``fom`` and the ``PoleResidue``
    ``rom_pr`` are evaluated through ``evaluate`` and ``partial``.
    """
    time_domain = getattr(fom, "time_domain", None)
    if time_domain not in H2_FAMILIES:
        raise ValueError("the H2 certificate requires a model with a time domain, 'ct' or 'dt'")
    family, default_tolerance, region = H2_FAMILIES[time_domain]
    if not np.all(stable(rom_pr.poles, time_domain)):
        raise ValueError(f"the {family} certificate requires poles {region}")
    sig = mirror(rom_pr.poles, time_domain)
    h, h_hat = fom.evaluate(sig), rom_pr.evaluate(sig)
    hd, hd_hat = fom.partial(sig), rom_pr.partial(sig)
    rows = _hermite_rows(rom_pr.left_factors, rom_pr.right_factors, h, h_hat, hd, hd_hat)
    return Certificate(family=family, rows=rows, tolerance=default_tolerance if tolerance is None else tolerance)


def h2l2_residuals(fom, rom2d, tolerance=1e-4):
    """Two-variable interpolation residuals at (-conj lambda_k, 1/conj pi_l).

    Per pole pair: right and left tangential conditions; per s-pole the
    pi-weighted sum of c_kj^* dH/ds b_kj over j; per xi-pole the sum of
    c_il^* dH/dxi b_il over i.  ``fom`` is any object with ``evaluate`` and
    ``partial(points, wrt)`` at (N, 2) points (s, xi), as for h2_residuals;
    the ``PoleResidue2D`` ``rom2d`` is evaluated through the same methods.
    """
    lam = rom2d.s_poles
    pi = rom2d.xi_poles
    if not np.all(stable(lam, "ct")):
        raise ValueError("s-poles must lie in the open left half-plane")
    eta = mirror(pi, "dt")
    if not np.all(stable(eta, "dt")):
        raise ValueError("xi-poles must lie outside the closed unit disk")
    sig = mirror(lam, "ct")

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


def _cauchy_sum(nodes, weights, vals, points, order):
    """sum w V / (conj p - z)^(1 + order) over the conjugate-doubled measure, at each of M points z.

    Node p (weight w, value V) and its mirror conj p (value conj V) carry
    w / 2 each.  A real model's misfit is the same at both, so this holds
    for any sample set; a closed set keeps its own sums.  Returns (M, n_o, n_i).
    """
    nodes = np.concatenate([np.conj(nodes), nodes])
    diffs = nodes - points[:, None]  # (M, 2N)
    _guard_pole_distance(diffs, nodes, points, "a data node")
    coeff = 0.5 * np.concatenate([weights, weights]) / diffs ** (1 + order)
    return np.einsum("mn,noi->moi", coeff, np.concatenate([vals, np.conj(vals)]))


def modified_ls_tf_eval(data, rom_pr, points, order=0):
    """Evaluate T (rom_pr None) or That at M points z, shape (M, n_o, n_i).

    T(z) = sum_i rho_i H_i / (conj s_i - z) over the conjugate-doubled
    samples (``_cauchy_sum``); That replaces H_i by the rom transfer function
    at the data nodes, evaluated once per call; order 1 gives the derivative.
    On a closed imaginary-axis set T(z) = G(-z), G(s) = sum_i rho_i H_i / (s - s_i).
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    vals = data.values if rom_pr is None else rom_pr.evaluate(data.points)
    return _cauchy_sum(data.points[:, 0], data.weights, vals, _points(points, 1)[:, 0], order)


def ls_residuals(data, rom_pr, tolerance=1e-6):
    """Hermite interpolation residuals of That against T at conj(lambda_k).

    The reduced model is evaluated at the data nodes once, and T, That and
    their derivatives are summed at all r conjugate poles in one call each.
    """
    z = np.conj(rom_pr.poles)
    nodes = data.points[:, 0]
    rom_at_nodes = rom_pr.evaluate(data.points)
    t, td = (_cauchy_sum(nodes, data.weights, data.values, z, order) for order in (0, 1))
    t_hat, td_hat = (_cauchy_sum(nodes, data.weights, rom_at_nodes, z, order) for order in (0, 1))
    rows = _hermite_rows(rom_pr.left_factors, rom_pr.right_factors, t, t_hat, td, td_hat)
    return Certificate(family="DISCRETE_LS", rows=rows, tolerance=tolerance)


def _interval_rule(interval, n):
    """n-node Gauss-Legendre nodes and weights for the Lebesgue measure on [a, b].

    When 0 < a the rule is Gauss-Legendre in u = ln t (weights dt = t du): poles on the negative
    axis then lie at Im u = pi, far from [ln a, ln b], and the rule converges geometrically.
    ``models.sample_stationary`` and ``models.sample_h2l2`` sample this rule too.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    a, b = interval.a, interval.b
    if a <= 0:
        return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w
    lo, hi = np.log(a), np.log(b)
    t = np.exp(0.5 * (hi - lo) * x + 0.5 * (lo + hi))
    return t, 0.5 * (hi - lo) * w * t


def _real_outside(values, interval, what):
    """The values as a real array; ValueError unless real and outside [a, b] widened by the margin."""
    values = np.asarray(values)
    if np.max(np.abs(np.imag(values))) > 1e-8 * max(np.max(np.abs(values)), 1.0):
        raise ValueError(f"{what} must be real for the stationary certificate")
    values = np.real(values)
    margin = STATIONARY_POLE_MARGIN * (interval.b - interval.a)
    if np.any((values > interval.a - margin) & (values < interval.b + margin)):
        raise ValueError(f"{what} must lie strictly outside the interval [a, b]")
    return values


def _modified_outputs(models, interval, points):
    """Y and Y' of each model at the M real points, shape (len(models), 2, M, n_o, n_i).

    Y(s) = int_a^b H(t) / (t - s) dt and Y'(s) = int_a^b H(t) / (t - s)^2 dt
    are T and T' (``_cauchy_sum``) of the rules of STATIONARY_RULE_NODES in
    turn (conj t = t on real nodes), with H from ``model.evaluate``; each
    rule is built once and shared by the models.  The sums of the first rule
    that agrees with its predecessor to STATIONARY_RULE_RTOL at every point
    are returned; ValueError if none does.
    """
    previous = None
    for n in STATIONARY_RULE_NODES:
        nodes, weights = _interval_rule(interval, n)
        sums = np.array([
            [_cauchy_sum(nodes, weights, vals, points, order) for order in (0, 1)]
            for vals in (model.evaluate(nodes) for model in models)
        ])
        if previous is not None:
            change = np.linalg.norm(sums - previous, axis=(-2, -1))
            if np.all(change <= STATIONARY_RULE_RTOL * np.linalg.norm(sums, axis=(-2, -1))):
                return sums
        previous = sums
    raise ValueError(
        f"the interval quadrature did not converge within {STATIONARY_RULE_NODES[-1]} nodes "
        "(an evaluation point or pole lies too close to [a, b])"
    )


def modified_output_eval(model, interval, points, order=0):
    """Modified stationary output Y (order 0) or Y' (order 1) at M real points.

    Y(s) = int_a^b H(t) / (t - s) dt for the model's H, evaluated through
    ``model.evaluate``: a full-order model, or a ``PoleResidue`` form of the
    full-order or the reduced model.  The points must lie outside [a, b];
    returns (M, n_o, n_i).
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    points = _real_outside(_points(points, 1)[:, 0], interval, "evaluation points")
    return _modified_outputs((model,), interval, points)[0, order]


def stationary_residuals(fom, rom_pr, interval, tolerance=1e-6):
    """Hermite residuals of Yhat against Y at the reduced poles lambda_k.

    The DISCRETE_LS condition on the measure of [a, b], at real poles, so
    conj(lambda_k) = lambda_k.  ``fom`` is anything with ``evaluate``: the
    full-order model or its pole-residue form; the ``PoleResidue``
    ``rom_pr`` must have real poles outside [a, b].  Both sides are
    integrated with the same quadrature rules (see modified_output_eval).
    """
    lam = _real_outside(rom_pr.poles, interval, "reduced poles")
    (y, yd), (y_hat, yd_hat) = _modified_outputs((fom, rom_pr), interval, lam)
    rows = _hermite_rows(np.real(rom_pr.left_factors), np.real(rom_pr.right_factors), y, y_hat, yd, yd_hat)
    return Certificate(family="STATIONARY", rows=rows, tolerance=tolerance)
