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
    """Residuals of one interpolation condition instance; a NaN among them fails the certificate."""

    label: str
    residuals: tuple  # of (condition name, relative residual)

    def max_residual(self):
        return float(np.max([v for _, v in self.residuals]))


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
        return float(np.max([row.max_residual() for row in self.rows]))

    @property
    def passed(self):
        return bool(self.max_residual <= self.tolerance)


def _norms(x):
    """The norm of each x[m], its square summed as np.linalg.norm sums one array: real parts, then imaginary."""
    x = np.reshape(x, (len(x), 1, -1))
    return np.sqrt(sum(part @ np.swapaxes(part, 1, 2) for part in (x.real, x.imag)))[:, 0, 0]


def _rel(diff, ref):
    """One relative residual |diff[m]| / |ref[m]| per interpolation point m."""
    return _norms(diff) / np.maximum(_norms(ref), NORM_FLOOR)


def _rows(labels, **columns):
    """One CertificateRow per label; each keyword is a condition name and its residuals, one per label."""
    table = zip(*([(name, float(v)) for v in col] for name, col in columns.items()))
    return tuple(CertificateRow(label, residuals) for label, residuals in zip(labels, table))


def _tangential(left, right, h, h_hat):
    """The "right" and "left" columns at M points: (h - h_hat) b_m against h b_m, c_m^* (h - h_hat) against c_m^* h.

    ``left``, ``right`` hold c_m, b_m, (M, n_o) and (M, n_i); ``h`` (reference side), ``h_hat`` are (M, n_o, n_i).
    """
    b, c = right[:, :, None], left.conj()[:, None]
    diff = h - h_hat
    return {"right": _rel(diff @ b, h @ b), "left": _rel(c @ diff, c @ h)}


def _hermite_rows(left, right, h, h_hat, hd, hd_hat):
    """Rows k=0, 1, ...: the ``_tangential`` columns and "hermite", c_k^* (hd - hd_hat) b_k against c_k^* hd b_k."""
    b, c = right[:, :, None], left.conj()[:, None]
    hermite = _rel(c @ (hd - hd_hat) @ b, c @ hd @ b)
    return _rows([f"k={k}" for k in range(len(left))], **_tangential(left, right, h, h_hat), hermite=hermite)


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
    (h, hd), (h_hat, hd_hat) = ((model.evaluate(sig), model.partial(sig)) for model in (fom, rom_pr))
    rows = _hermite_rows(rom_pr.left_factors, rom_pr.right_factors, h, h_hat, hd, hd_hat)
    return Certificate(family=family, rows=rows, tolerance=default_tolerance if tolerance is None else tolerance)


def h2l2_residuals(fom, rom2d, tolerance=1e-4):
    """Two-variable interpolation residuals at (-conj lambda_k, 1/conj pi_l).

    Per pole pair (k, l): right and left tangential conditions; per s-pole the
    pi-weighted sum of c_kj^* dH/ds b_kj over j; per xi-pole the sum of
    c_il^* dH/dxi b_il over i.  ``fom`` is any object with ``evaluate`` and
    ``partial(points, wrt)`` at (N, 2) points (s, xi), as for h2_residuals;
    the ``PoleResidue2D`` ``rom2d`` is evaluated through the same methods.
    """
    lam, pi = rom2d.s_poles, rom2d.xi_poles
    if not np.all(stable(lam, "ct")):
        raise ValueError("s-poles must lie in the open left half-plane")
    eta = mirror(pi, "dt")
    if not np.all(stable(eta, "dt")):
        raise ValueError("xi-poles must lie outside the closed unit disk")
    r_s, r_xi = len(lam), len(pi)
    pts = np.stack([np.repeat(mirror(lam, "ct"), r_xi), np.tile(eta, r_s)], axis=1)  # pair (k, l) is row k * r_xi + l
    c, b = (factors.reshape(r_s * r_xi, -1) for factors in (rom2d.left_factors, rom2d.right_factors))

    def bitangential(model, wrt):  # c_kl^* dH/dp_wrt b_kl, shape (r_s, r_xi)
        return np.einsum("mo,moi,mi->m", c.conj(), model.partial(pts, wrt=wrt), b).reshape(r_s, r_xi)

    s_sum, s_sum_hat = (bitangential(model, 0) @ eta for model in (fom, rom2d))
    xi_sum, xi_sum_hat = (bitangential(model, 1).sum(axis=0) for model in (fom, rom2d))
    h, h_hat = fom.evaluate(pts), rom2d.evaluate(pts)
    rows = (
        _rows([f"k={k},l={l}" for k in range(r_s) for l in range(r_xi)], **_tangential(c, b, h, h_hat))
        + _rows([f"s-sum k={k}" for k in range(r_s)], **{"hermite-s": _rel(s_sum - s_sum_hat, s_sum)})
        + _rows([f"xi-sum l={l}" for l in range(r_xi)], **{"hermite-xi": _rel(xi_sum - xi_sum_hat, xi_sum)})
    )
    return Certificate(family="H2xL2", rows=rows, tolerance=tolerance)


def _cauchy_sums(nodes, weights, vals, points):
    """T and T' at each of M points z: sum w V / (conj p - z)^(1 + order) over the conjugate-doubled measure.

    Node p (weight w, value V) and its mirror conj p (value conj V) carry
    w / 2 each.  A real model's misfit is the same at both, so this holds
    for any sample set; a closed set keeps its own sums.  Returns the sums
    of order 0 and 1, each (M, n_o, n_i).
    """
    nodes = np.concatenate([np.conj(nodes), nodes])
    diffs = nodes - points[:, None]  # (M, 2N)
    _guard_pole_distance(diffs, nodes, points, "a data node")
    weights = 0.5 * np.concatenate([weights, weights])
    vals = np.concatenate([vals, np.conj(vals)])
    return tuple(np.einsum("mn,noi->moi", weights / diffs ** (1 + order), vals) for order in (0, 1))


def modified_ls_tf_eval(data, rom_pr, points, order=0):
    """Evaluate T (rom_pr None) or That at M points z, shape (M, n_o, n_i).

    T(z) = sum_i rho_i H_i / (conj s_i - z) over the conjugate-doubled
    samples (``_cauchy_sums``); That replaces H_i by the rom transfer function
    at the data nodes, evaluated once per call; order 1 gives the derivative.
    On a closed imaginary-axis set T(z) = G(-z), G(s) = sum_i rho_i H_i / (s - s_i).
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    vals = data.values if rom_pr is None else rom_pr.evaluate(data.points)
    return _cauchy_sums(data.points[:, 0], data.weights, vals, _points(points, 1)[:, 0])[order]


def ls_residuals(data, rom_pr, tolerance=1e-6):
    """Hermite interpolation residuals of That against T at conj(lambda_k).

    The reduced model is evaluated at the data nodes once, and T, T' and
    That, That' are summed at all r conjugate poles in one call per side.
    """
    z = np.conj(rom_pr.poles)
    (t, td), (t_hat, td_hat) = (
        _cauchy_sums(data.points[:, 0], data.weights, vals, z) for vals in (data.values, rom_pr.evaluate(data.points))
    )
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


def _is_real(values):
    """True when max |Im z| <= 1e-8 max(max |z|, 1) over the values: real up to rounding."""
    return bool(np.max(np.abs(np.imag(values))) <= 1e-8 * max(np.max(np.abs(values)), 1.0))


def _real_outside(values, interval, what):
    """The values as a real array; ValueError unless real and outside [a, b] widened by the margin."""
    if not _is_real(values):
        raise ValueError(f"{what} must be real for the stationary certificate")
    values = np.real(values)
    margin = STATIONARY_POLE_MARGIN * (interval.b - interval.a)
    if np.any((values > interval.a - margin) & (values < interval.b + margin)):
        raise ValueError(f"{what} must lie strictly outside the interval [a, b]")
    return values


def _modified_outputs(models, interval, points):
    """Y and Y' of each model at the M real points, shape (len(models), 2, M, n_o, n_i).

    Y(s) = int_a^b H(t) / (t - s) dt and Y'(s) = int_a^b H(t) / (t - s)^2 dt
    are T and T' (``_cauchy_sums``) of the rules of STATIONARY_RULE_NODES in
    turn (conj t = t on real nodes), with H from ``model.evaluate``; each
    rule is built once and shared by the models.  The sums of the first rule
    that agrees with its predecessor to STATIONARY_RULE_RTOL at every point
    are returned; ValueError if none does.
    """
    previous = None
    for n in STATIONARY_RULE_NODES:
        nodes, weights = _interval_rule(interval, n)
        sums = np.array([_cauchy_sums(nodes, weights, model.evaluate(nodes), points) for model in models])
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

    Y(s) = int_a^b H(t) / (t - s) dt for the H of any model with ``evaluate``
    (full-order, or a ``PoleResidue`` form of either side).  The points must
    lie outside [a, b]; returns (M, n_o, n_i).
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
