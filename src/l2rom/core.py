"""Data model for structured reduced-order maps and their evaluation.

A structured reduced model (STROM) is a parameter-separable system

    A(p) x(p) = B(p),    y(p) = C(p) x(p),

where each operator is a sum of scalar functions of the parameter times
constant real matrices.  The scalar functions are signed monomials in the
parameter coordinates (constants, s, xi, s*xi, p, ...), which keeps the
family closed under conjugation when coefficients are real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScalarFamily",
    "StructuredRom",
    "KronStructure",
    "SampleSet",
    "SingularOperatorError",
    "eval_family",
    "batch_states",
    "check_conjugation_closure",
    "lti_rom",
    "stationary_rom",
    "kron_rom",
]


# Relative tolerance of check_conjugation_closure on points, values and weights.
CLOSURE_TOL = 1e-12


class SingularOperatorError(ValueError):
    """A(p) is numerically singular at one of a batch of parameter points.

    ``p`` is the (N, n_p) batch that was being solved.
    """

    def __init__(self, p):
        self.p = p
        super().__init__(f"operator singular at one of {len(p)} parameter points")


@dataclass(frozen=True)
class ScalarFamily:
    """Signed-monomial scalar function of the parameter coordinates.

    ``terms`` is a tuple of (coefficient, exponent multi-index) pairs;
    the value at p is sum(coeff * prod(p_d ** e_d)).  Coefficients are
    real so the family is closed under conjugation.
    """

    terms: tuple
    n_p: int = 1

    def __post_init__(self):
        for coeff, exps in self.terms:
            if len(exps) != self.n_p:
                raise ValueError("exponent multi-index length must equal n_p")
            if any(e < 0 or int(e) != e for e in exps):
                raise ValueError("exponents must be non-negative integers")

    @staticmethod
    def constant(value, n_p=1):
        return ScalarFamily(((float(value), (0,) * n_p),), n_p)

    @staticmethod
    def coordinate(d, n_p=1, sign=1.0):
        exps = tuple(1 if i == d else 0 for i in range(n_p))
        return ScalarFamily(((float(sign), exps),), n_p)


def eval_family(family, p):
    """Evaluate a ScalarFamily at one point (shape (n_p,)) or a batch (N, n_p)."""
    p = np.asarray(p, dtype=complex)
    if p.shape[-1:] != (family.n_p,):
        raise ValueError(f"parameter points have shape {p.shape}, family expects {family.n_p} coordinates")
    out = np.zeros(p.shape[:-1], dtype=complex)
    for coeff, exps in family.terms:
        term = np.full(p.shape[:-1], complex(coeff))
        for d, e in enumerate(exps):
            if e:
                term = term * p[..., d] ** e
        out += term
    return out


@dataclass(frozen=True)
class KronStructure:
    """Factors of the Kronecker-structured operator (sE - A) kron (xi*E_xi - A_xi)."""

    E: np.ndarray
    A: np.ndarray
    E_xi: np.ndarray
    A_xi: np.ndarray

    @property
    def r_s(self):
        return self.E.shape[0]

    @property
    def r_xi(self):
        return self.E_xi.shape[0]


@dataclass(frozen=True)
class StructuredRom:
    """Parameter-separable reduced model with real coefficient matrices."""

    A_terms: tuple  # of (ScalarFamily, (r, r) array)
    B_terms: tuple  # of (ScalarFamily, (r, n_i) array)
    C_terms: tuple  # of (ScalarFamily, (n_o, r) array)
    kron: KronStructure | None = None

    def __post_init__(self):
        """Every term is real, finite and of its group's shape: A (r, r), B (r, n_i), C (n_o, r)."""
        r = self.r
        n_i, n_o = np.shape(self.B_terms[0][1])[-1], np.shape(self.C_terms[0][1])[0]
        shapes = {"A": (r, r), "B": (r, n_i), "C": (n_o, r)}
        for group, terms in (("A", self.A_terms), ("B", self.B_terms), ("C", self.C_terms)):
            for k, (fam, mat) in enumerate(terms):
                what = f"{group}-term {k}"
                if np.iscomplexobj(mat):
                    raise ValueError(f"{what}: STROM matrices must be real-valued")
                if fam.n_p != self.n_p:
                    raise ValueError(f"{what}: all scalar families must share the same arity")
                if np.shape(mat) != shapes[group]:
                    raise ValueError(f"{what} has shape {np.shape(mat)}, expected {shapes[group]}")
                if not np.all(np.isfinite(mat)):
                    raise ValueError(f"{what} must be finite")
        if self.kron is not None:
            ks = self.kron
            if ks.r_s * ks.r_xi != r:
                raise ValueError("kron structure size must match reduced order")

    @property
    def r(self):
        return self.A_terms[0][1].shape[0]

    @property
    def n_i(self):
        return self.B_terms[0][1].shape[1]

    @property
    def n_o(self):
        return self.C_terms[0][1].shape[0]

    @property
    def n_p(self):
        return self.A_terms[0][0].n_p


def _term_table(terms, pts):
    """(N, terms) table of the scalar families of ``terms`` at a batch of points."""
    return np.stack([eval_family(fam, pts) for fam, _ in terms], axis=1)


def _assemble(table, mats):
    """Sum_k table[:, k] mats[k] for a (terms, ...) stack of matrices; returns (N, ...)."""
    return (table @ mats.reshape(len(mats), -1)).reshape(len(table), *mats.shape[1:])


def batch_states(rom, pts):
    """Primal and dual states plus outputs for a batch of points.

    Returns (x, x_d, y) with shapes (N, r, n_i), (N, r, n_o), (N, n_o, n_i).
    Raises SingularOperatorError if any A(p) is singular.
    """
    pts = np.asarray(pts, dtype=complex)
    ops, rhs, cops = (
        _assemble(_term_table(terms, pts), np.stack([mat for _, mat in terms]))
        for terms in (rom.A_terms, rom.B_terms, rom.C_terms)
    )
    x = _solve_batch(ops, rhs, pts)
    x_d = _solve_batch(np.conj(np.swapaxes(ops, -1, -2)), np.conj(np.swapaxes(cops, -1, -2)), pts)
    return x, x_d, cops @ x


def _solve_batch(ops, rhs, pts):
    """np.linalg.solve of the (N, r, r) stack ``ops``; SingularOperatorError(pts) unless every solve is finite."""
    try:
        x = np.linalg.solve(ops, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularOperatorError(pts) from exc
    if not np.all(np.isfinite(x)):
        raise SingularOperatorError(pts)
    return x


@dataclass(frozen=True)
class SampleSet:
    """Weighted parameter/output samples defining a discrete measure."""

    points: np.ndarray  # (N, n_p) complex; a 1-D or 0-d array holds one-coordinate points
    values: np.ndarray  # (N, n_o, n_i) complex
    weights: np.ndarray  # (N,) positive real

    def __post_init__(self):
        points = np.asarray(self.points, dtype=complex)
        object.__setattr__(self, "points", points.reshape(-1, 1) if points.ndim < 2 else points)
        values = np.asarray(self.values, dtype=complex)
        if values.ndim not in (1, 3):
            raise ValueError(f"values have shape {values.shape}; expected (N,) or (N, n_o, n_i)")
        object.__setattr__(self, "values", values[:, None, None] if values.ndim == 1 else values)
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if len(self.points) != len(self.values) or len(self.points) != len(self.weights):
            raise ValueError("points, values and weights must have equal length")
        if not all(np.all(np.isfinite(arr)) for arr in (self.points, self.values, self.weights)):
            raise ValueError("points, values and weights must be finite")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")

    def __len__(self):
        return len(self.points)

    @property
    def n_p(self):
        return self.points.shape[1]

    @property
    def n_o(self):
        return self.values.shape[1]

    @property
    def n_i(self):
        return self.values.shape[2]


# Only perfbench/tracing.py still calls this (by name); no sampler, fit or certificate needs closure.
def check_conjugation_closure(samples):
    """Check that for every sample there is a conjugate partner.

    With tol = CLOSURE_TOL, sample j partners sample i when its point is
    within tol * max(1, max|p|) of conj(p_i) in every coordinate, its value
    within tol * max(1, max|y|) of conj(y_i) entrywise, and its weight
    within tol * max(1, w_i) of w_i.
    Returns (ok, violations) where violations lists the offending indices.

    Candidates come from a sort: the points are ordered by a fixed generic
    linear projection of their real and imaginary parts, and the partners of
    sample i can only lie in the window of projections that the point
    tolerance allows around the projection of conj(p_i), found by binary
    search.  Only those candidates are tested.
    """
    pts, vals, wts, tol = samples.points, samples.values, samples.weights, CLOSURE_TOL
    n_p = pts.shape[1]
    scale_p = max(1.0, float(np.max(np.abs(pts))))
    scale_v = max(1.0, float(np.max(np.abs(vals))))
    # golden-ratio weights: distinct points get distinct projections
    proj = 0.5 + (np.arange(1, 2 * n_p + 1) * 0.6180339887498949) % 1.0

    def key(z):
        return np.concatenate([z.real, z.imag], axis=1) @ proj

    keys = key(pts)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    # a point within tol * scale_p moves the projection by at most
    # tol * scale_p * sum(proj); the eps term covers the rounding of the sums
    radius = (tol + 8 * n_p * np.finfo(float).eps) * scale_p * np.sum(proj)
    target = key(np.conj(pts))
    lo = np.searchsorted(sorted_keys, target - radius, side="left")
    hi = np.searchsorted(sorted_keys, target + radius, side="right")

    counts = hi - lo
    i = np.repeat(np.arange(len(samples)), counts)
    starts = np.repeat(lo - np.cumsum(counts) + counts, counts)
    j = order[np.arange(len(i)) + starts]
    partner = (
        (np.max(np.abs(pts[j] - np.conj(pts[i])), axis=1) <= tol * scale_p)
        & (np.max(np.abs(vals[j] - np.conj(vals[i])), axis=(1, 2)) <= tol * scale_v)
        & (np.abs(wts[j] - wts[i]) <= tol * np.maximum(1.0, wts[i]))
    )
    closed = np.bincount(i[partner], minlength=len(samples)) > 0
    violations = np.flatnonzero(~closed).tolist()
    return (not violations), violations


def _as_real(mat, what):
    mat = np.asarray(mat)
    if np.iscomplexobj(mat):
        if np.max(np.abs(mat.imag)) > 0:
            raise ValueError(f"{what} must be real-valued")
        mat = mat.real
    return np.asarray(mat, dtype=float)


def lti_rom(E, A, B, C):
    """STROM for the LTI transfer function C (sE - A)^{-1} B."""
    E, A, B, C = (_as_real(m, "LTI matrix") for m in (E, A, B, C))
    s = ScalarFamily.coordinate(0)
    one = ScalarFamily.constant(1.0)
    return StructuredRom(
        A_terms=((s, E), (ScalarFamily.constant(-1.0), A)),
        B_terms=((one, np.atleast_2d(B)),),
        C_terms=((one, np.atleast_2d(C)),),
    )


def stationary_rom(A1, A2, B, C):
    """STROM for the stationary map C (A1 + p A2)^{-1} B."""
    A1, A2, B, C = (_as_real(m, "stationary matrix") for m in (A1, A2, B, C))
    one = ScalarFamily.constant(1.0)
    p = ScalarFamily.coordinate(0)
    return StructuredRom(
        A_terms=((one, A1), (p, A2)),
        B_terms=((one, np.atleast_2d(B)),),
        C_terms=((one, np.atleast_2d(C)),),
    )


def kron_rom(E, A, E_xi, A_xi, B, C):
    """STROM with operator (sE - A) kron (xi E_xi - A_xi) in p = (s, xi)."""
    E, A, E_xi, A_xi, B, C = (_as_real(m, "Kronecker factor") for m in (E, A, E_xi, A_xi, B, C))
    sxi = ScalarFamily(((1.0, (1, 1)),), 2)
    neg_s = ScalarFamily.coordinate(0, n_p=2, sign=-1.0)
    neg_xi = ScalarFamily.coordinate(1, n_p=2, sign=-1.0)
    one = ScalarFamily.constant(1.0, n_p=2)
    return StructuredRom(
        A_terms=(
            (sxi, np.kron(E, E_xi)),
            (neg_s, np.kron(E, A_xi)),
            (neg_xi, np.kron(A, E_xi)),
            (one, np.kron(A, A_xi)),
        ),
        B_terms=((one, np.atleast_2d(B)),),
        C_terms=((one, np.atleast_2d(C)),),
        kron=KronStructure(E, A, E_xi, A_xi),
    )
