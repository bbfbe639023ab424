"""Benchmark and synthetic full-order models, and samplers producing data sets.

Provides the classic order-1006 spiral benchmark system, a parametric
Poisson finite element model, reproducible random stable LTI systems, a
synthetic two-variable rational map, and the samplers that turn them into
weighted sample sets.

Every full-order model (FOM) has one batched protocol: ``n_p`` parameter
coordinates, ``evaluate(points)`` for the value H(p) and
``partial(points, wrt=0)`` for the first partial in coordinate ``wrt``.
``points`` is an (N, n_p) array (a 1-D array is N points when n_p = 1);
both return (N, n_o, n_i).  The pole-residue forms of ``l2rom.spectral``
answer the same protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import SampleSet
from .spectral import PoleResidue2D, _check_wrt, _points

__all__ = [
    "AffineLtiFom",
    "BandedLU",
    "AffineStationaryFom",
    "KronParametricFom",
    "make_penzl",
    "make_poisson",
    "make_random_stable",
    "make_kron_parametric",
    "sample_frequency_response",
    "sample_unit_circle",
    "sample_stationary",
    "sample_h2l2",
]


def _operator(entries, n):
    """An (n, n) full-order operator from a dense array or COO triplets.

    Triplets (rows, cols, values) become a CSC matrix with duplicates
    summed.  scipy.sparse is imported here, on first use, so importing l2rom
    and building a model do not pay for it.
    """
    if isinstance(entries, np.ndarray):
        return entries
    import scipy.sparse

    rows, cols, values = entries
    return scipy.sparse.csc_array((values, (rows, cols)), shape=(n, n))


def _triplets(entries):
    """COO triplets (rows, cols, values) of a dense array or of triplets."""
    if isinstance(entries, np.ndarray):
        rows, cols = np.nonzero(entries)
        return rows, cols, entries[rows, cols]
    return tuple(np.asarray(t) for t in entries)


def _band_layouts(n, *operators):
    """LAPACK band storage of (n, n) operators that share one band.

    Returns (kl, ku, layouts): kl and ku are the widest sub- and
    super-diagonal over all operators, in their assembly order.  Each layout
    is a (2 kl + ku + 1, n) Fortran-order array holding entry (i, j) at row
    kl + ku + i - j of column j (duplicate triplets summed); its top kl rows
    stay zero for the fill-in of ?gbtrf's row interchanges.
    """
    triplets = [_triplets(op) for op in operators]
    offsets = np.concatenate([rows - cols for rows, cols, _ in triplets])
    kl = int(offsets.max(initial=0))
    ku = int(-offsets.min(initial=0))
    ldab = 2 * kl + ku + 1
    layouts = []
    for rows, cols, values in triplets:
        flat = kl + ku + rows - cols + ldab * cols
        layouts.append(np.bincount(flat, weights=values, minlength=ldab * n).reshape(n, ldab).T)
    return kl, ku, layouts


class BandedLU:
    """LU factors, with partial pivoting, of one banded full-order operator.

    ``ab`` is the operator in LAPACK band storage (``_band_layouts``); it is
    factored in place by ?gbtrf, real or complex as its dtype is.
    ``solve(rhs)`` is the primal solve and ``solve(rhs, trans="H")`` the
    adjoint one; a complex right-hand side on a real factor is solved as its
    real and imaginary parts.  An exactly singular operator raises
    ``np.linalg.LinAlgError``.
    """

    def __init__(self, ab, kl, ku):
        from scipy.linalg import lapack

        self.is_complex = np.iscomplexobj(ab)
        gbtrf = lapack.zgbtrf if self.is_complex else lapack.dgbtrf
        self._gbtrs = lapack.zgbtrs if self.is_complex else lapack.dgbtrs
        self.kl, self.ku = kl, ku
        self.lu, self.ipiv, info = gbtrf(ab, kl, ku, overwrite_ab=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"full-order operator is singular (zero pivot in column {info - 1})")

    def solve(self, rhs, trans="N"):
        if trans not in ("N", "H"):
            raise ValueError(f"trans must be 'N' or 'H', got {trans!r}")
        # ?gbtrs: 1 is the transpose (the adjoint of a real factor), 2 the conjugate transpose
        code = 0 if trans == "N" else 2 if self.is_complex else 1
        rhs = np.asarray(rhs)
        b = rhs.reshape(rhs.shape[0], -1)
        if np.iscomplexobj(b) and not self.is_complex:
            k = b.shape[1]
            x, _ = self._gbtrs(self.lu, self.kl, self.ku, np.hstack([b.real, b.imag]), self.ipiv, trans=code)
            x = x[:, :k] + 1j * x[:, k:]
        else:
            x, _ = self._gbtrs(self.lu, self.kl, self.ku, b, self.ipiv, trans=code)
        return x.reshape(rhs.shape)


class _AffineFom:
    """The protocol for y(p) = C K(p)^{-1} B with K(p) affine in one parameter.

    A subclass provides ``factor(p)``, the factored K(p), and ``_slope``, the
    operator dK/dp.  Each point costs one factorization, real or complex as
    the point is.
    """

    n_p = 1

    @property
    def n(self):
        return self.B.shape[0]

    @property
    def n_i(self):
        return self.B.shape[1]

    @property
    def n_o(self):
        return self.C.shape[0]

    def evaluate(self, points):
        """C K(p)^{-1} B at each of the N points, shape (N, n_o, n_i)."""
        return np.stack([self.C @ self.factor(p).solve(self.B) for p in _points(points, 1)[:, 0]])

    def partial(self, points, wrt=0):
        """-C K(p)^{-1} K' K(p)^{-1} B at each of the N points, shape (N, n_o, n_i)."""
        _check_wrt(wrt, 1)
        out = []
        for p in _points(points, 1)[:, 0]:
            lu = self.factor(p)
            out.append(-self.C @ lu.solve(self._slope @ lu.solve(self.B)))
        return np.stack(out)


@dataclass(frozen=True)
class AffineLtiFom(_AffineFom):
    """E x' = A x + B u, y = C x, with transfer function C (sE - A)^{-1} B.

    ``E_entries`` and ``A_entries`` are dense (n, n) arrays or COO triplets
    (rows, cols, values); ``E`` and ``A`` are the operators, built on first
    use (CSC for triplets), for products.  Every full-order solve goes
    through ``factor``, a banded LU in the assembly order.
    """

    E_entries: object
    A_entries: object
    B: np.ndarray
    C: np.ndarray
    time_domain: str = "ct"  # or "dt"

    def __post_init__(self):
        if self.time_domain not in ("ct", "dt"):
            raise ValueError(f"time_domain must be 'ct' or 'dt', got {self.time_domain!r}")

    @cached_property
    def E(self):
        return _operator(self.E_entries, self.n)

    @cached_property
    def A(self):
        return _operator(self.A_entries, self.n)

    @cached_property
    def bands(self):
        """(kl, ku, (E, A)) in LAPACK band storage, built on first use."""
        return _band_layouts(self.n, self.E_entries, self.A_entries)

    @property
    def _slope(self):
        return self.E

    def factor(self, s):
        """Factored s E - A, for primal and adjoint solves at the shift s."""
        kl, ku, (ab_e, ab_a) = self.bands
        return BandedLU(s * ab_e - ab_a, kl, ku)


@dataclass(frozen=True)
class AffineStationaryFom(_AffineFom):
    """(A1 + p A2) x = B, y = C x, over a real parameter interval [a, b].

    ``A1_entries`` and ``A2_entries`` are dense (n, n) arrays or COO
    triplets; ``A1`` and ``A2`` are the operators, built on first use, for
    products.  Every full-order solve goes through ``factor``, a banded LU in
    the assembly order.
    """

    A1_entries: object
    A2_entries: object
    B: np.ndarray
    C: np.ndarray
    interval: tuple = (0.1, 10.0)

    @cached_property
    def A1(self):
        return _operator(self.A1_entries, self.n)

    @cached_property
    def A2(self):
        return _operator(self.A2_entries, self.n)

    @cached_property
    def bands(self):
        """(kl, ku, (A1, A2)) in LAPACK band storage, built on first use."""
        return _band_layouts(self.n, self.A1_entries, self.A2_entries)

    @property
    def _slope(self):
        return self.A2

    def factor(self, p):
        """Factored A1 + p A2, for primal and adjoint solves at the parameter p."""
        kl, ku, (ab_1, ab_2) = self.bands
        return BandedLU(ab_1 + p * ab_2, kl, ku)


class KronParametricFom(PoleResidue2D):
    """Two-variable rational map sum_ij c_ij b_ij^* / ((s - nu_i)(xi - pi_j)).

    Frequency poles nu_i lie in the open left half-plane and parameter poles
    pi_j outside the closed unit disk, so the map is admissible for joint
    frequency/parameter approximation.
    """

    def evaluator(self):
        # kept only because perfbench/workload.py (KronH2L2.run) calls it; the model has the protocol itself
        return self


def make_penzl():
    """Order-1006 SISO benchmark: three 2x2 spiral blocks plus a diagonal tail.

    E = I; A is block-diagonal with blocks [[-1, w], [-w, -1]] for
    w in {100, 200, 400} and diag(-1, ..., -1000); B = C^T has entries 10 on
    the first six states and 1 elsewhere.  E and A are given as COO triplets.
    """
    n = 1006
    w = np.repeat([100.0, 200.0, 400.0], 2)
    spiral = np.arange(6)
    partner = spiral ^ 1  # 0 <-> 1, 2 <-> 3, 4 <-> 5
    rows = np.concatenate([np.arange(n), spiral])
    cols = np.concatenate([np.arange(n), partner])
    values = np.concatenate([-np.ones(6), -np.arange(1.0, 1001.0), np.where(spiral % 2, -w, w)])
    B = np.ones((n, 1))
    B[:6] = 10.0
    eye = (np.arange(n), np.arange(n), np.ones(n))
    return AffineLtiFom(E_entries=eye, A_entries=(rows, cols, values), B=B, C=B.T)


# Bilinear Q1 reference element on [0, 1]^2, node order (0,0), (1,0), (0,1),
# (1,1), with 2-point Gauss-Legendre abscissae per direction.
_GAUSS = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])


def _q1_reference_stiffness():
    """Stiffness of the unit reference element per x-direction Gauss abscissa.

    Entry a is sum_b w_a w_b (grad phi_i . grad phi_j)(u_a, v_b) on the unit
    square; the integrand is scale free, so it holds for any element size h.
    """
    ref = np.zeros((2, 4, 4))
    for a, u in enumerate(_GAUSS):
        for v in _GAUSS:
            du = np.array([-(1 - v), (1 - v), -v, v])
            dv = np.array([-(1 - u), -u, (1 - u), u])
            ref[a] += 0.25 * (np.outer(du, du) + np.outer(dv, dv))
    return ref


def _q1_stiffness(cells, weight):
    """Q1 stiffness triplets and unit-load vector on the unit square.

    The diffusion coefficient ``weight`` is affine in z1, so 2-point Gauss
    per direction integrates the element matrices exactly, and an element's
    matrix is the two reference matrices weighted by the diffusion at its
    two Gauss abscissae in z1.  Returns COO triplets (duplicates to be
    summed) on all (cells + 1)^2 grid nodes, the load vector and the
    boundary mask; boundary conditions are applied by the caller.
    """
    h = 1.0 / cells
    m = cells + 1  # nodes per direction
    z1 = (np.arange(cells)[:, None] + _GAUSS[None, :]) * h  # (ex, a)
    ke = np.einsum("xa,aij->xij", weight(z1), _q1_reference_stiffness())
    ex, ey = np.meshgrid(np.arange(cells), np.arange(cells), indexing="ij")
    base = (ey * m + ex).ravel()
    glb = base[:, None] + np.array([0, 1, m, m + 1])  # (element, local node)
    rows = np.repeat(glb, 4, axis=1).ravel()
    cols = np.tile(glb, (1, 4)).ravel()
    data = ke[ex.ravel()].ravel()
    load = np.bincount(glb.ravel(), minlength=m * m) * (0.25 * h * h)
    ix, iy = np.meshgrid(np.arange(m), np.arange(m))
    boundary = ((ix == 0) | (ix == cells) | (iy == 0) | (iy == cells)).ravel()
    return (rows, cols, data), load, boundary


def make_poisson(cells_per_side=32):
    """Parametric Poisson model: diffusion d(z, p) = z1 + p (1 - z1) on (0,1)^2.

    Q1 finite elements on a uniform mesh; the state vector keeps all grid
    nodes and the homogeneous Dirichlet condition is imposed by identity
    rows in A1 and zero rows in A2 (and zero load) at boundary nodes.  The
    default mesh gives n = 33^2 = 1089 unknowns with A2 of structural rank
    31^2 = 961.  A1 carries the z1-weighted stiffness, A2 the
    (1 - z1)-weighted one; B is the unit-load vector and C = B^T.  A1 and
    A2 are given as COO triplets.
    """
    if cells_per_side < 4:
        raise ValueError("cells_per_side must be at least 4")
    (rows, cols, d1), load, boundary = _q1_stiffness(cells_per_side, lambda z1: z1)
    (_, _, d2), _, _ = _q1_stiffness(cells_per_side, lambda z1: 1.0 - z1)
    interior = ~(boundary[rows] | boundary[cols])
    rows, cols = rows[interior], cols[interior]
    fixed = np.flatnonzero(boundary)
    A1 = (
        np.concatenate([rows, fixed]),
        np.concatenate([cols, fixed]),
        np.concatenate([d1[interior], np.ones(len(fixed))]),
    )
    A2 = (rows, cols, d2[interior])
    load[boundary] = 0.0
    B = load[:, None]
    return AffineStationaryFom(A1_entries=A1, A2_entries=A2, B=B, C=B.T, interval=(0.1, 10.0))


def make_random_stable(n, n_i=1, n_o=1, seed=0, time_domain="ct"):
    """Reproducible random stable LTI system (E = I), with dense operators.

    Continuous time: A = R - (s_max + margin) I with R random, shifted so all
    eigenvalues have negative real part.  Discrete time: random A rescaled to
    spectral radius 0.9.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    if time_domain == "ct":
        shift = np.max(np.linalg.eigvals(A).real) + 0.5
        A = A - shift * np.eye(n)
    else:
        rho = np.max(np.abs(np.linalg.eigvals(A)))
        A = A * (0.9 / max(rho, 1e-12))
    B = rng.standard_normal((n, n_i))
    C = rng.standard_normal((n_o, n))
    return AffineLtiFom(E_entries=np.eye(n), A_entries=A, B=B, C=C, time_domain=time_domain)


def make_kron_parametric(r_s_terms, r_xi_terms, n_i=1, n_o=1, seed=0):
    """Random two-variable rational map with admissible pole placement.

    Frequency poles have real part <= -0.1 and parameter poles modulus
    >= 1.1; conjugate pole pairs carry conjugate factors so the map is real
    on the real-(s, real-xi) restriction.
    """
    rng = np.random.default_rng(seed)
    s_poles = -0.1 - 2.0 * rng.random(r_s_terms) + 1j * rng.standard_normal(r_s_terms)
    s_poles = _conjugate_pairs(s_poles)
    xi_poles = (1.1 + 2.0 * rng.random(r_xi_terms)) * np.exp(2j * np.pi * rng.random(r_xi_terms))
    xi_poles = _conjugate_pairs(xi_poles, keep="modulus")
    left = rng.standard_normal((r_s_terms, r_xi_terms, n_o)) + 1j * rng.standard_normal(
        (r_s_terms, r_xi_terms, n_o)
    )
    right = rng.standard_normal((r_s_terms, r_xi_terms, n_i)) + 1j * rng.standard_normal(
        (r_s_terms, r_xi_terms, n_i)
    )
    # Symmetrize so conjugating both poles conjugates the residue factors.
    left, right = _symmetrize_factors(s_poles, xi_poles, left, right)
    return KronParametricFom(s_poles=s_poles, xi_poles=xi_poles, left_factors=left, right_factors=right)


def _conjugate_pairs(poles, keep="real"):
    """Force the pole set to be closed under conjugation (pair up in order).

    An odd count leaves one pole to realify: ``keep="real"`` takes its real
    part (preserves the real-part bound of half-plane poles), ``keep="modulus"``
    takes a signed modulus (preserves the modulus bound of circle-type poles).
    """
    poles = np.array(poles, dtype=complex)
    n = len(poles)
    for i in range(0, n - 1, 2):
        poles[i + 1] = np.conj(poles[i])
    if n % 2:
        if keep == "modulus":
            sign = 1.0 if poles[-1].real >= 0 else -1.0
            poles[-1] = sign * abs(poles[-1])
        else:
            poles[-1] = poles[-1].real
    return poles


def _symmetrize_factors(s_poles, xi_poles, left, right):
    # _conjugate_pairs pairs poles 2j and 2j + 1; an odd count ends in a real pole, its own partner
    ks, kxi = (np.minimum(np.arange(n) ^ 1, n - 1) for n in (len(s_poles), len(xi_poles)))
    left_s = 0.5 * (left + np.conj(left[ks][:, kxi]))
    right_s = 0.5 * (right + np.conj(right[ks][:, kxi]))
    return left_s, right_s


def sample_frequency_response(fom, freqs, weights=None):
    """Sample H(i w) once per frequency w, at twice its weight (default 1).

    A real model's misfit at -i w equals that at i w, so this is the L2
    objective of the samples at +-i w; DISCRETE_LS doubles the measure itself.
    """
    freqs = np.asarray(freqs, dtype=float)
    if freqs.size == 0:
        raise ValueError("freqs must hold at least one frequency")
    weights = np.ones_like(freqs) if weights is None else np.asarray(weights, dtype=float)
    if len(weights) != len(freqs):
        raise ValueError("freqs and weights must have the same length")
    points = (1j * freqs)[:, None]
    return SampleSet(points=points, values=fom.evaluate(points), weights=2.0 * weights)


def sample_unit_circle(fom, num):
    """Uniform trapezoid quadrature of the unit-circle measure (weights 1/num)."""
    if num < 2 or num % 2:
        raise ValueError("node count must be even and at least 2")
    theta = 2.0 * np.pi * np.arange(num) / num
    points = np.exp(1j * theta)[:, None]
    weights = np.full(num, 1.0 / num)
    return SampleSet(points=points, values=fom.evaluate(points), weights=weights)


def sample_stationary(fom, num_nodes):
    """Gauss-Legendre quadrature of the Lebesgue measure on the model interval."""
    if num_nodes < 2:
        raise ValueError("node count must be at least 2")
    a, b = fom.interval
    nodes, weights = np.polynomial.legendre.leggauss(num_nodes)
    nodes = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    weights = 0.5 * (b - a) * weights
    values = fom.evaluate(nodes)  # real nodes: real factorizations
    return SampleSet(points=nodes.astype(complex)[:, None], values=values, weights=weights)


def sample_h2l2(fom, n_s=96, n_xi=64):
    """Quadrature of the product measure (imaginary axis) x (unit circle).

    The infinite frequency integral is mapped through omega = tan(t) and
    discretized with Gauss-Legendre; the circle uses the uniform trapezoid
    rule.  Weights absorb the 1/(4 pi^2) normalization.
    """
    t_nodes, t_weights = np.polynomial.legendre.leggauss(n_s)
    t_nodes = 0.5 * np.pi * t_nodes
    t_weights = 0.5 * np.pi * t_weights
    omega = np.tan(t_nodes)
    w_s = t_weights / np.cos(t_nodes) ** 2 / (2.0 * np.pi)

    if n_xi < 2 or n_xi % 2:
        raise ValueError("circle node count must be even and at least 2")
    theta = 2.0 * np.pi * np.arange(n_xi) / n_xi
    xi = np.exp(1j * theta)
    w_xi = np.full(n_xi, 1.0 / n_xi)

    # frequency-major order: point k * n_xi + l is (i omega_k, xi_l)
    points = np.stack([np.repeat(1j * omega, n_xi), np.tile(xi, n_s)], axis=1)
    weights = np.outer(w_s, w_xi).ravel()
    return SampleSet(points=points, values=fom.evaluate(points), weights=weights)
