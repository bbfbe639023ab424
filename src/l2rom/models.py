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

import os
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

from .certify import Interval, _interval_rule
from .core import SampleSet
from .spectral import PoleResidue2D, _check_wrt, _points, _time_domain

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


@cache
def _kernels(name):
    """scipy's compiled f2py module ``name``: ``"_flapack"`` (LAPACK) or ``"_fblas"`` (BLAS).

    The only way l2rom reaches a kernel, bound once per process.  Importing
    the scipy.linalg package for a dozen kernels would cost some 0.2 s and
    24 MiB with scipy 1.17.1 (its array-API layer and what that pulls in),
    against 4 MiB for ``_flapack`` alone.  A module already in
    ``sys.modules`` (the caller imported scipy.linalg) is reused.  Otherwise
    the extension file is loaded from the ``linalg`` directory of the scipy
    package, which ``importlib.util.find_spec("scipy")`` locates without
    importing anything (``find_spec`` of the submodule would import both
    packages).  scipy itself is imported only on Windows, where its import
    sets up the DLL search path.
    Loading it registers it in ``sys.modules`` (CPython does so for these
    single-phase extension modules), so a later import of scipy.linalg finds
    this module object.  The package then never gets the attribute
    ``scipy.linalg._flapack``; scipy reaches the module through from-imports
    only, which look in ``sys.modules``.  Every scipy >= 1.10 ships both
    modules; a missing one raises ImportError.
    """
    full_name = "scipy.linalg." + name
    module = sys.modules.get(full_name)
    if module is None:
        if sys.platform == "win32":
            import scipy  # noqa: F401
        package = find_spec("scipy")  # None if scipy is missing
        linalg_dir = package and os.path.join(package.submodule_search_locations[0], "linalg")
        spec = linalg_dir and FileFinder(linalg_dir, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(full_name)
        if spec is None:
            raise ImportError(f"cannot find scipy's compiled module {full_name}", name=full_name)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def _triplets(entries, n):
    """COO triplets (rows, cols, values) of an (n, n) operator given dense or as triplets.

    Anything but an (n, n) ndarray or three 1-D arrays of one length with integer
    indices in [0, n) raises ValueError, so that the band layout drops no entry.
    """
    if isinstance(entries, np.ndarray):
        if entries.shape != (n, n):
            raise ValueError(f"a dense operator must be ({n}, {n}), got shape {entries.shape}")
        rows, cols = np.nonzero(entries)
        return rows, cols, entries[rows, cols]
    triplets = [np.asarray(t) for t in entries] if isinstance(entries, (tuple, list)) else []
    if not (len(triplets) == 3 and all(t.ndim == 1 and len(t) == len(triplets[0]) for t in triplets)):
        raise ValueError(f"an operator must be a dense ({n}, {n}) ndarray or COO triplets, three 1-D arrays of "
                         f"one length, got {type(entries).__name__}")
    rows, cols, values = triplets
    index = np.concatenate([rows, cols])
    if len(index) and not (index.dtype.kind in "iu" and 0 <= index.min() and index.max() < n):
        raise ValueError(f"COO row and column indices must be integers in [0, {n})")
    return rows.astype(np.intp), cols.astype(np.intp), values


def _by_real_parts(apply, b):
    """apply(b) for a real linear map of (n, k) arrays, a complex b mapped as its real and imaginary parts."""
    if not np.iscomplexobj(b):
        return apply(b)
    x = apply(np.hstack([b.real, b.imag]))
    return x[:, : b.shape[1]] + 1j * x[:, b.shape[1] :]


def _band_layouts(n, *operators):
    """LAPACK general band storage of (n, n) operators that share one band.

    This is the one reader of a full-order operator, a dense array or COO
    triplets (``_triplets``): it stores the band for solves and products
    and decides whether it is symmetric.  Returns (kl, ku, layouts, lower): kl
    and ku are the widest sub- and super-diagonal over all operators, in
    their assembly order, and each layout holds one operator (duplicate
    triplets summed) as a (2 kl + ku + 1, n) C-order array, entry (i, j) at
    row kl + ku + i - j of column j (Golub & Van Loan, Matrix Computations,
    4th ed., section 4.3); its top kl rows stay zero for the fill-in of
    ?gbtrf's row interchanges.  ``lower`` is None unless every operator is
    symmetric, bit for bit on each pair of mirrored diagonals; then it holds
    each operator's lower band storage for band Cholesky, rows kl + ku
    onward as a (kl + 1, n) Fortran-order copy that a factorization may overwrite.
    """
    triplets = [_triplets(op, n) for op in operators]
    offsets = np.concatenate([rows - cols for rows, cols, _ in triplets])
    kl = int(offsets.max(initial=0))
    ku = int(-offsets.min(initial=0))
    ldab, main = 2 * kl + ku + 1, kl + ku
    layouts = [
        np.bincount((main + rows - cols) * n + cols, weights=values, minlength=ldab * n).reshape(ldab, n)
        for rows, cols, values in triplets
    ]
    symmetric = kl == ku and all(
        np.array_equal(ab[main - d, d:], ab[main + d, : n - d]) for ab in layouts for d in range(1, kl + 1)
    )
    lower = [np.array(ab[main:], order="F") for ab in layouts] if symmetric else None
    return kl, ku, layouts, lower


class BandedLU:
    """A factored banded full-order operator K0 + p K1.

    ``bands`` is (kl, ku, (K0, K1), lower) as ``_band_layouts`` stores them,
    and the band and the point p pick the LAPACK kernel:

    - kl <= 1, ku <= 1 and n >= 3: the tridiagonal ?gttrf/?gttrs, which do
      the pivoted elimination of ?gbtrf without its per-column BLAS calls.
      K0 + p K1 is formed on the band storage without its kl fill rows, and
      ?gttrf reads its sub-, main and super-diagonal rows in place, a
      diagonal that the band lacks (kl = 0 or ku = 0) as zeros; the
      ?gttrf wrapper rejects n = 1 and n = 2;
    - any other symmetric band (``lower`` given) at a real p: band Cholesky,
      dpbtrf/dpbtrs on the (kl + 1, n) lower band.  If dpbtrf finds the
      operator not positive definite, the general band kernel factors it;
    - otherwise the general band ?gbtrf/?gbtrs, with partial pivoting, on a
      Fortran-order copy that the f2py wrapper makes.

    The kernels are scipy's compiled LAPACK wrappers (``_kernels``), called
    without the scipy.linalg package.

    K0 + p K1 is formed, real or complex as p is, and factored.
    ``solve(rhs)`` is the primal solve and ``solve(rhs, trans="H")`` the
    adjoint one (the same solve on a Cholesky factor); a complex right-hand
    side on a real factor is solved as its real and imaginary parts.  An
    exactly singular operator raises ``np.linalg.LinAlgError``.
    """

    def __init__(self, bands, p):
        lapack = _kernels("_flapack")
        kl, ku, (ab_0, ab_1), lower = bands
        n = ab_0.shape[1]
        self.is_complex = np.iscomplexobj(p)
        prefix = "z" if self.is_complex else "d"
        if kl <= 1 and ku <= 1 and n >= 3:
            gttrs = getattr(lapack, prefix + "gttrs")
            ab = ab_0[kl:] + p * ab_1[kl:]  # the band's rows, without the fill rows; the main one is row ku
            dl = ab[ku + 1, :-1] if kl else np.zeros(n - 1, ab.dtype)
            du = ab[ku - 1, 1:] if ku else np.zeros(n - 1, ab.dtype)
            *factors, info = getattr(lapack, prefix + "gttrf")(
                dl, ab[ku], du, overwrite_dl=1, overwrite_d=1, overwrite_du=1
            )
            self._trs = lambda b, code: gttrs(*factors, b, trans="NTC"[code])[0]
        else:
            if lower is not None and not self.is_complex:
                cholesky, info = lapack.dpbtrf(lower[0] + p * lower[1], lower=1, overwrite_ab=1)
                if info == 0:
                    self._trs = lambda b, code: lapack.dpbtrs(cholesky, b, lower=1)[0]
                    return
            gbtrs = getattr(lapack, prefix + "gbtrs")
            lu, ipiv, info = getattr(lapack, prefix + "gbtrf")(ab_0 + p * ab_1, kl, ku, overwrite_ab=1)
            self._trs = lambda b, code: gbtrs(lu, kl, ku, b, ipiv, trans=code)[0]
        if info > 0:
            raise np.linalg.LinAlgError(f"full-order operator is singular (zero pivot in column {info - 1})")

    def solve(self, rhs, trans="N"):
        if trans not in ("N", "H"):
            raise ValueError(f"trans must be 'N' or 'H', got {trans!r}")
        # 1 is the transpose (the adjoint of a real factor), 2 the conjugate transpose
        code = 0 if trans == "N" else 2 if self.is_complex else 1
        rhs = np.asarray(rhs)
        b = rhs.reshape(rhs.shape[0], -1)
        x = self._trs(b, code) if self.is_complex else _by_real_parts(lambda part: self._trs(part, code), b)
        return x.reshape(rhs.shape)


class _AffineFom:
    """The protocol for y(p) = C K(p)^{-1} B with K(p) = K0 + p K1.

    A subclass provides ``bands``, K0 and K1 in band storage
    (``_band_layouts``), for solves and products.  Each point costs one
    factorization, real or complex as the point is.
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

    def factor(self, p):
        """Factored K(p), for primal and adjoint solves at the point p (``BandedLU``)."""
        return BandedLU(self.bands, p)

    def product(self, k, x):
        """K_k x (k = 0 or 1) for a real or complex x of n rows, by BLAS dgbmv on rows kl onward of the layout.

        dgbmv is scipy's compiled BLAS wrapper (``_kernels``), called without
        the scipy.linalg package.  It requires m >= kl + ku + 1, so a wider
        band (a dense operator) is multiplied as m rows, cut to n: the layout
        is zero there.
        """
        blas = _kernels("_fblas")
        kl, ku, layouts, _ = self.bands
        band, n, m = np.asfortranarray(layouts[k][kl:]), self.n, max(self.n, kl + ku + 1)
        y = _by_real_parts(lambda cols: np.column_stack([blas.dgbmv(m, n, kl, ku, 1.0, band, c)[:n] for c in cols.T]),
                           x.reshape(n, -1))
        return y.reshape(x.shape)

    def evaluate(self, points):
        """C K(p)^{-1} B at each of the N points, shape (N, n_o, n_i)."""
        return np.stack([self.C @ self.factor(p).solve(self.B) for p in _points(points, 1)[:, 0]])

    def partial(self, points, wrt=0):
        """-C K(p)^{-1} K1 K(p)^{-1} B at each of the N points, shape (N, n_o, n_i)."""
        _check_wrt(wrt, 1)
        out = []
        for p in _points(points, 1)[:, 0]:
            lu = self.factor(p)
            out.append(-self.C @ lu.solve(self.product(1, lu.solve(self.B))))
        return np.stack(out)


@dataclass(frozen=True)
class AffineLtiFom(_AffineFom):
    """E x' = A x + B u, y = C x, with transfer function C (sE - A)^{-1} B.

    ``E`` and ``A`` are dense (n, n) arrays or COO triplets (rows, cols,
    values), read only by ``_band_layouts``.  Every full-order solve goes
    through ``factor``, one banded factorization of s E - A in the assembly
    order from the general band storage of ``bands``, and every product
    with K0 = -A or K1 = E through ``product``; ``BandedLU`` alone picks the
    LAPACK kernel by band, symmetry and point (Penzl: the tridiagonal
    ?gttrf, reading three rows of that storage in place).
    """

    E: object
    A: object
    B: np.ndarray
    C: np.ndarray
    time_domain: str = "ct"  # or "dt"

    def __post_init__(self):
        _time_domain(self.time_domain)

    @cached_property
    def bands(self):
        """(kl, ku, (-A, E), lower) as ``_band_layouts`` stores them, built on the first solve."""
        rows, cols, values = _triplets(self.A, self.n)
        return _band_layouts(self.n, (rows, cols, -values), self.E)


@dataclass(frozen=True)
class AffineStationaryFom(_AffineFom):
    """(A1 + p A2) x = B, y = C x, over a real parameter interval [a, b].

    ``A1`` and ``A2`` are dense (n, n) arrays or COO triplets, read only by
    ``_band_layouts``.  Every full-order solve goes through ``factor``, one
    banded factorization of A1 + p A2 in the assembly order, whose LAPACK
    kernel ``BandedLU`` picks by band, symmetry and point (Poisson,
    kl = ku = 32: band Cholesky at a real p, ?gbtrf at a complex one), and
    every product through ``product``.  ``interval`` must be finite with
    a < b, as ``certify.Interval`` checks.
    """

    A1: object
    A2: object
    B: np.ndarray
    C: np.ndarray
    interval: tuple = (0.1, 10.0)

    def __post_init__(self):
        Interval(*self.interval)

    @cached_property
    def bands(self):
        """(kl, ku, (A1, A2), lower) as ``_band_layouts`` stores them, built on the first solve."""
        return _band_layouts(self.n, self.A1, self.A2)


class KronParametricFom(PoleResidue2D):
    """Two-variable rational map sum_ij c_ij b_ij^* / ((s - nu_i)(xi - pi_j)).

    Frequency poles nu_i lie in the open left half-plane and parameter poles
    pi_j outside the closed unit disk, so the map is admissible for joint
    frequency/parameter approximation.
    """

    def evaluator(self):
        # kept only because perfbench/workload.py (KronH2L2.run) calls it; the model has the protocol itself
        return self


def _check_positive(**dims):
    """ValueError naming the first dimension below 1."""
    for name, value in dims.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


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
    return AffineLtiFom(E=eye, A=(rows, cols, values), B=B, C=B.T)


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

    Q1 finite elements on a uniform mesh with a homogeneous Dirichlet
    condition: the state vector holds the interior grid nodes only,
    numbered row by row, so the default mesh gives n = 31^2 = 961 unknowns
    and a band of kl = ku = cells_per_side.  A1 carries the z1-weighted
    stiffness, A2 the (1 - z1)-weighted one, both of full rank; B is the
    unit-load vector and C = B^T.  A1 and A2 are given as COO triplets.
    """
    if cells_per_side < 4:
        raise ValueError("cells_per_side must be at least 4")
    (rows, cols, d1), load, boundary = _q1_stiffness(cells_per_side, lambda z1: z1)
    (_, _, d2), _, _ = _q1_stiffness(cells_per_side, lambda z1: 1.0 - z1)
    interior = ~(boundary[rows] | boundary[cols])
    index = np.cumsum(~boundary) - 1  # grid node -> unknown, for interior nodes
    rows, cols = index[rows[interior]], index[cols[interior]]
    B = load[~boundary, None]
    return AffineStationaryFom(
        A1=(rows, cols, d1[interior]), A2=(rows, cols, d2[interior]), B=B, C=B.T, interval=(0.1, 10.0)
    )


def make_random_stable(n, n_i=1, n_o=1, seed=0, time_domain="ct"):
    """Reproducible random stable LTI system (E = I), with dense operators.

    Continuous time: A = R - (s_max + margin) I with R random, shifted so all
    eigenvalues have negative real part.  Discrete time: random A rescaled to
    spectral radius 0.9.
    """
    _check_positive(n=n, n_i=n_i, n_o=n_o)
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
    return AffineLtiFom(E=np.eye(n), A=A, B=B, C=C, time_domain=time_domain)


def make_kron_parametric(r_s_terms, r_xi_terms, n_i=1, n_o=1, seed=0):
    """Random two-variable rational map with admissible pole placement.

    Frequency poles have real part <= -0.1 and parameter poles modulus
    >= 1.1; conjugate pole pairs carry conjugate factors so the map is real
    on the real-(s, real-xi) restriction.
    """
    _check_positive(r_s_terms=r_s_terms, r_xi_terms=r_xi_terms, n_i=n_i, n_o=n_o)
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


def sample_frequency_response(fom, freqs):
    """Sample H(i w) once per frequency w, each sample at weight 2.

    A real model's misfit at -i w equals that at i w, so this is the L2
    objective of the unit-weight samples at +-i w; DISCRETE_LS doubles the
    measure itself.
    """
    freqs = np.asarray(freqs, dtype=float)
    if freqs.size == 0:
        raise ValueError("freqs must hold at least one frequency")
    points = (1j * freqs)[:, None]
    return SampleSet(points=points, values=fom.evaluate(points), weights=np.full_like(freqs, 2.0))


def _circle_rule(num):
    """Nodes exp(2 pi i k / num) and weights 1/num of the trapezoid rule of the normalized unit-circle measure."""
    if num < 2 or num % 2:
        raise ValueError("circle node count must be even and at least 2")
    theta = 2.0 * np.pi * np.arange(num) / num
    return np.exp(1j * theta), np.full(num, 1.0 / num)


def sample_unit_circle(fom, num):
    """Uniform trapezoid quadrature of the unit-circle measure (weights 1/num)."""
    nodes, weights = _circle_rule(num)
    points = nodes[:, None]
    return SampleSet(points=points, values=fom.evaluate(points), weights=weights)


def sample_stationary(fom, num_nodes):
    """The STATIONARY certificate's Gauss rule of the Lebesgue measure on the model interval.

    ``certify._interval_rule``: Gauss-Legendre in u = ln t when 0 < a (Poisson's [0.1, 10]), in t otherwise.
    """
    if num_nodes < 2:
        raise ValueError("node count must be at least 2")
    nodes, weights = _interval_rule(Interval(*fom.interval), num_nodes)
    values = fom.evaluate(nodes)  # real nodes: real factorizations
    return SampleSet(points=nodes.astype(complex)[:, None], values=values, weights=weights)


def sample_h2l2(fom, n_s=96, n_xi=64):
    """Quadrature of the product measure (imaginary axis) x (unit circle).

    The infinite frequency integral is mapped through omega = tan(t) and
    discretized with the Gauss-Legendre rule of t on [-pi/2, pi/2]
    (``certify._interval_rule``); the circle uses the uniform trapezoid
    rule.  Weights absorb the 1/(4 pi^2) normalization.
    """
    _check_positive(n_s=n_s)
    xi, w_xi = _circle_rule(n_xi)
    t_nodes, t_weights = _interval_rule(Interval(-0.5 * np.pi, 0.5 * np.pi), n_s)
    omega = np.tan(t_nodes)
    w_s = t_weights / np.cos(t_nodes) ** 2 / (2.0 * np.pi)

    # frequency-major order: point k * n_xi + l is (i omega_k, xi_l)
    points = np.stack([np.repeat(1j * omega, n_xi), np.tile(xi, n_s)], axis=1)
    weights = np.outer(w_s, w_xi).ravel()
    return SampleSet(points=points, values=fom.evaluate(points), weights=weights)
