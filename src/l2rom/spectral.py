"""Pole-residue representations and the conversions to them.

Covers the conversion from state-space data to partial-fraction (pole-residue)
form, including the singular-coefficient case that produces a constant term,
and the two-variable Kronecker-structured case; ``pole_residue(rom)`` picks
the conversion from a structured reduced model's operator structure.  Every
dense conversion diagonalizes through one eigen-step (``_eig_pencil``); the
symmetric band path of ``pole_residue_affine_singular`` uses a tridiagonal
eigensolver instead.  ``PoleResidue`` and ``PoleResidue2D`` check once, when
built, that their poles are pairwise distinct.
``stable`` and ``mirror`` hold the geometry of the two time domains: the
stability region and the reflection across its boundary.
``PoleResidue`` and ``PoleResidue2D`` answer the batched ``evaluate``/``partial``
protocol of the full-order models in ``l2rom.models``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PoleResidue",
    "PoleResidue2D",
    "DefectivePencilError",
    "rom_structure",
    "pole_residue",
    "pole_residue_lti",
    "pole_residue_affine_singular",
    "kron_pole_residue",
    "pole_residue_eval",
    "stable",
    "mirror",
]

POLE_SEPARATION_RTOL = 1e-8
POLE_EVAL_SEPARATION = 1e-12


def stable(poles, time_domain):
    """Per pole, whether it lies in the stability region: Re z < 0 ("ct") or |z| < 1 ("dt")."""
    return np.real(poles) < 0 if _time_domain(time_domain) == "ct" else np.abs(poles) < 1


def mirror(points, time_domain):
    """Reflection across the stability boundary, its own inverse: -conj z ("ct") or 1/conj z ("dt")."""
    return -np.conj(points) if _time_domain(time_domain) == "ct" else 1.0 / np.conj(points)


def _time_domain(time_domain):
    """``time_domain`` itself; ValueError unless it is "ct" or "dt"."""
    if time_domain not in ("ct", "dt"):
        raise ValueError(f"time_domain must be 'ct' or 'dt', got {time_domain!r}")
    return time_domain


class DefectivePencilError(np.linalg.LinAlgError):
    """The pencil has clustered or defective eigenvalues."""


@dataclass(frozen=True)
class PoleResidue:
    """Rational matrix function Phi0 + sum_j c_j b_j^* / (p - lambda_j)."""

    poles: np.ndarray  # (r,) complex, pairwise distinct
    left_factors: np.ndarray  # (r, n_o)
    right_factors: np.ndarray  # (r, n_i)
    constant: np.ndarray | None = None  # (n_o, n_i), zero if None

    n_p = 1

    def __post_init__(self):
        object.__setattr__(self, "poles", np.asarray(self.poles, dtype=complex))
        object.__setattr__(self, "left_factors", np.atleast_2d(np.asarray(self.left_factors, dtype=complex)))
        object.__setattr__(self, "right_factors", np.atleast_2d(np.asarray(self.right_factors, dtype=complex)))
        _check_distinct(self.poles)

    @property
    def n_o(self):
        return self.left_factors.shape[1]

    @property
    def n_i(self):
        return self.right_factors.shape[1]

    def constant_term(self):
        if self.constant is None:
            return np.zeros((self.n_o, self.n_i), dtype=complex)
        return np.asarray(self.constant, dtype=complex)

    def evaluate(self, points):
        """The form at each of the N points, shape (N, n_o, n_i)."""
        return pole_residue_eval(self, points)

    def partial(self, points, wrt=0):
        """The first derivative at each of the N points, shape (N, n_o, n_i)."""
        return pole_residue_eval(self, points, order=1, wrt=wrt)


@dataclass(frozen=True)
class PoleResidue2D:
    """Two-variable form sum_ij c_ij b_ij^* / ((s - lambda_i)(xi - pi_j))."""

    s_poles: np.ndarray  # (r_s,)
    xi_poles: np.ndarray  # (r_xi,)
    left_factors: np.ndarray  # (r_s, r_xi, n_o)
    right_factors: np.ndarray  # (r_s, r_xi, n_i)

    n_p = 2

    def __post_init__(self):
        object.__setattr__(self, "s_poles", np.asarray(self.s_poles, dtype=complex))
        object.__setattr__(self, "xi_poles", np.asarray(self.xi_poles, dtype=complex))
        object.__setattr__(self, "left_factors", np.asarray(self.left_factors, dtype=complex))
        object.__setattr__(self, "right_factors", np.asarray(self.right_factors, dtype=complex))
        _check_distinct(self.s_poles)
        _check_distinct(self.xi_poles)

    @property
    def n_o(self):
        return self.left_factors.shape[2]

    @property
    def n_i(self):
        return self.right_factors.shape[2]

    def evaluate(self, points):
        """The form at each of the N (s, xi) points, shape (N, n_o, n_i)."""
        return pole_residue_eval(self, points)

    def partial(self, points, wrt=0):
        """d/ds (wrt=0) or d/dxi (wrt=1) at each of the N points, shape (N, n_o, n_i)."""
        return pole_residue_eval(self, points, order=1, wrt=wrt)


def _points(points, n_p):
    """Parameter points as an (N, n_p) array; a 1-D array is N points when n_p = 1."""
    points = np.asarray(points)
    if n_p == 1 and points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[1] != n_p:
        raise ValueError(f"points must have shape (N, {n_p}), got {points.shape}")
    return points


def _check_wrt(wrt, n_p):
    if wrt not in range(n_p):
        raise ValueError(f"wrt must be a coordinate index below {n_p}, got {wrt!r}")


def _check_distinct(poles):
    if len(poles) < 2:
        return
    tol = POLE_SEPARATION_RTOL * max(np.max(np.abs(poles)), 1e-300)
    # two poles closer than tol have real parts closer than tol: sort on the
    # real part and measure each pole against the next ones in that window
    p = poles[np.argsort(poles.real, kind="stable")]
    ends = np.searchsorted(p.real, p.real + tol, side="right")
    for i in np.flatnonzero(ends > np.arange(len(p)) + 1):
        sep = np.min(np.abs(p[i + 1 : ends[i]] - p[i]))
        if sep < tol:
            raise DefectivePencilError(f"poles not pairwise distinct: separation {sep:.2e} at pole {p[i]}")


def _eig_pencil(E, A):
    """(lam, T, S^*) with S^* E T = I and S^* A T = diag(lam), from the eigenvectors T of E^{-1} A.

    S^* = (E T)^{-1} gives the first identity; the second follows from the
    eigendecomposition.  Requires E invertible and E^{-1} A diagonalizable;
    a pencil that fails either identity to 1e-10 relative raises
    DefectivePencilError.  Whether the poles are distinct is checked by the
    pole-residue form that holds them.
    """
    lam, T = np.linalg.eig(np.linalg.solve(E, A))
    Sh = np.linalg.inv(E @ T)
    res_e = np.linalg.norm(Sh @ E @ T - np.eye(len(lam)))
    res_a = np.linalg.norm(Sh @ A @ T - np.diag(lam))
    if res_e > 1e-10 * max(np.linalg.norm(E), 1e-300) or res_a > 1e-10 * max(np.linalg.norm(A), 1e-300):
        raise DefectivePencilError("pencil diagonalization residual too large (near-defective pencil)")
    return lam, T, Sh


def pole_residue_lti(E, A, B, C):
    """Pole-residue form of C (sE - A)^{-1} B with simple poles."""
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    C = np.atleast_2d(np.asarray(C, dtype=complex))
    lam, T, Sh = _eig_pencil(np.asarray(E, dtype=complex), np.asarray(A, dtype=complex))
    left = (C @ T).T  # row j: c_j
    right = Sh.conj() @ B  # row j: b_j, so that b_j^* is row j of S^* B
    return PoleResidue(poles=lam, left_factors=left, right_factors=right)


def _dense_band(ab, ku):
    """The dense Fortran-order (n, n) matrix of band storage ``ab``, entry (i, j) at row ku + i - j of column j."""
    n = ab.shape[1]
    dense = np.zeros((n, n), order="F")
    flat = dense.reshape(-1, order="F")  # a view: entry (i, j) at i + n j
    for row, d in enumerate(range(-ku, len(ab) - ku)):  # diagonal d = i - j starts at column j = max(-d, 0)
        j = max(-d, 0)
        flat[j * (n + 1) + d :: n + 1][: n - abs(d)] = ab[row, j : j + n - abs(d)]
    return dense


def _symmetric_eig_projections(ab2, ab1, B, C):
    """Eigenvalues of A2 X = A1 X D and the projections C X, X^T B.

    ``ab2`` and ``ab1`` are the lower band storage of A2 and A1
    (``models._band_layouts``); ``ab1`` is overwritten.  X holds
    A1-orthonormal eigenvectors but is never formed.  With A1 = L L^T (band
    Cholesky), L^{-1} A2 L^{-T} = Q T Q^T (Householder tridiagonalization,
    Q kept as reflectors) and T = Z D Z^T, X = L^{-T} Q Z, so C X and X^T B
    need L^{-1} (a banded triangular solve) and Q^T applied to B and C^T
    only.  L and A2 are expanded to dense lower triangles only for the
    reduction to standard form.  Returns (d, C X, X^T B) in ascending d, or
    None if A1 is not positive definite or the tridiagonal eigensolver fails.
    """
    from .models import _kernels

    lapack = _kernels("_flapack")
    n = ab1.shape[1]
    Lb, info = lapack.dpbtrf(ab1, lower=1, overwrite_ab=1)
    if info != 0:
        return None
    P, _ = lapack.dtbtrs(Lb, np.hstack([B, C.T]), uplo="L")  # L^{-1} [B, C^T]
    M, _ = lapack.dsygst(_dense_band(ab2, 0), _dense_band(Lb, 0), lower=1, overwrite_a=1)
    lwork = int(lapack.dsytrd_lwork(n, lower=1)[0])
    T, diag, off, tau, _ = lapack.dsytrd(M, lower=1, lwork=lwork, overwrite_a=1)
    if n > 1:  # P <- Q^T P; the reflectors lie below the subdiagonal of T
        reflectors = np.asfortranarray(T[1:, :-1])  # one contiguous copy, for the workspace query and the apply
        del M, T
        lwork = int(lapack.dormqr("L", "T", reflectors, tau, P[1:], -1)[1][0])
        P[1:] = lapack.dormqr("L", "T", reflectors, tau, P[1:], lwork)[0]
        del reflectors  # applied: freed before dstevd allocates Z and its workspace
    d, Z, info = lapack.dstevd(diag, off if n > 1 else np.zeros(1))
    if info != 0:
        return None
    P = Z.T @ P
    n_i = B.shape[1]
    return d, P[:, n_i:].T, P[:, :n_i]


def _pole_residue_affine_symmetric(d, cx, xb, rank_rtol):
    """Symmetric-definite specialization of the affine pole-residue map.

    For symmetric A1 > 0 and symmetric A2 the generalized eigenproblem
    A2 X = A1 X D (eigenvalues ``d``, A1-orthonormal eigenvectors ``X``)
    stays stable when eigenvalues repeat; ``cx`` = C X and ``xb`` = X^T B.
    Residues of clustered poles are merged; each merged residue must remain
    rank one to fit the c b^* representation; the eigenvalues that are
    numerically zero make the constant term.
    """
    d_scale = max(np.max(np.abs(d)), 1e-300)
    nonzero = np.abs(d) > rank_rtol * d_scale
    if not np.any(nonzero):
        raise ValueError("A2 is numerically zero; the map has no finite poles")
    constant = cx[:, ~nonzero] @ xb[~nonzero, :]

    d_nz = d[nonzero]
    res_left = cx[:, nonzero] / d_nz  # residue of pole -1/d_i is (C x_i)(x_i^T B)/d_i
    res_right = xb[nonzero, :]
    candidates = -1.0 / d_nz

    order = np.argsort(candidates)
    candidates = candidates[order]
    res_left = res_left[:, order]
    res_right = res_right[order, :]
    scale = max(np.max(np.abs(candidates)), 1e-300)
    # clusters are runs of candidates closer than the separation tolerance
    starts = np.flatnonzero(np.r_[True, ~(np.diff(candidates) < POLE_SEPARATION_RTOL * scale)])
    ends = np.r_[starts[1:], len(candidates)]
    poles = candidates[starts].astype(complex)
    lefts = res_left[:, starts].T.astype(complex)
    rights = np.conj(res_right[starts, :]).astype(complex)
    for k in np.flatnonzero(ends - starts > 1):
        i, j = starts[k], ends[k]
        phi = res_left[:, i:j] @ res_right[i:j, :]
        u, s, vt = np.linalg.svd(phi)
        if s[0] > 0 and (len(s) > 1 and s[1] > 1e-10 * s[0]):
            raise DefectivePencilError(
                "clustered poles carry a residue of rank > 1; no rank-1 "
                "pole-residue form exists"
            )
        poles[k] = np.mean(candidates[i:j])
        lefts[k] = u[:, 0] * s[0]
        rights[k] = np.conj(vt[0, :])
    return PoleResidue(poles=poles, left_factors=lefts, right_factors=rights, constant=constant.astype(complex))


def pole_residue_affine_singular(A1, A2, B, C):
    """Pole-residue form (with constant term) of C (A1 + p A2)^{-1} B.

    A1 and A2 are dense (n, n) arrays or COO triplets, as in
    ``models.AffineStationaryFom``, and n is read from B.  They are stored
    by ``models._band_layouts``, which also decides whether they are
    symmetric (bit for bit).  A symmetric pencil with A1 positive definite
    takes a symmetric eigensolver path that tolerates repeated eigenvalues,
    factors A1 on its band and projects B and C without forming the
    eigenvectors; an A1 whose band Cholesky factorization fails falls back
    to the general path, which densifies the bands (``_dense_band``),
    uses a low-rank update identity on A1 and diagonalizes the reduced
    coupling matrix M as the pencil (I, M) (``_eig_pencil``), so a
    defective M raises DefectivePencilError.  A2 may be rank-deficient; its
    numerical rank is determined from the singular values (eigenvalues on
    the symmetric path) at threshold n * eps times the largest, and its
    null space goes into the constant term.
    """
    from .models import _band_layouts

    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = B.shape[0]
    rank_rtol = n * np.finfo(float).eps

    kl, ku, layouts, lower = _band_layouts(n, A1, A2)
    if lower is not None:
        ab1, ab2 = lower
        projected = _symmetric_eig_projections(ab2, ab1, B, C)
        if projected is not None:
            return _pole_residue_affine_symmetric(*projected, rank_rtol)

    A1, A2 = (_dense_band(ab[kl:], ku) for ab in layouts)
    W, sigma, Zt = np.linalg.svd(A2)
    n2 = int(np.sum(sigma > rank_rtol * sigma[0]))
    if n2 == 0:
        raise ValueError("A2 is numerically zero; the map has no finite poles")
    U = W[:, :n2] * sigma[:n2]
    V = Zt[:n2, :].T

    A1_inv_B = np.linalg.solve(A1, B)
    A1_inv_U = np.linalg.solve(A1, U)
    C_U = C @ A1_inv_U
    B_V = V.T @ A1_inv_B

    M = V.T @ A1_inv_U
    d, T, T_inv = _eig_pencil(np.eye(n2), M)
    if np.any(np.abs(d) < 1e-14 * max(np.max(np.abs(d)), 1e-300)):
        raise ValueError("zero eigenvalue in the reduced coupling matrix (pole at infinity)")

    constant = C @ A1_inv_B - C_U @ np.linalg.solve(M, B_V)
    left = (C_U @ T).T  # row i: C_U T e_i
    right = np.conj(T_inv @ B_V / (d[:, None] ** 2))  # row i so that b_i^* = e_i^T T^{-1} B_V / d_i^2
    poles = -1.0 / d
    return PoleResidue(poles=poles, left_factors=left, right_factors=right, constant=constant)


def kron_pole_residue(E, A, E_xi, A_xi, B, C):
    """Two-variable pole-residue form of C [(sE - A) kron (xi E_xi - A_xi)]^{-1} B."""
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    C = np.atleast_2d(np.asarray(C, dtype=complex))
    (lam_s, T_s, Sh_s), (lam_xi, T_xi, Sh_xi) = (
        _eig_pencil(np.asarray(e, dtype=complex), np.asarray(a, dtype=complex)) for e, a in ((E, A), (E_xi, A_xi))
    )
    r_s, r_xi = len(lam_s), len(lam_xi)
    left = (C @ np.kron(T_s, T_xi)).T.reshape(r_s, r_xi, -1)
    right = (np.kron(Sh_s, Sh_xi).conj() @ B).reshape(r_s, r_xi, -1)
    return PoleResidue2D(s_poles=lam_s, xi_poles=lam_xi, left_factors=left, right_factors=right)


def rom_structure(rom):
    """Classify a structured rom by its scalar families: lti, stationary, kron or unknown.

    Every known structure has one B-term and one C-term, each of the unit
    constant family; any other input or output terms make it unknown.
    """
    one = ((1.0, (0,) * rom.n_p),)
    if tuple(fam.terms for fam, _ in (*rom.B_terms, *rom.C_terms)) != (one, one):
        return "unknown"
    if rom.kron is not None:
        return "kron"
    fams = tuple(fam.terms for fam, _ in rom.A_terms)
    if fams == (((1.0, (1,)),), ((-1.0, (0,)),)):
        return "lti"
    if fams == (((1.0, (0,)),), ((1.0, (1,)),)):
        return "stationary"
    return "unknown"


def pole_residue(rom):
    """Pole-residue form of a structured rom, dispatched on rom_structure.

    lti and stationary roms give a PoleResidue, kron roms a PoleResidue2D;
    any other structure raises ValueError.
    """
    structure = rom_structure(rom)
    b = rom.B_terms[0][1]
    c = rom.C_terms[0][1]
    if structure == "lti":
        return pole_residue_lti(rom.A_terms[0][1], rom.A_terms[1][1], b, c)
    if structure == "stationary":
        return pole_residue_affine_singular(rom.A_terms[0][1], rom.A_terms[1][1], b, c)
    if structure == "kron":
        ks = rom.kron
        return kron_pole_residue(ks.E, ks.A, ks.E_xi, ks.A_xi, b, c)
    raise ValueError("rom has an unrecognized operator structure")


def _guard_pole_distance(diffs, poles, points, what="a pole"):
    """Raise if a row of diffs (one point's offsets from the poles) nearly vanishes.

    Pole-residue forms share it with ``certify._cauchy_sums``, whose nodes are its poles (``what`` "a data node").
    """
    scale = max(np.max(np.abs(poles)), 1.0)
    near = np.min(np.abs(diffs), axis=1) < POLE_EVAL_SEPARATION * scale
    if np.any(near):
        raise ValueError(f"evaluation point {points[np.argmax(near)]} coincides with {what}")


def pole_residue_eval(pr, points, order=0, wrt=0):
    """A pole-residue form (order 0) or its first partial (order 1) at N points.

    ``points`` and ``wrt`` are as for the ``evaluate``/``partial`` methods,
    which call this; for 2-D forms ``wrt`` selects the variable (0 for s, 1
    for xi).  Returns (N, n_o, n_i).
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    _check_wrt(wrt, pr.n_p)
    points = _points(points, pr.n_p)
    if pr.n_p == 2:
        ds = points[:, 0, None] - pr.s_poles  # (N, r_s)
        dxi = points[:, 1, None] - pr.xi_poles  # (N, r_xi)
        _guard_pole_distance(ds, pr.s_poles, points)
        _guard_pole_distance(dxi, pr.xi_poles, points)
        ds, dxi = ds[:, :, None], dxi[:, None, :]
        if order == 0:
            coeff = 1.0 / (ds * dxi)
        elif wrt == 0:
            coeff = -1.0 / (ds**2 * dxi)
        else:
            coeff = -1.0 / (ds * dxi**2)
        return np.einsum("nkl,klo,klm->nom", coeff, pr.left_factors, np.conj(pr.right_factors))
    ds = points[:, 0, None] - pr.poles  # (N, r)
    _guard_pole_distance(ds, pr.poles, points)
    coeff = 1.0 / ds if order == 0 else -1.0 / ds**2
    out = np.einsum("nk,ko,km->nom", coeff, pr.left_factors, np.conj(pr.right_factors))
    if order == 0 and pr.constant is not None:
        out = out + pr.constant_term()
    return out
