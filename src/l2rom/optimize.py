"""L2 fitting of structured reduced models.

Objective and gradient evaluation over weighted sample sets, gradients with
respect to Kronecker factors, a quasi-Newton fitter with Armijo backtracking,
and two initializers (tangential rational Krylov for LTI systems, greedy
reduced basis for stationary affine systems).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    SampleSet,
    SingularOperatorError,
    StructuredRom,
    _assemble,
    _solve_batch,
    _term_table,
    kron_rom,
    lti_rom,
    stationary_rom,
)
from .models import _kernels
from .spectral import mirror, pole_residue_lti, stable

__all__ = [
    "FitOptions",
    "FitTrace",
    "l2_objective",
    "l2_gradients",
    "l2_gradients_kron",
    "fit",
    "irka_init",
    "greedy_rb_init",
]

# Line search and curvature memory of fit: the first trial step, its
# backtracking factor, the Armijo sufficient-decrease constant, the
# strong-Wolfe curvature constant that settles a trial tying the current
# objective, the step below which the line search fails, and the (s, y)
# pairs kept.
STEP_INIT = 1.0
BACKTRACK = 0.5
SUFFICIENT_DECREASE = 1e-4
CURVATURE = 0.9
MIN_STEP = 1e-16
LBFGS_MEMORY = 10

# Gate of irka_init's Aitken extrapolation: the most the two latest
# contraction-rate estimates may differ, relative to the latest, and the
# least cosine between the last two fixed-point residuals.  The iteration
# stops when the shifts move by at most IRKA_TOL relative to their largest,
# or with a RuntimeWarning after IRKA_MAX_ITERS map evaluations.
AITKEN_RATE_RTOL = 0.1
AITKEN_ALIGNMENT = 0.99
IRKA_TOL = 1e-10
IRKA_MAX_ITERS = 200


@dataclass(frozen=True)
class FitOptions:
    max_iters: int = 500
    grad_tol: float = 1e-8  # relative to the initial gradient norm

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be non-negative, got {self.max_iters}")
        if not self.grad_tol > 0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")


@dataclass
class FitTrace:
    """Per-iteration record of a fit run plus the final model."""

    objectives: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    step_lengths: list = field(default_factory=list)
    rom: StructuredRom | None = None
    converged: bool = False
    iterations: int = 0
    message: str = ""
    objective_calls: int = 0
    gradient_calls: int = 0
    backtracks: int = 0  # rejected line-search trials, each halving the step


def _packed_mats(rom):
    """The matrices of a rom in packing order.

    The A-terms (or the Kronecker factors E, A, E_xi, A_xi), then the B- and
    C-terms.
    """
    ks = rom.kron
    mats = [m for _, m in rom.A_terms] if ks is None else [ks.E, ks.A, ks.E_xi, ks.A_xi]
    return mats + [m for _, m in rom.B_terms + rom.C_terms]


def _pack_rom(rom):
    return np.concatenate([m.ravel() for m in _packed_mats(rom)])


def _unpack_mats(template, vec):
    """Split a packed vector into matrices shaped as those of ``template``."""
    mats, pos = [], 0
    for m in _packed_mats(template):
        mats.append(vec[pos : pos + m.size].reshape(m.shape))
        pos += m.size
    return mats


class _Misfit:
    """The weighted L2 misfit of one sample set as a function of a packed rom vector.

    Built once per sample set: the scalar families of the A-, B- and C-terms
    are evaluated at the sample points once, as (N, terms) tables, and
    weighted by 2 rho in conjugate for the gradient.  ``value(vec)``
    assembles A(p), B(p) and C(p) at all points with one contraction per
    operator and does the primal solves only.  It keeps the states of its
    last vector, so ``gradient(vec)`` there adds only the dual solves: the
    gradient is the real part of the per-term sums of x_d [yhat - Y] x^H,
    x_d [yhat - Y] and [yhat - Y] x^H against the weighted tables.  A kron
    rom chains its four operator-term gradients back to the factors with the
    adjoint of the contraction that builds the terms from them.  The rom's
    output and input counts must be those of the samples.
    """

    def __init__(self, template, data):
        dims = (template.n_o, template.n_i)
        if dims != data.values.shape[1:]:
            raise ValueError(f"the rom's (outputs, inputs) {dims} differ from the samples' {data.values.shape[1:]}")
        self.template, self.data = template, data
        groups = (template.A_terms, template.B_terms, template.C_terms)
        self._tables = [_term_table(terms, data.points) for terms in groups]
        self._adjoint_tables = [2.0 * data.weights[:, None] * np.conj(t) for t in self._tables]
        self._last = None  # (vec, A(p), C(p), x, yhat - Y) of the last primal solve

    def _states(self, vec):
        if self._last is None or not np.array_equal(self._last[0], vec):
            rom = self.template
            r, n_i, n_o = rom.r, rom.n_i, rom.n_o
            c0 = len(vec) - len(rom.C_terms) * n_o * r
            b0 = c0 - len(rom.B_terms) * r * n_i
            if rom.kron is None:
                a_mats = vec[:b0].reshape(-1, r, r)
            else:  # terms s*xi, -s, -xi, 1: E kron E_xi, E kron A_xi, A kron E_xi, A kron A_xi
                e, a, e_xi, a_xi = _unpack_mats(rom, vec)[:4]
                a_mats = np.einsum("iab,jcd->ijacbd", [e, a], [e_xi, a_xi]).reshape(4, r, r)
            t_a, t_b, t_c = self._tables
            ops, cops = _assemble(t_a, a_mats), _assemble(t_c, vec[c0:].reshape(-1, n_o, r))
            x = _solve_batch(ops, _assemble(t_b, vec[b0:c0].reshape(-1, r, n_i)), self.data.points)
            self._last = (vec.copy(), ops, cops, x, cops @ x - self.data.values)
        return self._last[1:]

    def value(self, vec):
        """The misfit at ``vec``; raises SingularOperatorError if some A(p) is singular."""
        err = self._states(vec)[3]
        return float(np.sum(self.data.weights * np.sum(np.abs(err) ** 2, axis=(1, 2))))

    def gradient(self, vec):
        """The packed gradient at ``vec``."""
        ops, cops, x, err = self._states(vec)
        x_d = _solve_batch(np.conj(np.swapaxes(ops, -1, -2)), np.conj(np.swapaxes(cops, -1, -2)), self.data.points)
        n = len(err)
        x_h = np.conj(np.swapaxes(x, -1, -2))
        left = x_d @ err
        w_a, w_b, w_c = self._adjoint_tables
        g_a = -(w_a.T @ (left @ x_h).reshape(n, -1)).real
        g_b = (w_b.T @ left.reshape(n, -1)).real
        g_c = (w_c.T @ (err @ x_h).reshape(n, -1)).real
        if self.template.kron is not None:
            e, a, e_xi, a_xi = _unpack_mats(self.template, vec)[:4]
            g6 = g_a.reshape(2, 2, len(e), len(e_xi), len(e), len(e_xi))
            g_a = [np.einsum("ijacbd,jcd->iab", g6, [e_xi, a_xi]), np.einsum("ijacbd,iab->jcd", g6, [e, a])]
        return np.concatenate([np.ravel(g) for g in (*g_a, g_b, g_c)])


def l2_objective(rom, data):
    """Weighted squared misfit sum_i rho_i ||Y_i - yhat(p_i)||_F^2."""
    return _Misfit(rom, data).value(_pack_rom(rom))


def l2_gradients(rom, data):
    """Gradients of l2_objective with respect to the rom matrices.

    A list of real arrays in packing order: the A-terms (or the Kronecker
    factors E, A, E_xi, A_xi), then the B- and C-terms.
    """
    return _unpack_mats(rom, _Misfit(rom, data).gradient(_pack_rom(rom)))


def l2_gradients_kron(rom, data):
    """l2_gradients of a rom with Kronecker structure: dE, dA, dE_xi, dA_xi, dB, dC."""
    if rom.kron is None:
        raise ValueError("rom has no Kronecker structure")
    return _unpack_mats(rom, _Misfit(rom, data).gradient(_pack_rom(rom)))


def _unpack_rom(template, vec):
    mats = _unpack_mats(template, vec)
    if template.kron is not None:
        return kron_rom(*mats)
    n_a = len(template.A_terms)
    n_b = len(template.B_terms)
    return StructuredRom(
        A_terms=tuple((fam, m) for (fam, _), m in zip(template.A_terms, mats[:n_a])),
        B_terms=tuple((fam, m) for (fam, _), m in zip(template.B_terms, mats[n_a : n_a + n_b])),
        C_terms=tuple((fam, m) for (fam, _), m in zip(template.C_terms, mats[n_a + n_b :])),
    )


def _lbfgs_direction(grad, pairs):
    """Two-loop recursion over (s, y) pairs; falls back to steepest descent."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * np.dot(s, q)
        alphas.append(a)
        q -= a * y
    if pairs:
        s, y, _ = pairs[-1]
        q *= np.dot(s, y) / np.dot(y, y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * np.dot(y, q)
        q += (a - b) * s
    return -q


def fit(init, data, opts=None):
    """Minimize the weighted L2 misfit over the rom matrices.

    Limited-memory quasi-Newton with Armijo backtracking; the objective
    trace is monotone non-increasing.  Each line-search trial costs one
    primal solve per sample point; the gradient at the trial the search
    accepts reuses that trial's states and adds one dual solve per point
    (``_Misfit``).  A trial step that makes the operator singular at some
    sample point is rejected by the line search.  A step whose objective
    ties the current one (a decrease below the objective's resolution) is
    taken only if the slope along it flattens,
    |g(x + t d).d| <= CURVATURE |g(x).d| (the strong-Wolfe curvature test);
    otherwise the fit stops without taking it, not converged: "objective
    resolution reached" when the slope itself is within the objective's
    rounding, |g(x).d| <= N eps f(x) over N samples, and "objective
    stagnated" when it is not.  The objective never rises.  Returns a
    FitTrace carrying the final rom and the counts of objective and
    gradient evaluations and of rejected trials.
    """
    if opts is None:
        opts = FitOptions()
    misfit = _Misfit(init, data)
    trace = FitTrace()

    def objective(vec):
        trace.objective_calls += 1
        try:
            val = misfit.value(vec)
        except SingularOperatorError:
            return np.inf
        return val if np.isfinite(val) else np.inf

    def gradient(vec):
        trace.gradient_calls += 1
        return misfit.gradient(vec)

    x = _pack_rom(init)
    f_x = objective(x)
    if not np.isfinite(f_x):
        raise SingularOperatorError(data.points)
    g = gradient(x)
    g_ref = np.linalg.norm(g)
    trace.objectives.append(f_x)
    trace.grad_norms.append(float(g_ref))

    pairs = []
    for it in range(opts.max_iters):
        g_norm = np.linalg.norm(g)
        if g_norm <= opts.grad_tol * g_ref:
            trace.converged = True
            trace.message = "gradient tolerance reached"
            break

        d = _lbfgs_direction(g, pairs)
        slope = np.dot(g, d)
        if slope >= 0:  # not a descent direction: reset curvature memory
            pairs.clear()
            d = -g
            slope = np.dot(g, d)

        t = STEP_INIT
        x_new = x + t * d
        f_new = objective(x_new)
        while not (np.isfinite(f_new) and f_new <= f_x + SUFFICIENT_DECREASE * t * slope):
            trace.backtracks += 1
            t *= BACKTRACK
            if t < MIN_STEP:
                break
            x_new = x + t * d
            f_new = objective(x_new)
        if t < MIN_STEP:
            trace.message = "line search failed; returning best iterate"
            break

        g_new = gradient(x_new)
        if not f_new < f_x and abs(np.dot(g_new, d)) > CURVATURE * abs(slope):
            # a tie that does not flatten the slope either; a slope within the
            # rounding of a sum of N terms means the objective cannot see the step
            at_resolution = abs(slope) <= len(data) * np.finfo(float).eps * f_x
            trace.message = "objective resolution reached" if at_resolution else "objective stagnated"
            break
        s, y = x_new - x, g_new - g
        sy = np.dot(s, y)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y, 1.0 / sy))
            if len(pairs) > LBFGS_MEMORY:
                pairs.pop(0)
        x, f_x, g = x_new, f_new, g_new
        trace.objectives.append(f_x)
        trace.grad_norms.append(float(np.linalg.norm(g)))
        trace.step_lengths.append(float(t))
        trace.iterations = it + 1
    else:
        trace.message = "maximum iterations reached"

    trace.rom = _unpack_rom(init, x)
    return trace


def _conjugate_leads(shifts):
    """The shifts whose solves span a real basis at a conjugation-closed shift set.

    Returns (k, paired) for each real shift (paired False: the real part of
    its column) and for the first member k of each conjugate pair (paired
    True: the real and imaginary parts of the column of the member with
    positive imaginary part span both columns of the pair, so the partner
    is never solved).
    """
    r = len(shifts)
    used = np.zeros(r, dtype=bool)
    scale = max(np.max(np.abs(shifts)), 1.0)
    leads = []
    for k in range(r):
        if used[k]:
            continue
        used[k] = True
        if abs(shifts[k].imag) <= 1e-10 * scale:
            leads.append((k, False))
            continue
        partner = next(
            (l for l in range(k + 1, r) if not used[l] and abs(shifts[l] - np.conj(shifts[k])) <= 1e-8 * scale),
            None,
        )
        if partner is not None:
            used[partner] = True
        leads.append((k, partner is not None))
    return leads


def _orth(mat):
    """The Q of the Householder QR (LAPACK dgeqrf, dorgqr) of a real (n, k) ``mat`` and the diagonal of its R.

    Q has min(n, k) orthonormal columns; a small diagonal entry marks a column that the ones before it nearly span.
    """
    lapack = _kernels("_flapack")
    qr, tau, _, _ = lapack.dgeqrf(mat)
    diag = np.diag(qr).copy()  # np.diag is a view, and dorgqr overwrites qr
    return lapack.dorgqr(qr[:, : len(tau)], tau, overwrite_a=1)[0], diag


def _project(fom, w, v):
    """The projection (W^T K0 V, W^T K1 V, W^T B, C V) of ``fom`` onto the bases ``w`` and ``v``."""
    return w.T @ fom.product(0, v), w.T @ fom.product(1, v), w.T @ fom.B, fom.C @ v


def _krylov_start(fom, r):
    """Orthonormal basis of the order-r Krylov space of (-A)^{-1} E from (-A)^{-1} B 1.

    Its columns span the moments of the transfer function at s = 0, the
    rational Krylov space of one factorization of -A (``fom.factor(0)``)
    and r solves, each orthonormalized into the basis by ``_orth``.
    """
    lu = fom.factor(0.0)
    basis = np.zeros((fom.n, 0))
    for k in range(r):
        q = lu.solve(fom.product(1, basis[:, -1]) if k else fom.B @ np.ones(fom.n_i))
        basis = _orth(np.column_stack([basis, q]))[0]
    return basis


def _nearest_order(new, old):
    """Permutation that puts each entry of ``new`` in the slot of its greedily nearest ``old`` entry."""
    order = np.empty(len(new), dtype=int)
    remaining = list(range(len(old)))
    for k, z in enumerate(new):
        order[remaining.pop(int(np.argmin(np.abs(z - old[remaining]))))] = k
    return order


def _unit_aligned(new, old):
    """The rows of ``new`` at unit norm, each in the phase that makes its inner product with the row of ``old`` real.

    A tangential direction matters only up to a complex factor; fixing norm
    and phase against the previous iterate makes successive directions
    comparable, so that they can be differenced and extrapolated.
    """
    inner = np.sum(np.conj(old) * new, axis=1)
    phase = np.ones_like(inner)
    turned = np.abs(inner) > 0
    phase[turned] = np.conj(inner[turned]) / np.abs(inner[turned])
    return new * (phase / np.linalg.norm(new, axis=1))[:, None]


def _split(state, n_i, n_o):
    """Shifts (r,), right (r, n_i) and left (r, n_o) tangential directions of a flat IRKA iterate."""
    r = len(state) // (1 + n_i + n_o)
    return state[:r], state[r : r * (1 + n_i)].reshape(r, n_i), state[r * (1 + n_i) :].reshape(r, n_o)


def _irka_map(fom, state):
    """One evaluation of the IRKA fixed-point map.

    Petrov-Galerkin projection (``_project``) onto the orthonormalized real
    bases of the primal and adjoint solves at the shifts of ``state``, in its
    tangential directions; each real shift or conjugate pair costs one factorization.
    Returns the reduced (E, A, B, C), its poles and the image iterate: the
    mirrored poles, matched to the shifts (``_nearest_order``), with their
    right and left residue factors (``_unit_aligned``).
    """
    B, C, time_domain = fom.B, fom.C, fom.time_domain
    shifts, b_dirs, c_dirs = _split(state, fom.n_i, fom.n_o)
    v_cols, w_cols = [], []
    for k, paired in _conjugate_leads(shifts):
        lu = fom.factor(shifts[k])
        for cols, x in (
            (v_cols, lu.solve(B @ b_dirs[k])),
            (w_cols, lu.solve(C.conj().T @ c_dirs[k], trans="H")),
        ):
            x = np.conj(x) if shifts[k].imag < 0 else x
            cols.append(x.real)
            if paired:
                cols.append(x.imag)
    k0, k1, b_r, c_r = _project(fom, _orth(np.column_stack(w_cols))[0], _orth(np.column_stack(v_cols))[0])
    reduced = k1, -k0, b_r, c_r
    pr = pole_residue_lti(*reduced)
    poles = pr.poles
    mirrored = np.where(stable(poles, time_domain), mirror(poles, time_domain), poles)  # unstable poles stay
    order = _nearest_order(mirrored, shifts)
    image = np.concatenate([
        mirrored[order],
        _unit_aligned(pr.right_factors[order], b_dirs).ravel(),
        _unit_aligned(pr.left_factors[order], c_dirs).ravel(),
    ])
    return reduced, poles, image


def _aitken(image, residuals, r, time_domain):
    """The Aitken extrapolation of a steadily contracting IRKA iteration, or None.

    ``residuals`` holds F(z) - z of consecutive plain steps, latest last.
    From the last three, rho_0 = Re<f1, f0>/|f1|^2 and
    rho_1 = Re<f2, f1>/|f2|^2 estimate the contraction rate; when
    |rho_0| < 1, the two agree to AITKEN_RATE_RTOL and f1, f0 are aligned
    to AITKEN_ALIGNMENT, the limit of the linear iteration is
    F(z) + rho_0/(1 - rho_0) f0.  A real rho_0 keeps the shifts closed
    under conjugation.  None when the gate is shut or an extrapolated shift
    (the first r entries) leaves the admissible region, the mirror image of
    the stability region.
    """
    if len(residuals) < 3:
        return None
    f2, f1, f0 = residuals[-3:]
    inner = np.vdot(f1, f0)
    rho0 = inner.real / np.vdot(f1, f1).real
    rho1 = np.vdot(f2, f1).real / np.vdot(f2, f2).real
    steady = abs(rho0) < 1.0 and abs(rho0 - rho1) <= AITKEN_RATE_RTOL * abs(rho0)
    if not (steady and abs(inner) >= AITKEN_ALIGNMENT * np.linalg.norm(f1) * np.linalg.norm(f0)):
        return None
    state = image + rho0 / (1.0 - rho0) * f0
    return state if np.all(stable(mirror(state[:r], time_domain), time_domain)) else None


def irka_init(fom, r):
    """Tangential rational Krylov fixed-point iteration for LTI systems.

    ``fom`` is a ``models.AffineLtiFom``: ``factor(s)`` is the factored s E - A,
    ``product`` multiplies by K0 = -A or K1 = E, and ``time_domain``, "ct" or
    "dt", sets the mirror images and the stability test.  For r >= n the result
    is the model itself, projected onto the identity (``_project``).  The first shifts are
    the mirror images of the poles of the Galerkin projection onto the Krylov
    space of (-A)^{-1} E at s = 0 (``_krylov_start``), so the result is
    deterministic.  Each step projects (Petrov-Galerkin) at the current shifts
    sigma, in tangential directions from the residue factors, and maps the
    iterate z (shifts and unit directions) to F(z): the mirror images g of the
    reduced poles, matched to sigma, and their residue factors (``_irka_map``).
    Each real shift or conjugate pair costs one factorization, a primal and an
    adjoint solve.  The iteration stops when max|g - sigma| <= IRKA_TOL max|g|
    and returns the order-r LTI StructuredRom projected at sigma.

    A plain step takes z <- F(z).  When three plain steps contract at a
    steady rate, one step extrapolates instead (``_aitken``).  The next
    evaluation keeps it only if |F(z) - z| fell below its value before the
    extrapolation; otherwise the iteration resumes from the plain iterate
    and extrapolates no more in this call.

    Stopping after IRKA_MAX_ITERS map evaluations emits a RuntimeWarning;
    an unstable final iterate (a pole in the closed right half-plane, or on
    or outside the unit circle for "dt") raises ValueError.
    """
    if r < 1:
        raise ValueError(f"the reduced order r must be at least 1, got {r}")
    time_domain, n_i, n_o = fom.time_domain, fom.n_i, fom.n_o
    if r >= fom.n:  # the exact copy: E = K1 and A = -K0, projected onto the identity
        k0, k1, b, c = _project(fom, np.eye(fom.n), np.eye(fom.n))
        return lti_rom(k1, -k0, b, c)

    v0 = _krylov_start(fom, r)
    k0, k1, _, _ = _project(fom, v0, v0)
    lam0 = np.linalg.eigvals(np.linalg.solve(k1, -k0)).astype(complex)
    state = np.concatenate([
        np.where(stable(lam0, time_domain), mirror(lam0, time_domain), lam0),
        np.full(r * n_i, 1.0 / np.sqrt(n_i)),
        np.full(r * n_o, 1.0 / np.sqrt(n_o)),
    ])

    residuals = []  # F(z) - z of consecutive plain steps
    extrapolate = True
    fallback = None  # the plain iterate and |F(z) - z| before an extrapolation
    for _ in range(IRKA_MAX_ITERS):
        reduced, poles, image = _irka_map(fom, state)
        residual = image - state
        if fallback is not None:
            (plain, before), fallback = fallback, None
            if not np.linalg.norm(residual) < before:  # the extrapolation did not help: undo it
                state, extrapolate = plain, False
                continue
            residuals = []
        move = np.max(np.abs(residual[:r]))
        scale = max(np.max(np.abs(image[:r])), 1e-300)
        if move <= IRKA_TOL * scale:
            break
        residuals = [*residuals[-2:], residual]
        state = image
        jump = _aitken(image, residuals, r, time_domain) if extrapolate else None
        if jump is not None:
            fallback = (image, np.linalg.norm(residual))
            state = jump
    else:
        warnings.warn(
            f"irka_init stopped after IRKA_MAX_ITERS={IRKA_MAX_ITERS} map evaluations "
            f"with relative shift movement {move / scale:.3e} (tol {IRKA_TOL:.1e})",
            RuntimeWarning,
            stacklevel=2,
        )
    if not np.all(stable(poles, time_domain)):
        raise ValueError(f"irka_init produced an unstable reduced model (poles {poles})")
    return lti_rom(*reduced)


def greedy_rb_init(fom, r, candidates):
    """Greedy reduced-basis initializer for affine stationary systems.

    ``fom`` is a ``models.AffineStationaryFom``, y(p) = C (A1 + p A2)^{-1} B:
    ``factor(p)`` is the factored A1 + p A2, ``product`` multiplies by A1 or A2.
    Each candidate costs one factorization and one solve, whose state is
    reused as the snapshot when the candidate is picked.  The output errors
    start as max|y(p)| over the candidates.  Each of min(r, number of
    candidates) passes picks the unpicked candidate of largest error,
    re-orthonormalizes the basis with its snapshot (``_orth``, dropping a
    column whose R diagonal is below 1e-12 of the largest), projects
    (one-sided Galerkin, ``_project``) and measures every candidate's
    reduced output error in one batched solve.  Returns the last projection,
    with a UserWarning when it has fewer than r independent snapshots.
    """
    if r < 1:
        raise ValueError(f"the reduced order r must be at least 1, got {r}")
    candidates = np.unique(np.asarray(candidates, dtype=float))
    if len(candidates) == 0:
        raise ValueError("at least one candidate parameter point is required")

    states = [fom.factor(p).solve(fom.B) for p in candidates]
    y_full = np.stack([fom.C @ x for x in states])

    errs = np.max(np.abs(y_full), axis=(1, 2))
    basis = np.zeros((fom.n, 0))
    chosen = []
    for _ in range(min(r, len(candidates))):
        errs[chosen] = -1.0
        chosen.append(int(np.argmax(errs)))
        q, diag = _orth(np.hstack([basis, states[chosen[-1]]]))
        basis = q[:, np.abs(diag) > 1e-12 * max(np.max(np.abs(diag)), 1e-300)]
        a1_r, a2_r, b_r, c_r = _project(fom, basis, basis)
        y_red = c_r @ np.linalg.solve(a1_r + candidates[:, None, None] * a2_r, b_r[None])
        errs = np.max(np.abs(y_full - y_red), axis=(1, 2))
    if basis.shape[1] < r:
        warnings.warn(f"only {basis.shape[1]} independent snapshots found; reduced order lowered", stacklevel=2)
    return stationary_rom(a1_r, a2_r, b_r, c_r)
