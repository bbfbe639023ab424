import math
import warnings

import numpy as np
import pytest

from l2rom import optimize
from l2rom.certify import h2_residuals
from l2rom.core import SampleSet, SingularOperatorError, batch_states, kron_rom, lti_rom, stationary_rom
from l2rom.models import (
    AffineLtiFom,
    make_kron_parametric,
    make_penzl,
    make_poisson,
    make_random_stable,
    sample_frequency_response,
    sample_h2l2,
    sample_stationary,
)
from l2rom.optimize import (
    FitOptions,
    fit,
    greedy_rb_init,
    irka_init,
    l2_gradients,
    l2_gradients_kron,
    l2_objective,
)
from l2rom.spectral import pole_residue


def small_lti(r=3, n_i=2, n_o=2, seed=0):
    g = np.random.default_rng(seed)
    a = g.standard_normal((r, r)) - 2 * np.eye(r)
    return lti_rom(np.eye(r), a, g.standard_normal((r, n_i)), g.standard_normal((n_o, r)))


def axis_samples(rom, freqs=(0.5, 1.0, 3.0), weights=None):
    pts = np.concatenate([1j * np.asarray(freqs), -1j * np.asarray(freqs)])[:, None]
    _, _, vals = batch_states(rom, pts)
    if weights is None:
        weights = np.ones(len(pts))
    return SampleSet(pts, vals, weights)


def test_objective_zero_on_reproduction():
    rom = small_lti()
    data = axis_samples(rom)
    assert l2_objective(rom, data) <= 1e-25


def test_objective_matches_fsum():
    rom = small_lti(seed=1)
    target = small_lti(seed=2)
    data = axis_samples(target)
    _, _, y_hat = batch_states(rom, data.points)
    terms = [
        float(w) * float(np.sum(np.abs(y - v) ** 2))
        for w, y, v in zip(data.weights, y_hat, data.values)
    ]
    assert abs(l2_objective(rom, data) - math.fsum(terms)) <= 1e-12 * math.fsum(terms)


def test_objective_zero_rom_equals_weighted_sample_norm():
    target = small_lti(seed=3)
    data = axis_samples(target)
    zero = lti_rom(np.eye(2), -np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
    expected = float(np.sum(data.weights * np.sum(np.abs(data.values) ** 2, axis=(1, 2))))
    assert abs(l2_objective(zero, data) - expected) <= 1e-12 * expected


def test_objective_linear_in_weights():
    rom = small_lti(seed=4)
    target = small_lti(seed=5)
    data = axis_samples(target)
    doubled = SampleSet(data.points, data.values, 2.0 * data.weights)
    assert np.isclose(l2_objective(rom, doubled), 2.0 * l2_objective(rom, data))


def test_gradients_vanish_at_zero_residual():
    rom = small_lti(seed=6)
    data = axis_samples(rom)
    g = l2_gradients(rom, data)
    assert np.sqrt(sum(np.sum(m * m) for m in g)) <= 1e-10


def test_gradient_matches_fd_lti():
    rom = small_lti(seed=7)
    target = small_lti(seed=8)
    data = axis_samples(target)
    g = l2_gradients(rom, data)
    # real arrays in packing order: the A-terms, then the B- and C-terms
    assert [m.shape for m in g] == [(3, 3), (3, 3), (3, 2), (2, 3)] and all(np.isrealobj(m) for m in g)
    with pytest.raises(ValueError, match="Kronecker"):
        l2_gradients_kron(rom, data)
    h = 1e-6
    # spot-check a few entries of the gradient of the second A-term (the constant term, i.e. -A)
    for (i, j) in ((0, 0), (1, 2), (2, 1)):
        pert = np.zeros((3, 3))
        pert[i, j] = h
        fam, mat = rom.A_terms[1]
        rp = lti_rom(rom.A_terms[0][1], mat + pert, rom.B_terms[0][1], rom.C_terms[0][1])
        rm = lti_rom(rom.A_terms[0][1], mat - pert, rom.B_terms[0][1], rom.C_terms[0][1])
        fd = (l2_objective(rp, data) - l2_objective(rm, data)) / (2 * h)
        assert abs(g[1][i, j] - fd) <= 1e-6 * max(abs(fd), 1.0)


def test_kron_gradients_match_fd():
    rs, rx = 2, 2
    g = np.random.default_rng(13)
    e = np.eye(rs)
    a = -np.eye(rs) - 0.5 * g.standard_normal((rs, rs)) @ g.standard_normal((rs, rs)).T
    e_xi = np.eye(rx)
    a_xi = 1.5 * np.eye(rx) + 0.2 * g.standard_normal((rx, rx))
    b = g.standard_normal((rs * rx, 1))
    c = g.standard_normal((1, rs * rx))
    rom = kron_rom(e, a, e_xi, a_xi, b, c)
    pts = []
    for w in (0.7, 2.1):
        for th in (0.5, 2.5):
            pts.append((1j * w, np.exp(1j * th)))
            pts.append((-1j * w, np.exp(-1j * th)))
    pts = np.array(pts)
    vals = 0.1 * np.ones((len(pts), 1, 1), dtype=complex)
    data = SampleSet(pts, vals, np.ones(len(pts)))
    _, d_a, _, d_a_xi, _, _ = l2_gradients_kron(rom, data)
    h = 1e-6

    def obj(aa):
        return l2_objective(kron_rom(e, aa, e_xi, a_xi, b, c), data)

    for (i, j) in ((0, 0), (1, 1), (0, 1)):
        pert = np.zeros((rs, rs))
        pert[i, j] = h
        fd = (obj(a + pert) - obj(a - pert)) / (2 * h)
        assert abs(d_a[i, j] - fd) <= 1e-6 * max(abs(fd), 1.0)

    def obj_xi(aa):
        return l2_objective(kron_rom(e, a, e_xi, aa, b, c), data)

    pert = np.zeros((rx, rx))
    pert[1, 0] = h
    fd = (obj_xi(a_xi + pert) - obj_xi(a_xi - pert)) / (2 * h)
    assert abs(d_a_xi[1, 0] - fd) <= 1e-6 * max(abs(fd), 1.0)


def test_kron_rom_with_a_zero_factor_fits():
    # with A_xi = 0 the operator (s E - A) kron xi E_xi is regular at every
    # sample (xi on the unit circle), and the chain rule to the factors needs
    # no factor to be nonzero
    data = sample_h2l2(make_kron_parametric(2, 2, seed=3), 16, 8)
    g = np.random.default_rng(31)
    a = -np.eye(2) - 0.5 * np.diag([1.0, 2.0])
    rom = kron_rom(np.eye(2), a, np.eye(2), np.zeros((2, 2)), g.standard_normal((4, 1)), g.standard_normal((1, 4)))
    trace = fit(rom, data, FitOptions(max_iters=50))
    assert trace.iterations > 0
    assert trace.objectives[-1] < 0.5 * trace.objectives[0]


def test_fit_monotone_and_converges():
    target = small_lti(r=2, n_i=1, n_o=1, seed=20)
    data = axis_samples(target, freqs=(0.3, 0.9, 2.0, 5.0))
    g = np.random.default_rng(21)
    init = lti_rom(
        np.eye(2),
        g.standard_normal((2, 2)) - 2 * np.eye(2),
        g.standard_normal((2, 1)),
        g.standard_normal((1, 2)),
    )
    trace = fit(init, data, FitOptions(max_iters=500))
    diffs = np.diff(trace.objectives)
    assert np.all(diffs <= 1e-12 * max(trace.objectives[0], 1.0))
    assert trace.objectives[-1] < 1e-2 * trace.objectives[0]
    if trace.converged:
        assert trace.grad_norms[-1] <= 1e-8 * trace.grad_norms[0]


def test_fit_stops_on_a_tie_that_fails_the_curvature_test(monkeypatch):
    # an objective that cannot resolve any decrease: Armijo accepts a tiny
    # step that ties, where the slope is as steep as before
    target = small_lti(r=2, n_i=1, n_o=1, seed=20)
    data = axis_samples(target)
    init = small_lti(r=2, n_i=1, n_o=1, seed=21)
    monkeypatch.setattr(optimize._Misfit, "value", lambda self, vec: 1.0)
    trace = fit(init, data)
    assert trace.message == "objective stagnated"
    assert not trace.converged and trace.iterations == 0
    assert trace.objectives == [1.0]


def test_fit_backs_off_a_step_that_makes_the_operator_singular():
    # one sample at p = 1, where both A-terms have coefficient 1, so their
    # gradients are equal: 0.5 each, exactly, and the first trial step
    # (t = 1 along -g) sets both A-terms to 0, so A(1) = 0
    data = SampleSet(np.array([[1.0]]), np.array([1.25]), np.ones(1))
    init = stationary_rom(0.5 * np.eye(1), 0.5 * np.eye(1), np.ones((1, 1)), np.ones((1, 1)))
    assert np.array_equal(l2_gradients(init, data)[:2], [[[0.5]], [[0.5]]])
    trace = fit(init, data, FitOptions(max_iters=20))
    assert trace.step_lengths[0] < 1.0 and trace.backtracks >= 1
    diffs = np.diff(trace.objectives)
    assert np.all(diffs <= 0.0) and trace.objectives[-1] < trace.objectives[0]
    # a start where A(p) is singular at a sample point cannot be fitted
    singular = stationary_rom(0.5 * np.eye(1), -0.5 * np.eye(1), np.ones((1, 1)), np.ones((1, 1)))
    with pytest.raises(SingularOperatorError):
        fit(singular, data)


def test_fit_counts_its_evaluations(monkeypatch):
    target = small_lti(r=2, n_i=1, n_o=1, seed=23)
    data = axis_samples(target)
    init = small_lti(r=2, n_i=1, n_o=1, seed=24)
    calls = {"value": 0, "gradient": 0, "assemble": 0}

    def counted(name, method):
        def wrapper(*args):
            calls[name] += 1
            return method(*args)

        return wrapper

    for name in ("value", "gradient"):
        monkeypatch.setattr(optimize._Misfit, name, counted(name, getattr(optimize._Misfit, name)))
    monkeypatch.setattr(optimize, "_assemble", counted("assemble", optimize._assemble))
    trace = fit(init, data, FitOptions(max_iters=30))
    assert trace.iterations > 0 and trace.backtracks > 0
    assert (trace.objective_calls, trace.gradient_calls) == (calls["value"], calls["gradient"])
    # A(p), B(p) and C(p) are assembled once per trial: every gradient is
    # taken at the trial just evaluated and reuses its primal states
    assert calls["assemble"] == 3 * trace.objective_calls
    stagnated = trace.message in ("objective stagnated", "objective resolution reached")
    assert trace.gradient_calls == trace.iterations + 1 + stagnated
    assert trace.objective_calls == trace.iterations + trace.backtracks + 1 + stagnated


def test_fit_zero_iterations_at_optimum():
    rom = small_lti(seed=22)
    data = axis_samples(rom)
    trace = fit(rom, data)
    assert trace.converged and trace.iterations == 0


def test_fit_options_validation():
    for bad in (dict(grad_tol=0.0), dict(grad_tol=-1e-8), dict(max_iters=-5)):
        with pytest.raises(ValueError):
            FitOptions(**bad)
    assert FitOptions(max_iters=0).max_iters == 0


def test_irka_exact_copy_when_r_equals_n():
    fom = make_random_stable(4, seed=30)
    rom = irka_init(fom, 4)
    assert np.array_equal(rom.A_terms[1][1], fom.A)


def test_irka_produces_good_siso_approximant():
    fom = make_random_stable(30, seed=31)
    rom = irka_init(fom, 4)
    pr = pole_residue(rom)
    assert np.all(pr.poles.real < 0)
    # reduced model tracks the full response on the axis
    errs = []
    for w in np.logspace(-1, 1.5, 12):
        h_full = fom.evaluate([1j * w])[0]
        h_red = rom.C_terms[0][1] @ np.linalg.solve(
            1j * w * rom.A_terms[0][1] - rom.A_terms[1][1], rom.B_terms[0][1]
        )
        errs.append(np.abs(h_full - h_red) / max(np.abs(h_full), 1e-12))
    assert np.median(errs) < 0.1


def test_greedy_rb_interpolates_snapshot():
    fom = make_poisson(cells_per_side=8)
    for r, candidates in ((1, [1.0]), (3, np.logspace(-1, 1, 20))):
        rom = greedy_rb_init(fom, r, candidates)
        # a Galerkin rom reproduces the output at every snapshot point it holds
        matched = 0
        for p in candidates:
            y_red = rom.C_terms[0][1] @ np.linalg.solve(
                rom.A_terms[0][1] + p * rom.A_terms[1][1], rom.B_terms[0][1]
            )
            y_full = fom.evaluate([p])[0]
            matched += np.max(np.abs(y_red - y_full)) <= 1e-10 * np.max(np.abs(y_full))
        assert matched >= r


def test_greedy_rb_duplicate_candidates_warn():
    fom = make_poisson(cells_per_side=8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rom = greedy_rb_init(fom, 3, [1.0, 1.0, 1.0])
    assert rom.r == 1
    assert any("independent snapshots" in str(w.message) for w in caught)


def test_greedy_rb_accuracy_on_poisson():
    fom = make_poisson(cells_per_side=8)
    rom = greedy_rb_init(fom, 3, np.logspace(-1, 1, 20))
    rel = []
    for p in np.linspace(0.1, 10.0, 15):
        y_red = rom.C_terms[0][1] @ np.linalg.solve(
            rom.A_terms[0][1] + p * rom.A_terms[1][1], rom.B_terms[0][1]
        )
        y_full = fom.evaluate([p])[0]
        rel.append(np.max(np.abs(y_red - y_full)) / np.max(np.abs(y_full)))
    assert max(rel) <= 1e-2


def test_fit_improves_stationary_objective():
    fom = make_poisson(cells_per_side=8)
    data = sample_stationary(fom, 20)
    init = greedy_rb_init(fom, 2, np.logspace(-1, 1, 10))
    trace = fit(init, data, FitOptions(max_iters=100))
    assert trace.objectives[-1] <= trace.objectives[0]
    diffs = np.diff(trace.objectives)
    assert np.all(diffs <= 1e-12 * max(trace.objectives[0], 1.0))


def test_fit_frequency_data_round_trip():
    fom = make_random_stable(10, seed=33)
    data = sample_frequency_response(fom, np.logspace(-1, 1, 8))
    init = irka_init(fom, 3)
    trace = fit(init, data, FitOptions(max_iters=200))
    assert trace.objectives[-1] <= trace.objectives[0]


def test_irka_warns_when_stopped_at_max_iters(monkeypatch):
    fom = make_penzl()
    monkeypatch.setattr(optimize, "IRKA_MAX_ITERS", 1)
    with pytest.warns(RuntimeWarning, match="IRKA_MAX_ITERS=1 map evaluations"):
        irka_init(fom, 2)


class _PerturbedSolves:
    """A FOM whose factored solves are perturbed at a given relative size."""

    def __init__(self, fom, rel, seed):
        self.fom, self.rel, self.rng = fom, rel, np.random.default_rng(seed)

    def __getattr__(self, name):
        return getattr(self.fom, name)

    def factor(self, s):
        lu, outer = self.fom.factor(s), self

        class Perturbed:
            def solve(self, rhs, trans="N"):
                x = lu.solve(rhs, trans)
                noise = outer.rng.standard_normal(x.shape)
                if np.iscomplexobj(x):
                    noise = noise + 1j * outer.rng.standard_normal(x.shape)
                return x * (1.0 + outer.rel * noise)

        return Perturbed()


def _irka_poles(fom):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rom = irka_init(fom, 2)
    pr = pole_residue(rom)
    assert np.max(np.abs(pr.poles.imag)) <= 1e-6 * np.max(np.abs(pr.poles))
    return np.sort(pr.poles.real)


def test_irka_penzl_same_poles_under_perturbed_solves():
    # the deterministic start lands on one fixed point whatever the last
    # digits of the full-order solves
    fom = make_penzl()
    reference = _irka_poles(fom)
    assert np.allclose(reference, [-310.375, -0.93481], rtol=1e-5, atol=0.0)
    for seed in range(12):
        poles = _irka_poles(_PerturbedSolves(fom, 1e-14, seed))
        assert np.allclose(poles, reference, rtol=1e-6, atol=0.0), f"seed {seed}: poles {poles}"


def _count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that appends its arguments to the returned list."""
    calls, wrapped = [], getattr(module, name)

    def counting(*args):
        calls.append(args)
        return wrapped(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_irka_penzl_in_few_map_evaluations(monkeypatch):
    # the plain fixed-point iteration contracts at a steady 0.716 per step
    # (56 evaluations); gated Aitken extrapolation cuts that to about a third
    evaluations = _count_calls(monkeypatch, optimize, "pole_residue_lti")
    poles = _irka_poles(make_penzl())
    assert len(evaluations) <= 20
    assert np.allclose(poles, [-310.37496096, -0.93481001], rtol=1e-6, atol=0.0)


class _CountedFactors:
    """A FOM that counts its factorizations."""

    def __init__(self, fom):
        self.fom, self.factors = fom, 0

    def __getattr__(self, name):
        return getattr(self.fom, name)

    def factor(self, s):
        self.factors += 1
        return self.fom.factor(s)


def test_irka_factors_one_member_per_conjugate_pair(monkeypatch):
    fom = _CountedFactors(make_random_stable(30, seed=31))
    evaluations = _count_calls(monkeypatch, optimize, "pole_residue_lti")
    poles = pole_residue(irka_init(fom, 4)).poles
    assert np.sum(np.abs(poles.imag) > 1e-8) == 2  # one conjugate pair, two real poles
    # one factorization for the Krylov start, then three per evaluation
    assert fom.factors == 1 + 3 * len(evaluations)


def _guard_rejections(maps):
    """Evaluations that resumed from the plain iterate saved before an extrapolation.

    ``maps`` holds (iterate, image) per evaluation; a plain step evaluates
    the previous image, a rejected extrapolation the one before it.
    """
    return sum(
        np.array_equal(maps[k][0], maps[k - 2][1]) and not np.array_equal(maps[k][0], maps[k - 1][1])
        for k in range(2, len(maps))
    )


def test_irka_fixed_points_satisfy_h2_conditions(monkeypatch):
    # the extrapolated iteration must still end at a fixed point: the
    # interpolation conditions of continuous-time H2 are the oracle
    maps = []
    plain_map = optimize._irka_map

    def recording(fom, B, C, state, time_domain):
        out = plain_map(fom, B, C, state, time_domain)
        maps.append((state.copy(), out[2].copy()))
        return out

    monkeypatch.setattr(optimize, "_irka_map", recording)
    cases = [(20 + seed, io, io, r, seed) for io in (1, 2) for r in (2, 4) for seed in range(2, 8)]
    cases.append((39, 3, 2, 4, 19))  # its guard rejects an extrapolation
    certified = rejected = 0
    for n, n_i, n_o, r, seed in cases:
        fom = make_random_stable(n, n_i, n_o, seed=seed)
        maps.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rom = irka_init(fom, r)
        rejected += _guard_rejections(maps)
        if caught:
            continue
        cert = h2_residuals(fom, pole_residue(rom), tolerance=1e-6)
        assert cert.passed, f"n={n} {n_i}x{n_o} r={r} seed={seed}: residual {cert.max_residual:.2e}"
        certified += 1
    assert certified >= len(cases) - 2
    assert rejected >= 1


def test_irka_rejects_unstable_model():
    # a system with all poles in the right half-plane projects onto unstable reduced models
    n = 6
    a = np.random.default_rng(1).standard_normal((n, n)) + 3.0 * np.eye(n)
    fom = AffineLtiFom(E=np.eye(n), A=a, B=np.ones((n, 1)), C=np.ones((1, n)))
    with pytest.raises(ValueError, match="unstable"):
        irka_init(fom, 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: irka_init(make_random_stable(10), 0), "reduced order r must be at least 1"),
        (lambda: greedy_rb_init(make_poisson(8), 0, [0.5, 1.0]), "reduced order r must be at least 1"),
        (lambda: sample_frequency_response(make_random_stable(4), []), "freqs must hold at least one"),
        (lambda: make_random_stable(0), "n must be at least 1"),
        (lambda: make_random_stable(4, n_i=0), "n_i must be at least 1"),
        (lambda: make_random_stable(4, n_o=0), "n_o must be at least 1"),
        (lambda: make_kron_parametric(0, 2), "r_s_terms must be at least 1"),
        (lambda: make_kron_parametric(2, 0), "r_xi_terms must be at least 1"),
        (lambda: make_kron_parametric(2, 2, n_i=0), "n_i must be at least 1"),
        (lambda: make_kron_parametric(2, 2, n_o=0), "n_o must be at least 1"),
        (lambda: sample_h2l2(make_kron_parametric(2, 2), n_s=0, n_xi=4), "n_s must be at least 1"),
    ],
    ids=["irka-r0", "rb-r0", "no-freqs", "lti-n0", "lti-inputs0", "lti-outputs0", "kron-s-terms0",
         "kron-xi-terms0", "kron-inputs0", "kron-outputs0", "h2l2-n_s0"],
)
def test_degenerate_inputs_raise_value_errors_that_name_the_argument(call, message):
    with pytest.raises(ValueError, match=message):
        call()
