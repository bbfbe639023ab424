"""End-to-end acceptance checks.

Each test covers one contract: gradient exactness against finite
differences, reproduction of the two benchmark studies, the interpolatory
optimality conditions of every family, the quadrature oracle behind the
mirrored-point formulas, the singular-coefficient pole-residue conversion,
and the optimizer trace contract.
"""

import time

import numpy as np
import scipy.integrate

from l2rom.certify import (
    Interval,
    h2_ct_residuals,
    h2_dt_residuals,
    h2l2_residuals,
    ls_residuals,
    stationary_residuals,
)
from l2rom.core import SampleSet, batch_states, kron_rom, lti_rom, stationary_rom
from l2rom.models import (
    make_kron_parametric,
    make_penzl,
    make_poisson,
    make_random_stable,
    sample_frequency_response,
    sample_h2l2,
    sample_stationary,
    sample_unit_circle,
)
from l2rom.optimize import (
    FitOptions,
    _pack_rom,
    _unpack_rom,
    fit,
    greedy_rb_init,
    irka_init,
    l2_gradients,
    l2_gradients_kron,
    l2_objective,
)
from l2rom.spectral import pole_residue, pole_residue_affine_singular


def assert_trace_contract(trace):
    """Objective trace monotone; convergence implies the gradient dropped.

    One objective and one gradient evaluation start the fit, each taken
    step costs one more of each plus its rejected trials (``backtracks``),
    and a stagnated fit evaluated a trial and its gradient that it did not
    take.
    """
    objs = np.asarray(trace.objectives)
    assert np.all(np.diff(objs) <= 1e-12 * max(objs[0], 1.0)), "objective not monotone"
    if trace.converged:
        assert trace.grad_norms[-1] <= 1e-8 * max(trace.grad_norms[0], 1e-300)
    stagnated = trace.message == "objective stagnated"
    assert trace.gradient_calls == trace.iterations + 1 + stagnated
    assert trace.objective_calls == trace.iterations + trace.backtracks + 1 + stagnated


def _closed_axis_points(g, num, n_p=1):
    w = np.sort(g.uniform(0.2, 5.0, num // 2))
    pts = np.concatenate([1j * w, -1j * w])
    return pts[:, None]


def _random_lti(g, r, n_i, n_o, time_domain):
    a = g.standard_normal((r, r))
    a = -(a @ a.T) / 2 - 0.5 * np.eye(r)
    if time_domain == "dt":
        a = 0.5 * a / max(np.max(np.abs(np.linalg.eigvals(a))), 1.0)
    return lti_rom(np.eye(r), a, g.standard_normal((r, n_i)), g.standard_normal((n_o, r)))


def _random_stationary(g, r, n_i, n_o):
    a2 = g.standard_normal((r, r))
    a2 = a2 @ a2.T / 2 + 0.5 * np.eye(r)
    return stationary_rom(np.eye(r), a2, g.standard_normal((r, n_i)), g.standard_normal((n_o, r)))


def _random_kron(g, rs, rx, n_i, n_o):
    a = g.standard_normal((rs, rs))
    a = -(a @ a.T) / 2 - 0.5 * np.eye(rs)
    ax = g.standard_normal((rx, rx))
    ax = ax @ ax.T / 2 + 1.5 * np.eye(rx)
    return kron_rom(
        np.eye(rs), a, np.eye(rx), ax,
        g.standard_normal((rs * rx, n_i)), g.standard_normal((n_o, rs * rx)),
    )


def _gradient_instance(structure, seed):
    """Build a (rom, data) pair of the requested operator structure.

    A structure with the suffix "-open" keeps the sample points of the
    closed instance with positive imaginary part and drops their conjugate
    partners, so the sample set is not closed under conjugation.
    """
    structure, open_set = structure.removesuffix("-open"), structure.endswith("-open")
    g = np.random.default_rng(seed)
    n_i, n_o = int(g.integers(1, 3)), int(g.integers(1, 3))
    num = 2 * int(g.integers(3, 9))  # N <= 16
    if structure in ("lti-ct", "lti-dt"):
        r = int(g.integers(2, 5))
        td = "ct" if structure == "lti-ct" else "dt"
        rom = _random_lti(g, r, n_i, n_o, td)
        target = _random_lti(g, r, n_i, n_o, td)
        if td == "ct":
            pts = _closed_axis_points(g, num)
        else:
            theta = np.sort(g.uniform(0.1, np.pi - 0.1, num // 2))
            pts = np.concatenate([np.exp(1j * theta), np.exp(-1j * theta)])[:, None]
    elif structure == "stationary":
        r = int(g.integers(2, 5))
        rom = _random_stationary(g, r, n_i, n_o)
        target = _random_stationary(g, r, n_i, n_o)
        pts = g.uniform(0.1, 10.0, num)[:, None].astype(complex)
    else:
        rs, rx = int(g.integers(2, 3)), int(g.integers(2, 3))
        rom = _random_kron(g, rs, rx, n_i, n_o)
        target = _random_kron(g, rs, rx, n_i, n_o)
        w = np.sort(g.uniform(0.2, 3.0, num // 2))
        th = g.uniform(0.1, np.pi - 0.1, num // 2)
        pts = np.concatenate(
            [np.stack([1j * w, np.exp(1j * th)], axis=1),
             np.stack([-1j * w, np.exp(-1j * th)], axis=1)]
        )
    if open_set:
        pts = pts[: len(pts) // 2]
    _, _, vals = batch_states(target, pts)
    weights = np.ones(len(pts))
    return rom, SampleSet(pts, vals, weights)


def test_gradients_match_finite_differences():
    start = time.monotonic()
    for structure in ("lti-ct", "lti-dt", "kron", "stationary", "lti-ct-open", "kron-open"):
        for seed in range(20):
            rom, data = _gradient_instance(structure, 1000 + seed)
            grads = l2_gradients_kron(rom, data) if rom.kron is not None else l2_gradients(rom, data)
            grad = np.concatenate([g.ravel() for g in grads])
            x = _pack_rom(rom)
            fd = np.zeros_like(grad)
            for i in range(len(x)):
                h = 1e-6 * (1.0 + abs(x[i]))
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd[i] = (
                    l2_objective(_unpack_rom(rom, xp), data)
                    - l2_objective(_unpack_rom(rom, xm), data)
                ) / (2 * h)
            scale = max(np.max(np.abs(fd)), 1e-300)
            err = np.max(np.abs(grad - fd)) / scale
            assert err <= 1e-6, f"{structure} seed {seed}: gradient error {err:.2e}"
    assert time.monotonic() - start < 30.0


def test_penzl_reproduction():
    start = time.monotonic()
    fom = make_penzl()
    data = sample_frequency_response(fom, np.logspace(0, 4, 50))
    assert len(data) == 50 and np.all(data.weights == 2.0)
    init = irka_init(fom, 2)
    trace = fit(init, data, FitOptions(max_iters=500))
    assert_trace_contract(trace)
    pr = pole_residue(trace.rom)
    poles = np.sort(pr.poles.real)
    print(f"reduced poles: {poles}")
    assert np.max(np.abs(pr.poles.imag)) <= 1e-6 * np.max(np.abs(pr.poles))
    assert abs(poles[0] - (-431.00)) <= 0.01 * 431.00
    assert abs(poles[1] - (-4.7984)) <= 0.01 * 4.7984
    # ties below the objective's resolution are settled by the curvature test,
    # so the fit reaches its gradient tolerance
    assert trace.converged, trace.message
    cert = ls_residuals(data, pr, tolerance=1e-10)
    assert cert.passed, f"least-squares certificate residual {cert.max_residual:.2e}"
    assert time.monotonic() - start < 300.0


def test_penzl_pipeline_robust_to_sample_rounding():
    # the fit must reach the reference poles, stop short of its iteration
    # cap and certify, whatever the last digits of the 50 samples
    fom = make_penzl()
    data = sample_frequency_response(fom, np.logspace(0, 4, 50))
    init = irka_init(fom, 2)
    for seed in range(8):
        g = np.random.default_rng(seed)
        noise = g.standard_normal(data.values.shape) + 1j * g.standard_normal(data.values.shape)
        perturbed = SampleSet(data.points, data.values * (1.0 + 1e-15 * noise), data.weights)
        trace = fit(init, perturbed, FitOptions(max_iters=500))
        assert_trace_contract(trace)
        assert trace.iterations < 100, f"seed {seed}: {trace.iterations} iterations ({trace.message})"
        pr = pole_residue(trace.rom)
        poles = np.sort(pr.poles.real)
        assert abs(poles[0] - (-431.00)) <= 0.01 * 431.00, f"seed {seed}: poles {pr.poles}"
        assert abs(poles[1] - (-4.7984)) <= 0.01 * 4.7984, f"seed {seed}: poles {pr.poles}"
        cert = ls_residuals(perturbed, pr, tolerance=1e-6)
        assert cert.passed, f"seed {seed}: least-squares certificate residual {cert.max_residual:.2e}"


def test_penzl_certifies_on_unit_weight_samples_at_positive_frequencies():
    # the 50 samples at +iw alone, built by hand: the fit reaches the same
    # optimum, and the certificate, summed over the conjugate-doubled
    # measure, certifies it without a closed sample set
    fom = make_penzl()
    points = 1j * np.logspace(0, 4, 50)[:, None]
    data = SampleSet(points, fom.evaluate(points), np.ones(50))
    trace = fit(irka_init(fom, 2), data, FitOptions(max_iters=500))
    assert trace.converged, trace.message
    pr = pole_residue(trace.rom)
    poles = np.sort(pr.poles.real)
    assert abs(poles[0] - (-431.00)) <= 0.01 * 431.00
    assert abs(poles[1] - (-4.7984)) <= 0.01 * 4.7984
    cert = ls_residuals(data, pr, tolerance=1e-10)
    assert cert.passed, f"least-squares certificate residual {cert.max_residual:.2e}"


def test_poisson_reproduction():
    start = time.monotonic()
    fom = make_poisson()
    assert fom.n == 1089
    data = sample_stationary(fom, 60)
    init = greedy_rb_init(fom, 2, np.logspace(-1, 1, 20))
    trace = fit(init, data, FitOptions(max_iters=500))
    assert_trace_contract(trace)
    rom_pr = pole_residue(trace.rom)
    poles = np.sort(rom_pr.poles.real)
    # reported, not gated: mesh-dependent reference values -3.2777 and -0.30509
    print(f"reduced poles: {poles} (reference -3.2777, -0.30509)")
    fom_pr = pole_residue_affine_singular(fom.A1, fom.A2, fom.B, fom.C)
    cert = stationary_residuals(fom_pr, rom_pr, Interval(*fom.interval), tolerance=1e-6)
    assert cert.passed, f"stationary certificate residual {cert.max_residual:.2e}"
    assert time.monotonic() - start < 300.0


def test_h2_conditions_continuous():
    for n, n_i, n_o, seed in ((30, 1, 1, 70), (20, 2, 2, 71)):
        fom = make_random_stable(n, n_i, n_o, seed=seed)
        rom = irka_init(fom, 4)
        cert = h2_ct_residuals(fom, pole_residue(rom), tolerance=1e-6)
        assert cert.passed, f"n={n}: H2 residual {cert.max_residual:.2e}"


def test_h2_conditions_discrete():
    for n, n_i, n_o, seed in ((30, 1, 1, 72), (20, 2, 2, 73)):
        fom = make_random_stable(n, n_i, n_o, seed=seed, time_domain="dt")
        data = sample_unit_circle(fom, 512)
        init = irka_init(fom, 4)
        trace = fit(init, data, FitOptions(max_iters=300))
        assert_trace_contract(trace)
        cert = h2_dt_residuals(fom, pole_residue(trace.rom), tolerance=1e-4)
        assert cert.passed, f"n={n}: discrete H2 residual {cert.max_residual:.2e}"


def test_h2l2_conditions():
    fom = make_kron_parametric(6, 5, 2, 2, seed=3)
    # global search on a coarse quadrature, then refine the winner on a grid
    # fine enough that the discretized stationary point satisfies the
    # continuous interpolation conditions well below the gate
    coarse = sample_h2l2(fom, n_s=48, n_xi=32)
    best = None
    for restart in range(5):
        g = np.random.default_rng(restart)
        init = _random_kron(g, 2, 2, 2, 2)
        trace = fit(init, coarse, FitOptions(max_iters=300))
        assert_trace_contract(trace)
        if best is None or trace.objectives[-1] < best.objectives[-1]:
            best = trace
    fine = sample_h2l2(fom, n_s=192, n_xi=96)
    best = fit(best.rom, fine, FitOptions(max_iters=400))
    assert_trace_contract(best)
    pr = pole_residue(best.rom)
    cert = h2l2_residuals(fom, pr, tolerance=1e-4)
    assert cert.passed, f"joint-domain residual {cert.max_residual:.2e}"


def test_cauchy_integral_oracle():
    # (1/2pi) int H(iw) conj(1/(iw - lam)) dw     = H(-conj lam)
    # (1/2pi) int H(iw) conj(1/(iw - lam)^2) dw   = -H'(-conj lam)
    # (adaptive quadrature vs direct evaluation at the mirrored point)
    for seed in range(6):
        g = np.random.default_rng(400 + seed)
        fom = make_random_stable(6, seed=400 + seed)
        lam = complex(-g.uniform(0.5, 3.0), g.uniform(-2.0, 2.0))
        sig = -np.conj(lam)

        def h(w):
            return fom.evaluate([1j * w])[0, 0, 0]

        for power, direct in ((1, fom.evaluate([sig])[0, 0, 0]), (2, -fom.partial([sig])[0, 0, 0])):
            f = lambda w: h(w) * np.conj(1.0 / (1j * w - lam) ** power)
            re, _ = scipy.integrate.quad(lambda w: f(w).real, -np.inf, np.inf, limit=400)
            im, _ = scipy.integrate.quad(lambda w: f(w).imag, -np.inf, np.inf, limit=400)
            quad = (re + 1j * im) / (2 * np.pi)
            assert abs(quad - direct) <= 1e-4 * max(abs(direct), 1e-12)


def test_affine_singular_conversion():
    g = np.random.default_rng(500)
    for trial in range(4):
        n = 10
        a1 = g.standard_normal((n, n)) + 5 * np.eye(n)
        if trial == 0:
            a2 = g.standard_normal((n, n))  # invertible
        else:
            low = g.standard_normal((n, 3 + trial))
            a2 = low @ g.standard_normal((3 + trial, n))
        b = g.standard_normal((n, 2))
        c = g.standard_normal((2, n))
        pr = pole_residue_affine_singular(a1, a2, b, c)
        if trial == 0:
            assert np.max(np.abs(pr.constant_term())) <= 1e-8
        ps = np.linspace(0.1, 10.0, 12)
        for p, val in zip(ps, pr.evaluate(ps)):
            direct = c @ np.linalg.solve(a1 + p * a2, b)
            err = np.max(np.abs(val - direct))
            assert err <= 1e-8 * max(np.max(np.abs(direct)), 1e-300)

    # symmetric-definite route (the benchmark shape): same contract
    fom = make_poisson(cells_per_side=8)
    pr = pole_residue_affine_singular(fom.A1, fom.A2, fom.B, fom.C)
    ps = np.linspace(0.1, 10.0, 12)
    for val, direct in zip(pr.evaluate(ps), fom.evaluate(ps)):
        err = np.max(np.abs(val - direct))
        assert err <= 1e-8 * np.max(np.abs(direct))


def test_optimizer_trace_contract():
    # dedicated small runs exercising both convergence and iteration-capped exits
    fom = make_random_stable(12, seed=80)
    data = sample_frequency_response(fom, np.logspace(-1, 1, 10))
    g = np.random.default_rng(81)
    init = _random_lti(g, 3, 1, 1, "ct")
    for max_iters in (3, 1000):
        trace = fit(init, data, FitOptions(max_iters=max_iters))
        assert_trace_contract(trace)
    # a fit started at its own optimum converges immediately
    target = _random_lti(np.random.default_rng(82), 2, 1, 1, "ct")
    pts = _closed_axis_points(np.random.default_rng(83), 8)
    _, _, vals = batch_states(target, pts)
    trace = fit(target, SampleSet(pts, vals, np.ones(len(pts))), FitOptions())
    assert trace.converged and trace.iterations == 0
    assert_trace_contract(trace)
