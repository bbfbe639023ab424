import numpy as np
import pytest
import scipy.integrate

from l2rom.certify import (
    Certificate,
    CertificateRow,
    Interval,
    h2_residuals,
    h2l2_residuals,
    ls_residuals,
    modified_ls_tf_eval,
    modified_output_eval,
    stationary_residuals,
)
from l2rom.core import SampleSet
from l2rom.models import (
    make_kron_parametric,
    make_poisson,
    make_random_stable,
    sample_frequency_response,
    sample_stationary,
    sample_unit_circle,
)
from l2rom import certify, spectral
from l2rom.optimize import FitOptions, fit, greedy_rb_init, irka_init
from l2rom.spectral import (
    PoleResidue,
    PoleResidue2D,
    pole_residue,
    pole_residue_affine_singular,
    pole_residue_lti,
)

rng = np.random.default_rng(17)


def lti_pr(fom):
    return pole_residue_lti(fom.E, fom.A, fom.B, fom.C)


def real_pr(poles, left, right):
    return PoleResidue(
        poles=np.asarray(poles, dtype=complex),
        left_factors=np.asarray(left, dtype=complex),
        right_factors=np.asarray(right, dtype=complex),
    )


def test_certificate_structure():
    row = CertificateRow(label="k=0", residuals=(("right", 1e-8), ("left", 2e-8)))
    cert = Certificate(family="H2_CT", rows=(row,), tolerance=1e-6)
    assert cert.max_residual == 2e-8 and cert.passed
    with pytest.raises(ValueError):
        Certificate(family="H2", rows=(row,), tolerance=1e-6)
    for tolerance in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            Certificate(family="H2_CT", rows=(row,), tolerance=tolerance)


def test_h2_ct_zero_residuals_on_self():
    fom = make_random_stable(6, 2, 2, seed=40)
    pr = lti_pr(fom)
    cert = h2_residuals(fom, pr)
    assert cert.family == "H2_CT" and cert.tolerance == 1e-6
    assert cert.max_residual <= 1e-10
    assert cert.passed


def test_h2_ct_detects_perturbation():
    fom = make_random_stable(6, seed=41)
    pr = lti_pr(fom)
    pr_bad = PoleResidue(
        poles=pr.poles, left_factors=1.05 * pr.left_factors, right_factors=pr.right_factors
    )
    cert = h2_residuals(fom, pr_bad)
    assert cert.max_residual > 1e-3
    assert not cert.passed


def test_h2_ct_rejects_unstable_poles():
    fom = make_random_stable(4, seed=42)
    pr = real_pr([0.5, -1.0], np.ones((2, 1)), np.ones((2, 1)))
    with pytest.raises(ValueError, match="H2_CT certificate requires poles in the open left half-plane"):
        h2_residuals(fom, pr)


def test_h2_dt_zero_residuals_on_self():
    fom = make_random_stable(6, seed=43, time_domain="dt")
    cert = h2_residuals(fom, lti_pr(fom))
    assert cert.family == "H2_DT" and cert.tolerance == 1e-4
    assert cert.max_residual <= 1e-10


def test_h2_dt_rejects_poles_outside_disk():
    fom = make_random_stable(4, seed=44, time_domain="dt")
    pr = real_pr([1.5, 0.2], np.ones((2, 1)), np.ones((2, 1)))
    with pytest.raises(ValueError, match="H2_DT certificate requires poles inside the open unit disk"):
        h2_residuals(fom, pr)


@pytest.mark.parametrize("time_domain, seed", [("dt", 2), ("ct", 8)])
def test_h2_residuals_take_the_family_from_the_model(time_domain, seed):
    # the IRKA fixed point is H2-optimal in the model's own time domain; the
    # other domain's conditions read 260 (dt, seed 2) and 0.942 (ct, seed 8)
    fom = make_random_stable(20, seed=seed, time_domain=time_domain)
    pr = pole_residue(irka_init(fom, 2))
    cert = h2_residuals(fom, pr)
    assert cert.family == {"ct": "H2_CT", "dt": "H2_DT"}[time_domain]
    assert cert.passed, cert.max_residual
    assert cert.tolerance == certify.H2_FAMILIES[time_domain][1]
    assert h2_residuals(fom, pr, tolerance=0.5).tolerance == 0.5


def test_h2_residuals_need_a_time_domain():
    fom = make_kron_parametric(2, 2, seed=0)
    with pytest.raises(ValueError, match="time domain"):
        h2_residuals(fom, real_pr([-1.0], np.ones((1, 1)), np.ones((1, 1))))


def test_h2l2_zero_residuals_on_self():
    fom = make_kron_parametric(3, 2, 2, 2, seed=45)
    rom2d = PoleResidue2D(
        s_poles=fom.s_poles,
        xi_poles=fom.xi_poles,
        left_factors=fom.left_factors,
        right_factors=fom.right_factors,
    )
    cert = h2l2_residuals(fom, rom2d)
    assert cert.max_residual <= 1e-10
    names = {name for row in cert.rows for name, _ in row.residuals}
    assert names == {"right", "left", "hermite-s", "hermite-xi"}


def test_h2l2_detects_perturbation():
    fom = make_kron_parametric(3, 2, seed=46)
    rom2d = PoleResidue2D(
        s_poles=fom.s_poles,
        xi_poles=fom.xi_poles,
        left_factors=1.1 * fom.left_factors,
        right_factors=fom.right_factors,
    )
    cert = h2l2_residuals(fom, rom2d)
    assert cert.max_residual > 1e-3


def test_modified_ls_tf_single_sample():
    # one unit-weight sample of value v at node iw is doubled by its mirror,
    # value conj(v) at -iw, half the weight each:
    # T(z) = (v / (-iw - z) + conj(v) / (iw - z)) / 2
    v = 1.0 + 0.5j
    data = SampleSet(np.array([[2j]]), np.full((1, 1, 1), v), np.ones(1))
    z = np.array([1.0 + 0.5j, -3.0])
    t = 0.5 * (v / (-2j - z) + np.conj(v) / (2j - z))
    td = 0.5 * (v / (-2j - z) ** 2 + np.conj(v) / (2j - z) ** 2)
    assert np.allclose(modified_ls_tf_eval(data, None, z)[:, 0, 0], t)
    assert np.allclose(modified_ls_tf_eval(data, None, z, order=1)[:, 0, 0], td)
    for node in (2j, -2j):
        with pytest.raises(ValueError, match="coincides with a data node"):
            modified_ls_tf_eval(data, None, [1.0, node])


def test_modified_ls_tf_derivative_fd():
    fom = make_random_stable(5, seed=47)
    data = sample_frequency_response(fom, np.logspace(-1, 1, 6))
    s, h = 0.8, 1e-6
    g = modified_ls_tf_eval(data, None, [s + h, s - h])
    fd = (g[0] - g[1]) / (2 * h)
    der = modified_ls_tf_eval(data, None, [s], order=1)[0]
    assert np.max(np.abs(der - fd)) <= 1e-7 * max(np.max(np.abs(der)), 1.0)


def test_ls_residuals_zero_when_rom_matches_data_generator():
    # if the rom IS the sampled system, Ghat == G identically
    fom = make_random_stable(5, seed=48)
    data = sample_frequency_response(fom, np.logspace(-1, 1, 8))
    cert = ls_residuals(data, lti_pr(fom))
    assert cert.max_residual <= 1e-10


def test_ls_residuals_detect_mismatch():
    fom = make_random_stable(5, seed=49)
    other = make_random_stable(5, seed=50)
    data = sample_frequency_response(fom, np.logspace(-1, 1, 8))
    cert = ls_residuals(data, lti_pr(other))
    assert cert.max_residual > 1e-3


def test_ls_residuals_certify_a_fit_on_unit_circle_samples():
    # the discrete-time optimum on 64 circle nodes certifies on the doubled
    # measure (the kernel of the imaginary axis read 1.0 here)
    fom = make_random_stable(20, seed=73, time_domain="dt")
    data = sample_unit_circle(fom, 64)
    trace = fit(irka_init(fom, 2), data, FitOptions(max_iters=500))
    cert = ls_residuals(data, pole_residue(trace.rom))
    assert cert.passed, f"least-squares certificate residual {cert.max_residual:.2e}"


def test_ls_residuals_evaluate_rom_once_per_node(monkeypatch):
    calls = []
    evaluate = spectral.pole_residue_eval

    def counting(pr, points, *args, **kwargs):
        calls.append(np.asarray(points))
        return evaluate(pr, points, *args, **kwargs)

    monkeypatch.setattr(spectral, "pole_residue_eval", counting)
    fom = make_random_stable(6, seed=49)
    data = sample_frequency_response(fom, np.logspace(-1, 1, 8))
    pr = lti_pr(make_random_stable(3, seed=50))
    ls_residuals(data, pr)
    assert len(pr.poles) == 3 and len(calls) == 1
    assert np.array_equal(calls[0], data.points)


def f_sigma(a, b, sigma, p, order=0):
    # closed form of int_a^b dt / ((t - sigma)(t - p)) (order 0) and its p-derivative
    # (order 1), with the removable singularity filled in at p = sigma
    log_p = np.log(abs((p - b) / (p - a)))
    log_s = np.log(abs((sigma - b) / (sigma - a)))
    if abs(p - sigma) <= 1e-12 * (1.0 + abs(sigma)):
        if order == 0:
            return (b - a) / ((sigma - a) * (sigma - b))
        return (b - a) * (a + b - 2 * sigma) / (2 * (sigma - a) ** 2 * (sigma - b) ** 2)
    if order == 0:
        return (log_p - log_s) / (p - sigma)
    return ((b - a) * (p - sigma) / ((p - a) * (p - b)) - log_p + log_s) / (p - sigma) ** 2


def _modified_output_loop(pr, interval, p, order):
    # closed form of the modified output of a pole-residue form, one pole at a time:
    # Y(p) = ln|(p-b)/(p-a)| Phi0 + sum_nu f_nu(p) Phi_nu, or its derivative
    a, b = interval.a, interval.b
    residues = np.einsum("ko,ki->koi", pr.left_factors, np.conj(pr.right_factors)).real
    out = np.zeros(residues.shape[1:])
    for nu, phi in zip(pr.poles.real, residues):
        out = out + f_sigma(a, b, nu, p, order=order) * phi
    weight = np.log(abs((p - b) / (p - a))) if order == 0 else (b - a) / ((p - a) * (p - b))
    return out + weight * np.real(pr.constant_term())


def test_f_sigma_basic_values():
    a, b, sigma = 0.0, 1.0, 2.0
    # f_sigma(sigma) = (b - a)/((sigma - a)(sigma - b)) = 1/2
    assert np.isclose(f_sigma(a, b, sigma, sigma), 0.5)
    # continuity across the removable singularity
    assert np.isclose(f_sigma(a, b, sigma, sigma + 1e-9), 0.5, atol=1e-6)
    # generic point matches the defining quotient
    p = 3.0
    expected = (np.log(abs((p - b) / (p - a))) - np.log(abs((sigma - b) / (sigma - a)))) / (
        p - sigma
    )
    assert np.isclose(f_sigma(a, b, sigma, p), expected)


def test_f_sigma_derivative_fd():
    a, b, sigma = 0.1, 10.0, -0.5
    for p, h, rtol in ((-2.0, 1e-6, 1e-5), (11.0, 1e-6, 1e-5), (sigma, 1e-4, 1e-4)):
        # near p = sigma the quotient form of f cancels, so the step is larger
        fd = (f_sigma(a, b, sigma, p + h) - f_sigma(a, b, sigma, p - h)) / (2 * h)
        assert np.isclose(f_sigma(a, b, sigma, p, order=1), fd, rtol=rtol, atol=1e-10)


def test_f_sigma_is_interval_integral():
    # f_sigma(p) equals int_a^b dq / ((q - p)(q - sigma)) for p, sigma outside [a, b]
    a, b, sigma, p = 0.1, 10.0, -0.3, -2.0
    quad, _ = scipy.integrate.quad(lambda q: 1.0 / ((q - p) * (q - sigma)), a, b)
    assert np.isclose(f_sigma(a, b, sigma, p), quad, rtol=1e-8)


def test_modified_output_is_interval_integral():
    # Y(p) = int_a^b y(q) / (q - p) dq for a rational y with poles outside [a, b]
    interval = Interval(0.1, 10.0)
    poles = np.array([-0.4, -2.0])
    left = np.array([[1.5], [0.7]])
    right = np.array([[1.0], [1.0]])
    pr = real_pr(poles, left, right)

    def y_scalar(q):
        return sum(
            (left[k, 0] * right[k, 0]) / (q - poles[k]) for k in range(2)
        )

    p = -1.0
    quad, _ = scipy.integrate.quad(
        lambda q: y_scalar(q) / (q - p), interval.a, interval.b, limit=200
    )
    val = modified_output_eval(pr, interval, [p])[0, 0, 0]
    assert np.isclose(val, quad, rtol=1e-8)


def test_modified_output_constant_term_is_interval_integral():
    # with a constant term Phi0, y(q) = Phi0 + rational; the modified output
    # picks up ln|(p-b)/(p-a)| Phi0
    interval = Interval(0.5, 4.0)
    pr = PoleResidue(
        poles=np.array([-1.0], dtype=complex),
        left_factors=np.array([[2.0]], dtype=complex),
        right_factors=np.array([[1.0]], dtype=complex),
        constant=np.array([[3.0]], dtype=complex),
    )
    p = -0.2
    quad, _ = scipy.integrate.quad(
        lambda q: (3.0 + 2.0 / (q + 1.0)) / (q - p), interval.a, interval.b, limit=200
    )
    val = modified_output_eval(pr, interval, [p])[0, 0, 0]
    assert np.isclose(val, quad, rtol=1e-8)
    # derivative against finite differences
    h = 1e-6
    y = modified_output_eval(pr, interval, [p + h, p - h])
    fd = (y[0] - y[1]) / (2 * h)
    der = modified_output_eval(pr, interval, [p], order=1)[0]
    assert np.max(np.abs(der - fd)) <= 1e-6 * max(np.max(np.abs(der)), 1.0)


def _max_rel(got, want):
    # largest relative error over the points, each point measured in its own norm
    return np.max(np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2)))


def test_modified_output_sum_matches_scalar_loop():
    # the batched interval quadrature against the closed form, on the Poisson
    # eigen-form, on a random form with constant term and poles on both sides of
    # [a, b], and on the Poisson model object itself (against its eigen-form)
    fom = make_poisson(8)
    interval = Interval(*fom.interval)
    eigen_form = pole_residue_affine_singular(fom.A1, fom.A2, fom.B, fom.C)
    random_form = PoleResidue(
        poles=np.array([-0.4, -2.0, 12.0, -30.0], dtype=complex),
        left_factors=rng.standard_normal((4, 2)).astype(complex),
        right_factors=rng.standard_normal((4, 3)).astype(complex),
        constant=rng.standard_normal((2, 3)).astype(complex),
    )
    cases = ((eigen_form, eigen_form, 1e-12), (random_form, random_form, 1e-12), (fom, eigen_form, 1e-10))
    for model, form, rtol in cases:
        poles = np.sort(form.poles.real)
        # points at poles of the form, between them and beyond b
        points = np.array([poles[0], poles[len(poles) // 2], poles[-1], -0.05, 25.0])
        for order in (0, 1):
            got = modified_output_eval(model, interval, points, order=order)
            want = np.stack([_modified_output_loop(form, interval, p, order) for p in points])
            assert _max_rel(got, want) <= rtol, (type(model).__name__, order)


def test_modified_output_rejects_pole_in_interval():
    interval = Interval(0.1, 10.0)
    # a pole inside [a, b]: the integral diverges and the rules never agree
    pr = real_pr([1.0], np.ones((1, 1)), np.ones((1, 1)))
    with pytest.raises(ValueError, match="did not converge"):
        modified_output_eval(pr, interval, [-1.0])
    # evaluation points on [a, b], endpoints included, are rejected up front
    pr = real_pr([-1.0], np.ones((1, 1)), np.ones((1, 1)))
    for p in (interval.a, 1.0, interval.b):
        with pytest.raises(ValueError, match="outside the interval"):
            modified_output_eval(pr, interval, [-2.0, p])


def test_stationary_residuals_zero_on_self():
    interval = Interval(0.1, 10.0)
    pr = real_pr([-0.5, -3.0], [[1.0], [0.4]], [[1.0], [1.0]])
    cert = stationary_residuals(pr, pr, interval)
    assert cert.max_residual <= 1e-12
    assert cert.family == "STATIONARY"


def test_stationary_residuals_detect_perturbation():
    interval = Interval(0.1, 10.0)
    fom_pr = real_pr([-0.5, -3.0, -7.0], [[1.0], [0.4], [0.2]], [[1.0], [1.0], [1.0]])
    rom_pr = real_pr([-0.6, -2.5], [[1.1], [0.5]], [[1.0], [1.0]])
    cert = stationary_residuals(fom_pr, rom_pr, interval)
    assert cert.max_residual > 1e-3


def test_stationary_rejects_complex_poles():
    interval = Interval(0.1, 10.0)
    rom_pr = real_pr([-0.5 + 0.1j, -0.5 - 0.1j], np.ones((2, 1)), np.ones((2, 1)))
    fom_pr = real_pr([-1.0], np.ones((1, 1)), np.ones((1, 1)))
    with pytest.raises(ValueError):
        stationary_residuals(fom_pr, rom_pr, interval)


@pytest.mark.parametrize("pole", [0.0999, 10.01])
def test_stationary_rejects_reduced_pole_near_endpoint(pole):
    # just outside [a, b] the kernel is nearly singular; no pair of rules agrees
    interval = Interval(0.1, 10.0)
    fom_pr = real_pr([-0.5, -3.0], [[1.0], [0.4]], [[1.0], [1.0]])
    rom_pr = real_pr([pole, -2.0], [[1.0], [0.5]], [[1.0], [1.0]])
    with pytest.raises(ValueError, match="did not converge"):
        stationary_residuals(fom_pr, rom_pr, interval)


def test_stationary_fom_object_and_eigen_form_agree():
    # the certificate of a Poisson fit, from the model object and from its eigen-form
    fom = make_poisson(8)
    data = sample_stationary(fom, 60)
    trace = fit(greedy_rb_init(fom, 2, np.logspace(-1, 1, 20)), data, FitOptions(max_iters=500))
    rom_pr = pole_residue(trace.rom)
    interval = Interval(*fom.interval)
    by_object = stationary_residuals(fom, rom_pr, interval)
    eigen_form = pole_residue_affine_singular(fom.A1, fom.A2, fom.B, fom.C)
    by_form = stationary_residuals(eigen_form, rom_pr, interval)
    assert by_object.passed and by_form.passed
    assert [row.label for row in by_object.rows] == [row.label for row in by_form.rows]
    assert abs(by_object.max_residual - by_form.max_residual) <= 1e-9


def test_stationary_residuals_are_ls_residuals_on_the_interval_rule():
    # one kernel: the stationary certificate is DISCRETE_LS on the sample set
    # of the interval rule whose sums it accepted
    fom = make_poisson(8)
    data = sample_stationary(fom, 60)
    trace = fit(greedy_rb_init(fom, 2, np.logspace(-1, 1, 20)), data, FitOptions(max_iters=500))
    rom_pr = pole_residue(trace.rom)
    interval = Interval(*fom.interval)
    evaluated = []

    class Recording:
        def evaluate(self, points):
            evaluated.append((np.asarray(points), fom.evaluate(points)))
            return evaluated[-1][1]

    stationary = stationary_residuals(Recording(), rom_pr, interval)
    nodes, values = evaluated[-1]
    _, weights = certify._interval_rule(interval, len(nodes))
    ls = ls_residuals(SampleSet(nodes.astype(complex)[:, None], values, weights), rom_pr)
    assert [row.label for row in ls.rows] == [row.label for row in stationary.rows]
    got = np.array([[v for _, v in row.residuals] for row in ls.rows])
    want = np.array([[v for _, v in row.residuals] for row in stationary.rows])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_residuals_invariant_under_factor_rescaling():
    # c_k -> g c_k, b_k -> b_k / conj(g) leaves residues and residuals unchanged
    fom = make_random_stable(6, 2, 2, seed=51)
    pr = lti_pr(fom)
    g = 2.7
    pr_scaled = PoleResidue(
        poles=pr.poles, left_factors=g * pr.left_factors, right_factors=pr.right_factors / g
    )
    c1 = h2_residuals(fom, pr)
    c2 = h2_residuals(fom, pr_scaled)
    assert np.isclose(c1.max_residual, c2.max_residual, rtol=1e-6, atol=1e-12)
