import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from l2rom.core import check_conjugation_closure
from l2rom.models import (
    AffineStationaryFom,
    make_kron_parametric,
    make_penzl,
    make_poisson,
    make_random_stable,
    sample_frequency_response,
    sample_h2l2,
    sample_stationary,
    sample_unit_circle,
)
from l2rom.spectral import kron_pole_residue, pole_residue_affine_singular, pole_residue_lti

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _pole_residue_lti():
    g = np.random.default_rng(7)
    e = np.eye(4) + 0.1 * g.standard_normal((4, 4))
    a = g.standard_normal((4, 4)) - 2.0 * np.eye(4)
    return pole_residue_lti(e, a, g.standard_normal((4, 2)), g.standard_normal((2, 4)))


def _pole_residue_affine_singular():
    # rank-deficient second coefficient: the form carries a constant term
    g = np.random.default_rng(8)
    a1 = g.standard_normal((6, 6)) + 4.0 * np.eye(6)
    low = g.standard_normal((6, 2))
    a2 = low @ low.T @ g.standard_normal((6, 6))
    pr = pole_residue_affine_singular(a1, a2, g.standard_normal((6, 1)), g.standard_normal((2, 6)))
    assert np.max(np.abs(pr.constant_term())) > 0
    return pr


def _kron_pole_residue():
    g = np.random.default_rng(9)
    e, e_xi = np.eye(3) + 0.1 * g.standard_normal((3, 3)), np.eye(2) + 0.1 * g.standard_normal((2, 2))
    a = g.standard_normal((3, 3)) - 2.0 * np.eye(3)
    a_xi = g.standard_normal((2, 2)) + 1.5 * np.eye(2)
    return kron_pole_residue(e, a, e_xi, a_xi, g.standard_normal((6, 2)), g.standard_normal((1, 6)))


def test_penzl_structure():
    fom = make_penzl()
    assert fom.n == 1006
    assert fom.n_i == fom.n_o == 1
    # spiral blocks at frequencies 100, 200, 400; tail -1..-1000
    A = fom.A.toarray()
    lam = np.linalg.eigvals(A[:6, :6])
    assert np.allclose(np.sort(np.abs(lam.imag)), [100, 100, 200, 200, 400, 400])
    assert np.allclose(lam.real, -1.0)
    assert np.allclose(np.diag(A)[6:], -np.arange(1.0, 1001.0))
    assert np.allclose(fom.B[:6], 10.0) and np.allclose(fom.B[6:], 1.0)
    assert np.allclose(fom.C, fom.B.T)


def test_penzl_transfer_conjugate_symmetry():
    fom = make_penzl()
    s = 1j * 37.0
    assert np.allclose(fom.evaluate([-s]), np.conj(fom.evaluate([s])))


@pytest.mark.parametrize(
    "make, points, bound",
    [
        # bound(fd): the largest allowed |partial - central difference|
        (lambda: make_random_stable(8, 2, 2, seed=1), [0.2 + 1.1j, 0.5j, 1.0 - 0.3j], lambda fd: 1e-7),
        (lambda: make_poisson(cells_per_side=8), [1.3, 0.4, 7.0], lambda fd: 1e-6 * np.max(np.abs(fd))),
        (
            lambda: make_kron_parametric(3, 3, seed=2),
            [[0.5j, np.exp(0.3j)], [0.2 + 1.0j, np.exp(2.0j)], [1.5j, 0.4]],
            lambda fd: 1e-6 * max(np.max(np.abs(fd)), 1.0),
        ),
        # the reduced pole-residue forms answer the same protocol
        (_pole_residue_lti, [0.3 + 1.7j, 0.5j, 1.0 - 0.3j], lambda fd: 1e-7 * max(np.max(np.abs(fd)), 1.0)),
        (_pole_residue_affine_singular, [0.5, 1.3, 7.0], lambda fd: 1e-6 * np.max(np.abs(fd))),
        (
            _kron_pole_residue,
            [[0.7 + 0.9j, np.exp(0.4j)], [0.2 + 1.0j, np.exp(2.0j)], [1.5j, 0.4]],
            lambda fd: 1e-6 * max(np.max(np.abs(fd)), 1.0),
        ),
    ],
    ids=["lti", "poisson", "kron", "pole-residue-lti", "pole-residue-affine", "pole-residue-kron"],
)
def test_partials_match_central_difference(make, points, bound):
    fom = make()
    points = np.asarray(points)  # 1-D for the one-parameter models
    h = 1e-6
    for wrt in range(fom.n_p):
        step = h * np.eye(fom.n_p)[wrt]
        batch = points.reshape(3, fom.n_p)
        fd = (fom.evaluate(batch + step) - fom.evaluate(batch - step)) / (2 * h)
        part = fom.partial(points, wrt)
        assert part.shape == fd.shape == (3, fom.n_o, fom.n_i)
        assert np.max(np.abs(part - fd)) <= bound(fd)
    with pytest.raises(ValueError):
        fom.partial(points, wrt=fom.n_p)


def test_poisson_dimensions_and_rank():
    fom = make_poisson()
    assert fom.n == 1089
    A1, A2 = fom.A1.toarray(), fom.A2.toarray()
    assert np.linalg.matrix_rank(A2) == 961
    # both coefficients symmetric, A1 positive definite
    assert np.max(np.abs(A1 - A1.T)) <= 1e-12
    assert np.max(np.abs(A2 - A2.T)) <= 1e-12
    np.linalg.cholesky(A1)


def test_poisson_output_monotone_in_diffusion():
    # larger diffusion parameter -> stiffer problem -> smaller compliance
    fom = make_poisson(cells_per_side=8)
    vals = fom.evaluate([0.2, 1.0, 5.0])[:, 0, 0].real
    assert vals[0] > vals[1] > vals[2] > 0


def test_random_stable_properties():
    ct = make_random_stable(12, seed=5)
    assert np.max(np.linalg.eigvals(ct.A).real) < 0
    dt = make_random_stable(12, seed=5, time_domain="dt")
    assert np.max(np.abs(np.linalg.eigvals(dt.A))) < 1.0
    again = make_random_stable(12, seed=5)
    assert np.array_equal(ct.A, again.A)


def test_kron_parametric_admissible_and_symmetric():
    fom = make_kron_parametric(4, 3, 2, 2, seed=9)
    assert np.all(fom.s_poles.real <= -0.1 + 1e-12)
    assert np.all(np.abs(fom.xi_poles) >= 1.1 - 1e-12)
    # conjugating both variables conjugates the value
    s, xi = 0.4j, np.exp(0.7j)
    assert np.allclose(fom.evaluate([[np.conj(s), np.conj(xi)]]), np.conj(fom.evaluate([[s, xi]])))


def test_sample_frequency_response_closure():
    # one sample per frequency at +iw, at twice its weight: a real model's
    # misfit at -iw is the same, so the objective is that of the closed set
    fom = make_random_stable(6, seed=3)
    freqs = np.logspace(0, 2, 5)
    weights = np.linspace(1.0, 2.0, 5)
    data = sample_frequency_response(fom, freqs, weights)
    assert len(data) == 5
    assert np.array_equal(data.points[:, 0], 1j * freqs)
    assert np.array_equal(data.weights, 2.0 * weights)
    assert np.array_equal(data.values, fom.evaluate(1j * freqs))


def test_sample_unit_circle_closure_and_weights():
    fom = make_random_stable(6, seed=3, time_domain="dt")
    data = sample_unit_circle(fom, 16)
    assert np.allclose(data.weights, 1.0 / 16)
    ok, _ = check_conjugation_closure(data)
    assert ok
    with pytest.raises(ValueError):
        sample_unit_circle(fom, 15)


def test_sample_stationary_gauss_exactness():
    # the quadrature underlying the stationary sampler integrates
    # polynomials up to degree 2n-1 exactly on [a, b]
    fom = make_poisson(cells_per_side=8)
    data = sample_stationary(fom, 10)
    a, b = fom.interval
    nodes = data.points[:, 0].real
    for deg in (0, 3, 7, 15):
        quad = np.sum(data.weights * nodes**deg)
        exact = (b ** (deg + 1) - a ** (deg + 1)) / (deg + 1)
        assert abs(quad - exact) <= 1e-10 * abs(exact)


def test_sample_h2l2_quadrature_oracle():
    # the product rule integrates |1/(s - lambda)|^2 * 1 over the axis and
    # circle; for lambda = -1 the frequency integral is 1/(2 Re(-lambda)) = 1/2
    fom = make_kron_parametric(2, 2, seed=0)
    data = sample_h2l2(fom, n_s=80, n_xi=8)
    vals = 1.0 / np.abs(data.points[:, 0] - (-1.0)) ** 2
    integral = np.sum(data.weights * vals)
    assert abs(integral - 0.5) <= 1e-6


def test_sample_h2l2_closure():
    fom = make_kron_parametric(3, 2, seed=1)
    data = sample_h2l2(fom, n_s=12, n_xi=8)
    ok, _ = check_conjugation_closure(data)
    assert ok


def _q1_stiffness_loop(cells, weight):
    """Element-loop Q1 assembly with dense boundary handling (reference)."""
    h = 1.0 / cells
    m = cells + 1
    gauss = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
    gw = np.array([0.5, 0.5])
    n = m * m
    K = np.zeros((n, n))
    load = np.zeros(n)
    for ex in range(cells):
        for ey in range(cells):
            ke = np.zeros((4, 4))
            fe = np.zeros(4)
            for a, u in enumerate(gauss):
                for b, v in enumerate(gauss):
                    w = gw[a] * gw[b] * h * h
                    du = np.array([-(1 - v), (1 - v), -v, v]) / h
                    dv = np.array([-(1 - u), -u, (1 - u), u]) / h
                    ke += w * weight((ex + u) * h) * (np.outer(du, du) + np.outer(dv, dv))
                    fe += w * np.array([(1 - u) * (1 - v), u * (1 - v), (1 - u) * v, u * v])
            glb = [ey * m + ex, ey * m + ex + 1, (ey + 1) * m + ex, (ey + 1) * m + ex + 1]
            for ia, ga in enumerate(glb):
                load[ga] += fe[ia]
                for ib, gb in enumerate(glb):
                    K[ga, gb] += ke[ia, ib]
    ix, iy = np.meshgrid(np.arange(m), np.arange(m))
    boundary = ((ix == 0) | (ix == cells) | (iy == 0) | (iy == cells)).ravel()
    return K, load, boundary


def test_poisson_assembly_matches_element_loop():
    cells = 6
    A1, load, boundary = _q1_stiffness_loop(cells, lambda z1: z1)
    A2, _, _ = _q1_stiffness_loop(cells, lambda z1: 1.0 - z1)
    A1[boundary, :] = 0.0
    A1[:, boundary] = 0.0
    A1[boundary, boundary] = 1.0
    A2[boundary, :] = 0.0
    A2[:, boundary] = 0.0
    load[boundary] = 0.0
    fom = make_poisson(cells_per_side=cells)
    for got, want in ((fom.A1.toarray(), A1), (fom.A2.toarray(), A2), (fom.B, load[:, None])):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _dense(op):
    return op.toarray() if hasattr(op, "toarray") else op


@pytest.mark.parametrize("name", ["penzl", "poisson", "random"])
def test_factored_solves_match_dense_oracle(name):
    # penzl: complex factor (adjoint at a complex shift); poisson and the
    # dense random model (full band): real factors with complex right-hand sides.
    # evaluate/partial run on a batch of the first point and a second one of
    # the other kind (real or complex).
    if name == "poisson":
        fom, points, band = make_poisson(cells_per_side=8), [1.7, 0.9 + 0.2j], (10, 10)
        operator = lambda p: fom.A1.toarray() + p * fom.A2.toarray()
        dK = fom.A2.toarray()
    else:
        if name == "penzl":
            fom, points, band = make_penzl(), [0.3 + 150.0j, 2.0], (1, 1)
        else:
            fom, points, band = make_random_stable(12, 2, 3, seed=5), [0.7, 0.4 - 0.9j], (11, 11)
        operator = lambda p: p * _dense(fom.E) - _dense(fom.A)
        dK = _dense(fom.E)
    assert fom.bands[:2] == band
    g = np.random.default_rng(4)
    real_rhs = g.standard_normal((fom.n, 2))
    complex_rhs = real_rhs + 1j * g.standard_normal((fom.n, 2))
    cases = []
    for p, value, deriv in zip(points, fom.evaluate(points), fom.partial(points)):
        K = operator(p)
        cases.append((value, fom.C @ np.linalg.solve(K, fom.B)))
        cases.append((deriv, -fom.C @ np.linalg.solve(K, dK @ np.linalg.solve(K, fom.B))))
    # a real point is factored real: the same bits as the real factor's solve
    real = np.array([p for p in points if np.isreal(p)], dtype=float)
    assert not np.iscomplexobj(fom.evaluate(real))
    assert np.array_equal(fom.evaluate(real)[0], fom.C @ fom.factor(real[0]).solve(fom.B))
    p = points[0]
    K = operator(p)
    lu = fom.factor(p)
    for rhs in (real_rhs, complex_rhs, complex_rhs[:, 0]):
        cases.append((lu.solve(rhs), np.linalg.solve(K, rhs)))
        cases.append((lu.solve(rhs, trans="H"), np.linalg.solve(K.conj().T, rhs)))
    for got, want in cases:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_singular_full_order_operator_raises():
    n = 4
    diag = (np.arange(n), np.arange(n), np.array([1.0, 2.0, 0.0, 1.0]))
    fom = AffineStationaryFom(A1_entries=diag, A2_entries=diag, B=np.ones((n, 1)), C=np.ones((1, n)))
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        fom.factor(1.5)
    with pytest.raises(np.linalg.LinAlgError):
        fom.evaluate([3.0])


def _run_python(args, code):
    proc = subprocess.run([sys.executable, *args, "-c", code], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_model_validation_survives_optimized_mode():
    code = """
import numpy as np
from l2rom.models import AffineLtiFom, make_poisson, make_random_stable, sample_frequency_response
from l2rom.optimize import greedy_rb_init, irka_init

class NanFom:
    def evaluate(self, points):
        return np.full((len(points), 1, 1), np.nan + 0j)

fom = make_random_stable(4)
for make in (lambda: AffineLtiFom(fom.E, fom.A, fom.B, fom.C, time_domain="xt"),
             lambda: sample_frequency_response(NanFom(), [1.0, 2.0]),
             lambda: sample_frequency_response(fom, []),
             lambda: irka_init(fom, 0),
             lambda: greedy_rb_init(make_poisson(4), 0, [0.5, 1.0])):
    try:
        make()
    except ValueError:
        print("raised")
"""
    assert _run_python(["-O"], code).split() == ["raised"] * 5


def test_building_models_does_not_import_scipy_sparse():
    # scipy.sparse and scipy.linalg cost set-up time; the operators are
    # built, and scipy imported, on the first solve
    code = """
import sys
import l2rom
import l2rom.cli
from l2rom.models import make_penzl, make_poisson
make_penzl()
make_poisson()
print(sorted(m for m in sys.modules if m.startswith(("scipy.sparse", "scipy.linalg"))))
"""
    assert _run_python([], code).strip() == "[]"
