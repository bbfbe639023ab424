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
    A = _dense(fom.A, fom.n)
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
    assert fom.n == 961
    A1, A2 = _dense(fom.A1, fom.n), _dense(fom.A2, fom.n)
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
    data = sample_frequency_response(fom, freqs)
    assert len(data) == 5
    assert np.array_equal(data.points[:, 0], 1j * freqs)
    assert np.array_equal(data.weights, np.full(5, 2.0))
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
    interior = np.ix_(~boundary, ~boundary)
    fom = make_poisson(cells_per_side=cells)
    for got, want in ((_dense(fom.A1, fom.n), A1[interior]), (_dense(fom.A2, fom.n), A2[interior]),
                      (fom.B, load[~boundary, None])):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # the output map equals that of the system on every grid node with the
    # Dirichlet condition imposed by identity rows in A1, zero rows in A2 and
    # zero load at the boundary nodes
    K1, K2, b = A1.copy(), A2.copy(), load.copy()
    for K in (K1, K2):
        K[boundary, :] = 0.0
        K[:, boundary] = 0.0
    K1[boundary, boundary] = 1.0
    b[boundary] = 0.0
    for p in (1.7, 0.9 + 0.2j):
        want = b @ np.linalg.solve(K1 + p * K2, b)
        got = fom.evaluate([p])[0, 0, 0]
        assert abs(got - want) <= 1e-13 * abs(want)


def _dense(op, n):
    """The dense (n, n) operator of a dense array or COO triplets, duplicates summed."""
    if isinstance(op, np.ndarray):
        return op
    dense = np.zeros((n, n))
    np.add.at(dense, (op[0], op[1]), op[2])
    return dense


def _tridiagonal_fom(n):
    """A1 + p A2 with A1 tridiagonal from triplets: its diagonal is small next
    to its off-diagonals, so the factorization must interchange rows."""
    g = np.random.default_rng(n)
    i = np.arange(n - 1)
    rows = np.concatenate([np.arange(n), i + 1, i])
    cols = np.concatenate([np.arange(n), i, i + 1])
    A1 = (rows, cols, np.concatenate([0.1 * g.random(n), 1.0 + g.random(2 * (n - 1))]))
    A2 = (np.arange(n), np.arange(n), 0.05 * g.random(n))
    return AffineStationaryFom(A1=A1, A2=A2, B=g.standard_normal((n, 2)), C=g.standard_normal((3, n)))


def _bidiagonal_fom(n, offset):
    """A1 + p A2 with A1 lower (offset 1) or upper (offset -1) bidiagonal
    from triplets, so the tridiagonal kernel reads one diagonal as zeros;
    the small diagonal makes the lower one interchange rows."""
    g = np.random.default_rng(n)
    i = np.arange(n - 1)
    rows = np.concatenate([np.arange(n), i + max(offset, 0)])
    cols = np.concatenate([np.arange(n), i + max(-offset, 0)])
    A1 = (rows, cols, np.concatenate([0.1 * g.random(n), 1.0 + g.random(n - 1)]))
    A2 = (np.arange(n), np.arange(n), 0.05 * g.random(n))
    return AffineStationaryFom(A1=A1, A2=A2, B=g.standard_normal((n, 2)), C=g.standard_normal((3, n)))


def _symmetric_indefinite_fom(n=9):
    """A1 + p A2 with symmetric A1 and A2 on a band two wide: A1 + 2 A2 is
    indefinite, so band Cholesky fails there and the general band kernel
    factors it."""
    g = np.random.default_rng(n)
    i = np.arange(n)
    rows = np.concatenate([i, i[1:], i[:-1], i[2:], i[:-2]])
    cols = np.concatenate([i, i[:-1], i[1:], i[:-2], i[2:]])
    first, second = 0.3 * g.random(n - 1), 0.2 * g.random(n - 2)
    A1 = (rows, cols, np.concatenate([np.where(i % 3, 2.0, -2.0), first, first, second, second]))
    A2 = (i, i, 0.1 + 0.1 * g.random(n))
    return AffineStationaryFom(A1=A1, A2=A2, B=g.standard_normal((n, 2)), C=g.standard_normal((3, n)))


def _dense_pencil(fom):
    """K(p) as a dense matrix function, and the dense dK/dp."""
    if isinstance(fom, AffineStationaryFom):
        A1, A2 = _dense(fom.A1, fom.n), _dense(fom.A2, fom.n)
        return lambda p: A1 + p * A2, A2
    E, A = _dense(fom.E, fom.n), _dense(fom.A, fom.n)
    return lambda p: p * E - A, E


@pytest.mark.parametrize("name", ["penzl", "poisson", "random", "symmetric-indefinite", "tridiagonal-1",
                                  "tridiagonal-2", "tridiagonal-3", "tridiagonal-40", "lower-bidiagonal",
                                  "upper-bidiagonal", "diagonal"])
def test_factored_solves_match_dense_oracle(name):
    # penzl, tridiagonal-n (n >= 3), the bidiagonal bands and a diagonal one
    # (n = 5, a missing diagonal read as zeros): the tridiagonal kernel; poisson at
    # its real point: band Cholesky; symmetric-indefinite at its real point:
    # band Cholesky fails, then the general band kernel; the complex points,
    # the dense random model (full band) and tridiagonal-n (n < 3): the
    # general band kernel.  evaluate/partial run on a batch of a real and a
    # complex point, and each point's factor (real or complex) solves real and
    # complex right-hand sides, primal and adjoint.
    if name == "penzl":
        fom, points, band = make_penzl(), [0.3 + 150.0j, 2.0], (1, 1)
    elif name == "random":
        fom, points, band = make_random_stable(12, 2, 3, seed=5), [0.7, 0.4 - 0.9j], (11, 11)
    elif name == "poisson":
        fom, points, band = make_poisson(cells_per_side=8), [1.7, 0.9 + 0.2j], (8, 8)
    elif name == "symmetric-indefinite":
        fom, points, band = _symmetric_indefinite_fom(), [2.0, 0.9 + 0.2j], (2, 2)
    elif name.endswith("bidiagonal"):
        offset = 1 if name == "lower-bidiagonal" else -1
        fom, points, band = _bidiagonal_fom(5, offset), [1.7, 0.9 + 0.2j], (max(offset, 0), max(-offset, 0))
    elif name == "diagonal":
        g, i = np.random.default_rng(5), np.arange(5)
        fom = AffineStationaryFom(A1=(i, i, 1.0 + g.random(5)), A2=(i, i, g.random(5)),
                                  B=g.standard_normal((5, 2)), C=g.standard_normal((3, 5)))
        points, band = [1.7, 0.9 + 0.2j], (0, 0)
    else:
        n = int(name.split("-")[1])
        fom, points, band = _tridiagonal_fom(n), [1.7, 0.9 + 0.2j], (min(n - 1, 1),) * 2
    operator, dK = _dense_pencil(fom)
    assert fom.bands[:2] == band
    g = np.random.default_rng(4)
    real_rhs = g.standard_normal((fom.n, 2))
    complex_rhs = real_rhs + 1j * g.standard_normal((fom.n, 2))
    cases = []
    for p, value, deriv in zip(points, fom.evaluate(points), fom.partial(points)):
        K = operator(p)
        cases.append((value, fom.C @ np.linalg.solve(K, fom.B)))
        cases.append((deriv, -fom.C @ np.linalg.solve(K, dK @ np.linalg.solve(K, fom.B))))
        lu = fom.factor(p)
        for rhs in (real_rhs, complex_rhs, complex_rhs[:, 0]):
            cases.append((lu.solve(rhs), np.linalg.solve(K, rhs)))
            cases.append((lu.solve(rhs, trans="H"), np.linalg.solve(K.conj().T, rhs)))
    # a real point is factored real: the same bits as the real factor's solve
    real = np.array([p for p in points if np.isreal(p)], dtype=float)
    assert not np.iscomplexobj(fom.evaluate(real))
    assert np.array_equal(fom.evaluate(real)[0], fom.C @ fom.factor(real[0]).solve(fom.B))
    for got, want in cases:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("make", [make_penzl, lambda: make_poisson(8), lambda: _tridiagonal_fom(2),
                                  lambda: _bidiagonal_fom(5, 1), lambda: _bidiagonal_fom(5, -1),
                                  lambda: make_random_stable(6)])
def test_bands_hold_every_operator_in_general_band_storage(make):
    # one layout for every band: a (2 kl + ku + 1, n) C-order array with
    # entry (i, j) at row kl + ku + i - j of column j and its top kl rows
    # zero; a symmetric band keeps rows kl + ku onward as a Fortran copy
    fom = make()
    kl, ku, layouts, lower = fom.bands
    operator, K1 = _dense_pencil(fom)
    i, j = np.indices((fom.n, fom.n))
    inside = (i - j <= kl) & (j - i <= ku)
    for ab, K in zip(layouts, (operator(0.0), K1)):
        assert ab.shape == (2 * kl + ku + 1, fom.n) and ab.flags.c_contiguous
        assert not np.any(ab[:kl])
        rebuilt = np.where(inside, ab[np.clip(kl + ku + i - j, 0, len(ab) - 1), j], 0.0)
        assert np.allclose(rebuilt, K, rtol=0.0, atol=1e-14 * np.max(np.abs(K)))
    if lower is not None:
        for ab, band in zip(layouts, lower):
            assert band.flags.f_contiguous and np.array_equal(band, ab[kl + ku:])


def _record_kernel_calls(monkeypatch):
    """Record, in call order, the LAPACK factorization kernels called: ?gttrf, ?gbtrf and dpbtrf."""
    from scipy.linalg import lapack

    calls = []
    for name in ("dgttrf", "zgttrf", "dgbtrf", "zgbtrf", "dpbtrf"):
        wrapped = getattr(lapack, name)

        def recording(*args, _name=name, _wrapped=wrapped, **kwargs):
            calls.append(_name)
            return _wrapped(*args, **kwargs)

        monkeypatch.setattr(lapack, name, recording)
    return calls


@pytest.mark.parametrize("make, kernel", [(make_penzl, "gttrf"), (lambda: make_poisson(8), "gbtrf"),
                                          (lambda: _tridiagonal_fom(3), "gttrf"),
                                          (lambda: _tridiagonal_fom(2), "gbtrf"),
                                          pytest.param(lambda: _bidiagonal_fom(5, 1), "gttrf", id="lower-bidiagonal"),
                                          pytest.param(lambda: _bidiagonal_fom(5, -1), "gttrf", id="upper-bidiagonal"),
                                          (lambda: make_random_stable(6), "gbtrf"),
                                          (_symmetric_indefinite_fom, "gbtrf")])
def test_band_picks_the_factorization_kernel(monkeypatch, make, kernel):
    # a batch holding a complex point is factored complex at every point, so
    # no band Cholesky runs.  Penzl (kl = ku = 1) and Poisson (kl = ku = 32)
    # keep one benchmark workload on each side of the band choice; n = 2
    # stays on ?gbtrf, which scipy's ?gttrf wrapper cannot take
    calls = _record_kernel_calls(monkeypatch)
    make().evaluate([2.0, 0.5 + 1.0j])
    assert calls == ["z" + kernel] * 2


@pytest.mark.parametrize("make, kernels", [(make_penzl, ["dgttrf"]), (lambda: make_poisson(8), ["dpbtrf"]),
                                           (lambda: make_random_stable(6), ["dgbtrf"]),
                                           (_symmetric_indefinite_fom, ["dpbtrf", "dgbtrf"]),
                                           (lambda: _tridiagonal_fom(3), ["dgttrf"]),
                                           (lambda: _tridiagonal_fom(2), ["dgbtrf"])])
def test_real_point_on_a_symmetric_band_takes_band_cholesky(monkeypatch, make, kernels):
    # Poisson is symmetric and positive definite at real p: dpbtrf alone.
    # The symmetric indefinite model tries dpbtrf, then factors with
    # dgbtrf.  Penzl keeps the tridiagonal kernel, and the dense random
    # model and the n = 2 band (neither symmetric) the general band one.
    fom = make()
    calls = _record_kernel_calls(monkeypatch)
    operator, _ = _dense_pencil(fom)
    want = fom.C @ np.linalg.solve(operator(2.0), fom.B)
    got = fom.evaluate([2.0])[0]
    assert calls == kernels
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _singular_tridiagonal_fom():
    """A1 + p A2 = [[1, 1, 0], [1, 1, 0], [0, 0, 1 + p]], singular at every p."""
    rows, cols = np.array([0, 0, 1, 1, 2]), np.array([0, 1, 0, 1, 2])
    return AffineStationaryFom(A1=(rows, cols, np.ones(5)), A2=(np.array([2]), np.array([2]), np.ones(1)),
                               B=np.ones((3, 1)), C=np.ones((1, 3)))


def _singular_symmetric_fom():
    """A1 + p A2 = [[1, 1, 1, 0], [1, 1, 1, 0], [1, 1, 1, 0], [0, 0, 0, 1 + p]],
    symmetric on a band two wide and singular at every p."""
    rows, cols = np.divmod(np.arange(9), 3)
    rows, cols = np.append(rows, 3), np.append(cols, 3)
    return AffineStationaryFom(A1=(rows, cols, np.ones(10)), A2=(np.array([3]), np.array([3]), np.ones(1)),
                               B=np.ones((4, 1)), C=np.ones((1, 4)))


def test_singular_full_order_operator_raises():
    # a zero on the diagonal at n = 4 and n = 2 (tridiagonal and general band
    # kernels), a tridiagonal operator with two equal leading rows, and a
    # symmetric operator whose band Cholesky fails before ?gbtrf finds the
    # zero pivot
    n = 4
    diag = (np.arange(n), np.arange(n), np.array([1.0, 2.0, 0.0, 1.0]))
    singular = [
        (AffineStationaryFom(A1=diag, A2=diag, B=np.ones((n, 1)), C=np.ones((1, n))), 1.5),
        (AffineStationaryFom(A1=np.diag([1.0, 0.0]), A2=np.eye(2), B=np.ones((2, 1)),
                             C=np.ones((1, 2))), 0.0),
        (_singular_tridiagonal_fom(), 1.5),
        (_singular_symmetric_fom(), 1.5),
    ]
    for fom, p in singular:
        with pytest.raises(np.linalg.LinAlgError, match=r"singular \(zero pivot"):
            fom.factor(p)
        with pytest.raises(np.linalg.LinAlgError):
            fom.evaluate([p])


def _run_python(args, code):
    proc = subprocess.run([sys.executable, *args, "-c", code], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_model_validation_survives_optimized_mode():
    code = """
import numpy as np
import scipy.sparse
from l2rom.models import (AffineLtiFom, AffineStationaryFom, make_kron_parametric, make_poisson, make_random_stable,
                          sample_frequency_response, sample_h2l2)
from l2rom.optimize import greedy_rb_init, irka_init
from l2rom.spectral import pole_residue_affine_singular

class NanFom:
    def evaluate(self, points):
        return np.full((len(points), 1, 1), np.nan + 0j)

fom = make_random_stable(4)
rows, cols = np.array([0, 0, 1, 1, 2]), np.array([0, 1, 0, 1, 2])
tridiagonal = AffineStationaryFom((rows, cols, np.ones(5)), (rows, cols, np.zeros(5)), np.ones((3, 1)), np.ones((1, 3)))
rows, cols = np.divmod(np.arange(9), 3)  # symmetric, band two wide: band Cholesky fails, then ?gbtrf
symmetric = AffineStationaryFom((rows, cols, np.ones(9)), (rows, cols, np.zeros(9)), np.ones((3, 1)), np.ones((1, 3)))

def with_a1(a1):  # an n = 4 model whose A1 is malformed: its first solve raises
    return lambda: AffineStationaryFom(a1, np.eye(4), np.ones((4, 1)), np.ones((1, 4))).evaluate([1.0])

diagonal = (np.arange(4), np.arange(4), np.ones(4))
for make in (lambda: AffineLtiFom(fom.E, fom.A, fom.B, fom.C, time_domain="xt"),
             lambda: sample_frequency_response(NanFom(), [1.0, 2.0]),
             lambda: sample_frequency_response(fom, []),
             lambda: irka_init(fom, 0),
             lambda: greedy_rb_init(make_poisson(4), 0, [0.5, 1.0]),
             lambda: make_random_stable(0),
             lambda: make_random_stable(4, n_i=0),
             lambda: make_random_stable(4, n_o=0),
             lambda: make_kron_parametric(0, 2),
             lambda: make_kron_parametric(2, 0),
             lambda: make_kron_parametric(2, 2, n_i=0),
             lambda: make_kron_parametric(2, 2, n_o=0),
             lambda: sample_h2l2(make_kron_parametric(2, 2), n_s=0, n_xi=4),
             lambda: tridiagonal.factor(1.5),
             lambda: symmetric.factor(1.5),
             with_a1((np.r_[diagonal[0], 1], np.r_[diagonal[1], 4], np.ones(5))),  # an entry at (1, n)
             with_a1((np.r_[diagonal[0], 4], np.r_[diagonal[1], 4], np.ones(5))),  # an entry at (n, n)
             with_a1((diagonal[0], diagonal[1], np.ones(3))),  # triplets of unequal length
             with_a1((diagonal[0] - 1.0, diagonal[1], np.ones(4))),  # float indices
             with_a1(np.eye(5)),  # a dense operator of the wrong size
             with_a1(scipy.sparse.eye_array(4)),
             lambda: pole_residue_affine_singular(np.eye(5), np.eye(5), np.ones((4, 1)), np.ones((1, 4)))):
    try:
        make()
    except ValueError:  # np.linalg.LinAlgError is a ValueError
        print("raised")
"""
    assert _run_python(["-O"], code).split() == ["raised"] * 22


def test_building_models_does_not_import_scipy_sparse():
    # scipy.sparse and scipy.linalg cost set-up time; the operators are
    # built, and scipy imported, on the first solve.  No pipeline imports
    # scipy.sparse: the band layout stores every full-order operator
    code = """
import sys
import numpy as np
import l2rom
import l2rom.cli
from l2rom.certify import Interval, ls_residuals, stationary_residuals
from l2rom.models import make_penzl, make_poisson, sample_frequency_response, sample_stationary
from l2rom.optimize import fit, greedy_rb_init, irka_init
from l2rom.spectral import pole_residue, pole_residue_affine_singular
penzl = make_penzl()
poisson = make_poisson()
print(sorted(m for m in sys.modules if m.startswith(("scipy.sparse", "scipy.linalg"))))
data = sample_frequency_response(penzl, np.logspace(0, 4, 50))
ls_residuals(data, pole_residue(fit(irka_init(penzl, 2), data).rom))
data = sample_stationary(poisson, 60)
rom = fit(greedy_rb_init(poisson, 2, np.logspace(-1, 1, 20)), data).rom
fom_pr = pole_residue_affine_singular(poisson.A1, poisson.A2, poisson.B, poisson.C)
stationary_residuals(fom_pr, pole_residue(rom), Interval(*poisson.interval))
print(sorted(m for m in sys.modules if m.startswith("scipy.sparse")))
"""
    assert _run_python([], code).split() == ["[]", "[]"]


@pytest.mark.parametrize("interval", [(10.0, 1.0), (1.0, 1.0), (1.0, np.nan), (np.nan, 1.0), (0.1, np.inf)])
def test_stationary_fom_checks_its_interval_on_construction(interval):
    # the certificate's Interval check, not a later failure of the quadrature weights
    with pytest.raises(ValueError, match="interval requires finite a < b"):
        AffineStationaryFom(A1=np.eye(3), A2=np.eye(3), B=np.ones((3, 1)), C=np.ones((1, 3)),
                            interval=interval)
