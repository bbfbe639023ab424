import numpy as np
import pytest
import scipy.linalg

from l2rom import spectral
from l2rom.core import ScalarFamily, StructuredRom, kron_rom, lti_rom, stationary_rom
from l2rom.models import _band_layouts
from l2rom.spectral import (
    DefectivePencilError,
    PoleResidue,
    diagonalize_pencil,
    kron_pole_residue,
    pole_residue,
    pole_residue_affine_singular,
    pole_residue_lti,
    rom_structure,
)

rng = np.random.default_rng(7)


def random_pencil(n, shift=-2.0):
    e = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    a = rng.standard_normal((n, n)) + shift * np.eye(n)
    return e, a


def test_diagonalize_pencil_identities():
    e, a = random_pencil(6)
    diag = diagonalize_pencil(e, a)
    assert np.linalg.norm(diag.S.conj().T @ e @ diag.T - np.eye(6)) <= 1e-10
    assert np.linalg.norm(diag.S.conj().T @ a @ diag.T - np.diag(diag.eigenvalues)) <= 1e-9


def test_diagonalize_rejects_jordan_block():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])  # defective
    with pytest.raises(DefectivePencilError):
        diagonalize_pencil(np.eye(2), a)


def test_pole_residue_lti_round_trip():
    n, n_i, n_o = 5, 2, 3
    e, a = random_pencil(n)
    b = rng.standard_normal((n, n_i))
    c = rng.standard_normal((n_o, n))
    pr = pole_residue_lti(e, a, b, c)
    ss = np.array([1.0j, 0.5 + 2.0j, 3.0])
    for s, val in zip(ss, pr.evaluate(ss)):
        direct = c @ np.linalg.solve(s * e - a, b)
        assert np.max(np.abs(val - direct)) <= 1e-10 * np.max(np.abs(direct))


def test_pole_residue_eval_guards_pole_collision():
    pr = pole_residue_lti(np.eye(2), np.diag([-1.0, -2.0]), np.ones((2, 1)), np.ones((1, 2)))
    with pytest.raises(ValueError, match="coincides with a pole"):
        pr.evaluate([0.5j, -1.0])  # the whole batch is checked
    kr = kron_pole_residue(np.eye(2), np.diag([-1.0, -2.0]), np.eye(1), np.diag([2.0]), np.ones((2, 1)),
                           np.ones((1, 2)))
    with pytest.raises(ValueError, match="coincides with a pole"):
        kr.partial([[0.5j, 0.0], [1j, 2.0]], wrt=1)


def test_distinct_pole_check_matches_pairwise_scan():
    # poles on a coarse grid (equal real parts, exact duplicates) moved by
    # offsets just below and above the separation tolerance
    local = np.random.default_rng(11)
    for _ in range(300):
        n = int(local.integers(2, 12))
        poles = local.integers(-3, 3, n) + 1j * local.integers(-3, 3, n)
        poles = poles + local.choice([0.0, 1e-9, 3e-8, 1e-7], n) * np.exp(2j * np.pi * local.random(n))
        gaps = np.abs(poles[:, None] - poles[None, :]) + np.diag(np.full(n, np.inf))
        close = gaps.min() < spectral.POLE_SEPARATION_RTOL * np.max(np.abs(poles))
        if close:
            with pytest.raises(DefectivePencilError):
                PoleResidue(poles, np.ones((n, 1)), np.ones((n, 1)))
        else:
            PoleResidue(poles, np.ones((n, 1)), np.ones((n, 1)))


def test_affine_singular_matches_direct_solves():
    n = 8
    a1 = rng.standard_normal((n, n)) + 4 * np.eye(n)
    # rank-deficient second coefficient
    low = rng.standard_normal((n, 3))
    a2 = low @ low.T @ rng.standard_normal((n, n))
    b = rng.standard_normal((n, 2))
    c = rng.standard_normal((1, n))
    pr = pole_residue_affine_singular(a1, a2, b, c)
    assert len(pr.poles) == 3
    ps = np.array([0.5, 1.3, 7.0])
    for p, val in zip(ps, pr.evaluate(ps)):
        direct = c @ np.linalg.solve(a1 + p * a2, b)
        assert np.max(np.abs(val - direct)) <= 1e-8 * np.max(np.abs(direct))


def test_affine_singular_constant_is_large_p_limit():
    # as p -> inf, C (A1 + p A2)^{-1} B tends to the constant term
    n = 6
    a1 = rng.standard_normal((n, n)) + 4 * np.eye(n)
    low = rng.standard_normal((n, 2))
    a2 = low @ rng.standard_normal((2, n))
    b = rng.standard_normal((n, 1))
    c = rng.standard_normal((1, n))
    pr = pole_residue_affine_singular(a1, a2, b, c)
    p = 1e9
    direct = c @ np.linalg.solve(a1 + p * a2, b)
    assert np.max(np.abs(pr.constant_term() - direct)) <= 1e-6 * max(np.max(np.abs(direct)), 1e-12)


def test_affine_singular_symmetric_path():
    # symmetric positive definite A1, symmetric singular A2 with repeated modes
    n = 7
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a1 = q @ np.diag(rng.uniform(1.0, 3.0, n)) @ q.T
    a1 = 0.5 * (a1 + a1.T)
    d2 = np.array([2.0, 2.0, 1.0, 0.5, 0.0, 0.0, 0.0])
    a2 = q @ np.diag(d2) @ q.T
    a2 = 0.5 * (a2 + a2.T)
    # make a rank-one residue at the repeated eigenvalue: share the same output direction
    b = rng.standard_normal((n, 1))
    c = rng.standard_normal((1, n))
    pr = pole_residue_affine_singular(a1, a2, b, c)
    ps = np.array([0.4, 2.0, 9.0])
    for p, val in zip(ps, pr.evaluate(ps)):
        direct = c @ np.linalg.solve(a1 + p * a2, b)
        assert np.max(np.abs(val - direct)) <= 1e-8 * np.max(np.abs(direct))


def test_affine_singular_no_constant_when_a2_invertible():
    n = 5
    a1 = np.diag(rng.uniform(1.0, 2.0, n))
    a2 = np.diag(rng.uniform(0.5, 1.5, n))
    pr = pole_residue_affine_singular(a1, a2, np.ones((n, 1)), np.ones((1, n)))
    assert np.max(np.abs(pr.constant_term())) <= 1e-12
    assert len(pr.poles) == n


def test_kron_pole_residue_round_trip():
    rs, rx = 3, 2
    e, a = random_pencil(rs)
    e_xi, a_xi = random_pencil(rx, shift=1.5)
    b = rng.standard_normal((rs * rx, 2))
    c = rng.standard_normal((1, rs * rx))
    pr = kron_pole_residue(e, a, e_xi, a_xi, b, c)
    s, xi = 0.7 + 0.9j, np.exp(0.4j)
    direct = c @ np.linalg.solve(np.kron(s * e - a, xi * e_xi - a_xi), b)
    val = pr.evaluate([[s, xi]])[0]
    assert np.max(np.abs(val - direct)) <= 1e-10 * np.max(np.abs(direct))


def test_rom_structure_and_pole_residue_dispatch():
    e, a = random_pencil(3)
    b, c = rng.standard_normal((3, 1)), rng.standard_normal((1, 3))
    a2 = np.diag([1.0, 2.0])
    lti = lti_rom(e, a, b, c)
    stat = stationary_rom(np.eye(2), a2, np.ones((2, 1)), np.ones((1, 2)))
    kr = kron_rom(np.eye(2), np.diag([-1.0, -2.0]), np.eye(2), np.diag([2.0, 3.0]),
                  np.ones((4, 1)), np.ones((1, 4)))
    assert rom_structure(lti) == "lti"
    assert rom_structure(stat) == "stationary"
    assert rom_structure(kr) == "kron"
    pairs = (
        (pole_residue(lti), pole_residue_lti(e, a, b, c)),
        (pole_residue(stat), pole_residue_affine_singular(np.eye(2), a2, np.ones((2, 1)), np.ones((1, 2)))),
    )
    for got, want in pairs:
        assert np.array_equal(got.poles, want.poles)
        assert np.array_equal(got.left_factors, want.left_factors)
        assert np.array_equal(got.right_factors, want.right_factors)
    got = pole_residue(kr)
    want = kron_pole_residue(np.eye(2), np.diag([-1.0, -2.0]), np.eye(2), np.diag([2.0, 3.0]),
                             np.ones((4, 1)), np.ones((1, 4)))
    assert np.array_equal(got.s_poles, want.s_poles) and np.array_equal(got.xi_poles, want.xi_poles)
    assert np.array_equal(got.left_factors, want.left_factors)
    other = StructuredRom(
        A_terms=((ScalarFamily.constant(1.0), np.eye(2)),),
        B_terms=((ScalarFamily.constant(1.0), np.ones((2, 1))),),
        C_terms=((ScalarFamily.constant(1.0), np.ones((1, 2))),),
    )
    assert rom_structure(other) == "unknown"
    with pytest.raises(ValueError):
        pole_residue(other)


def _dense_symmetric_pencil(n=9, rank=4):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a1 = q @ np.diag(rng.uniform(1.0, 3.0, n)) @ q.T
    low = rng.standard_normal((n, rank))
    return 0.5 * (a1 + a1.T), low @ low.T, rng.standard_normal((n, 2)), rng.standard_normal((3, n))


@pytest.mark.parametrize("n, rank", [(1, 1), (2, 1), (9, 4), (40, 40)])
def test_symmetric_projections_match_dense_eigh(n, rank):
    # the tridiagonal route never forms X; check it against scipy's generalized
    # eigh through quantities that do not depend on the eigenvector basis
    a1, a2, b, c = _dense_symmetric_pencil(n, rank)
    ab1, ab2 = _band_layouts(n, a1, a2)[3]
    d, cx, xb = spectral._symmetric_eig_projections(ab2, ab1, b, c)
    d_ref = scipy.linalg.eigh(a2, a1, eigvals_only=True)
    assert np.max(np.abs(d - d_ref)) <= 1e-13 * np.max(np.abs(d_ref))
    a1_inv_b = np.linalg.solve(a1, b)
    for got, want in ((cx @ xb, c @ a1_inv_b), ((cx * d) @ xb, c @ np.linalg.solve(a1, a2 @ a1_inv_b))):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_affine_singular_indefinite_a1_takes_general_path():
    n = 6
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a1 = q @ np.diag([3.0, 2.0, 1.0, -1.0, -2.0, -3.5]) @ q.T
    a1 = 0.5 * (a1 + a1.T)
    _, a2, b, c = _dense_symmetric_pencil(n, n)
    ab1, ab2 = _band_layouts(n, a1, a2)[3]
    assert spectral._symmetric_eig_projections(ab2, ab1, b, c) is None
    pr = pole_residue_affine_singular(a1, a2, b, c)
    ps = np.array([0.3, 1.7, 6.0])
    for p, val in zip(ps, pr.evaluate(ps)):
        direct = c @ np.linalg.solve(a1 + p * a2, b)
        assert np.max(np.abs(val - direct)) <= 1e-8 * np.max(np.abs(direct))


def test_affine_singular_general_path_reads_the_unfactored_band():
    # band Cholesky fails on A1 = diag(4, -2, 3) after overwriting its first
    # entry; the general path densifies the band layouts, so it must have
    # factored a copy of them
    a1, a2 = np.diag([4.0, -2.0, 3.0]), np.diag([1.0, 2.0, 0.5])
    b = np.array([[1.0], [2.0], [3.0]])
    pr = pole_residue_affine_singular(a1, a2, b, b.T)
    ps = np.array([0.3, 1.7])
    direct = np.stack([b.T @ np.linalg.solve(a1 + p * a2, b) for p in ps])
    assert np.max(np.abs(pr.evaluate(ps) - direct)) <= 1e-12 * np.max(np.abs(direct))


def _count_lapack(monkeypatch, *names):
    """Calls of the named LAPACK routines of l2rom's kernel module, counted from now on."""
    from l2rom.models import _kernels

    lapack = _kernels("_flapack")
    counts = dict.fromkeys(names, 0)
    for name in names:
        wrapped = getattr(lapack, name)

        def counting(*args, _name=name, _wrapped=wrapped, **kwargs):
            counts[_name] += 1
            return _wrapped(*args, **kwargs)

        monkeypatch.setattr(lapack, name, counting)
    return counts


def test_symmetric_poisson_form_takes_band_cholesky(monkeypatch):
    # A1 is factored on its band; no dense Cholesky runs
    from l2rom.models import make_poisson

    counts = _count_lapack(monkeypatch, "dpbtrf", "dpotrf")
    fom = make_poisson(8)
    pr = pole_residue_affine_singular(fom.A1, fom.A2, fom.B, fom.C)
    assert counts == {"dpbtrf": 1, "dpotrf": 0}
    ps = np.array([0.1, 1.7, 9.9])
    direct = fom.evaluate(ps)
    assert np.max(np.abs(pr.evaluate(ps) - direct)) <= 1e-10 * np.max(np.abs(direct))


def _banded_stationary_fom(n, offsets, nudge=False):
    """A symmetric positive definite A1 and a symmetric A2 on the band |i - j| <= max(offsets).

    With ``nudge`` the entry (1, 0) of A1 is one ulp larger than its mirror (0, 1).
    """
    from l2rom.models import AffineStationaryFom

    g = np.random.default_rng(19)
    a1, a2 = np.diag(4.0 + g.random(n)), np.diag(1.0 + g.random(n))
    for d in offsets:
        for a in (a1, a2):
            band = -0.5 * g.random(n - d)
            a += np.diag(band, d) + np.diag(band, -d)
    if nudge:
        a1[1, 0] = np.nextafter(a1[1, 0], np.inf)
    return AffineStationaryFom(A1=a1, A2=a2, B=g.standard_normal((n, 2)), C=g.standard_normal((3, n)))


def test_symmetric_tridiagonal_model_keeps_the_symmetric_form(monkeypatch):
    # one symmetry rule: the tridiagonal band is tested too, so its lower band exists
    fom = _banded_stationary_fom(7, [1])
    assert fom.bands[:2] == (1, 1) and fom.bands[3] is not None
    counts = _count_lapack(monkeypatch, "dpbtrf", "dgttrf")
    pr = pole_residue_affine_singular(fom.A1, fom.A2, fom.B, fom.C)
    assert counts == {"dpbtrf": 1, "dgttrf": 0}
    ps = np.array([0.1, 1.7, 9.9])
    direct = fom.evaluate(ps)  # BandedLU still takes the tridiagonal kernel first
    assert counts == {"dpbtrf": 1, "dgttrf": 3}
    assert np.max(np.abs(pr.evaluate(ps) - direct)) <= 1e-10 * np.max(np.abs(direct))


def test_one_ulp_asymmetry_takes_the_general_paths(monkeypatch):
    # "symmetric" is bit for bit: a nudged mirror entry leaves band Cholesky everywhere
    fom = _banded_stationary_fom(9, [1, 2], nudge=True)
    assert fom.bands[:2] == (2, 2) and fom.bands[3] is None
    counts = _count_lapack(monkeypatch, "dpbtrf", "dgbtrf")
    ps = np.array([0.1, 1.7, 9.9])
    direct = fom.evaluate(ps)
    assert counts == {"dpbtrf": 0, "dgbtrf": 3}
    pr = pole_residue_affine_singular(fom.A1, fom.A2, fom.B, fom.C)
    assert counts["dpbtrf"] == 0
    assert np.max(np.abs(pr.evaluate(ps) - direct)) <= 1e-10 * np.max(np.abs(direct))


@pytest.mark.parametrize("nudge", [False, True])
def test_decoupled_rows_go_to_the_constant_term(nudge):
    # indices 0 and 5 are touched only by A1's diagonal (2 and 3; zero in A2)
    # and carry B and C entries.  On the symmetric path they are zero
    # eigenvalues, on the general path (after a one-ulp asymmetry) the null
    # space of A2; either way they add C_i B_i / a_ii to the constant term
    from l2rom.models import AffineStationaryFom

    block = _banded_stationary_fom(7, [1, 2], nudge=nudge)
    n, fixed = 9, [0, 5]
    kept = np.ix_(np.delete(np.arange(n), fixed), np.delete(np.arange(n), fixed))
    a1, a2 = np.zeros((n, n)), np.zeros((n, n))
    a1[kept], a2[kept] = block.A1, block.A2
    a1[fixed, fixed] = [2.0, 3.0]
    g = np.random.default_rng(23)
    b, c = g.standard_normal((n, 2)), g.standard_normal((3, n))
    fom = AffineStationaryFom(A1=a1, A2=a2, B=b, C=c)
    assert (fom.bands[3] is None) == nudge
    pr = pole_residue_affine_singular(fom.A1, fom.A2, fom.B, fom.C)
    ps = np.array([0.1, 1.7, 9.9])
    direct = np.stack([c @ np.linalg.solve(a1 + p * a2, b) for p in ps])
    assert np.max(np.abs(pr.evaluate(ps) - direct)) <= 1e-10 * np.max(np.abs(direct))
    constant = np.outer(c[:, 0], b[0]) / 2.0 + np.outer(c[:, 5], b[5]) / 3.0
    assert np.max(np.abs(pr.constant_term() - constant)) <= 1e-12 * np.max(np.abs(constant))


@pytest.mark.parametrize("time_domain", ["ct", "dt"])
def test_mirror_is_an_involution_onto_the_admissible_region(time_domain):
    g = np.random.default_rng(5)
    z = 3.0 * (g.standard_normal(200) + 1j * g.standard_normal(200))
    z = np.concatenate([z, z.real, -0.5 + 0.25j * z.imag])  # real points, and points inside the unit disk
    away = np.abs(z.real) > 1e-6 if time_domain == "ct" else np.abs(np.abs(z) - 1.0) > 1e-6
    z = z[away]  # off the boundary of the stability region
    image = spectral.mirror(z, time_domain)
    assert np.allclose(spectral.mirror(image, time_domain), z, rtol=1e-14, atol=0)
    admissible = z.real > 0 if time_domain == "ct" else np.abs(z) > 1
    assert np.array_equal(spectral.stable(image, time_domain), admissible)
    assert np.array_equal(spectral.stable(z, time_domain), ~admissible)  # off the boundary: one or the other
    assert 0 < np.sum(admissible) < len(z)
    boundary = 1j * z.imag if time_domain == "ct" else np.exp(1j * z.imag)
    assert np.allclose(spectral.mirror(boundary, time_domain), boundary, rtol=1e-14, atol=0)  # fixed points


def test_geometry_rejects_an_unknown_time_domain():
    for helper in (spectral.stable, spectral.mirror):
        with pytest.raises(ValueError, match="time_domain"):
            helper(np.ones(2), "xt")
