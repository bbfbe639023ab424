import re

import numpy as np
import pytest

from l2rom.core import (
    SampleSet,
    ScalarFamily,
    SingularOperatorError,
    StructuredRom,
    batch_states,
    check_conjugation_closure,
    eval_family,
    kron_rom,
    lti_rom,
    stationary_rom,
)

rng = np.random.default_rng(42)


def test_scalar_family_eval():
    one = ScalarFamily.constant(3.0)
    assert eval_family(one, np.array([[2.0]]))[0] == 3.0
    s = ScalarFamily.coordinate(0)
    pts = np.array([[1.0 + 2.0j], [0.5j]])
    assert np.allclose(eval_family(s, pts), pts[:, 0])
    sxi = ScalarFamily(((1.0, (1, 1)),), 2)
    pts2 = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    assert np.allclose(eval_family(sxi, pts2), pts2[:, 0] * pts2[:, 1])


def test_scalar_family_rejects_bad_exponents():
    with pytest.raises(ValueError):
        ScalarFamily(((1.0, (-1,)),), 1)
    with pytest.raises(ValueError):
        ScalarFamily(((1.0, (1, 0)),), 1)


def test_rom_rejects_complex_matrices():
    fam = ScalarFamily.constant(1.0)
    with pytest.raises(ValueError):
        StructuredRom(
            A_terms=((fam, np.eye(2, dtype=complex)),),
            B_terms=((fam, np.ones((2, 1))),),
            C_terms=((fam, np.ones((1, 2))),),
        )


def test_rom_rejects_nonsquare_a_terms():
    fam = ScalarFamily.constant(1.0)
    with pytest.raises(ValueError):
        StructuredRom(
            A_terms=((fam, np.ones((2, 3))),),
            B_terms=((fam, np.ones((2, 1))),),
            C_terms=((fam, np.ones((1, 2))),),
        )


@pytest.mark.parametrize("bad, message", [
    ({"B": [np.ones((3, 1))]}, r"B-term 0 has shape \(3, 1\), expected \(2, 1\)"),
    ({"B": [np.ones((2, 1)), np.ones((2, 2))]}, r"B-term 1 has shape \(2, 2\), expected \(2, 1\)"),
    ({"C": [np.ones((1, 3))]}, r"C-term 0 has shape \(1, 3\), expected \(1, 2\)"),
    ({"C": [np.ones((1, 2)), np.ones((3, 2))]}, r"C-term 1 has shape \(3, 2\), expected \(1, 2\)"),
    ({"A": [np.eye(2), np.array([[-1.0, np.nan], [0.0, -2.0]])]}, "A-term 1 must be finite"),
    ({"B": [np.array([[1.0], [np.inf]])]}, "B-term 0 must be finite"),
])
def test_rom_rejects_misshapen_or_non_finite_terms(bad, message):
    # each check is a ValueError naming the term, so python -O keeps it
    fam = ScalarFamily.constant(1.0)
    mats = {"A": [np.eye(2), -np.diag([1.0, 2.0])], "B": [np.ones((2, 1))], "C": [np.ones((1, 2))], **bad}
    terms = [tuple((fam, mat) for mat in mats[group]) for group in "ABC"]
    with pytest.raises(ValueError, match=message):
        StructuredRom(*terms)


def test_batch_states_scalar_lti():
    # y(s) = c b / (s e - a) with scalars
    e, a, b, c = 2.0, -3.0, 4.0, 5.0
    rom = lti_rom(np.array([[e]]), np.array([[a]]), np.array([[b]]), np.array([[c]]))
    s = np.array([0.0, 1.0j, 2.0 - 0.5j])
    _, _, y = batch_states(rom, s[:, None])
    assert np.allclose(y[:, 0, 0], c * b / (s * e - a))


def test_dual_state_solves_adjoint():
    n = 4
    a = rng.standard_normal((n, n)) - 3 * np.eye(n)
    rom = lti_rom(np.eye(n), a, rng.standard_normal((n, 2)), rng.standard_normal((2, n)))
    s = 0.7 + 1.3j
    op = s * np.eye(n) - a
    _, x_d, _ = batch_states(rom, np.array([[s]]))
    assert np.allclose(op.conj().T @ x_d[0], rom.C_terms[0][1].conj().T)


def test_batch_states_matches_pointwise():
    n = 3
    a = rng.standard_normal((n, n)) - 2 * np.eye(n)
    b, c = rng.standard_normal((n, 1)), rng.standard_normal((1, n))
    rom = lti_rom(np.eye(n), a, b, c)
    pts = (rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1)))
    x, x_d, y = batch_states(rom, pts)
    for i, (s,) in enumerate(pts):
        op = s * np.eye(n) - a
        x_i = np.linalg.solve(op, b)
        assert np.allclose(y[i], c @ x_i)
        assert np.allclose(x[i], x_i)
        assert np.allclose(x_d[i], np.linalg.solve(op.conj().T, c.T))


def test_singular_operator_raises():
    rom = lti_rom(np.eye(2), np.diag([-1.0, -2.0]), np.ones((2, 1)), np.ones((1, 2)))
    pts = np.array([[0.5j], [-1.0]])  # the second point is a pole
    with pytest.raises(SingularOperatorError) as info:
        batch_states(rom, pts)
    assert np.array_equal(info.value.p, pts)


def test_sample_set_validation():
    pts = np.zeros((3, 1), dtype=complex)
    vals = np.zeros((3, 1, 1), dtype=complex)
    with pytest.raises(ValueError):
        SampleSet(pts, vals, np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        SampleSet(pts, vals, np.ones(2))


def test_sample_set_takes_1d_points_as_one_coordinate_points():
    data = SampleSet(points=np.array([1j, 2j, 3j]), values=np.ones(3), weights=np.ones(3))
    assert data.points.shape == (3, 1) and data.n_p == 1
    assert np.array_equal(data.points[:, 0], [1j, 2j, 3j])
    single = SampleSet(points=np.array(2j), values=np.ones(1), weights=np.ones(1))
    assert single.points.shape == (1, 1) and single.points[0, 0] == 2j


@pytest.mark.parametrize("shape", [(), (3, 2), (3, 1, 1, 1)], ids=["0-d", "N-by-k", "4-d"])
def test_sample_set_rejects_values_of_another_shape(shape):
    # (N,) and (N, n_o, n_i) are the only layouts: n_o and n_i read the last two axes
    assert SampleSet(np.ones(3), np.ones(3), np.ones(3)).values.shape == (3, 1, 1)
    assert SampleSet(np.ones(3), np.ones((3, 2, 4)), np.ones(3)).values.shape == (3, 2, 4)
    with pytest.raises(ValueError, match=rf"values have shape {re.escape(str(shape))}; expected \(N,\) or"):
        SampleSet(np.ones(3), np.ones(shape), np.ones(3))


@pytest.mark.parametrize("field", ["points", "values", "weights"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sample_set_rejects_non_finite(field, bad):
    # a NaN weight would pass the sign test; every array must be finite
    arrays = {"points": np.ones((3, 1), dtype=complex), "values": np.ones((3, 1, 1), dtype=complex),
              "weights": np.ones(3)}
    arrays[field][1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        SampleSet(**arrays)


def test_conjugation_closure_check():
    pts = np.array([[1j], [-1j], [2j]])
    vals = np.array([[[1 + 1j]], [[1 - 1j]], [[3j]]])
    closed, violations = check_conjugation_closure(SampleSet(pts[:2], vals[:2], np.ones(2)))
    assert closed and not violations
    closed, violations = check_conjugation_closure(SampleSet(pts, vals, np.ones(3)))
    assert not closed and 2 in violations


def test_output_invariant_under_state_transformation():
    # A_i -> W A_i V, B -> W B, C -> C V leaves y(p) unchanged
    r = 3
    a1 = np.eye(r) + 0.1 * rng.standard_normal((r, r))
    a2 = 0.4 * rng.standard_normal((r, r))
    b = rng.standard_normal((r, 2))
    c = rng.standard_normal((2, r))
    rom = stationary_rom(a1, a2, b, c)
    w = np.eye(r) + 0.2 * rng.standard_normal((r, r))
    v = np.eye(r) + 0.2 * rng.standard_normal((r, r))
    rom_t = stationary_rom(w @ a1 @ v, w @ a2 @ v, w @ b, c @ v)
    pts = np.array([[0.3], [1.0], [7.5]])
    _, _, y = batch_states(rom, pts)
    _, _, y_t = batch_states(rom_t, pts)
    for i in range(len(pts)):
        assert np.max(np.abs(y[i] - y_t[i])) <= 1e-12 * np.max(np.abs(y[i]))


def test_kron_rom_operator_assembly():
    rs, rx = 2, 3
    e = np.eye(rs) + 0.1 * rng.standard_normal((rs, rs))
    a = rng.standard_normal((rs, rs))
    e_xi = np.eye(rx)
    a_xi = rng.standard_normal((rx, rx))
    b = rng.standard_normal((rs * rx, 1))
    c = rng.standard_normal((1, rs * rx))
    rom = kron_rom(e, a, e_xi, a_xi, b, c)
    s, xi = 0.5 + 1j, np.exp(0.3j)
    op = np.kron(s * e - a, xi * e_xi - a_xi)
    x, _, y = batch_states(rom, np.array([[s, xi]]))
    assert np.allclose(x[0], np.linalg.solve(op, b))
    assert np.allclose(y[0], c @ np.linalg.solve(op, b))
