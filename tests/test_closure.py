"""Conjugation-closure check: the tolerance window and property tests.

The property tests need ``hypothesis`` (the ``test`` extra in pyproject.toml).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from l2rom.core import SampleSet, check_conjugation_closure


def _closure_reference(samples, tol=1e-12):
    # the quadratic scan: every sample against every conjugate point
    pts, vals, wts = samples.points, samples.values, samples.weights
    scale_p = max(1.0, float(np.max(np.abs(pts))))
    scale_v = max(1.0, float(np.max(np.abs(vals))))
    violations = []
    for i in range(len(samples)):
        dp = np.max(np.abs(pts - np.conj(pts[i])), axis=1)
        ok = any(
            np.max(np.abs(vals[j] - np.conj(vals[i]))) <= tol * scale_v
            and abs(wts[j] - wts[i]) <= tol * max(1.0, wts[i])
            for j in np.nonzero(dp <= tol * scale_p)[0]
        )
        if not ok:
            violations.append(i)
    return (not violations), violations


def test_closure_window_reaches_tolerance():
    # a partner just inside the point tolerance still counts, one outside does not
    pts = np.array([[3.0 + 2.0j, -1.0 + 0.5j], [3.0 - 2.0j, -1.0 - 0.5j]])
    vals = np.array([[[1 + 1j]], [[1 - 1j]]])
    scale_p = np.max(np.abs(pts))
    for shift, closed in ((0.9e-12, True), (1.1e-12, False)):
        moved = pts.copy()
        moved[1, 1] += shift * scale_p * np.exp(0.7j)
        ok, violations = check_conjugation_closure(SampleSet(moved, vals, np.ones(2)))
        assert ok == closed
        assert ok == _closure_reference(SampleSet(moved, vals, np.ones(2)))[0]


_coord = st.integers(-40, 40)


@st.composite
def closed_sample_sets(draw):
    """A shuffled conjugation-closed set: non-real pairs plus real singletons."""
    n_p = draw(st.integers(1, 2))
    pairs = draw(st.lists(st.tuples(*[st.tuples(_coord, st.integers(1, 40))] * n_p), min_size=1,
                          max_size=12, unique=True))
    reals = draw(st.lists(st.tuples(*[_coord] * n_p), max_size=4, unique=True))
    pts, vals, wts = [], [], []
    for pt in pairs:
        z = np.array([complex(re, im) for re, im in pt])
        v = complex(draw(_coord), draw(_coord))
        w = float(draw(st.integers(1, 5)))
        pts += [z, np.conj(z)]
        vals += [v, np.conj(v)]
        wts += [w, w]
    for pt in reals:
        pts.append(np.array(pt, dtype=complex))
        vals.append(complex(draw(_coord)))
        wts.append(float(draw(st.integers(1, 5))))
    perm = np.array(draw(st.permutations(range(len(pts)))))
    samples = SampleSet(np.array(pts)[perm], np.array(vals)[perm], np.array(wts)[perm])
    partner = np.empty(len(pts), dtype=int)  # partner[k] for the shuffled order
    inv = np.argsort(perm)
    for k in range(len(pairs)):
        partner[inv[2 * k]], partner[inv[2 * k + 1]] = inv[2 * k + 1], inv[2 * k]
    for k in range(2 * len(pairs), len(pts)):
        partner[inv[k]] = inv[k]
    return samples, partner


@settings(max_examples=60, deadline=None)
@given(closed_sample_sets(), st.data())
def test_closure_property_drop_or_perturb_one_partner(case, data):
    samples, partner = case
    assert check_conjugation_closure(samples) == (True, [])
    nonreal = np.flatnonzero(partner != np.arange(len(samples)))
    k = int(data.draw(st.sampled_from(nonreal.tolist())))
    # perturbing one sample's value or weight breaks exactly it and its partner
    vals = samples.values.copy()
    vals[k] += 1e-6 * (1.0 + np.max(np.abs(vals)))
    wts = samples.weights.copy()
    wts[k] *= 1.0 + 1e-6
    for perturbed in (SampleSet(samples.points, vals, samples.weights),
                      SampleSet(samples.points, samples.values, wts)):
        ok, violations = check_conjugation_closure(perturbed)
        assert not ok and violations == sorted([k, int(partner[k])])
    # dropping one sample leaves exactly its partner without one
    keep = np.delete(np.arange(len(samples)), k)
    dropped = SampleSet(samples.points[keep], samples.values[keep], samples.weights[keep])
    ok, violations = check_conjugation_closure(dropped)
    assert not ok and violations == [int(np.searchsorted(keep, partner[k]))]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.integers(1, 30), st.data())
def test_closure_matches_quadratic_scan(n_p, n, data):
    # a small alphabet makes duplicates, accidental partners and crowded windows
    small = st.integers(-2, 2)
    pts = np.array(data.draw(st.lists(st.tuples(*[st.tuples(small, small)] * n_p), min_size=n, max_size=n)))
    pts = pts[..., 0] + 1j * pts[..., 1]
    vals = np.array(data.draw(st.lists(st.tuples(small, small), min_size=n, max_size=n)))
    vals = vals[:, 0] + 1j * vals[:, 1]
    wts = np.array(data.draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n, max_size=n)))
    samples = SampleSet(pts, vals, wts)
    assert check_conjugation_closure(samples) == _closure_reference(samples)
