import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzlab.errors import DomainError, UsageError
from lorentzlab.minkowski import (
    CausalClass,
    SymBilinearForm,
    boost_direction,
    causal_classify,
    inner,
    lorentz_trace,
    euclid_trace,
    require_unit_timelike,
    sample_causal_directions,
    sample_timelike_directions,
    metric_signs,
    section_integral_exact,
    spacelike_complement_basis,
    sphere_integral_exact,
    sq_norm,
    unit_sphere_volume,
)
from oracles import (
    gram_schmidt_complement_basis,
    sample_causal_directions_loop,
    sample_spherical_section,
    sample_timelike_directions_loop,
    signature_orthonormalize,
)

AXIS4 = np.array([1.0, 0.0, 0.0, 0.0])

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
vec4 = st.lists(finite, min_size=4, max_size=4).map(np.array)


def test_inner_signature_examples():
    assert inner([1, 0, 0, 0], [1, 0, 0, 0]) == -1.0
    assert inner([0, 1, 0, 0], [0, 0, 1, 0]) == 0.0
    assert sq_norm([1, 1, 0, 0]) == 0.0


def test_inner_dimension_mismatch():
    with pytest.raises(UsageError):
        inner([1, 0, 0], [1, 0, 0, 0])


@given(vec4, vec4, vec4, finite, finite)
@settings(max_examples=60, deadline=None)
def test_inner_bilinear_symmetric(u, v, w, s, t):
    left = inner(s * u + t * v, w)
    assert left == pytest.approx(s * inner(u, w) + t * inner(v, w), rel=1e-9, abs=1e-9)
    assert inner(u, v) == pytest.approx(inner(v, u), rel=1e-12, abs=1e-12)


def test_causal_classify_examples():
    assert causal_classify([1, 0, 0, 0]) is CausalClass.TIMELIKE
    assert causal_classify([1, 1, 0, 0]) is CausalClass.LIGHTLIKE
    assert causal_classify([0, 0, 0, 0]) is CausalClass.ZERO
    assert causal_classify([0, 1, 0, 0]) is CausalClass.SPACELIKE


@given(vec4)
@settings(max_examples=60, deadline=None)
def test_causal_classify_matches_sign(v):
    cls = causal_classify(v)
    q = float(sq_norm(v))
    if cls is CausalClass.ZERO:
        assert not v.any()
    elif cls is CausalClass.TIMELIKE:
        assert q < 0
    elif cls is CausalClass.SPACELIKE:
        assert q > 0
    else:
        assert abs(q) <= 1e-9


def test_sym_form_rejects_asymmetric():
    bad = np.eye(4)
    bad[0, 1] = 1.0
    with pytest.raises(UsageError):
        SymBilinearForm(bad)


def test_trace_examples():
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    assert lorentz_trace(eta) == pytest.approx(4.0)
    assert lorentz_trace(np.diag([1.0, 0.0, 0.0, 0.0])) == pytest.approx(-1.0)
    assert lorentz_trace(np.diag([0.0, 1.0, 1.0, 1.0])) == pytest.approx(3.0)
    assert euclid_trace(np.eye(3)) == pytest.approx(3.0)
    # quadratic form returning the squared time coordinate
    assert euclid_trace(np.diag([1.0, 0.0, 0.0])) == pytest.approx(1.0)
    assert euclid_trace(np.zeros((4, 4))) == pytest.approx(0.0)


def test_lorentz_trace_equals_signed_basis_sum():
    rng = np.random.default_rng(3)
    for _ in range(5):
        q = SymBilinearForm.random(5, rng)
        basis, signs = signature_orthonormalize(
            [rng.standard_normal(5) for _ in range(8)], need=5
        )
        total = sum(s * q(b, b) for b, s in zip(basis, signs))
        assert total == pytest.approx(lorentz_trace(q), rel=1e-10, abs=1e-10)


def test_signature_orthonormalize_skips_spanned_candidates():
    a = boost_direction(0.5, np.array([1.0, 0.0, 0.0]))
    basis, signs = signature_orthonormalize([a] + list(np.eye(4)), need=4)
    gram = np.array([[inner(x, y) for y in basis] for x in basis])
    assert np.allclose(gram, np.diag(signs), atol=1e-12)
    assert (signs < 0).sum() == 1


def test_complement_basis_is_spacelike_orthonormal():
    for a in (AXIS4, boost_direction(1.0, np.array([0.6, 0.8, 0.0]))):
        b = spacelike_complement_basis(a)
        assert b.shape == (3, 4)
        gram = np.array([[inner(x, y) for y in b] for x in b])
        assert np.allclose(gram, np.eye(3), atol=1e-12)
        assert np.max(np.abs(inner(b, a))) < 1e-12


@pytest.mark.parametrize("m", (3, 4, 5))
def test_closed_form_frame_matches_gram_schmidt(m):
    rng = np.random.default_rng(m)
    J = np.diag(metric_signs(m))
    axis = np.eye(m)[0]
    # at the time axis both frames are the identity rows, bit for bit
    assert np.array_equal(spacelike_complement_basis(axis), gram_schmidt_complement_basis(axis))
    assert np.array_equal(spacelike_complement_basis(axis), np.eye(m)[1:])
    for s in (0.0, 0.3, 1.0, 2.5, 5.0):
        for _ in range(4):
            g = rng.standard_normal(m - 1)
            a = boost_direction(s, g / np.linalg.norm(g))
            for d in (a, -a):
                b = spacelike_complement_basis(d)
                tol = 1e-15 * (1.0 + float(d @ d))
                assert b.shape == (m - 1, m)
                assert np.abs(b @ J @ b.T - np.eye(m - 1)).max() <= tol
                assert np.abs(b @ J @ d).max() <= tol
                # same span: the Gram-Schmidt rows are combinations of these
                ref = gram_schmidt_complement_basis(d)
                coeff = ref @ J @ b.T
                assert np.abs(coeff @ b - ref).max() <= 1e-13 * (1.0 + float(d @ d))


@pytest.mark.parametrize(
    "a",
    [AXIS4, np.array([math.sqrt(2.0), 1.0, 0.0, 0.0]), boost_direction(1.3, np.array([0.0, 0.6, 0.8]))],
)
def test_section_samples_satisfy_constraints(a):
    v = sample_spherical_section(a, rng_seed=5, count=500)
    assert np.abs(sq_norm(v)).max() <= 1e-9
    assert np.abs(inner(v, a) + 1.0).max() <= 1e-9


def test_section_sampling_deterministic():
    v1 = sample_spherical_section(AXIS4, rng_seed=9, count=64)
    v2 = sample_spherical_section(AXIS4, rng_seed=9, count=64)
    assert np.array_equal(v1, v2)


def test_unit_sphere_volumes():
    assert unit_sphere_volume(0) == pytest.approx(2.0)
    assert unit_sphere_volume(1) == pytest.approx(2.0 * math.pi)
    assert unit_sphere_volume(2) == pytest.approx(4.0 * math.pi)


def test_section_integral_exact_examples():
    eta = SymBilinearForm(np.diag([-1.0, 1.0, 1.0, 1.0]))
    assert section_integral_exact(eta, AXIS4) == pytest.approx(0.0, abs=1e-12)
    # Q(v, v) = v1^2 is identically 1 on the axis section
    q_time = SymBilinearForm(np.diag([1.0, 0.0, 0.0, 0.0]))
    assert section_integral_exact(q_time, AXIS4) == pytest.approx(4.0 * math.pi)
    q_x = SymBilinearForm(np.diag([0.0, 1.0, 0.0, 0.0]))
    assert section_integral_exact(q_x, AXIS4) == pytest.approx(4.0 * math.pi / 3.0)


def test_section_integral_monte_carlo_oracle():
    # brute-force sampling oracle for the closed form, canonical and boosted
    rng = np.random.default_rng(11)
    for a in (AXIS4, boost_direction(0.7, np.array([0.0, 1.0, 0.0]))):
        q = SymBilinearForm.random(4, rng)
        v = sample_spherical_section(a, rng_seed=17, count=400_000)
        vals = q(v, v)
        estimate = unit_sphere_volume(2) * vals.mean()
        stderr = unit_sphere_volume(2) * vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(estimate - section_integral_exact(q, a)) < 4.0 * stderr


def test_sphere_integral_exact_matches_sampling():
    rng = np.random.default_rng(13)
    q = SymBilinearForm.random(4, rng)
    g = rng.standard_normal((400_000, 4))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    vals = q(g, g)
    estimate = unit_sphere_volume(3) * vals.mean()
    stderr = unit_sphere_volume(3) * vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(estimate - sphere_integral_exact(q)) < 4.0 * stderr


def test_boost_directions_are_unit_timelike_and_prefix_stable():
    long = sample_timelike_directions(4, 30, seed=2)
    short = sample_timelike_directions(4, 10, seed=2)
    assert np.array_equal(long[: len(short)], short)
    assert np.abs(sq_norm(long) + 1.0).max() < 1e-12


@pytest.mark.parametrize("m", (3, 4, 5))
@pytest.mark.parametrize("count", (0, 1, 128))
@pytest.mark.parametrize("seed", (2, 7))
def test_direction_samplers_match_one_sample_loops_bitwise(m, count, seed):
    timelike = sample_timelike_directions(m, count, seed)
    assert timelike.shape == (count + 1, m)
    assert timelike.tobytes() == sample_timelike_directions_loop(m, count, seed).tobytes()
    causal = sample_causal_directions(m, count, seed)
    # the loop's empty sample is a (0,) array; the bytes still agree
    assert causal.shape == (count, m)
    assert causal.tobytes() == sample_causal_directions_loop(m, count, seed).tobytes()


def test_unit_timelike_check_names_the_first_bad_row():
    good = sample_timelike_directions(4, 3, seed=5)
    assert np.array_equal(require_unit_timelike(good), good)
    bad_rows = [np.array([0.0, 1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0, 0.0])]
    stack = np.vstack([good[:2], bad_rows, good[2:]])
    with pytest.raises(DomainError) as single:
        require_unit_timelike(bad_rows[0])
    with pytest.raises(DomainError) as stacked:
        require_unit_timelike(stack)
    assert str(stacked.value) == str(single.value) == "expected a unit timelike vector, got <a,a> = 1.0"
    # too few components: every row is bad, and the first is named
    with pytest.raises(DomainError, match="got <a,a> = 4.0"):
        require_unit_timelike(np.array([[0.0, 2.0], [1.0, 0.0]]))
