"""Airy kernel accuracy against an independent multiprecision oracle."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

import airy_anchors
from momtail import specfun
from momtail.errors import NoConvergence

mpmath.mp.dps = 30


def airy_zero_ladder(count):
    """First ``count`` positive zeta with Ai(-zeta) = 0, ascending, each
    polished from its start: the fully polished reference of the zeros."""
    return np.array([specfun._polish(specfun._start(k, False), False)
                     for k in range(1, count + 1)])


@pytest.mark.parametrize("x", np.concatenate([
    np.linspace(-12.0, 12.0, 49),
    np.array([-9.0, -2.2, 0.0, 2.2, 9.0]),
    np.array([-8.999, -2.201, 2.201, 8.999, -0.37, 5.5, 7.3]),
]).tolist())
def test_ai_and_prime_against_mpmath(x):
    ai_ref = float(mpmath.airyai(x))
    aip_ref = float(mpmath.airyai(x, 1))
    scale = max(abs(ai_ref), abs(aip_ref), 1e-300)
    assert abs(specfun.airy_ai(x) - ai_ref) < 5e-13 * scale
    assert abs(specfun.airy_ai_prime(x) - aip_ref) < 5e-13 * scale


def test_special_values():
    assert specfun.airy_ai(0.0) == pytest.approx(0.3550280538878172, rel=1e-15)
    assert specfun.airy_ai_prime(0.0) == pytest.approx(-0.2588194037928068, rel=1e-15)


def test_deep_decay_region():
    # far positive side: relative accuracy matters even when values underflowish
    for x in (15.0, 25.0, 60.0):
        ref = float(mpmath.airyai(x))
        assert specfun.airy_ai(x) == pytest.approx(ref, rel=1e-12)


def test_ode_residual_finite_difference():
    # Ai'' = x * Ai, checked with our evaluations only
    h = 1e-4
    for x in np.linspace(-10.0, 5.0, 61):
        f = specfun.airy_ai
        second = (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
        scale = max(abs(f(x)), abs(specfun.airy_ai_prime(x)), 1e-3)
        assert abs(second - x * f(x)) < 1e-6 * scale


def test_derivative_consistency():
    # Richardson's (4 D(h/2) - D(h)) / 3 of central differences D errs by
    # O(h^4), so at h = 1e-3 both its truncation and the rounding of Ai,
    # amplified by 1/h, stay far below the bound
    def central(x, h):
        return (specfun.airy_ai(x + h) - specfun.airy_ai(x - h)) / (2.0 * h)

    h = 1e-3
    for x in np.linspace(-8.0, 4.0, 25):
        num = (4.0 * central(x, h / 2.0) - central(x, h)) / 3.0
        assert num == pytest.approx(specfun.airy_ai_prime(x), rel=2e-9, abs=1e-12)


def test_array_form_matches_scalar_calls():
    xs = np.linspace(-12.0, 12.0, 97).reshape(1, -1)
    for f in (specfun.airy_ai, specfun.airy_ai_prime):
        values = f(xs)
        assert isinstance(values, np.ndarray) and values.shape == xs.shape
        assert values.ravel().tolist() == [f(float(x)) for x in xs.ravel()]
    ai, aip = specfun.airy(xs)
    assert np.array_equal(ai, specfun.airy_ai(xs))
    assert np.array_equal(aip, specfun.airy_ai_prime(xs))


@pytest.mark.parametrize("n", range(1, 61))
def test_zeros_against_mpmath(n):
    assert specfun.airy_zero(n) == pytest.approx(
        float(-mpmath.airyaizero(n)), rel=1e-13)
    assert specfun.airy_prime_zero(n) == pytest.approx(
        float(-mpmath.airyaizero(n, derivative=1)), rel=1e-13)


def test_zeta_start_lies_within_1e_6_of_its_zero():
    # merged_zero_window places walls by their starts, which its argument
    # takes to be within 1e-6 relative of their zeta
    ladder = airy_zero_ladder(2000)
    for k, zeta in enumerate(ladder.tolist(), start=1):
        start = specfun._start(k, False)
        assert abs(start - zeta) <= 1e-6 * start
    for k in (1, 2, 3, 5, 10, 40, 200):
        start = specfun._start(k, False)
        assert abs(start - float(-mpmath.airyaizero(k))) <= 1e-6 * start


def test_zeros_are_roots():
    for n in range(1, 12):
        z = specfun.airy_zero(n)
        e = specfun.airy_prime_zero(n)
        assert abs(specfun.airy_ai(-z)) < 1e-12 * abs(specfun.airy_ai_prime(-z))
        assert abs(specfun.airy_ai_prime(-e)) < 1e-12 * abs(specfun.airy_ai(-e))


def test_zero_interlacing():
    zeta = airy_zero_ladder(30)
    eta = [specfun.airy_prime_zero(k) for k in range(1, 31)]
    seq = []
    for z, e in zip(zeta, eta):
        seq.extend([e, z])      # eta_n < zeta_n < eta_{n+1}
    assert all(a < b for a, b in zip(seq, seq[1:]))


def test_zero_table_shape():
    zeta = airy_zero_ladder(5)
    eta = [specfun.airy_prime_zero(k) for k in range(1, 6)]
    assert len(zeta) == 5 and len(eta) == 5
    assert zeta[0] == pytest.approx(2.338107410459767, rel=1e-12)
    assert eta[0] == pytest.approx(1.018792971647471, rel=1e-12)


def test_zero_index_validation():
    with pytest.raises(ValueError):
        specfun.airy_zero(0)
    with pytest.raises(ValueError):
        specfun.airy_prime_zero(-1)


@pytest.mark.parametrize("zero", [specfun.airy_zero, specfun.airy_prime_zero],
                         ids=["zeta", "eta"])
def test_zero_beyond_the_far_region_raises(zero):
    # both 212,206,591st zeros lie just inside x = -1e6, and the next ones
    # beyond it, where airy is NaN: the polish raises rather than return NaN
    assert 999_999.99 < zero(212_206_591) < 1e6
    with pytest.raises(NoConvergence, match="NaN"):
        zero(212_206_592)


def test_single_zero_equals_the_ladder_bit_for_bit():
    # each zero is polished on its own from the same asymptotic start
    for n in range(1, 81):
        assert specfun.airy_zero(n).hex() == float(airy_zero_ladder(n)[-1]).hex()


def test_zero_index_refuses_bools_and_non_integers():
    for n in (2.5, 2.0, True, "2", None):
        with pytest.raises(ValueError):
            specfun.airy_zero(n)
        with pytest.raises(ValueError):
            specfun.airy_prime_zero(n)
        with pytest.raises(ValueError):
            specfun.merged_zero_window(n, 1.0, 2.0)
    assert specfun.airy_zero(np.int64(3)) == specfun.airy_zero(3)
    assert specfun.merged_zero_window(np.int32(5), 1.0, 2.0) == \
        specfun.merged_zero_window(5, 1.0, 2.0)


def assert_matches_mpmath(x):
    """(Ai, Ai') at x within 5e-13 of max(|Ai|, |Ai'|) of 30-digit mpmath, and
    within 1e-12 relative for 0 < x <= 60."""
    ai, aip = specfun.airy(x)
    ai_ref, aip_ref = float(mpmath.airyai(x)), float(mpmath.airyai(x, 1))
    scale = max(abs(ai_ref), abs(aip_ref))
    assert abs(ai - ai_ref) < 5e-13 * scale, x
    assert abs(aip - aip_ref) < 5e-13 * scale, x
    if 0.0 < x <= 60.0:
        assert ai == pytest.approx(ai_ref, rel=1e-12) and aip == pytest.approx(aip_ref, rel=1e-12)


# the Taylor region's anchors, every 1/16 on [-32, 16]
ANCHORS = (-32.0 + np.arange(769) / 16.0).tolist()
# the branch edges, each anchor midpoint (where a Taylor step is longest and
# the nearest anchor changes), and their float neighbours
EDGES = [y for x in [-32.0, 16.0] + [a + 1.0 / 32.0 for a in ANCHORS[:-1]]
         for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(hst.floats(-2100.0, 100.0))
@example(-2100.0)
@example(100.0)
@example(60.0)
def test_ai_and_prime_against_mpmath_from_minus_2100_to_100(x):
    assert_matches_mpmath(x)


def test_ai_and_prime_against_mpmath_at_branch_edges_and_anchor_midpoints():
    for x in EDGES:
        assert_matches_mpmath(x)


def test_anchors_against_mpmath():
    # at an anchor the Taylor sum is the anchor's value plus its rest
    for x, (ai, aip) in zip(ANCHORS, map(specfun.airy, ANCHORS)):
        ai_ref, aip_ref = mpmath.airyai(x), mpmath.airyai(x, 1)
        scale = max(abs(ai_ref), abs(aip_ref))
        assert abs(ai - ai_ref) <= 1e-15 * scale and abs(aip - aip_ref) <= 1e-15 * scale, x


def test_anchor_module_is_its_generators_output():
    assert airy_anchors.source() == airy_anchors.TARGET.read_text()


# the sizes the workloads use, and both sides of the array path's turn from
# scalar sums to numpy passes (_LOOP) and from one pass to blocks (_BLOCK)
@pytest.mark.parametrize("size", [1, 2, 16, 17, 38, 300, 1201, 4096, 4099])
def test_scalar_and_array_calls_agree_bit_for_bit(size):
    rng = np.random.default_rng(size)
    # drawn alike from the oscillating tail, the Taylor region and the decay
    xs = np.concatenate([rng.uniform(-2100.0, -32.0, size), rng.uniform(-32.0, 16.0, size),
                         rng.uniform(16.0, 100.0, size)])
    xs = rng.permutation(xs)[:size]
    ai, aip = specfun.airy(xs)
    assert ai.shape == aip.shape == (size,)
    scalar = [specfun.airy(x) for x in xs.tolist()]
    assert ai.tolist() == [a for a, _ in scalar] and aip.tolist() == [b for _, b in scalar]


def test_nan_and_infinities():
    # NaN gives NaN; +inf the limits (0, -0); -inf Ai's limit 0 and NaN for
    # Ai', which has none; below -1e6 both are NaN
    xs = [math.nan, math.inf, -math.inf, -2e6]
    want = [(math.nan, math.nan), (0.0, -0.0), (0.0, math.nan), (math.nan, math.nan)]
    ai, aip = specfun.airy(np.array(xs))
    for x, (a, b), pair in zip(xs, want, zip(ai.tolist(), aip.tolist())):
        for got in (specfun.airy(x), pair):
            assert [repr(v) for v in got] == [repr(a), repr(b)], x
