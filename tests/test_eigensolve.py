"""Bound-state solvers: energies, normalization, derivative tables, jumps."""

import dataclasses
import math
import re
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from scipy.integrate import quad
from scipy.optimize import brentq

from momtail import asymptotics as asy
from momtail import eigensolve as eig
from momtail import momentum as mom
from momtail import potentials as pot
from momtail import specfun
from momtail.errors import NoBoundState, NoConvergence, NoSuchState

from test_specfun import airy_zero_ladder

mpmath.mp.dps = 30


def norm_integral(state, other=None):
    """<state|other> with quadrature panels aligned to psi kinks."""
    other = other or state
    lo = min(state.support[0], other.support[0])
    hi = max(state.support[1], other.support[1])
    breaks = sorted({b for b in state.breaks + other.breaks if lo < b < hi})
    f = lambda x: float(state.psi(np.array([x]))[0] * other.psi(np.array([x]))[0])
    total, _ = quad(f, lo, hi, points=breaks or None, limit=800)
    return total


def one_sided_derivs(state, a, side, orders=3):
    """Derivatives at a from one side by local polynomial fit."""
    h = min(state.osc_scale, 1.0) * 0.02
    sgn = 1.0 if side == "right" else -1.0
    xs = a + sgn * (1e-9 + h * np.arange(12))
    vals = state.psi(xs)
    poly = np.polynomial.polynomial.Polynomial.fit(xs - a, vals, 7)
    return [poly.deriv(j)(0.0) for j in range(orders + 1)]


def fd_residual(state, spec, x):
    """Schrodinger residual -(hbar^2/2m) psi'' + (V - E) psi at one point."""
    h = 2e-4 * min(state.osc_scale, 1.0)   # balances truncation vs rounding
    f = lambda t: float(state.psi(np.array([t]))[0])
    second = (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    m, hbar = spec.mass, spec.hbar
    return (-hbar ** 2 / (2 * m) * second
            + (pot.evaluate(spec, x) - state.energy) * f(x))


# --- energies -------------------------------------------------------------

def test_delta_ground_state():
    st = eig.solve(pot.DeltaSum(deltas=((1.0, 0.0),)))
    assert st.energy == -0.5
    assert st.derivative_table[0.0].value == pytest.approx(1.0, rel=1e-14)
    assert st.parity == "even"
    with pytest.raises(NoSuchState):
        eig.solve(pot.DeltaSum(deltas=((1.0, 0.0),)), n=2)


def test_delta_energy_scales_with_strength():
    st = eig.solve(pot.DeltaSum(deltas=((2.0, 0.0),)))
    assert st.energy == pytest.approx(-2.0, rel=1e-14)


def test_double_delta_against_transcendental():
    # symmetric pair g at +-d: even kappa = K0(1 + e^{-2 kappa d}), odd with minus
    g, d = 1.0, 1.0
    spec = pot.DeltaSum(deltas=((g, -d), (g, d)))
    kap_even = float(mpmath.findroot(
        lambda k: k - g * (1 + mpmath.e ** (-2 * k * d)), 1.1))
    kap_odd = float(mpmath.findroot(
        lambda k: k - g * (1 - mpmath.e ** (-2 * k * d)), 0.8))
    assert eig.solve(spec, 1).energy == pytest.approx(-kap_even ** 2 / 2, rel=1e-12)
    assert eig.solve(spec, 2).energy == pytest.approx(-kap_odd ** 2 / 2, rel=1e-12)
    with pytest.raises(NoSuchState):
        eig.solve(spec, 3)


# pairs of strength g, 2d apart, with (m g / hbar^2)(2d) = 1: the odd level
# sits exactly at E = 0
THRESHOLD_PAIRS = [
    (pot.DeltaSum(deltas=((0.5, -1.0), (0.5, 1.0))), 0.5, 1.0),
    (pot.DeltaSum(deltas=((1.0, -1.0), (1.0, 1.0)), mass=2.0, hbar=2.0), 1.0, 1.0),
    (pot.DeltaSum(deltas=((0.25, 0.0), (0.25, 4.0))), 0.25, 2.0),
]


@pytest.mark.parametrize("spec,g,d", THRESHOLD_PAIRS, ids=["g_0.5", "m2_hbar2", "g_0.25_gap_4"])
def test_double_delta_with_zero_energy_resonance(spec, g, d):
    # the matching defect vanishes at the top of the bracket, E = 0, which is
    # a resonance and no level: n = 1 is the even level, and n = 2 cannot be
    # normalised
    m, hbar = spec.mass, spec.hbar
    kap = mpmath.findroot(lambda k: k - m * g / hbar ** 2 * (1 + mpmath.e ** (-2 * k * d)),
                          m * g / hbar ** 2)
    st = eig.solve(spec, 1)
    assert st.energy == pytest.approx(float(-(hbar * kap) ** 2 / (2 * m)), rel=1e-14, abs=0)
    assert st.parity == "even"
    with pytest.raises(NoSuchState):
        eig.solve(spec, 2)


@pytest.mark.parametrize("gap", [15, 20, 25])
def test_distant_double_delta_resolves_both_states(gap):
    # the even/odd splitting of two unit deltas falls as e^(-gap): 6e-7 of the
    # level at gap 15, 1.4e-11 at gap 25
    spec = pot.DeltaSum(deltas=((1.0, 0.0), (1.0, float(gap))))
    for n, sign in ((1, 1), (2, -1)):
        kap = mpmath.findroot(lambda k: k - 1 - sign * mpmath.e ** (-gap * k), 1.0)
        assert eig.solve(spec, n).energy == pytest.approx(float(-kap ** 2 / 2), rel=1e-12)
    with pytest.raises(NoSuchState):
        eig.solve(spec, 3)


def test_far_delta_level_hit_by_the_bisection_is_no_lower_level():
    # the delta at 30 has its own level at -g^2/2 = -0.5 to float precision,
    # the bisection of [-8, 0] hits -0.5 exactly, and the defect there is 0:
    # it is level 2, and n = 1 is the deeper level of the three near deltas
    spec = pot.DeltaSum(deltas=((1.0, 0.0), (1.0, 1.0), (1.0, 3.0), (1.0, 30.0)))
    for n in (1, 2, 3):
        lam = bs_eigenvalues_mp(spec, eig.solve(spec, n).energy)
        assert lam[n - 1] == pytest.approx(1.0, abs=1e-15)
    assert eig.solve(spec, 2).energy == -0.5


def test_infinite_well_energies():
    for n in range(1, 6):
        st = eig.solve(pot.InfiniteWell(length=math.pi), n)
        assert st.energy == pytest.approx(n * n / 2.0, rel=1e-14)
    st = eig.solve_infinite_well(pot.InfiniteWell(length=math.pi), 1)
    assert st.derivative_table[0.0].right[1] == pytest.approx(math.sqrt(2 / math.pi), rel=1e-14)
    st2 = eig.solve_infinite_well(pot.InfiniteWell(length=math.pi), 2)
    assert st2.derivative_table[math.pi].left[1] == pytest.approx(
        2 * math.sqrt(2 / math.pi), rel=1e-14)


def test_finite_well_against_shooting():
    spec = pot.FiniteWell(depth=10.0, a=-1.0, b=1.0)
    st = eig.solve(spec, 1)
    osc = eig.shooting_oracle(spec, (st.energy - 0.1, st.energy + 0.1), 1)
    assert st.energy == pytest.approx(osc.energy, abs=1e-8)


def test_finite_well_deep_limit():
    spec = pot.FiniteWell(depth=1e4, a=0.0, b=math.pi)
    for n in (1, 2, 3):
        above_floor = eig.solve(spec, n).energy + 1e4
        assert above_floor == pytest.approx(n * n / 2.0, rel=1e-2)


def test_finite_well_state_count():
    with pytest.raises(NoSuchState):
        eig.solve(pot.FiniteWell(depth=1.0, a=-0.5, b=0.5), 5)


def well_level_mpmath(spec, n):
    """Level n of a finite well from its matching condition, by mpmath.

    With half-width w and R = w sqrt(2 m V0) / hbar, theta = k w solves
    theta tan theta = sqrt(R^2 - theta^2) (even) or -theta cot theta =
    sqrt(R^2 - theta^2) (odd) in ((n - 1) pi/2, n pi/2), and
    E = -hbar^2 (R^2 - theta^2) / (2 m w^2).
    """
    w = mpmath.mpf(spec.b - spec.a) / 2
    R = w * mpmath.sqrt(2 * mpmath.mpf(spec.mass) * spec.depth) / spec.hbar
    outer = lambda th: mpmath.sqrt(R * R - th * th)
    if n % 2:
        f = lambda th: th * mpmath.sin(th) - outer(th) * mpmath.cos(th)
    else:
        f = lambda th: th * mpmath.cos(th) + outer(th) * mpmath.sin(th)
    theta = mpmath.findroot(f, ((n - 1) * mpmath.pi / 2, min(n * mpmath.pi / 2, R)),
                            solver="anderson")
    return float(-(spec.hbar * outer(theta) / w) ** 2 / (2 * spec.mass))


@pytest.mark.parametrize("depth,a,b,units,n", [
    *((20.0, -1.0, 1.5, units, n) for units in (1.0, 2.0) for n in (1, 2, 3, 4)),
    *((1e4, 0.0, math.pi, units, n) for units in (1.0, 2.0) for n in (1, 4)),
    # weakly bound: the level sits 0.04% to 2% of the depth below zero
    (10.0, -1.0, 1.0, 2.0, 3),
    (0.01, -1.0, 1.0, 2.0, 1),
    (0.01, -1.0, 1.0, 1.0, 1),
])
def test_finite_well_against_matching_condition(depth, a, b, units, n):
    spec = pot.FiniteWell(depth=depth, a=a, b=b, mass=units, hbar=units)
    st = eig.solve(spec, n)
    # abs=0: pytest's default absolute tolerance, 1e-12, would swamp rel on a weak level
    assert st.energy == pytest.approx(well_level_mpmath(spec, n), rel=1e-13, abs=0.0)
    assert st.parity == ("even" if n % 2 else "odd")


def test_weak_well_whose_window_ends_at_zero():
    # the image's window ends at top = 0.0, where the polish's steps vanish:
    # the bisection leaves it, and the level, about depth^2 / 4 below zero,
    # is the root of the image's even matching condition k tan(k w/2) = kappa
    spec = pot.FiniteWell(depth=2.6984157969868794e-08, a=6.728156338574614,
                          b=26317531.359142076, mass=3.301798287229292e-147)
    (a, b), (_, v, _), _ = spec.image_pieces
    energy = eig.solve(spec).image.energy
    with mpmath.workdps(40):
        depth, width = -mpmath.mpf(v), mpmath.mpf(b) - mpmath.mpf(a)

        def matching(kappa):
            k = mpmath.sqrt(depth - kappa ** 2)
            return k * mpmath.tan(k * width / 2) - kappa

        guess = mpmath.sqrt(-energy)
        kappa = mpmath.findroot(matching, (guess / 2, 2 * guess), solver="illinois")
        level = float(-kappa ** 2)
    assert level == pytest.approx(-float(depth) ** 2 / 4, rel=1e-9)
    assert energy == pytest.approx(level, rel=1e-15, abs=0.0)


def test_single_delta_off_origin_with_units():
    g, a, m, hbar = 0.7, 1.3, 2.0, 2.0
    st = eig.solve(pot.DeltaSum(deltas=((g, a),), mass=m, hbar=hbar))
    assert st.energy == pytest.approx(-m * g * g / (2 * hbar ** 2), rel=1e-15, abs=0.0)
    assert st.derivative_table[a].value == pytest.approx(
        math.sqrt(m * g) / hbar, rel=1e-14, abs=0.0)
    assert st.parity == "even"


def test_hybrid_with_a_zero_step_is_the_lone_delta():
    # a jump of 0 sets no length of the image, where it raised 0.0 to a negative power
    g, m, hbar = 1.5, 2.0, 0.5
    st = eig.solve(pot.HybridDeltaStep(g=g, step_height=0.0, a=1.0, mass=m, hbar=hbar))
    assert st.energy == pytest.approx(-m * g * g / (2 * hbar ** 2), rel=1e-15, abs=0.0)


def test_mirror_symmetric_pieces_set_parity():
    pair = pot.DeltaSum(deltas=((1.0, -1.0), (1.0, 1.0)))
    assert [eig.solve(pair, n).parity for n in (1, 2)] == ["even", "odd"]
    ladder = pot.StepSum(steps=((-1.0, -2.0), (0.0, -1.0), (1.5, 3.0)))
    assert eig.solve(ladder, 1).parity == "none"
    shifted_pair = pot.DeltaSum(deltas=((1.0, 0.0), (1.2, 2.0)))
    assert eig.solve(shifted_pair, 1).parity == "none"


@pytest.mark.parametrize("spec,n", [
    *((pot.FiniteWell(depth=20.0, a=-1.0, b=1.5), n) for n in (1, 2, 3, 4)),
    (pot.DeltaSum(deltas=((0.7, 1.3),)), 1),
    *((pot.DeltaSum(deltas=((1.0, -1.0), (1.0, 1.0))), n) for n in (1, 2)),
    *((pot.StepSum(steps=((-1.0, -10.0), (0.0, 4.0), (1.0, 6.0))), n) for n in (1, 2, 3)),
    (pot.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0), 1),
])
def test_piecewise_psi_positive_far_left(spec, n):
    st = eig.solve(spec, n)
    x = np.array([st.support[0], st.breaks[0] - 1.0])
    assert np.all(st.psi(x) > 0.0)


def test_step_sum_reduces_to_finite_well():
    ss = pot.StepSum(steps=((-1.0, -10.0), (1.0, 10.0)))
    fw = pot.FiniteWell(depth=10.0, a=-1.0, b=1.0)
    for n in (1, 2, 3):
        assert eig.solve(ss, n).energy == pytest.approx(
            eig.solve(fw, n).energy, abs=1e-10)


def test_step_sum_without_well():
    with pytest.raises(NoSuchState):
        eig.solve(pot.StepSum(steps=((0.0, 5.0),)), 1)


def test_hybrid_limits():
    st = eig.solve(pot.HybridDeltaStep(g=1.0, step_height=1e-12, a=1.0))
    assert st.energy == pytest.approx(-0.5, abs=1e-10)
    far = eig.solve(pot.HybridDeltaStep(g=1.0, step_height=1.0, a=30.0))
    assert far.energy == pytest.approx(-0.5, abs=1e-10)


def test_hybrid_against_shooting():
    spec = pot.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0)
    st = eig.solve(spec)
    osc = eig.shooting_oracle(spec, (st.energy - 0.05, st.energy + 0.05))
    assert st.energy == pytest.approx(osc.energy, abs=1e-9)


def test_hybrid_holds_one_state():
    spec = pot.HybridDeltaStep(g=1.0, step_height=-0.3, a=2.0)
    assert eig.solve(spec).n == 1
    for n in (0, 2, 3):
        with pytest.raises(NoSuchState):
            eig.solve(spec, n)


def test_single_delta_state_counts_from_one():
    assert eig.solve(pot.DeltaSum(deltas=((1.0, 0.0),))).n == 1


def test_hybrid_no_bound_state():
    # strongly repulsive well region pushes the root out of the window
    with pytest.raises(NoBoundState):
        eig.solve(pot.HybridDeltaStep(g=0.1, step_height=-50.0, a=1.0))


def test_strong_delta_beside_a_shallow_step_is_bound():
    # the step lowers V to -2e-10 at 1.8e-19: near E = -2e-10 the region
    # between the delta and the step has r w ~ 4e-24, where a sum of the
    # growing and decaying parts cancelled, lost the sweep's zero and refused
    # the level
    g = 27923427357830.207
    spec = pot.HybridDeltaStep(g=g, step_height=-2.1589392777834497e-10, a=1.7882217334540962e-19)
    assert eig.solve(spec).energy == pytest.approx(-g * g / 2.0, rel=1e-13, abs=0)


@pytest.mark.parametrize("beta", [1e-270, 1e-30, 0.0])
def test_advance_tends_to_the_line_as_r_w_vanishes(beta):
    # psi'' = beta psi across w = 50 from (1, -200) is psi = 1 - 200 x to
    # rounding, with its zero at 0.005; the growing and decaying parts are
    # -+1e137 at beta = 1e-270, and their sum cancelled to 0
    P, Q, growth, zeros = eig._advance(1.0, -200.0, beta, 50.0)
    scale = math.exp(growth)
    assert P * scale == pytest.approx(-9999.0, rel=1e-15)
    assert Q * scale == pytest.approx(-200.0, rel=1e-15)
    assert zeros == 1


@pytest.mark.parametrize("P,Q,beta,w,report", [
    (1.0, -math.inf, 1.0, math.inf, "growing and decaying parts"),
    (math.nan, 1.0, -1.0, 1.0, "phase is NaN"),
], ids=["parts", "phase"])
def test_advance_refuses_parts_that_are_no_float(P, Q, beta, w, report):
    # no spec is known to reach these: the sweep divides (psi, psi') by their
    # larger size at each boundary, and every region's image is finite
    with pytest.raises(ArithmeticError, match=report):
        eig._advance(P, Q, beta, w)


def test_bouncer_energies_airy_zeros():
    spec = pot.Bouncer(force=0.5)
    for n in (1, 2, 3):
        ref = float(-mpmath.airyaizero(n)) * 0.5
        assert eig.solve(spec, n).energy == pytest.approx(ref, rel=1e-13)


def test_bouncer_wall_slope_n_independent():
    spec = pot.Bouncer(force=0.5)   # rho = 1
    for n in (1, 4, 9):
        st = eig.solve(spec, n)
        assert st.derivative_table[0.0].right[1] == pytest.approx(1.0, rel=1e-12)
        assert st.derivative_table[0.0].value == 0.0


def test_symmetric_linear_energies():
    spec = pot.SymmetricLinear(force=0.5)
    for n in (1, 2):
        e_even = float(-mpmath.airyaizero(n, derivative=1)) * 0.5
        e_odd = float(-mpmath.airyaizero(n)) * 0.5
        assert eig.solve(spec, n, parity="even").energy == pytest.approx(e_even, rel=1e-13)
        assert eig.solve(spec, n, parity="odd").energy == pytest.approx(e_odd, rel=1e-13)
    with pytest.raises(NoSuchState, match="needs parity"):
        eig.solve(spec, 1)


def test_symmetric_linear_center_value():
    st = eig.solve(pot.SymmetricLinear(force=0.5), 1, parity="even")
    eta1 = float(-mpmath.airyaizero(1, derivative=1))
    assert st.derivative_table[0.0].value == pytest.approx(1 / math.sqrt(2 * eta1), rel=1e-12)


def test_asymmetric_linear_reduces_to_symmetric():
    asym = pot.AsymmetricLinear(force_right=0.5, force_left=0.5)
    sym = pot.SymmetricLinear(force=0.5)
    # asym levels alternate even/odd of the symmetric problem
    assert eig.solve(asym, 1).energy == pytest.approx(
        eig.solve(sym, 1, parity="even").energy, rel=1e-10)
    assert eig.solve(asym, 2).energy == pytest.approx(
        eig.solve(sym, 1, parity="odd").energy, rel=1e-10)


def count_nodes(state):
    """Sign changes of psi on a grid of 40 points per shortest wavelength."""
    lo, hi = state.support
    points = max(4001, int(40.0 * (hi - lo) / state.osc_scale) + 1)
    v = state.psi(np.linspace(lo, hi, points))
    v = v[np.abs(v) > 1e-8 * np.max(np.abs(v))]
    return int(np.count_nonzero(np.sign(v[1:]) != np.sign(v[:-1])))


def asym_det_mp(spec, energy):
    """Matching determinant of V = F z / Fbar |z| at z = 0, in mpmath."""
    def side(force):
        rho = (mpmath.mpf(spec.hbar) ** 2 / (2 * spec.mass * mpmath.mpf(force))) ** (
            mpmath.mpf(1) / 3)
        u = -mpmath.mpf(energy) / (force * rho)
        return rho, mpmath.airyai(u), mpmath.airyai(u, derivative=1)
    rho_r, ai_r, aip_r = side(spec.force_right)
    rho_l, ai_l, aip_l = side(spec.force_left)
    return aip_r * ai_l / rho_r + ai_r * aip_l / rho_l


def assert_asym_level(spec, n):
    """Level n has n - 1 nodes and is the root the determinant changes sign at."""
    st = eig.solve(spec, n)
    assert count_nodes(st) == n - 1
    below = asym_det_mp(spec, st.energy * (1 - 1e-12))
    above = asym_det_mp(spec, st.energy * (1 + 1e-12))
    assert below * above < 0


def test_asymmetric_linear_equal_forces_alternate_symmetric_levels():
    # with F = Fbar both bouncer ladders share every wall, and the odd levels
    # sit exactly on those walls; levels 2n - 1 and 2n are the symmetric even
    # and odd states n, to the bit
    asym = pot.AsymmetricLinear(force_right=0.7, force_left=0.7)
    sym = pot.SymmetricLinear(force=0.7)
    for n in range(1, 11):
        st = eig.solve(asym, n)
        parity = "even" if n % 2 else "odd"
        want = eig.solve(sym, (n + 1) // 2, parity)
        assert st.energy == want.energy
        assert st.parity == parity
        assert count_nodes(st) == n - 1
        side = st.derivative_table[0.0]
        assert side.right[1] == side.left[1]


@pytest.mark.parametrize("mass,hbar", [(1.0, 1.0), (2.0, 2.0)])
@pytest.mark.parametrize("force", [0.1, 0.5, 7.3])
def test_linear_energies_are_airy_zeros_times_energy_scale(force, mass, hbar):
    bouncer = pot.Bouncer(force=force, mass=mass, hbar=hbar)
    sym = pot.SymmetricLinear(force=force, mass=mass, hbar=hbar)
    e0 = sym.force * sym.rho
    for n in range(1, 13):
        assert eig.solve(bouncer, n).energy == e0 * specfun.airy_zero(n)
        assert eig.solve(sym, n, "even").energy == e0 * specfun.airy_prime_zero(n)
        assert eig.solve(sym, n, "odd").energy == e0 * specfun.airy_zero(n)



@pytest.mark.parametrize("mass,hbar", [(1.0, 1.0), (2.0, 0.5)])
def test_classical_edge_and_solved_energy_read_one_airy_level(mass, hbar):
    # classical_q and solve_linear both take the level's Airy zero from
    # pot.airy_level: Q_n^2 / 2m is the solved energy
    states = [(pot.Bouncer(force=0.75, mass=mass, hbar=hbar), None)] + [
        (pot.SymmetricLinear(force=0.75, mass=mass, hbar=hbar), parity)
        for parity in ("even", "odd")]
    for spec, parity in states:
        for n in range(1, 11):
            q = spec.classical_q(n, parity)
            assert q ** 2 / (2 * mass) == pytest.approx(
                eig.solve(spec, n, parity).energy, rel=1e-14, abs=0.0)

LINEAR_STATES = [
    *((pot.Bouncer(force=0.5), n, None) for n in (1, 2, 5)),
    *((pot.SymmetricLinear(force=f, mass=m, hbar=m), n, parity)
      for f, m in ((0.5, 1.0), (2.0, 2.0)) for n in (1, 2, 7) for parity in ("even", "odd")),
    *((pot.AsymmetricLinear(force_right=1.0, force_left=fl), n, None)
      for fl in (1.0, 1.0 + 1e-13, 1.0 + 1e-9, 1.0 + 1e-4, 2.0, 0.3) for n in (1, 2, 3, 8)),
    *((pot.AsymmetricLinear(force_right=0.5, force_left=2.0, mass=2.0, hbar=2.0), n, None)
      for n in (1, 2, 3)),
]


@pytest.mark.parametrize("spec,n,parity", LINEAR_STATES, ids=[
    "_".join([spec.kind, *map(repr, spec.forces), f"m{spec.mass:g}", f"n{n}", str(parity)])
    for spec, n, parity in LINEAR_STATES])
def test_linear_sign_rule_and_one_slope_at_the_kink(spec, n, parity):
    # psi(0) > 0, or psi'(0) > 0 where psi(0) = 0; a kink leaves psi'
    # continuous, so both sides carry the same psi'(0), and a wall's left
    # side carries nothing
    st = eig.solve(spec, n, parity)
    side = st.derivative_table[0.0]
    assert side.value > 0.0 or (side.value == 0.0 and side.right[1] > 0.0)
    if isinstance(spec, pot.Bouncer):
        assert side.value == 0.0 and side.left == (0.0,) * 6
    else:
        assert side.left[1] == side.right[1]
    # psi(0) and psi'(0) vanish exactly where E is a zero of Ai and of Ai'
    if st.parity == "odd":
        assert side.value == 0.0
    if st.parity == "even":
        assert side.right[1] == 0.0


@pytest.mark.parametrize("force_left", [1.0 + 1e-4, 1.0 + 1e-9])
def test_asymmetric_linear_near_equal_forces(force_left):
    spec = pot.AsymmetricLinear(force_right=1.0, force_left=force_left)
    for n in range(1, 31):
        assert_asym_level(spec, n)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(hst.floats(0.2, 3.0), hst.floats(0.2, 3.0), hst.integers(1, 30))
def test_asymmetric_linear_levels_property(force_right, force_left, n):
    assert_asym_level(pot.AsymmetricLinear(force_right=force_right,
                                           force_left=force_left), n)


def airy_arguments(monkeypatch, spec, n, parity=None):
    """The size of each ``airy`` call that one solve makes."""
    counted = []
    airy = specfun.airy

    def counting_airy(x):
        counted.append(np.size(x))
        return airy(x)

    monkeypatch.setattr(specfun, "airy", counting_airy)
    eig.solve(spec, n, parity)
    return counted


def test_asymmetric_linear_solve_evaluates_few_airy_arguments(monkeypatch):
    # the interlacing bracket needs four walls of the merged ladder and a
    # brentq on two arguments per energy, where an energy scan at n = 30 took
    # 6,400 energies and a polished ladder of 30 zeta took 60 arguments: one
    # or two Newton steps on each of the at most eight zeta that can hold the
    # four walls, two arguments per brentq evaluation, and two for the match
    # at z = 0
    spec = pot.AsymmetricLinear(force_right=0.5, force_left=2.0)
    assert 0 < sum(airy_arguments(monkeypatch, spec, 30)) <= 40


def test_asymmetric_linear_far_level_evaluates_few_airy_arguments(monkeypatch):
    # the count does not grow with n: no zeta below the eight candidates of
    # the window is polished
    spec = pot.AsymmetricLinear(force_right=0.5, force_left=2.0)
    assert 0 < sum(airy_arguments(monkeypatch, spec, 20000)) <= 40


@pytest.mark.parametrize("spec,parity", [
    (pot.Bouncer(force=0.5), None),
    (pot.SymmetricLinear(force=0.5), "even"),
    (pot.SymmetricLinear(force=0.5), "odd"),
], ids=["bouncer", "symmetric_even", "symmetric_odd"])
def test_single_airy_zero_solve_polishes_one_zero(monkeypatch, spec, parity):
    # level 30 is one Airy zero: one-argument Newton calls from its
    # asymptotic start, at most 3 of them, then one call for each side of
    # the match at z = 0
    *newton, match_r, match_l = airy_arguments(monkeypatch, spec, 30, parity)
    assert 1 <= len(newton) <= 3 and set(newton) == {1} and match_r == match_l == 1


WALL_RATIOS = [(0.5, 2.0), (1.0, 0.45), (1.0, 1.0 + 1e-7), (1.0, 1.0 - 1e-7),
               (1.0, 1.0 + 1e-13), (1.0, 1.0 - 1e-13), (1.0, 100.0), (100.0, 1.0),
               (1.0, 1e6)]


@pytest.mark.parametrize("force_right,force_left", WALL_RATIOS)
def test_asymmetric_walls_equal_the_polished_ladder_bit_for_bit(monkeypatch, force_right,
                                                                 force_left):
    # the four walls the bracket and the shared-wall checks read, of which
    # the solve polishes only the zeta near the window, are the floats of
    # the merged ladder of fully polished zeta
    window = specfun.merged_zero_window
    read = []

    def recording(k, a, b):
        walls = window(k, a, b)
        read.append((k, a, b, walls))
        return walls

    monkeypatch.setattr(specfun, "merged_zero_window", recording)
    spec = pot.AsymmetricLinear(force_right=force_right, force_left=force_left)
    for n in range(1, 41):
        eig.solve(spec, n)
    assert [k for k, *_ in read] == list(range(1, 41))
    ladder = airy_zero_ladder(41)
    for k, a, b, walls in read:
        merged = np.sort(np.concatenate([a * ladder[:k + 1], b * ladder[:k + 1]]))
        want = [float(merged[p]) if p >= 0 else 0.0 for p in range(k - 3, k + 1)]
        assert [w.hex() for w in walls] == [w.hex() for w in want]


def test_merged_walls_far_up_the_ladder_equal_the_polished_ladder():
    a, b = 0.5, 0.5 * 4.0 ** (1.0 / 3.0)
    ladder = airy_zero_ladder(20001)
    merged = np.sort(np.concatenate([a * ladder, b * ladder]))
    assert specfun.merged_zero_window(20000, a, b) == merged[19997:20001].tolist()


def test_merged_walls_at_near_ties_equal_the_polished_ladder():
    # wall i of the a ladder and wall j of the b ladder tie to within a
    # relative eps, where the starts may misorder them: each window k near
    # their ranks i + j - 2, i + j - 1 still holds the polished ladder's walls
    ladder = airy_zero_ladder(81)
    indices = (1, 2, 3, 4, 5, 7, 10, 15, 20, 30, 40)
    for i in indices:
        for j in indices:
            for eps in (0.0, 1e-16, -1e-16, 1e-12, -1e-12, 1e-9, -1e-9, 1e-7, -1e-7,
                        1e-6, -1e-6):
                ratio = ladder[i - 1] / ladder[j - 1] * (1.0 + eps)
                for a, b in ((1.0, ratio), (ratio, 1.0)):
                    for k in range(max(i + j - 3, 1), i + j + 3):
                        merged = np.sort(np.concatenate([a * ladder[:k + 1],
                                                         b * ladder[:k + 1]]))
                        want = [float(merged[p]) if p >= 0 else 0.0
                                for p in range(k - 3, k + 1)]
                        walls = specfun.merged_zero_window(k, a, b)
                        assert [w.hex() for w in walls] == [w.hex() for w in want], \
                            (i, j, eps, a, b, k)


def test_linear_levels_far_up_the_ladder():
    # level 20,000 of the bouncer and of each symmetric parity is one Airy
    # zero near 2071, from its asymptotic start; e0 = 0.5 at F = 0.5
    for spec, parity, derivative in [(pot.Bouncer(force=0.5), None, 0),
                                     (pot.SymmetricLinear(force=0.5), "even", 1),
                                     (pot.SymmetricLinear(force=0.5), "odd", 0)]:
        want = 0.5 * float(-mpmath.airyaizero(20000, derivative=derivative))
        assert eig.solve(spec, 20000, parity).energy == pytest.approx(want, rel=1e-13)


def test_no_airy_solve_calls_ai_zeros(monkeypatch):
    # the zeros start from their asymptotic expansions: scipy's ai_zeros,
    # which computes all n zeros of Ai and of Ai' to return one, is not called
    from scipy import special

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.special.ai_zeros was called")

    monkeypatch.setattr(special, "ai_zeros", refuse)
    # and wherever specfun might keep a reference to it
    monkeypatch.setattr(specfun, "ai_zeros", refuse, raising=False)
    states = [(pot.Bouncer(force=0.5), None), (pot.SymmetricLinear(force=0.5), "even"),
              (pot.SymmetricLinear(force=0.5), "odd"),
              (pot.AsymmetricLinear(force_right=0.5, force_left=2.0), None),
              (pot.AsymmetricLinear(force_right=0.7, force_left=0.7), None)]
    for spec, parity in states:
        for n in range(1, 31):
            eig.solve(spec, n, parity)
            if not isinstance(spec, pot.AsymmetricLinear):     # it has no Q_n
                spec.classical_q(n, parity)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_asymmetric_linear_against_shooting(n):
    spec = pot.AsymmetricLinear(force_right=0.5, force_left=2.0)
    st = eig.solve(spec, n)
    osc = eig.shooting_oracle(spec, (st.energy - 0.05, st.energy + 0.05), n)
    assert st.energy == pytest.approx(osc.energy, abs=1e-9)


# --- energies to relative precision at every scale --------------------------

DECADES = [10.0 ** e for e in range(-30, 31)]


def test_asymmetric_linear_levels_scale_with_the_forces():
    # E ~ (hbar^2 F^2 / m)^(1/3): forces s and 2s give s^(2/3) times the
    # levels at s = 1, however small or large s is
    base = [eig.solve(pot.AsymmetricLinear(1.0, 2.0), n).energy for n in (1, 2)]
    for s in DECADES:
        for n, e in zip((1, 2), base):
            level = eig.solve(pot.AsymmetricLinear(s, 2.0 * s), n).energy
            assert level == pytest.approx(s ** (2 / 3) * e, rel=1e-14, abs=0), (s, n)


@pytest.mark.parametrize("unit,power", [("mass", -1 / 3), ("hbar", 2 / 3)])
def test_asymmetric_linear_levels_scale_with_the_units(unit, power):
    base = [eig.solve(pot.AsymmetricLinear(1.0, 2.0), n).energy for n in (1, 2)]
    for u in DECADES:
        spec = pot.AsymmetricLinear(1.0, 2.0, **{unit: u})
        for n, e in zip((1, 2), base):
            assert eig.solve(spec, n).energy == pytest.approx(u ** power * e, rel=1e-14, abs=0)


@pytest.mark.parametrize("length,mass,hbar,n", [
    (1.7440084269206832e-68, 4.676591978179583e+149, 4.4108822884177423e-147, 1),
    (1.6426192855777429e+128, 8.062563406702723e+49, 1.0, 2),
    (1.5722616029451546e+18, 2.9412810382886552e+131, 3.394045090125839e-69, 2),
], ids=["census_box_1", "census_box_2", "census_box_3"])
def test_census_boxes_scale_with_their_length_or_are_refused_by_name(length, mass, hbar, n):
    # levels near the least normal float: at L = 2^20 their hbar^2/2mL^2 is
    # subnormal, which had lost the digits of E / L^2
    energy = eig.solve(pot.InfiniteWell(length, mass=mass, hbar=hbar), n).energy
    for scale in (2.0 ** 20, 2.0 ** -20):
        try:
            scaled = eig.solve(pot.InfiniteWell(length * scale, mass=mass, hbar=hbar), n).energy
        except ArithmeticError as exc:
            assert str(exc).startswith("the unit energy") and "the box length" in str(exc)
            continue
        assert scaled * scale * scale == pytest.approx(energy, rel=1e-12, abs=0)


def matching_roots_mp(force_right, force_left, count, digits=60):
    """The lowest ``count`` roots of the matching determinant of
    V = F z, Fbar |z| at m = hbar = 1, at 60 digits or ``digits``: each lies
    between consecutive walls of the two bouncer ladders merged (w_0 = 0)."""
    with mpmath.workdps(digits):
        F, Fb = mpmath.mpf(force_right), mpmath.mpf(force_left)
        rho_r, rho_l = mpmath.cbrt(1 / (2 * F)), mpmath.cbrt(1 / (2 * Fb))
        e_r, e_l = F * rho_r, Fb * rho_l

        def det(E):
            return (mpmath.airyai(-E / e_r, 1) * mpmath.airyai(-E / e_l) / rho_r
                    + mpmath.airyai(-E / e_r) * mpmath.airyai(-E / e_l, 1) / rho_l)

        walls = [mpmath.mpf(0)] + sorted(-e * mpmath.airyaizero(k) for e in (e_r, e_l)
                                         for k in range(1, count + 1))
        def bisect(lo, hi):
            """The root of det between lo and hi, by bisection to 1e-20 of it."""
            below = det(lo) < 0
            while hi - lo > mpmath.mpf(10) ** -20 * hi:
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if (det(mid) < 0) == below else (lo, mid)
            return (lo + hi) / 2

        return [bisect(walls[k - 1], walls[k]) for k in range(1, count + 1)]


@pytest.mark.parametrize("force_left", [1e-16, 1e-22, 1e-40, 1e40, 1e48, 3.5e53, 1e100, 1e300,
                                        1e-53, 1e-100, 1e-300])
def test_asymmetric_linear_at_extreme_force_ratios(force_left):
    # a weak side's levels crowd within (Fbar/F)^(1/3) of its walls: an
    # absolute stop returned the wall for n = 1 and level n - 1 for n >= 2;
    # and past a ratio of ~1e48 the rounding of the wall's own Ai, times the
    # steep side's 1/rho, set the sign of the determinant at a bracket end.
    # A root that close to its wall needs (Fbar/F)^(1/3) more digits.
    levels = [eig.solve(pot.AsymmetricLinear(1.0, force_left), n).energy for n in (1, 2, 3, 4)]
    assert all(a < b for a, b in zip(levels, levels[1:]))
    digits = 60 + round(abs(math.log10(force_left)) / 3)
    for level, root in zip(levels, matching_roots_mp(1.0, force_left, 4, digits)):
        assert level == pytest.approx(float(root), rel=1e-13, abs=0)


@pytest.mark.parametrize("deltas", [
    ((109204397.1286117, -7.245657566886257), (4.723534897587746e-07, 1571020277.112909)),
    ((333347018966.4978, 7.957635393240793), (0.0011791624390114152, 303038.0503040633)),
    *(((10.0 ** e, 0.0), (1.0, 50.0)) for e in range(2, 16)),
    *(((1.0, 0.0), (10.0 ** e, 50.0)) for e in range(2, 16)),
], ids=["census_424", "census_2477", *(f"strong_first_1e{e}" for e in range(2, 16)),
        *(f"weak_first_1e{e}" for e in range(2, 16))])
def test_weak_delta_beside_a_strong_one_has_its_own_level(deltas):
    # the deltas are e^-100 or less coupled, so level 2 is the weak delta's
    # own -m g^2 / 2 hbar^2, far above the strong one's: its bracket, bisected
    # from a window ~m g_max^2 / hbar^2 deep, must still end at rtol of it
    g = min(strength for strength, _ in deltas)
    assert eig.solve(pot.DeltaSum(deltas=deltas), 2).energy == pytest.approx(
        -g * g / 2.0, rel=1e-13, abs=0)


def test_sin_cubic_against_multiprecision():
    # (y - sin y) / y^3 without y^3, which overflowed past y ~ 5.6e102 while
    # the quotient, ~1/y^2, is a float up to y ~ 1e154
    ys = [1.0, 1.5, 2.0, math.pi, *np.geomspace(1.0, 1e103, 200).tolist()]
    with mpmath.workdps(40):
        for y in ys:
            ref = (mpmath.mpf(y) - mpmath.sin(y)) / mpmath.mpf(y) ** 3
            assert abs(eig._sin_cubic(y) - ref) <= 3e-16 * ref, y
    assert eig._sin_cubic(1e200) == 0.0


# --- the root polish ---------------------------------------------------------

POLISHED = [
    (pot.DeltaSum(deltas=((1.0, -1.0), (1.5, 0.5), (0.8, 2.0))), 2),
    # the rescaled defect spans ~1e-304..1e304 over the bracket, and an
    # inverse quadratic step's denominator underflows to 0
    (pot.DeltaSum(deltas=((0.6, 0.0), (23.4, 58.6), (0.8, 64.75), (98.5, 65.0))), 1),
    (pot.FiniteWell(depth=10.0, a=-1.0, b=1.0), 2),
    (pot.StepSum(steps=((0.0, -5.0), (1.0, 2.0), (2.0, 3.0))), 1),
    (pot.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0), 1),
    (pot.AsymmetricLinear(force_right=1.0, force_left=0.5), 1),
    (pot.AsymmetricLinear(force_right=0.5, force_left=2.0), 30),
    (pot.AsymmetricLinear(force_right=1.0, force_left=1.0000001), 2),
]


@pytest.mark.parametrize("spec,n", POLISHED, ids=[
    "delta_chain", "wide_delta_chain", "finite_well", "step_ladder", "hybrid", "asym_1", "asym_30", "asym_near_equal"])
def test_brentq_port_matches_scipy_bit_for_bit(monkeypatch, spec, n):
    # every polish of the solve, on its own defect and bracket, against scipy
    # on the same function: the solver's end values at the ends, f inside
    polish, pairs = eig._brentq, []

    def both(f, a, b, fa, fb):
        ours = polish(f, a, b, fa, fb)
        pairs.append((ours, brentq(lambda x: fa if x == a else fb if x == b else f(x), a, b,
                                   xtol=eig._XTOL, rtol=eig._RTOL, maxiter=eig._MAXITER)))
        return ours

    monkeypatch.setattr(eig, "_brentq", both)
    eig.solve(spec, n)
    assert pairs
    for ours, theirs in pairs:
        assert ours.hex() == theirs.hex()


def test_brentq_port_returns_a_root_at_either_end():
    for a, b in [(0.3, 2.0), (-1.0, 0.3)]:
        assert eig._brentq(lambda x: x - 0.3, a, b, a - 0.3, b - 0.3) == 0.3
        assert brentq(lambda x: x - 0.3, a, b, xtol=eig._XTOL, rtol=eig._RTOL) == 0.3


def test_brentq_port_raises_typed_errors(monkeypatch):
    def nan_inside(x):
        return x - 0.3 if x in (0.0, 1.0) else math.nan

    with pytest.raises(NoConvergence, match="NaN"):
        eig._brentq(nan_inside, 0.0, 1.0, -0.3, 0.7)
    with pytest.raises(NoConvergence, match="NaN"):
        eig._brentq(lambda x: math.nan, 0.0, 1.0, math.nan, math.nan)
    with pytest.raises(NoConvergence, match="sign"):
        eig._brentq(lambda x: x + 1.0, 0.0, 1.0, 1.0, 2.0)
    for fa, fb in ((math.nan, 0.7), (-0.3, math.nan)):
        with pytest.raises(NoConvergence, match="NaN"):
            eig._brentq(lambda x: x - 0.3, 0.0, 1.0, fa, fb)
    monkeypatch.setattr(eig, "_MAXITER", 3)
    with pytest.raises(NoConvergence, match="3 iterations"):
        eig._brentq(lambda x: math.exp(x) - 2.0, 0.0, 1.0, -1.0, math.e - 2.0)


def test_brentq_port_never_evaluates_its_ends():
    # the given fa, fb stand for f(a), f(b): f is evaluated only inside the
    # bracket, and the root is scipy's, which evaluates the ends itself
    seen = []

    def f(x):
        seen.append(x)
        return math.exp(x) - 2.0

    fa, fb = f(0.0), f(1.0)
    seen.clear()
    root = eig._brentq(f, 0.0, 1.0, fa, fb)
    assert seen and 0.0 not in seen and 1.0 not in seen
    assert root == brentq(f, 0.0, 1.0, xtol=eig._XTOL, rtol=eig._RTOL, maxiter=eig._MAXITER)


def test_piecewise_polish_sweeps_neither_bracket_end(monkeypatch):
    # solve_piecewise hands _brentq the defects at both ends it has swept
    polished, sweeps = [], []
    polish, sweep = eig._brentq, eig._sweep

    def recording(f, a, b, *args, **kwargs):
        sweeps.clear()
        root = polish(f, a, b, *args, **kwargs)
        polished.append((a, b, list(sweeps)))
        return root

    def counting(xs, vs, cusps, energy):
        sweeps.append(energy)
        return sweep(xs, vs, cusps, energy)

    monkeypatch.setattr(eig, "_brentq", recording)
    monkeypatch.setattr(eig, "_sweep", counting)
    eig.solve(pot.DeltaSum(deltas=((1.0, -1.0), (1.5, 0.5), (0.8, 2.0))), 2)
    (lo, hi, inside), = polished
    assert inside and lo not in inside and hi not in inside


@pytest.mark.parametrize("spec,n", [
    (pot.DeltaSum(deltas=((1.185343, 0.0), (0.861805, 14.167813))), 1),
    (pot.StepSum(steps=((0.0, -5.0), (1.0, 2.0), (2.0, 3.0))), 1),
    (pot.FiniteWell(depth=10.0, a=-1.5, b=0.8), 2),
    (pot.FiniteWell(depth=10.0, a=-1.0, b=1.0), 1),
    (pot.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0), 1),
], ids=["delta_chain", "step_ladder", "finite_well", "centred_well", "hybrid"])
def test_piecewise_solve_sweeps_no_energy_twice(monkeypatch, spec, n):
    # the top, the bisection and the polish share their sweeps, and the
    # state reuses the polish's last one; the state's mirrored sweep, from
    # the right, is a sweep of other pieces, or the left one where the
    # pieces are their own mirror image
    sweeps, sweep = [], eig._sweep

    def recording(xs, vs, cusps, energy):
        sweeps.append((tuple(xs), tuple(vs), tuple(cusps), energy))
        return sweep(xs, vs, cusps, energy)

    monkeypatch.setattr(eig, "_sweep", recording)
    eig.solve(spec, n)
    assert len(sweeps) == len(set(sweeps))


# --- delta chains and step ladders: properties against independent oracles --

def bs_eigenvalues(spec, kappa):
    """Birman-Schwinger eigenvalues of a delta chain at decay rate kappa,
    largest first. E = -(hbar kappa)^2 / 2m is a level exactly when one of
    them is 1, and each falls as kappa grows, so the levels below E are the
    eigenvalues above 1."""
    g = np.array([d[0] for d in spec.deltas])
    a = np.array([d[1] for d in spec.deltas])
    s = (spec.mass / (spec.hbar ** 2 * kappa)) * np.sqrt(np.outer(g, g)) \
        * np.exp(-kappa * np.abs(a[:, None] - a[None, :]))
    return np.linalg.eigvalsh(s)[::-1]


def ladder_defect_mp(spec, energy):
    """psi' + kappa psi at the last step of the solution decaying on the left
    of a step ladder, propagated by cosh/sinh and cos/sin at 30 digits."""
    coef = 2 * mpmath.mpf(spec.mass) / mpmath.mpf(spec.hbar) ** 2
    E = mpmath.mpf(energy)
    P, Q, v = mpmath.mpf(1), mpmath.sqrt(-coef * E), mpmath.mpf(0)
    for (x, h), (x_next, _) in zip(spec.steps, spec.steps[1:] + ((None, None),)):
        v += h
        if x_next is None:
            break
        w, beta = mpmath.mpf(x_next) - x, coef * (v - E)
        if beta > 0:
            r = mpmath.sqrt(beta)
            P, Q = (P * mpmath.cosh(r * w) + Q * mpmath.sinh(r * w) / r,
                    P * r * mpmath.sinh(r * w) + Q * mpmath.cosh(r * w))
        else:
            k = mpmath.sqrt(-beta)
            P, Q = (P * mpmath.cos(k * w) + Q * mpmath.sin(k * w) / k,
                    -P * k * mpmath.sin(k * w) + Q * mpmath.cos(k * w))
    return Q + mpmath.sqrt(coef * (v - E)) * P


def tight_norm(state):
    """integral psi^2, adaptively on each piece between the kinks of psi."""
    lo, hi = state.support
    edges = [lo, *(b for b in state.breaks if lo < b < hi), hi]
    f = lambda x: float(state.psi(np.array([x]))[0]) ** 2
    return math.fsum(quad(f, u, v, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                     for u, v in zip(edges[:-1], edges[1:]))


def assert_state_quality(spec, st):
    """Norm 1, the two routes to the tail agree, and the panels fit the budget."""
    assert abs(tight_norm(st) - 1.0) < 1e-12
    asy.predict_tail(st, pot.discontinuities(spec))    # raises InconsistentJumps
    return mom.FilonPanels(st)                         # raises past its budget


CHAINS = hst.lists(hst.tuples(hst.floats(0.5, 2.0), hst.floats(0.5, 25.0)),
                   min_size=2, max_size=5)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(CHAINS, hst.integers(1, 5))
def test_delta_chain_levels_property(chain, pick):
    at = np.cumsum([0.0] + [gap for _, gap in chain[:-1]])
    spec = pot.DeltaSum(deltas=tuple((g, float(a)) for (g, _), a in zip(chain, at)))
    g_sum = sum(g for g, _ in spec.deltas)
    levels = int(np.sum(bs_eigenvalues(spec, 1e-8 * g_sum) > 1.0))
    with pytest.raises(NoSuchState):
        eig.solve(spec, levels + 1)
    n = min(pick, levels)
    st = eig.solve(spec, n)
    lam = bs_eigenvalues(spec, math.sqrt(-2.0 * st.energy))
    assert np.sum(lam > 1.0 + 1e-9) <= n - 1 and np.sum(lam > 1.0 - 1e-9) >= n
    panels = assert_state_quality(spec, st)
    grid = np.linspace(-50.0, 50.0, 1001)
    closed = mom.phi_closed_delta(spec, st, grid).phi
    assert np.max(np.abs(panels.transform(grid) - closed)) < 1e-10


def bs_eigenvalues_mp(spec, energy):
    """``bs_eigenvalues`` at the decay rate of ``energy``, at mpmath's precision."""
    kappa = mpmath.sqrt(-2 * mpmath.mpf(spec.mass) * energy) / spec.hbar
    g = [mpmath.mpf(d[0]) for d in spec.deltas]
    a = [mpmath.mpf(d[1]) for d in spec.deltas]
    s = mpmath.matrix([[spec.mass / (spec.hbar ** 2 * kappa) * mpmath.sqrt(gi * gj)
                        * mpmath.exp(-kappa * abs(ai - aj)) for gj, aj in zip(g, a)]
                       for gi, ai in zip(g, a)])
    return sorted(mpmath.eigsy(s, eigvals_only=True), reverse=True)


def polished(spec, n):
    """Level n of ``spec`` and the number of defect evaluations its polish made."""
    polish, count = eig._brentq, [0]

    def counting(f, *args, **kwargs):
        def counted(x):
            count[0] += 1
            return f(x)
        return polish(counted, *args, **kwargs)

    with mock.patch.object(eig, "_brentq", counting):
        return eig.solve(spec, n), count[0]


FAR_CHAINS = hst.tuples(hst.lists(hst.tuples(hst.floats(0.5, 2.0), hst.floats(0.5, 30.0)),
                                  min_size=2, max_size=5), hst.booleans())


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(FAR_CHAINS, hst.integers(1, 5))
def test_delta_chain_polish_property(chain_equal, pick):
    # the polish reads the defect with the sweep's scale put back, a smooth
    # function of E however far apart the deltas: few evaluations, and level
    # n lies within 4 rtol of the 30-digit Birman-Schwinger root. Neither
    # bound holds for every chain of the strategy: four equal deltas whose
    # level sits ~1e-13 from a neighbour outside the bracket can take ~90
    # evaluations, and a top level above -3e-3 can miss by up to 5e-12
    chain, equal = chain_equal
    strengths = [chain[0][0]] * len(chain) if equal else [g for g, _ in chain]
    at = np.cumsum([0.0] + [gap for _, gap in chain[:-1]])
    spec = pot.DeltaSum(deltas=tuple(zip(strengths, map(float, at))))
    n = min(pick, int(np.sum(bs_eigenvalues(spec, 1e-8 * sum(strengths)) > 1.0)))
    st, evaluations = polished(spec, n)
    assert evaluations <= 45
    deep, shallow = (bs_eigenvalues_mp(spec, st.energy * (1.0 + s * 4 * 8.9e-16))
                     for s in (1, -1))
    assert deep[n - 1] <= 1 <= shallow[n - 1]


def test_far_chain_polish_is_not_bisection():
    # the defect divided by the sweep's scale reads +-0.546 here until within
    # ~1e-12 of the level: a sign function, on which Brent can only bisect
    spec = pot.DeltaSum(deltas=((1.185343, 0.0), (0.861805, 14.167813)))
    st, evaluations = polished(spec, 1)
    assert evaluations <= 16
    assert bs_eigenvalues_mp(spec, st.energy)[0] == pytest.approx(1.0, abs=1e-14)


# three equal deltas ~33 apart: levels 1 to 3 lie within 2e-18 of each other,
# and the rounding of the defect at a bracket end can disagree with the count
NEAR_DEGENERATE = pot.DeltaSum(deltas=(
    (1.6454924341550203, 0.0), (0.888550600487956, 12.679522853084265),
    (1.6454924341550203, 32.96107622136299), (1.4930251315536829, 54.35848126275239),
    (1.6454924341550203, 68.22932571153001)))


def test_near_degenerate_chain_levels():
    # each level within 1e-15 of its 50-digit Birman-Schwinger root: the n-th
    # eigenvalue crosses 1 between E (1 + 1e-15) and E (1 - 1e-15)
    energies = [eig.solve(NEAR_DEGENERATE, n).energy for n in range(1, 6)]
    assert energies == sorted(energies)
    with mpmath.workdps(50):
        for n, energy in enumerate(energies, 1):
            deep, shallow = (bs_eigenvalues_mp(NEAR_DEGENERATE,
                                               energy * (1 + s * mpmath.mpf("1e-15")))
                             for s in (1, -1))
            assert deep[n - 1] <= 1 <= shallow[n - 1]
    with pytest.raises(NoSuchState):
        eig.solve(NEAR_DEGENERATE, 6)


def test_level_below_the_least_normal_float_is_named():
    # the image's depth is 1.4e-216, so its level, ~-1e-432, is no float: the
    # isolated bracket is (-5e-324, 0.0), on which no polish converges
    spec = pot.FiniteWell(4.3939775330818634e-17, 4.971281682713993, 4.971281709053655,
                          mass=3.2965808204632243e-112, hbar=3.7379930384603884e+36)
    with pytest.raises(ArithmeticError, match=re.escape(
            f"level 1 of the image lies below the least normal float, in (-5e-324, 0.0): the "
            f"image's region potentials are {spec.image_pieces[1]!r}, at the unit energy "
            f"{spec.units.energy!r}")):
        eig.solve(spec, 1)


POTENTIAL = hst.floats(-5.0, 5.0).filter(lambda v: abs(v) >= 0.1)
LADDERS = hst.tuples(POTENTIAL, POTENTIAL, POTENTIAL, hst.floats(0.3, 3.0),
                     hst.floats(0.3, 3.0)).filter(
    lambda t: min(t[0], t[1]) < min(0.0, t[2]) and abs(t[1] - t[0]) >= 0.1
    and abs(t[2] - t[1]) >= 0.1)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(LADDERS, hst.integers(1, 5))
def test_step_ladder_levels_property(ladder, pick):
    v1, v2, v3, w1, w2 = ladder
    spec = pot.StepSum(steps=((0.0, v1), (w1, v2 - v1), (w1 + w2, v3 - v2)))
    top, bottom = min(0.0, v3), min(v1, v2)
    states = []
    while True:
        try:
            states.append(eig.solve(spec, len(states) + 1))
        except (NoSuchState, NoBoundState) as exc:
            assert isinstance(exc, NoBoundState) == (not states)
            break
        st = states[-1]
        assert count_nodes(st) == len(states) - 1
        step = 1e-12 * (top - bottom)
        assert ladder_defect_mp(spec, st.energy - step) * ladder_defect_mp(
            spec, st.energy + step) < 0
    # the defect changes sign once per level between the floor and the top
    span = top - bottom
    assert (ladder_defect_mp(spec, bottom - 1e-6 * span)
            * ladder_defect_mp(spec, top - 1e-9 * span) * (-1) ** len(states)) > 0
    if states:
        assert_state_quality(spec, states[min(pick, len(states)) - 1])


# --- state quality --------------------------------------------------------

STATES = [
    ("delta", pot.DeltaSum(deltas=((1.0, 0.5),)), dict()),
    ("double_delta", pot.DeltaSum(deltas=((1.0, -1.0), (1.0, 1.0))), dict(n=2)),
    ("well", pot.InfiniteWell(length=math.pi), dict(n=3)),
    ("finite_well", pot.FiniteWell(depth=10.0, a=-1.0, b=1.0), dict(n=2)),
    ("step_ladder", pot.StepSum(steps=((0.0, -5.0), (1.0, 2.0), (2.0, 3.0))), dict(n=1)),
    ("hybrid", pot.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0), dict()),
    ("bouncer", pot.Bouncer(force=0.5), dict(n=4)),
    ("symlin_even", pot.SymmetricLinear(force=0.5), dict(n=2, parity="even")),
    ("symlin_odd", pot.SymmetricLinear(force=0.5), dict(n=2, parity="odd")),
    ("asymlin", pot.AsymmetricLinear(force_right=0.5, force_left=2.0), dict(n=2)),
]


@pytest.mark.parametrize("name,spec,kw", STATES, ids=[s[0] for s in STATES])
def test_normalization(name, spec, kw):
    st = eig.solve(spec, kw.get("n", 1), kw.get("parity"))
    assert norm_integral(st) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("name,spec,kw", STATES, ids=[s[0] for s in STATES])
def test_psi_continuity(name, spec, kw):
    st = eig.solve(spec, kw.get("n", 1), kw.get("parity"))
    for b in st.breaks:
        lo, hi = st.psi(np.array([b - 1e-11, b + 1e-11]))
        assert abs(hi - lo) < 1e-10


@pytest.mark.parametrize("name,spec,kw", STATES, ids=[s[0] for s in STATES])
def test_schrodinger_residual(name, spec, kw):
    st = eig.solve(spec, kw.get("n", 1), kw.get("parity"))
    lo, hi = st.support
    span = hi - lo
    xs = np.linspace(lo + 0.05 * span, hi - 0.05 * span, 41)
    keep = [x for x in xs
            if all(abs(x - b) > 1e-3 for b in st.breaks)
            and math.isfinite(pot.evaluate(spec, x))]
    for x in keep:
        assert abs(fd_residual(st, spec, x)) < 1e-6


@pytest.mark.parametrize("name,spec,kw", STATES, ids=[s[0] for s in STATES])
def test_derivative_table_matches_finite_differences(name, spec, kw):
    st = eig.solve(spec, kw.get("n", 1), kw.get("parity"))
    for a, side in st.derivative_table.items():
        scale = max(max(abs(v) for v in side.right),
                    max(abs(v) for v in side.left), 1.0)
        lo, hi = st.support
        if a + 1e-6 < hi:
            fd = one_sided_derivs(st, a, "right")
            for j in range(4):
                assert abs(fd[j] - side.right[j]) < 1e-5 * scale
        if a - 1e-6 > lo:
            fd = one_sided_derivs(st, a, "left")
            for j in range(4):
                assert abs(fd[j] - side.left[j]) < 1e-5 * scale


AIRY_STATES = [
    ("bouncer", pot.Bouncer(force=0.5), dict(n=4)),
    ("symlin_even", pot.SymmetricLinear(force=0.5), dict(n=2, parity="even")),
    ("symlin_odd", pot.SymmetricLinear(force=0.5), dict(n=2, parity="odd")),
    ("asymlin", pot.AsymmetricLinear(force_right=0.5, force_left=2.0), dict(n=2)),
    ("asymlin_m2_hbar2", pot.AsymmetricLinear(force_right=0.5, force_left=2.0,
                                              mass=2.0, hbar=2.0), dict(n=3)),
]


@pytest.mark.parametrize("name,spec,kw", AIRY_STATES, ids=[s[0] for s in AIRY_STATES])
def test_airy_derivative_tables_match_mpmath(name, spec, kw):
    # on the side of force F, psi(z) = c Ai(|z|/rho + u0) with u0 = -E/(F rho),
    # so psi^(j)(0+-) = c (+-1/rho)^j Ai^(j)(u0); c is fitted to psi itself
    st = eig.solve(spec, kw["n"], kw.get("parity"))
    side = st.derivative_table[0.0]
    if isinstance(spec, pot.AsymmetricLinear):
        forces = (spec.force_left, spec.force_right)
    else:
        forces = (None if isinstance(spec, pot.Bouncer) else spec.force, spec.force)
    for sign, force, got in zip((-1.0, 1.0), forces, (side.left, side.right)):
        if force is None:
            assert got == (0.0,) * 6
            continue
        rho = pot.airy_length(force, spec.mass, spec.hbar)
        u0 = -st.energy / (force * rho)
        ts = np.linspace(0.1, 2.0, 20)
        ai = np.array([float(mpmath.airyai(t + u0)) for t in ts])
        c = np.dot(st.psi(sign * rho * ts), ai) / np.dot(ai, ai)
        want = [c * (sign / rho) ** j * float(mpmath.airyai(u0, derivative=j))
                for j in range(6)]
        scale = max(abs(w) for w in want)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-13 * scale


@pytest.mark.parametrize("name,spec,kw", STATES, ids=[s[0] for s in STATES])
def test_jump_conditions(name, spec, kw):
    st = eig.solve(spec, kw.get("n", 1), kw.get("parity"))
    m, hbar = spec.mass, spec.hbar
    for rec in pot.discontinuities(spec):
        if rec.is_wall:
            continue
        side = st.derivative_table[rec.location]
        k = rec.order
        if k == -1:
            got = side.right[1] - side.left[1]
            want = 2 * m / hbar ** 2 * rec.jump * side.value
        else:
            got = side.right[k + 2] - side.left[k + 2]
            want = 2 * m / hbar ** 2 * rec.jump * side.value
        scale = max(abs(got), abs(want), 1.0)
        assert abs(got - want) < 1e-8 * scale


FAMILIES = [
    ("well", pot.InfiniteWell(length=math.pi), [dict(n=i) for i in range(1, 6)]),
    ("finite_well", pot.FiniteWell(depth=200.0, a=-math.pi / 2, b=math.pi / 2),
     [dict(n=i) for i in range(1, 6)]),
    ("bouncer", pot.Bouncer(force=0.5), [dict(n=i) for i in range(1, 6)]),
    ("symlin", pot.SymmetricLinear(force=0.5),
     [dict(n=1, parity="even"), dict(n=1, parity="odd"),
      dict(n=2, parity="even"), dict(n=2, parity="odd"),
      dict(n=3, parity="even")]),
    ("asymlin", pot.AsymmetricLinear(force_right=0.5, force_left=2.0),
     [dict(n=i) for i in range(1, 6)]),
]


@pytest.mark.parametrize("name,spec,sels", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_orthonormality(name, spec, sels):
    states = [eig.solve(spec, s["n"], s.get("parity")) for s in sels]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            want = 1.0 if i == j else 0.0
            assert norm_integral(a, b) == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_shooting_agreement_bouncer(n):
    spec = pot.Bouncer(force=0.5)
    st = eig.solve(spec, n)
    osc = eig.shooting_oracle(spec, (st.energy - 0.05, st.energy + 0.05), n)
    assert abs(st.energy - osc.energy) / abs(st.energy) < 1e-8


def test_shooting_oracle_psi_and_slope():
    # the oracle's spline gives psi and psi'; its sign is arbitrary
    spec = pot.AsymmetricLinear(force_right=0.5, force_left=2.0)
    st = eig.solve(spec, 2)
    osc = eig.shooting_oracle(spec, (st.energy - 1e-3, st.energy + 1e-3), 2)
    z = np.linspace(-3.0, 8.0, 45)
    got, want = osc.psi_and_slope(z), st.psi_and_slope(z)
    sign = np.sign(np.dot(got[0], want[0]))
    for g, w in zip(got, want):
        assert np.max(np.abs(sign * g - w)) < 1e-4
    assert np.array_equal(osc.psi(z), got[0])


@pytest.mark.parametrize("spec,n,parity,window", [
    *((pot.SymmetricLinear(force=0.5), n, parity, 0.04)
      for n in (1, 2) for parity in ("even", "odd")),
    (pot.FiniteWell(depth=10.0, a=-1.0, b=1.0), 1, None, 0.05),
    (pot.FiniteWell(depth=10.0, a=-1.0, b=1.0), 2, None, 0.05),
    (pot.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0), 1, None, 0.01),
], ids=["symlin_1_even", "symlin_1_odd", "symlin_2_even", "symlin_2_odd",
        "finite_well_1", "finite_well_2", "hybrid"])
def test_shooting_oracle_psi_decays_on_both_sides(spec, n, parity, window):
    # the oracle sweeps psi inward from both ends and joins the sweeps; a
    # single sweep lets the mode that grows toward the far end swamp psi
    st = eig.solve(spec, n, parity)
    osc = eig.shooting_oracle(spec, (st.energy - window, st.energy + window), n, parity)
    z = np.linspace(-8.0, 8.0, 161)
    got, want = osc.psi(z), st.psi(z)
    sign = np.sign(np.dot(got, want))
    assert np.max(np.abs(sign * got - want)) < 1e-4


@pytest.mark.parametrize("spec,n,parity,window", [
    (pot.Bouncer(force=0.5), 3, None, 0.05),
    *((pot.SymmetricLinear(force=0.5), 2, parity, 0.04) for parity in ("even", "odd")),
    (pot.AsymmetricLinear(force_right=0.5, force_left=2.0), 2, None, 1e-3),
    (pot.FiniteWell(depth=10.0, a=-1.0, b=1.0), 1, None, 0.05),
    (pot.FiniteWell(depth=10.0, a=-1.0, b=1.0), 2, None, 0.05),
    (pot.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0), 1, None, 0.01),
], ids=["bouncer_3", "symlin_2_even", "symlin_2_odd", "asymlin_2", "finite_well_1",
        "finite_well_2", "hybrid"])
def test_shooting_oracle_psi_and_slope_match_solve(spec, n, parity, window):
    # the grid holds every discontinuity of V: steps and kinks, where a higher
    # derivative of psi jumps, and the delta and the wall, where psi' jumps,
    # so psi' is compared away from those two
    st = eig.solve(spec, n, parity)
    osc = eig.shooting_oracle(spec, (st.energy - window, st.energy + window), n, parity)
    z = np.linspace(-8.0, 8.0, 161)
    records = pot.discontinuities(spec)
    assert all(np.any(z == r.location) for r in records)
    (psi, slope), (want, want_slope) = osc.psi_and_slope(z), st.psi_and_slope(z)
    sign = np.sign(np.dot(psi, want))
    assert np.max(np.abs(sign * psi - want)) < 1e-7
    smooth = ~np.isin(z, [r.location for r in records if r.order == -1])
    assert np.max(np.abs(sign * slope - want_slope)[smooth]) < 1e-6


@pytest.mark.parametrize("n,parity", [(n, p) for n in (1, 2, 3, 4, 5)
                                      for p in ("even", "odd")])
def test_shooting_agreement_symmetric_linear(n, parity):
    spec = pot.SymmetricLinear(force=0.5)
    st = eig.solve(spec, n, parity)
    osc = eig.shooting_oracle(spec, (st.energy - 0.04, st.energy + 0.04),
                              n, parity)
    assert abs(st.energy - osc.energy) / abs(st.energy) < 1e-8


EVERY_KIND = [
    (pot.InfiniteWell(length=1.0), None),
    (pot.DeltaSum(deltas=((1.0, 0.0), (1.0, 3.0))), None),
    (pot.FiniteWell(depth=10.0, a=-1.0, b=1.0), None),
    (pot.StepSum(steps=((0.0, -5.0), (1.0, 2.0), (2.0, 3.0))), None),
    (pot.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0), None),
    (pot.Bouncer(force=0.5), None),
    (pot.SymmetricLinear(force=0.5), "even"),
    (pot.AsymmetricLinear(force_right=1.0, force_left=0.5), None),
]


def entry_points(spec, parity):
    """Every public call that takes a level of ``spec``: ``solve``, the family's
    own solver, and the box's closed-form phi and the classical density and
    edge where the kind has them; each as a function of n."""
    solver = (eig.solve_infinite_well if isinstance(spec, pot.InfiniteWell)
              else eig.solve_piecewise if isinstance(spec, pot.Piecewise)
              else eig.solve_linear)
    calls = [lambda n: eig.solve(spec, n, parity), lambda n: solver(spec, n, parity)]
    if isinstance(spec, pot.InfiniteWell):
        calls.append(lambda n: mom.phi_closed_well(spec, n, np.array([0.0, 3.0])).phi)
    if isinstance(spec, (pot.InfiniteWell, pot.Bouncer, pot.SymmetricLinear)):
        calls += [lambda n: spec.classical_q(n, parity),
                  lambda n: mom.classical_momentum_density(spec, n, np.array([0.0, 9.0]), parity)]
    return calls


@pytest.mark.parametrize("spec,parity", EVERY_KIND, ids=[s.kind for s, _ in EVERY_KIND])
@pytest.mark.parametrize("n", [0, -1, 1.5, 2.0, True, "1"],
                         ids=["0", "-1", "1.5", "2.0", "True", "'1'"])
def test_solve_refuses_a_level_index_that_is_no_integer(spec, parity, n):
    # n < 1, a float, even a whole one, a bool or a string names no level, at
    # every entry point: taken as one, n = 1.5 of the box gives E = pi^2 1.5^2 / 2,
    # between levels 1 and 2, and the box's classical density at n = 0 divides
    # by Q_0 = 0
    for call in entry_points(spec, parity):
        with pytest.raises(NoSuchState):
            call(n)


@pytest.mark.parametrize("spec,parity", [
    (pot.InfiniteWell(length=1.0), "even"),
    (pot.FiniteWell(depth=10.0, a=-1.0, b=1.0), "odd"),
    (pot.Bouncer(force=1.0), "even"),
    (pot.AsymmetricLinear(force_right=0.5, force_left=2.0), "odd"),
], ids=["box", "piecewise", "bouncer", "asymmetric_linear"])
def test_solve_refuses_a_parity_the_kind_does_not_read(spec, parity):
    # one case per solver family: only the symmetric linear kind's levels
    # split by parity, and any other would return a state of either parity;
    # the classical edge, where there is one, refuses it too
    with pytest.raises(NoSuchState, match="no parity"):
        eig.solve(spec, 1, parity)
    with pytest.raises(NoSuchState):
        spec.classical_q(1, parity)


def test_solve_refuses_an_object_of_no_potential_family():
    with pytest.raises(NoSuchState, match="no solver for 'dict'"):
        eig.solve({"kind": "delta_sum", "deltas": [[1.0, 0.0]]})


@pytest.mark.parametrize("spec,parity", EVERY_KIND, ids=[s.kind for s, _ in EVERY_KIND])
def test_solve_takes_a_numpy_integer_level_index(spec, parity):
    # each entry point gives for np.int64(2) what it gives for 2
    for call in entry_points(spec, parity):
        try:
            want = call(2)
        except NoSuchState:
            with pytest.raises(NoSuchState):
                call(np.int64(2))
            continue
        got = call(np.int64(2))
        if isinstance(want, eig.BoundState):
            assert got.energy == want.energy and type(got.n) is int and got.n == 2
        else:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("spec,parity", [
    (pot.Bouncer(force=1.0), None),
    (pot.SymmetricLinear(force=1.0), "even"),
    (pot.SymmetricLinear(force=1.0), "odd"),
], ids=["bouncer", "symmetric_linear_even", "symmetric_linear_odd"])
def test_airy_level_past_the_last_finite_zero_is_refused(spec, parity):
    # the 3e8-th zeta and eta lie beyond x = -1e6, where Ai is NaN: the
    # polish raises instead of returning a NaN energy
    with pytest.raises(NoConvergence, match="NaN"):
        eig.solve(spec, 3 * 10 ** 8, parity)


@pytest.mark.parametrize("field,value", [("energy", math.inf), ("energy", math.nan),
                                         ("matching", ((math.nan, 0.0, math.nan),))])
def test_state_with_a_non_finite_energy_or_psi_is_refused(field, value):
    # the image's level is refused, which the solvers build first
    st = eig.solve(pot.DeltaSum(deltas=((1.0, 0.0),)))
    with pytest.raises(ArithmeticError, match="not finite"):
        dataclasses.replace(st.image, **{field: value})



@pytest.mark.parametrize("region, report", [(0, "decays at a subnormal"), (1, "has no digit"),
                                            (2, "has no digit")])
def test_no_region_reaches_the_closed_form_at_its_own_v(region, report):
    # an allowed region's psi is c1 cos ks + c2 sin(ks) (1/k), k = sqrt(E' - V'),
    # which needs k > 0: a level at a region's V' is refused before its
    # regions are formed, and the box's one region has V' - E' = -k^2 < 0
    pieces = pot.StepSum(steps=((0.0, -5.0), (1.0, 2.0), (2.0, 3.0))).image_pieces
    energy = pieces[1][region]
    with pytest.raises(ArithmeticError, match=report):
        eig._piecewise_state(pieces, energy, eig._sweep(*pieces, energy)[2], False)
    for n in (1, 2, 7):
        ((_, _, beta, _, _),) = eig.solve(pot.InfiniteWell(length=2.0), n).image.regions
        assert beta == -(n * math.pi) ** 2
