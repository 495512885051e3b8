"""Bound-state solvers: energies, normalization, derivative tables, jumps."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from scipy.integrate import quad

from momtail import asymptotics as asy
from momtail import eigensolve as eig
from momtail import momentum as mom
from momtail import potentials as pot
from momtail import specfun
from momtail.errors import NoBoundState, NoSuchState

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
    assert st.table_at(0.0).value == pytest.approx(1.0, rel=1e-14)
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


def test_infinite_well_energies():
    for n in range(1, 6):
        st = eig.solve(pot.InfiniteWell(length=math.pi), n)
        assert st.energy == pytest.approx(n * n / 2.0, rel=1e-14)
    st = eig.solve_infinite_well(pot.InfiniteWell(length=math.pi), 1)
    assert st.table_at(0.0).right[1] == pytest.approx(math.sqrt(2 / math.pi), rel=1e-14)
    st2 = eig.solve_infinite_well(pot.InfiniteWell(length=math.pi), 2)
    assert st2.table_at(math.pi).left[1] == pytest.approx(
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


def test_bouncer_energies_airy_zeros():
    spec = pot.Bouncer(force=0.5)
    for n in (1, 2, 3):
        ref = float(-mpmath.airyaizero(n)) * 0.5
        assert eig.solve(spec, n).energy == pytest.approx(ref, rel=1e-13)


def test_bouncer_wall_slope_n_independent():
    spec = pot.Bouncer(force=0.5)   # rho = 1
    for n in (1, 4, 9):
        st = eig.solve(spec, n)
        assert st.table_at(0.0).right[1] == pytest.approx(1.0, rel=1e-12)
        assert st.table_at(0.0).value == 0.0


def test_symmetric_linear_energies():
    spec = pot.SymmetricLinear(force=0.5)
    for n in (1, 2):
        e_even = float(-mpmath.airyaizero(n, derivative=1)) * 0.5
        e_odd = float(-mpmath.airyaizero(n)) * 0.5
        assert eig.solve(spec, n, parity="even").energy == pytest.approx(e_even, rel=1e-13)
        assert eig.solve(spec, n, parity="odd").energy == pytest.approx(e_odd, rel=1e-13)
    with pytest.raises(ValueError):
        eig.solve(spec, 1)


def test_symmetric_linear_center_value():
    st = eig.solve(pot.SymmetricLinear(force=0.5), 1, parity="even")
    eta1 = float(-mpmath.airyaizero(1, derivative=1))
    assert st.table_at(0.0).value == pytest.approx(1 / math.sqrt(2 * eta1), rel=1e-12)


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
    # sit exactly on those walls
    asym = pot.AsymmetricLinear(force_right=0.7, force_left=0.7)
    sym = pot.SymmetricLinear(force=0.7)
    for n in range(1, 11):
        st = eig.solve(asym, n)
        want = eig.solve(sym, (n + 1) // 2, "even" if n % 2 else "odd")
        assert st.energy == pytest.approx(want.energy, rel=1e-13)
        assert count_nodes(st) == n - 1
        side = st.table_at(0.0)
        assert side.right[1] == pytest.approx(side.left[1], rel=1e-12, abs=1e-12)


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


def test_asymmetric_linear_solve_evaluates_few_airy_arguments(monkeypatch):
    # the interlacing bracket needs the wall ladder and a brentq on two
    # arguments per energy, where an energy scan at n = 30 took 6,400 energies
    counted = []
    airy = specfun.airy

    def counting_airy(x):
        counted.append(np.size(x))
        return airy(x)

    monkeypatch.setattr(specfun, "airy", counting_airy)
    eig.solve(pot.AsymmetricLinear(force_right=0.5, force_left=2.0), 30)
    assert 0 < sum(counted) < 400


@pytest.mark.parametrize("n", [1, 2, 3])
def test_asymmetric_linear_against_shooting(n):
    spec = pot.AsymmetricLinear(force_right=0.5, force_left=2.0)
    st = eig.solve(spec, n)
    osc = eig.shooting_oracle(spec, (st.energy - 0.05, st.energy + 0.05), n)
    assert st.energy == pytest.approx(osc.energy, abs=1e-9)


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
    side = st.table_at(0.0)
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
        side = st.table_at(rec.location)
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
