"""Tail expansion terms, two-route jump checks, and exponent rules."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from momtail import asymptotics as asy
from momtail import eigensolve as eig
from momtail import momentum as mom
from momtail import potentials as pot
from momtail.errors import InconsistentJumps, UnsupportedCase


def test_order_one_terms_always_vanish():
    for spec, kw in [
        (pot.DeltaSum(deltas=((1.0, 0.0),)), {}),
        (pot.FiniteWell(depth=10.0, a=-1.0, b=1.0), dict(n=1)),
        (pot.SymmetricLinear(force=0.5), dict(n=1, parity="even")),
    ]:
        st = eig.solve(spec, kw.get("n", 1), kw.get("parity"))
        terms = asy.expansion_terms(st, pot.discontinuities(spec))
        assert all(t.jump == 0.0 for t in terms if t.order == 1)


def test_series_below_every_term_and_a_ledger_without_jumps():
    # order 1 is the lowest order, and its terms vanish: a series cut there
    # is 0; no record gives no term, and so no leading exponent
    spec = pot.DeltaSum(deltas=((1.0, 0.0),))
    st = eig.solve(spec)
    p = np.array([10.0, 100.0])
    series = asy.predict_tail(st, pot.discontinuities(spec)).series(p, max_order=1)
    assert series.shape == p.shape and not np.any(series)
    with pytest.raises(UnsupportedCase, match="no nonvanishing jump"):
        asy.predict_tail(st, [])


def test_delta_order_two_term():
    spec = pot.DeltaSum(deltas=((1.0, 0.0),))
    st = eig.solve(spec)
    pred = asy.predict_tail(st, pot.discontinuities(spec))
    (lead,) = pred.leading_terms()
    assert lead.order == 2 and lead.jump == pytest.approx(-2.0, rel=1e-14)
    # envelope constant: p^2 |phi| -> sqrt(2/pi)
    p = np.array([500.0])
    assert p[0] ** 2 * pred.leading_envelope(p)[0] == pytest.approx(
        math.sqrt(2 / math.pi), rel=1e-14)


def test_prediction_uses_hbar():
    # T_2 ~ hbar^2 / sqrt(2 pi hbar): with hbar = 10 the leading coefficient
    # is 10^1.5 times the one built with hbar = 1
    spec = pot.DeltaSum(deltas=((1.0, 0.0),), hbar=10.0)
    st = eig.solve(spec)
    pred = asy.predict_tail(st, pot.discontinuities(spec), mass=spec.mass,
                            hbar=spec.hbar)
    p = np.array([1e3])
    exact = abs(mom.phi_closed_delta(spec, st, p).phi[0])
    assert pred.leading_envelope(p)[0] == pytest.approx(exact, rel=1e-3)
    assert pred.units.hbar == 10.0


def test_well_interference_structure():
    well = pot.InfiniteWell(length=math.pi)
    st = eig.solve(well, 2)
    pred = asy.predict_tail(st, pot.discontinuities(well))
    leads = pred.leading_terms()
    assert {t.location for t in leads} == {0.0, math.pi}
    assert all(t.order == 2 for t in leads)
    # phase-summed envelope matches the closed form at large p
    p = np.geomspace(100.0, 400.0, 50)
    closed = np.abs(mom.phi_closed_well(well, 2, p).phi)
    assert np.max(np.abs(pred.leading_envelope(p) - closed)
                  / np.max(closed)) < 5e-4


EXPONENT_CASES = [
    ("delta", pot.DeltaSum(deltas=((1.0, 0.0),)), {}, 2),
    ("delta_pair_gap_1e-10", pot.DeltaSum(deltas=((1.0, 0.0), (2.0, 1e-10))), {}, 2),
    ("well", pot.InfiniteWell(length=math.pi), dict(n=1), 2),
    ("finite_well", pot.FiniteWell(depth=10.0, a=-1.0, b=1.0), dict(n=1), 3),
    ("step_ladder", pot.StepSum(steps=((0.0, -5.0), (1.0, 2.0), (2.0, 3.0))),
     dict(n=1), 3),
    ("hybrid", pot.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0), {}, 2),
    ("bouncer", pot.Bouncer(force=0.5), dict(n=2), 2),
    ("symlin_even", pot.SymmetricLinear(force=0.5), dict(n=1, parity="even"), 4),
    ("symlin_odd", pot.SymmetricLinear(force=0.5), dict(n=1, parity="odd"), 5),
    ("asymlin", pot.AsymmetricLinear(force_right=0.5, force_left=2.0), dict(n=1), 4),
]


@pytest.mark.parametrize("name,spec,kw,expected", EXPONENT_CASES,
                         ids=[c[0] for c in EXPONENT_CASES])
def test_exponent_rule(name, spec, kw, expected):
    # k_min + 3, or k_min + 4 where psi vanishes at the discontinuity
    st = eig.solve(spec, kw.get("n", 1), kw.get("parity"))
    pred = asy.predict_tail(st, pot.discontinuities(spec))
    assert pred.leading_exponent == expected
    if isinstance(spec, pot.DeltaSum):
        # every delta, however close to the next, gives its own order-2 term
        assert [t.location for t in pred.leading_terms()] == [a for _, a in spec.deltas]


@pytest.mark.parametrize("name,spec,kw,expected", EXPONENT_CASES,
                         ids=[c[0] for c in EXPONENT_CASES])
def test_two_route_consistency(name, spec, kw, expected):
    # predict_tail raises InconsistentJumps when the cusp-condition route
    # disagrees with the derivative table beyond 1e-8
    assert asy._JUMP_CHECK_TOL == 1e-8
    st = eig.solve(spec, kw.get("n", 1), kw.get("parity"))
    asy.predict_tail(st, pot.discontinuities(spec))


def test_two_route_detects_corruption():
    # both routes read the state's image: its table is the one corrupted
    spec = pot.DeltaSum(deltas=((1.0, 0.0),))
    st = eig.solve(spec)
    side = st.image.derivative_table[0.0]
    st.image.derivative_table[0.0] = eig.SideDerivatives(
        side.value, left=side.left,
        right=(side.right[0], side.right[1] + 1e-3) + side.right[2:])
    with pytest.raises(InconsistentJumps):
        asy.predict_tail(st, pot.discontinuities(spec))


def test_two_route_checks_a_jump_deep_in_a_tail():
    # psi ~ 1e-33 at x = 30: the routes' residual is measured against the
    # one-sided values, so an order-2 jump made 5 times too large is caught
    spec = pot.StepSum(steps=((0.0, -5.0), (1.0, 5.0), (30.0, 1.0)))
    st = eig.solve(spec)
    records = pot.discontinuities(spec)
    asy.predict_tail(st, records)
    assert abs(st.derivative_table[30.0].right[2] - st.derivative_table[30.0].left[2]) < 1e-31
    # both routes read the image's table, at the image of x = 30
    at = st.image.breaks[st.breaks.index(30.0)]
    side = st.image.derivative_table[at]
    right = list(side.right)
    right[2] = side.left[2] + 5.0 * (side.right[2] - side.left[2])
    st.image.derivative_table[at] = eig.SideDerivatives(side.value, side.left, tuple(right))
    with pytest.raises(InconsistentJumps, match="x=30"):
        asy.predict_tail(st, records)


def test_symmetric_linear_jump_values():
    spec = pot.SymmetricLinear(force=0.5)   # rho = 1
    even = eig.solve(spec, 1, parity="even")
    rec = pot.discontinuities(spec)[0]
    psi0 = even.derivative_table[0.0].value
    order, jump = asy.jump_from_potential(rec, even)
    assert jump == pytest.approx(2.0 * psi0, rel=1e-12)
    assert order == 3
    odd = eig.solve(spec, 1, parity="odd")
    slope = odd.derivative_table[0.0].right[1]
    order, jump = asy.jump_from_potential(rec, odd)
    assert jump == pytest.approx(4.0 * slope, rel=1e-12)
    assert order == 4


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("excess", [0.0, 1e-13, 1e-11, 1e-9, 1e-8, 1e-7])
def test_asymmetric_linear_at_near_equal_forces_has_kink_tail(excess, n):
    # psi(0) != 0 at the kink of V = F z / Fbar |z| makes the third derivative
    # of psi jump, so the tail is p^-4; where psi'(0) is as small as the
    # match's residual, two one-sided slopes would leave a spurious p^-2 term
    spec = pot.AsymmetricLinear(force_right=1.0, force_left=1.0 + excess)
    st = eig.solve(spec, n)
    assert asy.predict_tail(st, pot.discontinuities(spec)).leading_exponent == 4


def test_translation_covariance():
    d = 1.7
    base = pot.DeltaSum(deltas=((1.0, 0.0),))
    moved = pot.DeltaSum(deltas=((1.0, d),))
    p = np.geomspace(5.0, 80.0, 20)
    t0 = asy.predict_tail(eig.solve(base), pot.discontinuities(base))
    t1 = asy.predict_tail(eig.solve(moved), pot.discontinuities(moved))
    shift = np.exp(-1j * p * d)
    assert np.max(np.abs(t1.series(p) - shift * t0.series(p))) < 1e-14
    assert np.max(np.abs(t1.leading_envelope(p) - t0.leading_envelope(p))) < 1e-16


def test_truncation_residual_scaling():
    # subtracting all predicted terms through order N leaves a residual
    # falling at least one power faster
    spec = pot.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0)
    st = eig.solve(spec)
    pred = asy.predict_tail(st, pot.discontinuities(spec))
    # windows chosen so the residual stays above the ~1e-15 quadrature floor
    for n_cut, bound, window in ((3, -3.8, (100.0, 1000.0)),
                                 (5, -5.8, (15.0, 80.0))):
        p = np.geomspace(*window, 60)
        phi = mom.phi_quadrature(st, p).phi
        resid = np.abs(phi - pred.series(p, max_order=n_cut))
        slope = np.polyfit(np.log(p), np.log(resid), 1)[0]
        assert slope <= bound


# (spec, n, parity): whose p^-(k+1) coefficient overflows though the table
# holds psi^(k), k the order of the jump condition; the orders kept, and the
# leading exponent or None where predict_tail refuses
FLOAT_ORDER_CASES = {
    # psi(0) ~ 1e-28 is zero to the jump condition, which reads psi^(4), but
    # its psi^(3) jump is a float term, and it leads
    "lower_order_leads": (pot.AsymmetricLinear(
        force_right=2.0794036565769934e-30, force_left=1.8122453969408706e+71,
        mass=2.568380822477478e+108, hbar=2.0628848898552908e+73), 2, None, [1, 2, 3, 4], 4),
    # no lower order is nonzero: the leading order lies past the floats
    "odd_lead_past_the_floats": (pot.SymmetricLinear(
        force=3.983459241357745e+125, mass=1.1706247495649099e+87,
        hbar=1.1983387485012378e+132), 1, "odd", [1, 2, 3, 4], None),
    "even_lead_past_the_floats": (pot.SymmetricLinear(
        force=3.368774610759876e+123, hbar=8.471410866908398e+146), 2, "even", [1, 2, 3], None),
}


@pytest.mark.parametrize("name", FLOAT_ORDER_CASES)
def test_expansion_keeps_the_orders_whose_coefficients_are_floats(name):
    spec, n, parity, orders, leading = FLOAT_ORDER_CASES[name]
    st = eig.solve(spec, n, parity)
    assert len(st.derivative_table[0.0].right) == 6
    terms = asy.expansion_terms(st, pot.discontinuities(spec))
    assert [t.order for t in terms] == orders
    assert all(math.isfinite(abs(t.coefficient)) for t in terms)
    if leading is None:
        with pytest.raises(OverflowError, match=f"psi's order-{orders[-1]} derivative"):
            asy.predict_tail(st, pot.discontinuities(spec))
    else:
        assert asy.predict_tail(st, pot.discontinuities(spec)).leading_exponent == leading


def test_wall_route_unsupported():
    spec = pot.Bouncer(force=0.5)
    st = eig.solve(spec, 1)
    (rec,) = pot.discontinuities(spec)
    with pytest.raises(UnsupportedCase):
        asy.jump_from_potential(rec, st)


def test_double_zero_unsupported():
    # a synthetic table with psi(a) = psi'(a) = 0 has no expansion rule
    spec = pot.FiniteWell(depth=10.0, a=-1.0, b=1.0)
    st = eig.solve(spec, 1)
    rec = pot.discontinuities(spec)[0]
    st.image.derivative_table[st.image.breaks[0]] = eig.SideDerivatives(
        0.0, left=(0.0,) * 6, right=(0.0,) * 6)
    with pytest.raises(UnsupportedCase):
        asy.jump_from_potential(rec, st)


def test_summary_names_the_leading_exponent():
    spec = pot.DeltaSum(deltas=((1.0, 0.0),))
    pred = asy.predict_tail(eig.solve(spec), pot.discontinuities(spec))
    assert "leading exponent: 2" in asy.summary(pred)


# --- the summed series against a 30-digit sum of the same terms --------------

SUM_STATES = {
    "delta_chain": (pot.DeltaSum(deltas=((1.0, -2.0), (0.7, -1.0), (1.3, 0.0), (0.9, 1.1),
                                         (1.1, 2.0)), hbar=0.7), 2, None),
    "infinite_well": (pot.InfiniteWell(length=math.pi), 3, None),
    "finite_well": (pot.FiniteWell(depth=10.0, a=-1.0, b=1.0, mass=2.0), 2, None),
    "step_sum": (pot.StepSum(steps=((0.0, -5.0), (1.0, 2.0), (2.0, 3.0))), 1, None),
    "hybrid": (pot.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0), 1, None),
    "bouncer": (pot.Bouncer(force=0.5), 3, None),
    "symmetric_linear": (pot.SymmetricLinear(force=0.5, hbar=1.5), 2, "odd"),
    "asymmetric_linear": (pot.AsymmetricLinear(force_right=0.5, force_left=2.0), 4, None),
}
SUM_P = np.concatenate([np.geomspace(3.0, 3000.0, 9), -np.geomspace(5.0, 500.0, 4)])


def mp_sum(terms, p, units):
    """The terms' sum at one p in 30 digits, and the sum of their moduli.

    Each term is its image's coefficient e^(-i theta) p'^-n sqrt(L / hbar),
    p' = p L / hbar. theta = p' a / L is rounded to a double as the code
    rounds it, so the comparison measures the sum and not the conditioning
    of the phase in p.
    """
    with mpmath.workdps(30):
        total, size = mpmath.mpc(0), mpmath.mpf(0)
        for t in terms:
            n, q = t.order, p / units.momentum
            term = (mpmath.mpc(t.image) / mpmath.sqrt(mpmath.mpf(units.momentum))
                    * mpmath.expj(-mpmath.mpf(q * (t.location / units.length)))
                    / mpmath.mpf(q) ** n)
            total += term
            size += abs(term)
        return complex(total), float(size)


def assert_sums_match(got, terms, p, units, of=lambda z: z):
    """got = of(sum of the terms) within 8 eps of the sum of their moduli, at each p."""
    p = np.asarray(p, dtype=float)
    assert got.shape == p.shape
    for value, at in zip(np.ravel(got), p.ravel()):
        ref, size = mp_sum(terms, float(at), units)
        assert abs(value - of(ref)) <= 8 * np.finfo(float).eps * size, (at, value, ref)


@pytest.mark.parametrize("name", SUM_STATES)
def test_series_and_envelope_against_multiprecision_sum(name):
    spec, n, parity = SUM_STATES[name]
    pred = asy.predict_tail(eig.solve(spec, n, parity), pot.discontinuities(spec))
    nonzero, units = [t for t in pred.terms if t.image], pred.units
    assert_sums_match(pred.series(SUM_P), nonzero, SUM_P, units)
    top = pred.leading_exponent + 1
    assert_sums_match(pred.series(SUM_P, max_order=top),
                      [t for t in nonzero if t.order <= top], SUM_P, units)
    envelope = pred.leading_envelope(SUM_P)
    assert envelope.dtype == float
    assert_sums_match(envelope, pred.leading_terms(), SUM_P, units, of=abs)
    for p in (np.float64(-40.0), SUM_P[:12].reshape(3, 4)):
        assert_sums_match(pred.series(p), nonzero, p, units)
        assert_sums_match(pred.leading_envelope(p), pred.leading_terms(), p, units, of=abs)


def test_envelope_at_a_zero_of_two_locations():
    # box of length pi, n = 2: the walls' leading terms cancel at every even p
    well = pot.InfiniteWell(length=math.pi)
    pred = asy.predict_tail(eig.solve(well, 2), pot.discontinuities(well))
    leads = pred.leading_terms()
    assert {t.location for t in leads} == {0.0, math.pi}
    p = np.array([2.0, 40.0, 400.0, 4000.0])
    units = pred.units
    assert all(abs(mp_sum(leads, at, units)[0]) < 1e-12 * mp_sum(leads, at, units)[1]
               for at in p)
    assert_sums_match(pred.leading_envelope(p), leads, p, units, of=abs)


@pytest.mark.parametrize("hbar", [1e-60, 0.3, 1e80])
@pytest.mark.parametrize("order", range(1, 7))
def test_coefficient_against_exact_product(hbar, order):
    # jump and coefficient split the decades of hbar^(order - 1/2) between
    # them, so both are finite though hbar ** order may not be; at length 1
    # the image's jump is the user's
    jump = -0.7234 * 10.0 ** round(-0.5 * (order - 0.5) * math.log10(hbar))
    term = asy._terms(0.0, [0.0] * (order - 1) + [jump],
                      pot.Units.of(0.0, 1.0, "one", 1.0, hbar))[-1]
    assert term.jump == jump
    exact = float(Fraction(jump) * Fraction(hbar) ** order
                  / Fraction(math.sqrt(2.0 * math.pi * hbar)))
    assert abs(term.coefficient - (-1j) ** order * exact) <= 2 * math.ulp(exact)



# --- the prediction's table of image rows, and its terms formed on read ------

ROW_KINDS = {
    "delta_sum": (lambda u: pot.DeltaSum(deltas=((1.0, -1.0), (2.0, 1.5)), **u), 1, None),
    "infinite_well": (lambda u: pot.InfiniteWell(length=math.pi, **u), 3, None),
    "finite_well": (lambda u: pot.FiniteWell(depth=10.0, a=-1.0, b=1.0, **u), 1, None),
    "step_sum": (lambda u: pot.StepSum(steps=((0.0, -5.0), (1.0, 2.0), (2.0, 3.0)), **u),
                 1, None),
    "hybrid": (lambda u: pot.HybridDeltaStep(g=20.0, step_height=1.0, a=1.0, **u), 1, None),
    "bouncer": (lambda u: pot.Bouncer(force=0.5, **u), 3, None),
    "symmetric_linear_even": (lambda u: pot.SymmetricLinear(force=0.5, **u), 2, "even"),
    "symmetric_linear_odd": (lambda u: pot.SymmetricLinear(force=0.5, **u), 2, "odd"),
    "asymmetric_linear": (lambda u: pot.AsymmetricLinear(force_right=0.5, force_left=2.0, **u),
                          3, None),
}


@pytest.mark.parametrize("mass", [0.5, 2.0, 7.3])
@pytest.mark.parametrize("hbar", [0.5, 2.0, 7.3])
@pytest.mark.parametrize("kind", ROW_KINDS)
def test_terms_formed_on_read_are_the_expansion_terms(kind, mass, hbar):
    make, n, parity = ROW_KINDS[kind]
    spec = make({"mass": mass, "hbar": hbar})
    st = eig.solve(spec, n, parity)
    records = pot.discontinuities(spec)
    pred = asy.predict_tail(st, records)
    terms = asy.expansion_terms(st, records)
    assert pred.terms == terms
    # one row per location, one column per order, in the terms' order
    assert [(t.location, t.order) for t in terms] == [
        (a, order) for a in pred.locations for order in range(1, pred.depth + 1)]
    assert [t.image for t in terms] == list(pred.images.ravel())
    assert pred.leading_exponent == min(t.order for t in terms if t.image)


def test_series_builds_no_term_and_terms_are_built_once(monkeypatch):
    spec, n, parity = SUM_STATES["delta_chain"]
    st, records = eig.solve(spec, n, parity), pot.discontinuities(spec)
    calls, build = [], asy._terms
    monkeypatch.setattr(asy, "_terms", lambda *args: calls.append(args) or build(*args))
    pred = asy.predict_tail(st, records)
    pred.series(SUM_P)
    pred.leading_envelope(SUM_P)
    assert calls == []
    first = pred.terms
    assert len(calls) == len(records) == 5
    assert pred.terms is first and pred.leading_terms() and len(calls) == 5


# --- a grid that holds a momentum far below the state's scale ----------------

TINY_P_STATES = {
    "delta_chain": (pot.DeltaSum(deltas=((1.0, 0.0), (1.5, 1.3))), 1, None),
    "finite_well": (pot.FiniteWell(depth=10.0, a=-1.0, b=1.0), 1, None),
    "bouncer": (pot.Bouncer(force=0.5), 3, None),
}


def _terms_are_floats(terms, p, units) -> bool:
    """Every nonzero term's modulus |image| p'^-n sqrt(L / hbar) at p is a float."""
    q = abs(p) / units.momentum
    return all(math.log(abs(t.image)) - t.order * math.log(q) - 0.5 * math.log(units.momentum)
               < math.log(np.finfo(float).max) for t in terms if t.image)


@pytest.mark.parametrize("grid", [[1e-60, 1.0, 10.0], [1e-300, 1.0]], ids=["1e-60", "1e-300"])
@pytest.mark.parametrize("name", TINY_P_STATES)
def test_a_tiny_momentum_spoils_no_other_point(name, grid):
    # each point's sum reads only its own terms: a momentum whose terms
    # overflow leaves the other points' sums as they are without it
    spec, n, parity = TINY_P_STATES[name]
    pred = asy.predict_tail(eig.solve(spec, n, parity), pot.discontinuities(spec))
    p = np.array(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        series, envelope = pred.series(p), pred.leading_envelope(p)
    np.testing.assert_allclose(series[1:], pred.series(p[1:]), rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(envelope[1:], pred.leading_envelope(p[1:]), rtol=1e-15, atol=0.0)
    for got, terms in ((series, pred.terms), (envelope, pred.leading_terms())):
        for value, at in zip(got, p):
            if _terms_are_floats(terms, at, pred.units):
                assert np.isfinite(value), (at, value)
