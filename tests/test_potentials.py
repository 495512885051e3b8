"""Potential catalog: discontinuity ledgers, evaluation, and JSON round-trips."""

import json
import math
from itertools import accumulate

import pytest

from momtail import eigensolve as eig
from momtail import potentials as pot

ALL_SPECS = [
    pot.DeltaSum(deltas=((1.0, 0.0),)),
    pot.DeltaSum(deltas=((1.0, -1.0), (2.0, 1.5))),
    pot.InfiniteWell(length=math.pi),
    pot.FiniteWell(depth=10.0, a=-1.0, b=1.0),
    pot.StepSum(steps=((0.0, -5.0), (1.0, 2.0), (2.0, 3.0))),
    pot.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0),
    pot.Bouncer(force=0.5),
    pot.SymmetricLinear(force=0.5),
    pot.AsymmetricLinear(force_right=0.5, force_left=2.0),
]


# a ladder whose partial sums of heights are inexact, from an integer location
LADDER = pot.StepSum(steps=((0, -4.823), (1.703, 0.76), (2.681, 3.224)))


def _hand_pieces(spec):
    """(boundaries, region potentials, delta coefficients) as each constant-V
    kind wrote them out by hand before they were read off its ledger."""
    if isinstance(spec, pot.DeltaSum):
        return ([a for _, a in spec.deltas], [0.0] * (len(spec.deltas) + 1),
                [-g for g, _ in spec.deltas])
    if isinstance(spec, pot.FiniteWell):
        return [spec.a, spec.b], [0.0, -spec.depth, 0.0], [0.0, 0.0]
    if isinstance(spec, pot.StepSum):
        return ([a for a, _ in spec.steps],
                list(accumulate((h for _, h in spec.steps), initial=0.0)),
                [0.0] * len(spec.steps))
    return [0.0, spec.a], [0.0, 0.0, spec.step_height], [-spec.g, 0.0]


def _hand_linear(spec):
    """(ledger as (location, order, jump, is_wall), V) of each linear kind by hand."""
    if isinstance(spec, pot.Bouncer):
        return [(0.0, -1, None, True)], lambda x: spec.force * x if x >= 0.0 else math.inf
    if isinstance(spec, pot.SymmetricLinear):
        return [(0.0, 1, 2.0 * spec.force, False)], lambda x: spec.force * abs(x)
    return ([(0.0, 1, spec.force_right + spec.force_left, False)],
            lambda x: spec.force_right * x if x >= 0.0 else spec.force_left * -x)


@pytest.mark.parametrize("spec", ALL_SPECS + [LADDER], ids=lambda s: s.kind)
def test_family_descriptions_against_kind_formulas(spec):
    # each family derives from one description what the kinds once wrote out
    # by hand; the hand formulas stay here as the reference, compared with ==
    if isinstance(spec, pot.Piecewise):
        xs, vs, cusps = _hand_pieces(spec)
        assert spec.pieces() == (xs, vs, cusps)
        inside = ([xs[0] - 1.0] + [0.5 * (a + b) for a, b in zip(xs, xs[1:])]
                  + [xs[-1] + 1.0])
        assert [spec.potential(x) for x in inside] == vs
        assert [spec.potential(a) for a in xs] == vs[:-1]     # the left region's value
    elif isinstance(spec, pot.Linear):
        ledger, V = _hand_linear(spec)
        assert [(r.location, r.order, None if r.is_wall else r.jump, r.is_wall)
                for r in spec.ledger()] == ledger
        assert all(math.isnan(r.jump) for r in spec.ledger() if r.is_wall)
        for x in (-3.7, -1.0, -1e-300, -0.0, 0.0, 1e-300, 0.25, 2.0, 41.5):
            assert spec.potential(x) == V(x)
    else:
        assert isinstance(spec, pot.InfiniteWell)
        assert [(r.location, r.is_wall) for r in spec.ledger()] == [
            (0.0, True), (spec.length, True)]
        assert [spec.potential(x) for x in (-0.1, 0.0, 1.0, spec.length, 4.0)] == [
            math.inf, 0.0, 0.0, 0.0, math.inf]


def test_every_kind_is_tested_and_solved_by_one_family():
    # a new kind cannot skip the ledger and round-trip tests or the solver dispatch
    assert set(pot._KINDS) == {s.kind for s in ALL_SPECS}
    for cls in pot.PotentialSpec.__args__:
        assert sum(issubclass(cls, family) for family in eig._SOLVERS) == 1, cls


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_ledger_sorted_and_idempotent(spec):
    recs = pot.discontinuities(spec)
    assert recs == pot.discontinuities(spec)
    locs = [r.location for r in recs]
    assert locs == sorted(locs)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_json_round_trip(spec):
    text = pot.to_json(spec)
    again = pot.from_json(text)
    assert again == spec
    assert pot.to_json(again) == text


def test_delta_ledger():
    spec = pot.DeltaSum(deltas=((2.0, -1.0), (1.0, 1.5)))
    recs = pot.discontinuities(spec)
    assert [(r.location, r.order, r.jump) for r in recs] == [
        (-1.0, -1, -2.0), (1.5, -1, -1.0)]


def test_wall_records_marked():
    for spec in (pot.InfiniteWell(length=2.0), pot.Bouncer(force=1.0)):
        walls = [r for r in pot.discontinuities(spec) if r.is_wall]
        assert walls and all(r.order == -1 for r in walls)


def test_finite_well_step_jumps():
    spec = pot.FiniteWell(depth=7.0, a=0.0, b=2.0)
    recs = pot.discontinuities(spec)
    assert [(r.order, r.jump) for r in recs] == [(0, -7.0), (0, 7.0)]


def test_kink_jump_is_twice_force():
    spec = pot.SymmetricLinear(force=0.75)
    (rec,) = pot.discontinuities(spec)
    assert rec.order == 1 and rec.jump == pytest.approx(1.5)
    asym = pot.AsymmetricLinear(force_right=0.5, force_left=2.0)
    (rec,) = pot.discontinuities(asym)
    assert rec.jump == pytest.approx(2.5)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_step_records_match_pointwise_evaluation(spec):
    # every order-0 record's jump equals V(a+) - V(a-) from evaluate()
    eps = 1e-9
    for rec in pot.discontinuities(spec):
        if rec.order == 0:
            jump = (pot.evaluate(spec, rec.location + eps)
                    - pot.evaluate(spec, rec.location - eps))
            assert jump == pytest.approx(rec.jump, rel=1e-6)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_kink_records_match_derivative_jump(spec):
    # order-1 records: V'(a+) - V'(a-) by central differences on each side
    h = 1e-6
    for rec in pot.discontinuities(spec):
        if rec.order == 1:
            a = rec.location
            right = (pot.evaluate(spec, a + 2 * h) - pot.evaluate(spec, a + h)) / h
            left = (pot.evaluate(spec, a - h) - pot.evaluate(spec, a - 2 * h)) / h
            assert right - left == pytest.approx(rec.jump, rel=1e-6)


def test_wall_evaluation():
    well = pot.InfiniteWell(length=1.0)
    assert pot.evaluate(well, -0.1) == math.inf
    assert pot.evaluate(well, 0.5) == 0.0
    b = pot.Bouncer(force=2.0)
    assert pot.evaluate(b, -1e-9) == math.inf
    assert pot.evaluate(b, 3.0) == 6.0


def test_bouncer_length_scale():
    b = pot.Bouncer(force=0.5)      # hbar = m = 1
    assert b.rho == pytest.approx(1.0)
    assert b.force * b.rho == pytest.approx(0.5)
    b2 = pot.Bouncer(force=2.0)
    assert b2.rho == pytest.approx(0.25 ** (1 / 3))


def test_validation_errors():
    with pytest.raises(ValueError):
        pot.DeltaSum(deltas=())
    with pytest.raises(ValueError):
        pot.DeltaSum(deltas=((-1.0, 0.0),))
    with pytest.raises(ValueError):
        pot.DeltaSum(deltas=((1.0, 1.0), (1.0, 0.0)))
    with pytest.raises(ValueError):
        pot.InfiniteWell(length=0.0)
    with pytest.raises(ValueError):
        pot.FiniteWell(depth=1.0, a=1.0, b=0.0)
    with pytest.raises(ValueError):
        pot.StepSum(steps=((0.0, 0.0),))
    with pytest.raises(ValueError):
        pot.Bouncer(force=-1.0)
    with pytest.raises(ValueError):
        pot.HybridDeltaStep(g=1.0, step_height=1.0, a=-1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        pot.StepSum(steps=((1.0, -1.0), (1.0, 2.0)))
    # natural() read the first record of an empty ledger
    with pytest.raises(ValueError, match="need at least one step"):
        pot.StepSum(steps=())


@pytest.mark.parametrize("forces", [(1e-200, 1e200), (1e200, 1e-200), (1.0, 5e-324)],
                         ids=["overflows", "underflows", "subnormal"])
def test_force_ratio_that_is_no_normal_float_is_refused(forces):
    # an overflowing Fbar/F is inf, which read as WALL: the spec solved as a bouncer
    with pytest.raises(ArithmeticError, match="force ratio"):
        pot.AsymmetricLinear(*forces).force_ratio


@pytest.mark.parametrize("kind,params", [
    ("bouncer", {"force": 1.0, "mass": 0.0}),
    ("bouncer", {"force": 1.0, "hbar": 0.0}),
    ("infinite_well", {"length": 1.0, "hbar": -1.0}),
    ("bouncer", {"force": 1.0, "mass": math.nan}),
    ("delta_sum", {"deltas": ((1.0, 0.0),), "hbar": math.inf}),
    ("bouncer", {"force": math.inf}),
    ("symmetric_linear", {"force": math.nan}),
    ("asymmetric_linear", {"force_right": 1.0, "force_left": math.inf}),
    ("finite_well", {"depth": 1.0, "a": -math.inf, "b": 1.0}),
    ("finite_well", {"depth": math.inf, "a": -1.0, "b": 1.0}),
    ("infinite_well", {"length": math.inf}),
    ("delta_sum", {"deltas": ((1.0, 0.0), (math.inf, 1.0))}),
    ("step_sum", {"steps": ((0.0, -1.0), (math.nan, 1.0))}),
    ("hybrid_delta_step", {"g": 1.0, "step_height": -math.inf, "a": 1.0}),
    ("finite_well", {"depth": 0.0, "a": -1.0, "b": 1.0}),
    ("hybrid_delta_step", {"g": -1.0, "step_height": 1.0, "a": 1.0}),
    ("asymmetric_linear", {"force_right": 1.0, "force_left": 0.0}),
], ids=["mass_0", "hbar_0", "hbar_-1", "mass_nan", "hbar_inf", "force_inf", "force_nan",
        "force_left_inf", "a_-inf", "depth_inf", "length_inf", "g_inf", "step_at_nan",
        "step_height_-inf", "depth_0", "g_-1", "force_left_0"])
def test_non_finite_or_non_positive_units_and_parameters_refused(kind, params):
    with pytest.raises(ValueError):
        pot._KINDS[kind](**params)


def test_from_dict_rejects_unknown():
    with pytest.raises(ValueError):
        pot.from_dict({"kind": "nonsense"})
    with pytest.raises(ValueError):
        pot.from_dict({"kind": "bouncer", "force": 1.0, "zzz": 2})
    with pytest.raises(ValueError):
        pot.from_dict({"kind": "bouncer"})


@pytest.mark.parametrize("d,field", [
    ({"kind": "delta_sum", "deltas": [[1.0, 0.0]], "mass": "2"}, "mass"),
    ({"kind": "delta_sum", "deltas": [[1.0, 0.0]], "hbar": None}, "hbar"),
    ({"kind": "delta_sum", "deltas": [["1", 0.0]]}, "deltas"),
    ({"kind": "delta_sum", "deltas": [[True, 0.0]]}, "deltas"),
    ({"kind": "step_sum", "steps": [[0.0, None]]}, "steps"),
    ({"kind": "bouncer", "force": True}, "force"),
    ({"kind": "bouncer", "force": "0.5"}, "force"),
    ({"kind": "bouncer", "force": None}, "force"),
    ({"kind": "finite_well", "depth": 1.0, "a": False, "b": 1.0}, "a"),
    ({"kind": "delta_sum", "deltas": [[1, 0, 5]]}, "deltas"),
    ({"kind": "delta_sum", "deltas": 5}, "deltas"),
    ({"kind": "step_sum", "steps": [0.0, 1.0]}, "steps"),
    ({"kind": "bouncer", "force": [1, 2]}, "force"),
], ids=["string_mass", "null_hbar", "string_strength", "bool_strength", "null_height",
        "bool_force", "string_force", "null_force", "bool_a", "delta_triple",
        "number_deltas", "flat_steps", "pair_force"])
def test_from_dict_refuses_a_non_number_by_its_field(d, field):
    with pytest.raises(ValueError, match=f"^{field} |of {field} "):
        pot.from_dict(d)


def test_from_dict_keeps_json_integers():
    spec = pot.from_dict({"kind": "delta_sum", "deltas": [[1, 0]], "mass": 2})
    assert spec.deltas == ((1.0, 0.0),) and spec.mass == 2.0


def test_units_survive_round_trip():
    spec = pot.Bouncer(force=1.0, mass=2.0, hbar=0.5)
    again = pot.from_json(pot.to_json(spec))
    assert again.mass == 2.0 and again.hbar == 0.5


def test_image_floor():
    # a ladder reads its floor off the image's regions, which stay floats where
    # the sum of its steps in the user's units overflows; every other kind
    # scales its v_floor, and a hybrid's and a delta sum's floor stays 0
    ladder = pot.StepSum(steps=((0, -1e308), (1, -1e308), (2, 1e308), (3, 1.5e308)),
                         mass=5e-109, hbar=1e100)
    assert ladder.v_floor == -math.inf
    assert ladder.image_floor == min(ladder.image_pieces[1]) == pytest.approx(-2.6666666666666665)
    well = pot.FiniteWell(depth=10.0, a=-1.0, b=1.0, mass=2.0)
    assert well.image_floor == well.units.scale(-10.0, 0)
    for spec in (pot.HybridDeltaStep(g=1.0, step_height=-0.5, a=1.0),
                 pot.DeltaSum(deltas=((1.0, 0.0),)), pot.Bouncer(force=0.5)):
        assert spec.image_floor == 0.0
