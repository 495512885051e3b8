"""Mass and hbar travel with the bound state, and every reader takes them from it."""

import numpy as np
import pytest

from momtail import asymptotics as asy
from momtail import eigensolve as eig
from momtail import momentum as mom
from momtail import potentials as pot

UNITS = dict(mass=2.0, hbar=2.0)

STATES = [
    (pot.DeltaSum(deltas=((1.0, 0.0),), **UNITS), 1, None),
    (pot.DeltaSum(deltas=((1.0, -1.0), (2.0, 1.5)), **UNITS), 2, None),
    (pot.InfiniteWell(length=np.pi, **UNITS), 2, None),
    (pot.FiniteWell(depth=10.0, a=-1.0, b=1.0, **UNITS), 2, None),
    (pot.StepSum(steps=((0.0, -5.0), (1.0, 2.0), (2.0, 3.0)), **UNITS), 1, None),
    (pot.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0, **UNITS), 1, None),
    (pot.Bouncer(force=0.5, **UNITS), 3, None),
    (pot.SymmetricLinear(force=0.5, **UNITS), 2, "even"),
    (pot.SymmetricLinear(force=0.5, **UNITS), 2, "odd"),
    (pot.AsymmetricLinear(force_right=0.5, force_left=2.0, **UNITS), 3, None),
]
IDS = ["delta", "delta_chain", "well", "finite_well", "step_ladder", "hybrid",
       "bouncer", "symlin_even", "symlin_odd", "asymlin"]


@pytest.mark.parametrize("spec,n,parity", STATES, ids=IDS)
def test_readers_take_the_state_units(spec, n, parity):
    st = eig.solve(spec, n, parity)
    assert (st.mass, st.hbar) == (spec.mass, spec.hbar)

    recs = pot.discontinuities(spec)
    implicit = asy.predict_tail(st, recs)
    explicit = asy.predict_tail(st, recs, mass=spec.mass, hbar=spec.hbar)
    assert implicit.terms == explicit.terms
    assert implicit.leading_exponent == explicit.leading_exponent
    assert implicit.units == st.units and st.units.hbar == spec.hbar

    grid = np.linspace(-60.0, 60.0, 2401)
    samples = mom.phi_quadrature(st, grid)
    assert np.array_equal(samples.phi, mom.phi_quadrature(st, grid, spec.hbar).phi)
    # the box's p^-2 tail holds 2.0e-5 of the norm beyond |p| = 60
    assert mom.parseval_norm(samples) >= 0.99997

    with pytest.raises(ValueError):
        mom.phi_quadrature(st, grid, 1.0)
    with pytest.raises(ValueError):
        mom.FilonPanels(st).transform(grid, 1.0)
    with pytest.raises(ValueError):
        asy.predict_tail(st, recs, hbar=1.0)
    with pytest.raises(ValueError):
        asy.predict_tail(st, recs, mass=1.0)


def test_closed_well_refuses_other_units():
    spec = pot.InfiniteWell(length=np.pi, **UNITS)
    p = np.linspace(-5.0, 5.0, 11)
    same = mom.phi_closed_well(spec, 2, p, spec.mass, spec.hbar).phi
    assert np.array_equal(same, mom.phi_closed_well(spec, 2, p).phi)
    with pytest.raises(ValueError):
        mom.phi_closed_well(spec, 2, p, hbar=1.0)


def test_shooting_oracle_state_carries_units():
    spec = pot.Bouncer(force=0.5, **UNITS)
    energy = eig.solve(spec, 1).energy
    shot = eig.shooting_oracle(spec, (0.99 * energy, 1.01 * energy), 1)
    assert (shot.mass, shot.hbar) == (spec.mass, spec.hbar)
    assert shot.energy == pytest.approx(energy, rel=1e-9)
