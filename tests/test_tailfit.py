"""Power-law fitting on synthetic and physical tails."""

import math

import numpy as np
import pytest

from momtail import asymptotics as asy
from momtail import eigensolve as eig
from momtail import momentum as mom
from momtail import potentials as pot
from momtail import tailfit
from momtail.errors import NonPowerLaw


def synthetic(c, m, grid):
    phi = c * grid.astype(complex) ** (-m)
    return mom.MomentumSamples(grid=grid, phi=phi)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
def test_recovers_synthetic_power_law(m, c):
    grid = np.geomspace(5.0, 500.0, 200)
    fit = tailfit.fit_power_law(synthetic(c, m, grid), component="abs")
    assert fit.exponent == pytest.approx(-m, abs=1e-6)
    assert fit.coefficient == pytest.approx(c, rel=1e-6)
    assert fit.conclusive


def test_subsampling_invariance():
    grid = np.geomspace(5.0, 500.0, 200)
    s_full = synthetic(2.0, 3, grid)
    s_half = synthetic(2.0, 3, grid[::2])
    f1 = tailfit.fit_power_law(s_full)
    f2 = tailfit.fit_power_law(s_half)
    assert f2.exponent == pytest.approx(f1.exponent, abs=1e-9)
    assert f2.coefficient == pytest.approx(f1.coefficient, rel=1e-9)


def test_delta_tail_fit():
    spec = pot.DeltaSum(deltas=((1.0, 0.0),))
    st = eig.solve(spec)
    grid = np.geomspace(25.0, 250.0, 120)
    s = mom.phi_closed_delta(spec, st, grid)
    fit = tailfit.fit_power_law(s, component="abs", window=(25.0, 250.0))
    assert fit.exponent == pytest.approx(-2.0, abs=0.01)
    assert fit.coefficient == pytest.approx(math.sqrt(2 / math.pi), rel=0.01)


def test_oscillatory_tail_refused():
    well = pot.InfiniteWell(length=math.pi)
    grid = np.geomspace(10.0, 300.0, 400)
    s = mom.phi_closed_well(well, 1, grid)
    with pytest.raises(NonPowerLaw):
        tailfit.fit_power_law(s, component="abs")


def test_too_few_samples_rejected():
    grid = np.geomspace(5.0, 500.0, 200)
    s = synthetic(1.0, 2, grid)
    with pytest.raises(ValueError):
        tailfit.fit_power_law(s, window=(5.0, 5.5))


@pytest.mark.parametrize("component,window,match", [
    ("phase", None, "component must be"),
    ("im", None, "strictly positive"),       # phi is real here: its im part is 0
    ("abs", (1e4, 1e5), "no samples"),
], ids=["unknown_component", "zero_values", "empty_window"])
def test_fit_and_compare_refusals(component, window, match):
    grid = np.geomspace(5.0, 500.0, 200)
    s = synthetic(1.0, 2, grid)
    spec = pot.DeltaSum(deltas=((1.0, 0.0),))
    with pytest.raises(ValueError, match=match):
        if window is None:
            tailfit.fit_power_law(s, component=component)
        else:
            tailfit.compare(asy.predict_tail(eig.solve(spec), pot.discontinuities(spec)), s,
                            window=window)


def test_compare_delta_agreement():
    spec = pot.DeltaSum(deltas=((1.0, 0.0),))
    st = eig.solve(spec)
    pred = asy.predict_tail(st, pot.discontinuities(spec))
    grid = np.geomspace(20.0, 200.0, 150)
    s = mom.phi_closed_delta(spec, st, grid)
    cmpr = tailfit.compare(pred, s, window=(40.0, 200.0))
    assert cmpr.predicted_exponent == 2
    assert cmpr.max_rel_deviation < 0.005
    assert cmpr.fit is not None and cmpr.fit.conclusive
    assert abs(cmpr.exponent_deviation) < 0.01


def test_compare_handles_interference_zeros():
    # multi-location envelope: zeros of the prediction must not blow up the score
    well = pot.InfiniteWell(length=math.pi)
    st = eig.solve(well, 1)
    pred = asy.predict_tail(st, pot.discontinuities(well))
    grid = np.geomspace(30.0, 300.0, 600)
    s = mom.phi_closed_well(well, 1, grid)
    cmpr = tailfit.compare(pred, s, window=(30.0, 300.0))
    assert math.isfinite(cmpr.max_rel_deviation)
    assert cmpr.max_rel_deviation < 0.05
    assert cmpr.exponent_deviation is None   # oscillatory: no conclusive fit


def test_compare_keeps_an_inconclusive_fit():
    # a wobble of 8% about the delta's tail: 0.99 <= r^2 < 0.999, so the fit
    # is kept but marked inconclusive, and no exponent deviation is scored
    spec = pot.DeltaSum(deltas=((1.0, 0.0),))
    pred = asy.predict_tail(eig.solve(spec), pot.discontinuities(spec))
    grid = np.geomspace(40.0, 200.0, 150)
    phi = math.sqrt(2 / math.pi) / grid ** 2 * (1.0 + 0.08 * np.sin(12.0 * np.log(grid)))
    s = mom.MomentumSamples(grid=grid, phi=phi.astype(complex))
    cmpr = tailfit.compare(pred, s)
    assert cmpr.fit is not None
    assert 0.99 <= cmpr.fit.r_squared < tailfit.CONCLUSIVE_R2
    assert cmpr.to_dict()["fit"]["conclusive"] is False
    assert cmpr.exponent_deviation is None


def test_fit_result_serialization():
    grid = np.geomspace(5.0, 500.0, 100)
    fit = tailfit.fit_power_law(synthetic(1.0, 2, grid))
    d = fit.to_dict()
    assert d["conclusive"] is True
    assert d["n_points"] == 100
