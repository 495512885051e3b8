"""Acceptance gate: one test per headline claim, each printing a pass/fail line.

Every test prints "ACCEPTANCE <k>: PASS|FAIL -- <detail>" before asserting, so a
plain run of this file reads as a scorecard. Tolerances are the stated gate
values, not what the implementation happens to achieve.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from momtail import asymptotics as asy
from momtail import eigensolve as eig
from momtail import momentum as mom
from momtail import potentials as pot
from momtail import specfun, tailfit
from momtail.errors import DivergentMoment, NoSuchState


def report(k, ok, detail):
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} -- {detail}", flush=True)
    assert ok, detail


def norm_integral(state):
    f = lambda x: float(state.psi(np.array([x]))[0]) ** 2
    total = 0.0
    pts = [state.support[0], *state.breaks, state.support[1]]
    for a, b in zip(pts[:-1], pts[1:]):
        val, _ = quad(f, a, b, limit=200)
        total += val
    return total


def test_criterion_1_delta():
    t0 = time.perf_counter()
    spec = pot.DeltaSum(deltas=((1.0, 0.0),))
    st = eig.solve(spec)
    fn = lambda p: mom.phi_closed_delta(spec, st, p).phi
    pred = asy.predict_tail(st, pot.discontinuities(spec))

    energy_ok = st.energy == -0.5
    p2 = mom.moment(fn, 2, pred)
    p2_ok = abs(p2 - 1.0) < 1e-6
    tail = 100.0 ** 2 * abs(mom.phi_quadrature(st, np.array([100.0])).phi[0])
    tail_dev = abs(tail / math.sqrt(2 / math.pi) - 1.0)
    tail_ok = tail_dev < 1e-3
    try:
        mom.moment(fn, 4, pred)
        divergent_ok = False
    except DivergentMoment:
        divergent_ok = True
    dt = time.perf_counter() - t0
    ok = energy_ok and p2_ok and tail_ok and divergent_ok and dt < 1.0
    report(1, ok, f"E={st.energy}, <p^2>={p2:.9f}, p^2|phi(100)| dev {tail_dev:.2e}, "
                  f"<p^4> divergent={divergent_ok}, {dt:.2f}s")


def test_criterion_2_infinite_well():
    t0 = time.perf_counter()
    well = pot.InfiniteWell(length=math.pi)
    grid = np.linspace(-50.0, 50.0, 1001)
    moment_devs, pointwise = [], []
    for n in range(1, 6):
        st = eig.solve(well, n)
        pred = asy.predict_tail(st, pot.discontinuities(well))
        fn = lambda p: mom.phi_closed_well(well, n, p).phi
        p2 = mom.moment(fn, 2, pred, p_scale=float(n))
        moment_devs.append(abs(p2 - n * n))
        q = mom.phi_quadrature(st, grid)
        c = mom.phi_closed_well(well, n, grid)
        pointwise.append(float(np.max(np.abs(q.phi - c.phi))))
    dt = time.perf_counter() - t0
    ok = max(moment_devs) < 1e-6 and max(pointwise) < 1e-8 and dt < 5.0
    report(2, ok, f"max |<p^2> - n^2| = {max(moment_devs):.2e}, "
                  f"max pointwise quadrature error = {max(pointwise):.2e}, {dt:.2f}s")


def test_criterion_3_bouncer_tails():
    t0 = time.perf_counter()
    spec = pot.Bouncer(force=0.5)    # rho = hbar = 1 units
    rows = []
    ok = True
    for n in (1, 5, 10):
        st = eig.solve(spec, n)
        qn = math.sqrt(2.0 * st.energy)
        window = (10.0 * qn, 1000.0)
        grid = np.geomspace(*window, 140)
        s = mom.phi_quadrature(st, grid)
        fre = tailfit.fit_power_law(s, component="re", window=window)
        fim = tailfit.fit_power_law(s, component="im", window=window)
        re_ok = abs(fre.exponent + 2.0) <= 0.05
        coef_ok = abs(fre.coefficient / 0.3989 - 1.0) <= 0.02
        im_ok = abs(fim.exponent + 5.0) <= 0.1
        ok = ok and re_ok and coef_ok and im_ok
        rows.append(f"n={n}: re exp {fre.exponent:.4f} coef {fre.coefficient:.5f}, "
                    f"im exp {fim.exponent:.3f}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    report(3, ok, "; ".join(rows) + f", {dt:.1f}s")


def test_criterion_4_symmetric_linear_envelopes():
    t0 = time.perf_counter()
    spec = pot.SymmetricLinear(force=0.5)    # rho = hbar = 1 units
    eta11 = specfun.airy_prime_zero(11)
    even_target = (1.0 / math.sqrt(2.0 * math.pi)) * 2.0 / math.sqrt(2.0 * eta11)
    odd_target = 2.0 / math.sqrt(math.pi)
    devs = {}
    for parity, power, target in (("even", 4, even_target), ("odd", 5, odd_target)):
        st = eig.solve(spec, 11, parity=parity)
        qn = math.sqrt(2.0 * st.energy)
        grid = np.geomspace(3.0 * qn, 300.0, 300)
        s = mom.phi_quadrature(st, grid)
        scaled = grid ** power * np.sqrt(s.abs_phi2)
        devs[parity] = float(np.max(np.abs(scaled / target - 1.0)))
    dt = time.perf_counter() - t0
    ok = devs["even"] <= 0.05 and devs["odd"] <= 0.05 and dt < 60.0
    report(4, ok, f"max deviation from asymptote over [3Q_11, 300]: "
                  f"even {devs['even']:.1%}, odd {devs['odd']:.1%} (gate 5%), {dt:.1f}s")


CATALOG = [
    (pot.DeltaSum(deltas=((1.0, 0.0),)), [None]),
    (pot.DeltaSum(deltas=((1.0, -1.0), (2.0, 1.5))), [None]),
    (pot.InfiniteWell(length=math.pi), [None]),
    (pot.FiniteWell(depth=10.0, a=-1.0, b=1.0), [None]),
    (pot.StepSum(steps=((0.0, -5.0), (1.0, 2.0), (2.0, 3.0))), [None]),
    (pot.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0), [None]),
    (pot.Bouncer(force=0.5), [None]),
    (pot.SymmetricLinear(force=0.5), ["even", "odd"]),
    (pot.AsymmetricLinear(force_right=0.5, force_left=2.0), [None]),
]


def test_criterion_5_jump_condition_suite():
    t0 = time.perf_counter()
    checked = 0
    for spec, parities in CATALOG:
        for parity in parities:
            for n in range(1, 6):
                try:
                    st = eig.solve(spec, n, parity)
                except NoSuchState:
                    break
                # raises InconsistentJumps if the routes disagree beyond 1e-8
                asy.predict_tail(st, pot.discontinuities(spec))
                checked += 1
    # explicit cusp conditions on the hybrid delta + step system
    hyb = pot.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0)
    st = eig.solve(hyb)
    recs = {r.order: r for r in pot.discontinuities(hyb)}
    d = st.derivative_table[recs[-1].location]
    delta_dev = abs((d.right[1] - d.left[1]) - 2.0 * recs[-1].jump * d.value)
    s = st.derivative_table[recs[0].location]
    step_dev = abs((s.right[2] - s.left[2]) - 2.0 * recs[0].jump * s.value)
    dt = time.perf_counter() - t0
    ok = checked >= 25 and delta_dev < 1e-8 and step_dev < 1e-8
    report(5, ok, f"{checked} states cross-checked at 1e-8; hybrid cusp residuals: "
                  f"delta {delta_dev:.1e}, step {step_dev:.1e}, {dt:.1f}s")


def test_criterion_6_property_suite():
    t0 = time.perf_counter()
    grid = np.linspace(-50.0, 50.0, 801)
    norm_err = parseval_err = sym_err = 0.0
    for spec, parities in CATALOG[:7] + [CATALOG[8]]:
        st = eig.solve(spec, 1, parities[0])
        norm_err = max(norm_err, abs(norm_integral(st) - 1.0))
        s = mom.phi_quadrature(st, grid)
        parseval_err = max(parseval_err, abs(mom.parseval_norm(s) - 1.0))
        sym_err = max(sym_err, float(np.max(np.abs(
            np.sqrt(s.abs_phi2) - np.sqrt(s.abs_phi2[::-1])))))
    # odd moments vanish identically
    dspec = pot.DeltaSum(deltas=((1.0, 0.0),))
    dst = eig.solve(dspec)
    dpred = asy.predict_tail(dst, pot.discontinuities(dspec))
    dfn = lambda p: mom.phi_closed_delta(dspec, dst, p).phi
    odd_ok = mom.moment(dfn, 1, dpred) == 0.0 and mom.moment(dfn, 3, dpred) == 0.0
    # independent shooting oracle agreement
    shoot_err = 0.0
    for n in range(1, 6):
        b = pot.Bouncer(force=0.5)
        st = eig.solve(b, n)
        osc = eig.shooting_oracle(b, (st.energy - 0.05, st.energy + 0.05), n)
        shoot_err = max(shoot_err, abs(osc.energy / st.energy - 1.0))
        sl = pot.SymmetricLinear(force=0.5)
        for parity in ("even", "odd"):
            st = eig.solve(sl, n, parity)
            osc = eig.shooting_oracle(sl, (st.energy - 0.04, st.energy + 0.04),
                                      n, parity)
            shoot_err = max(shoot_err, abs(osc.energy / st.energy - 1.0))
    # deep finite well approaches the hard-wall box
    deep = eig.solve(pot.FiniteWell(depth=1e4, a=-2.0, b=2.0), 1)
    box = math.pi ** 2 / 32.0
    deep_dev = abs((deep.energy + 1e4) / box - 1.0)
    dt = time.perf_counter() - t0
    ok = (norm_err < 1e-8 and parseval_err < 1e-4 and sym_err < 1e-10
          and odd_ok and shoot_err < 1e-8 and deep_dev < 0.01)
    report(6, ok, f"norm {norm_err:.1e}, parseval {parseval_err:.1e}, "
                  f"symmetry {sym_err:.1e}, odd moments zero={odd_ok}, "
                  f"shooting {shoot_err:.1e}, deep-well dev {deep_dev:.1%}, {dt:.1f}s")


def test_criterion_7_residual_order():
    t0 = time.perf_counter()
    spec = pot.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0)
    st = eig.solve(spec)
    pred = asy.predict_tail(st, pot.discontinuities(spec))
    p = np.geomspace(100.0, 1000.0, 80)
    phi = mom.phi_quadrature(st, p).phi
    resid = np.abs(phi - pred.series(p, max_order=3))
    slope = float(np.polyfit(np.log(p), np.log(resid), 1)[0])
    dt = time.perf_counter() - t0
    ok = slope <= -4.0 + 0.2
    report(7, ok, f"residual exponent {slope:.3f} (gate <= -3.8), {dt:.1f}s")
