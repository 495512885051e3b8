"""Momentum-space transforms: closed forms, quadrature, moments, densities."""

import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from mpmath.calculus.quadrature import GaussLegendre
from numpy.polynomial.legendre import leggauss, legvander

from momtail import asymptotics as asy
from momtail import eigensolve as eig
from momtail import momentum as mom
from momtail import potentials as pot
from momtail import specfun
from momtail.errors import DivergentMoment, QuadratureBudgetExceeded
from test_eigensolve import tight_norm
from test_units import IDS as UNIT_IDS, STATES as UNIT_STATES

mpmath.mp.dps = 30

GRID = np.linspace(-50.0, 50.0, 801)


def mp_phi(state, p, lo, hi, breaks):
    """Multiprecision Fourier transform oracle (slow; few points only)."""
    pts = [lo, *breaks, hi]
    total = mpmath.mpc(0)
    for a, b in zip(pts[:-1], pts[1:]):
        f = lambda x: float(state.psi(np.array([float(x)]))[0]) * mpmath.e ** (-1j * p * x)
        total += mpmath.quad(f, [a, b])
    return complex(total / mpmath.sqrt(2 * mpmath.pi))


# --- closed forms ----------------------------------------------------------

def test_delta_closed_form_values():
    spec = pot.DeltaSum(deltas=((1.0, 0.0),))
    st = eig.solve(spec)
    s = mom.phi_closed_delta(spec, st, np.array([0.0]))
    assert s.phi[0].real == pytest.approx(math.sqrt(2 / math.pi), rel=1e-14)
    big = mom.phi_closed_delta(spec, st, np.array([100.0]))
    assert 100.0 ** 2 * abs(big.phi[0]) == pytest.approx(
        math.sqrt(2 / math.pi), rel=1e-3)


def test_delta_translation_phase_only():
    spec0 = pot.DeltaSum(deltas=((1.0, 0.0),))
    spec1 = pot.DeltaSum(deltas=((1.0, 2.5),))
    s0 = mom.phi_closed_delta(spec0, eig.solve(spec0), GRID)
    s1 = mom.phi_closed_delta(spec1, eig.solve(spec1), GRID)
    assert np.max(np.abs(np.abs(s1.phi) - np.abs(s0.phi))) < 1e-14


def test_well_closed_form_values():
    s = mom.phi_closed_well(pot.InfiniteWell(length=math.pi), 1, np.array([0.0]))
    assert abs(s.phi[0]) == pytest.approx(2 / math.pi, rel=1e-14)


def test_well_removable_singularity():
    # p = +-p_n and tiny detunings give the analytic limit smoothly
    pn = 3.0
    tiny = pn * np.array([1 - 3e-5, 1 - 1e-5, 1.0, 1 + 1e-5, 1 + 3e-5])
    s = mom.phi_closed_well(pot.InfiniteWell(length=math.pi), 3, np.concatenate([tiny, -tiny]))
    assert np.all(np.isfinite(s.abs_phi2))
    # series branch agrees with the direct formula where both are accurate
    p = pn * (1 + 8e-5)
    series = mom.phi_closed_well(pot.InfiniteWell(length=math.pi), 3, np.array([p])).phi[0]
    direct = (math.sqrt(1 / (2 * math.pi)) * math.sqrt(2 / math.pi)
              * (-np.exp(-1j * p * math.pi) - 1.0) * pn / (p * p - pn * pn))
    assert abs(series - direct) < 1e-10 * abs(direct)


# --- quadrature ------------------------------------------------------------

def test_quadrature_matches_delta_closed_form():
    spec = pot.DeltaSum(deltas=((1.0, 0.5),))
    st = eig.solve(spec)
    q = mom.phi_quadrature(st, GRID)
    c = mom.phi_closed_delta(spec, st, GRID)
    assert np.max(np.abs(q.phi - c.phi)) < 1e-8


@pytest.mark.parametrize("spec", [
    pot.DeltaSum(deltas=((0.01, 0.0),)),
    pot.DeltaSum(deltas=((1.0, 0.0),), hbar=10.0),
], ids=["g_0.01", "hbar_10"])
def test_quadrature_matches_wide_delta_closed_form(spec):
    # decay length 100: as few panels as at decay length 1, not 100 times as many
    st = eig.solve(spec)
    q = mom.phi_quadrature(st, GRID, spec.hbar)
    c = mom.phi_closed_delta(spec, st, GRID)
    assert np.max(np.abs(q.phi - c.phi)) < 1e-8


@pytest.mark.parametrize("spec", [
    pot.DeltaSum(deltas=((1e14, 0.0),)),
    pot.DeltaSum(deltas=((1.0, 0.0),), hbar=1e-7),
], ids=["g_1e14", "hbar_1e-7"])
def test_quadrature_matches_narrow_delta_closed_form(spec):
    # support 8.4e-13: the panels bisect until the Taylor series converges,
    # with no absolute floor on the half-width
    st = eig.solve(spec)
    p = GRID * spec.mass * spec.deltas[0][0] / spec.hbar
    calls = []
    slope = st.psi_and_slope
    st.psi_and_slope = lambda x: calls.append(np.size(x)) or slope(x)
    panels = mom.FilonPanels(st)
    # every rejected panel comes back as two in the next generation
    assert len(calls) > 1 and sum(calls[1:]) == 2 * (sum(calls) - panels.centers.size)
    q = panels.transform(p)
    c = mom.phi_closed_delta(spec, st, p).phi
    assert np.max(np.abs(q - c)) < 1e-13 * np.max(np.abs(c))


@pytest.mark.parametrize("gap", [12.0, 20.0, 25.0])
@pytest.mark.parametrize("n", [1, 2])
def test_quadrature_matches_distant_delta_pair_closed_form(n, gap):
    # psi between the deltas carries no cancellation noise, so the quadrature
    # meets the closed form, exact given E and psi(a_i), to rounding
    spec = pot.DeltaSum(deltas=((1.0, 0.0), (1.0, gap)))
    st = eig.solve(spec, n)
    grid = np.linspace(-50.0, 50.0, 1001)
    q = mom.phi_quadrature(st, grid)
    c = mom.phi_closed_delta(spec, st, grid)
    assert np.max(np.abs(q.phi - c.phi)) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_quadrature_matches_well_closed_form(n):
    well = pot.InfiniteWell(length=math.pi)
    st = eig.solve(well, n)
    q = mom.phi_quadrature(st, GRID)
    c = mom.phi_closed_well(well, n, GRID)
    assert np.max(np.abs(q.phi - c.phi)) < 1e-8


def test_quadrature_against_multiprecision_oracle():
    # a state with no closed form: hybrid delta+step, spot-checked with mpmath
    spec = pot.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0)
    st = eig.solve(spec)
    ps = [0.0, 1.7, 13.0]
    q = mom.phi_quadrature(st, np.array(ps))
    for i, p in enumerate(ps):
        ref = mp_phi(st, p, st.support[0], st.support[1], list(st.breaks))
        assert abs(q.phi[i] - ref) < 1e-9


@pytest.mark.parametrize("name,spec,kw", [
    ("delta", pot.DeltaSum(deltas=((1.0, 0.0),)), {}),
    ("well", pot.InfiniteWell(length=math.pi), dict(n=4)),
    ("finite_well", pot.FiniteWell(depth=10.0, a=-1.0, b=1.0), dict(n=2)),
    ("hybrid", pot.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0), {}),
    ("bouncer", pot.Bouncer(force=0.5), dict(n=3)),
    ("symlin_odd", pot.SymmetricLinear(force=0.5), dict(n=2, parity="odd")),
], ids=lambda v: v if isinstance(v, str) else "")
def test_symmetry_and_parseval(name, spec, kw):
    st = eig.solve(spec, kw.get("n", 1), kw.get("parity"))
    s = mom.phi_quadrature(st, GRID)
    flipped = s.abs_phi2[::-1]
    assert np.max(np.abs(np.sqrt(s.abs_phi2) - np.sqrt(flipped))) < 1e-10
    assert mom.parseval_norm(s) == pytest.approx(1.0, abs=1e-4)


def test_quadrature_deterministic():
    spec = pot.Bouncer(force=0.5)
    st = eig.solve(spec, 2)
    a = mom.phi_quadrature(st, GRID)
    b = mom.phi_quadrature(st, GRID)
    assert np.array_equal(a.phi_re, b.phi_re) and np.array_equal(a.phi_im, b.phi_im)


# --- panel coefficients from the ODE ---------------------------------------

def _unit_states():
    for (spec, n, parity), name in zip(UNIT_STATES, UNIT_IDS):
        unit = dataclasses.replace(spec, mass=1.0, hbar=1.0)
        yield pytest.param(unit, n, parity, id=f"{name}-unit")
        yield pytest.param(spec, n, parity, id=f"{name}-m2-hbar2")


@pytest.mark.parametrize("spec,n,parity", list(_unit_states()))
def test_panel_coefficients_match_gauss_projection(spec, n, parity):
    st = eig.solve(spec, n, parity)
    panels = mom.FilonPanels(st)
    nodes, weights = leggauss(48)
    degree = panels.coeffs.shape[1] - 1
    # c_k = (2k+1)/2 sum_i w_i P_k(t_i) psi(c + hw t_i)
    proj = ((2.0 * np.arange(degree + 1) + 1.0) / 2.0)[:, None] \
        * (legvander(nodes, degree).T * weights)
    vals = st.psi(panels.centers[:, None] + panels.halfwidths[:, None] * nodes)
    gauss = vals @ proj.T
    assert np.max(np.abs(panels.coeffs - gauss)) <= 1e-12 * np.max(np.abs(gauss))


def test_panel_coefficients_against_multiprecision():
    # the panel of symlin n = 11 (even) at z = 12.25, where the Gauss
    # projection of scipy's Ai is off by 1.3e-13 of the global scale
    spec = pot.SymmetricLinear(force=0.5)      # rho = 1
    panels = mom.FilonPanels(eig.solve(spec, 11, "even"))
    i = int(np.argmin(np.abs(panels.centers - 12.25)))
    c, hw = mpmath.mpf(panels.centers[i]), mpmath.mpf(panels.halfwidths[i])
    eta = -mpmath.airyaizero(11, derivative=1)
    amp = 1 / (mpmath.sqrt(2 * eta) * mpmath.airyai(-eta))
    degree = panels.coeffs.shape[1] - 1
    sums = [mpmath.mpf(0)] * (degree + 1)
    # 96-node Gauss-Legendre at 30 digits, with P_k by its recurrence
    for t, w in GaussLegendre(mpmath.mp).calc_nodes(6, mpmath.mp.prec):
        f = w * amp * mpmath.airyai(abs(c + hw * t) - eta)
        prev, cur = mpmath.mpf(1), t
        sums[0] += f
        for k in range(1, degree + 1):
            sums[k] += f * cur
            prev, cur = cur, ((2 * k + 1) * t * cur - k * prev) / (k + 1)
    ref = np.array([float((2 * k + 1) * sums[k] / 2) for k in range(degree + 1)])
    assert np.max(np.abs(panels.coeffs[i] - ref)) <= 1e-14 * np.max(np.abs(panels.coeffs))


@pytest.mark.parametrize("spec,n,parity", [
    (pot.Bouncer(force=0.5), 10, None),
    (pot.SymmetricLinear(force=0.5), 11, "even"),
], ids=["bouncer_10", "symlin_11_even"])
def test_build_evaluates_each_panel_once_per_generation(monkeypatch, spec, n, parity):
    st = eig.solve(spec, n, parity)
    calls, airy_args = [], []
    slope = st.psi_and_slope
    airy = specfun.airy_ai_and_prime

    def no_psi(x):
        raise AssertionError("the build sampled psi")

    monkeypatch.setattr(specfun, "airy_ai_and_prime",
                        lambda x: airy_args.append(np.size(x)) or airy(x))
    st.psi = no_psi
    st.psi_and_slope = lambda x: calls.append(np.size(x)) or slope(x)
    panels = mom.FilonPanels(st)
    # every panel resolves in the first generation: one call, one Airy
    # argument per panel
    assert calls == [panels.centers.size]
    assert airy_args == calls


def test_build_refuses_state_without_ode():
    spec = pot.Bouncer(force=0.5)
    energy = eig.solve(spec, 1).energy
    shot = eig.shooting_oracle(spec, (0.99 * energy, 1.01 * energy), 1)
    with pytest.raises(ValueError):
        mom.FilonPanels(shot)


def test_build_refuses_panels_too_narrow_for_their_position():
    # at x = 0.3 the panels of a support-8.4e-13 delta span ~1e3 ulps of their
    # centers, and the rounded centers put phi ~6e-3 off the closed form
    spec = pot.DeltaSum(deltas=((1e14, 0.3),))
    with pytest.raises(QuadratureBudgetExceeded):
        mom.FilonPanels(eig.solve(spec))


def test_budget_stops_a_panel_that_never_resolves():
    # a NaN expansion fails the resolution test at every half-width, so the
    # panels double each generation until the budget stops them
    st = eig.solve(pot.DeltaSum(deltas=((1.0, 0.0),)))
    nan = dataclasses.replace(st, psi_and_slope=lambda x: (np.full(np.shape(x), np.nan),) * 2)
    with pytest.raises(QuadratureBudgetExceeded):
        mom.FilonPanels(nan)


# --- shared tiling ----------------------------------------------------------

def _reference_panels(state):
    """FilonPanels' centers and half-widths from the tiling and bisection
    written out in one loop, with no panel wider than the oscillation scale."""
    lo, hi = state.support
    edges = sorted({lo, hi, *(b for b in state.breaks if lo < b < hi)})
    c, hw = [], []
    for u, v in zip(edges[:-1], edges[1:]):
        m = max(1, math.ceil((v - u) / state.osc_scale))
        h = 0.5 * (v - u) / m
        c.extend(u + (2 * i + 1) * h for i in range(m))
        hw.extend([h] * m)
    c, hw = np.array(c), np.array(hw)
    centers, halfwidths, scale = [], [], 0.0
    while c.size:
        ck, truncation = mom._panel_coefficients(state, c, hw)
        scale = max(scale, np.max(np.abs(ck)))
        tail = np.maximum(np.max(np.abs(ck[:, -mom._TAIL_COEFFS:]), axis=1), truncation)
        done = tail <= mom._REL_TOL * max(scale, 1e-300)
        centers.append(c[done])
        halfwidths.append(hw[done])
        c, hw = c[~done], 0.5 * hw[~done]
        c, hw = np.concatenate([c - hw, c + hw]), np.concatenate([hw, hw])
    centers = np.concatenate(centers)
    order = np.argsort(centers)
    return centers[order], np.concatenate(halfwidths)[order]


PANEL_COUNTS = {
    "delta-unit": 6, "delta-m2-hbar2": 6, "delta_chain-unit": 7,
    "delta_chain-m2-hbar2": 7, "well-unit": 1, "well-m2-hbar2": 1,
    "finite_well-unit": 11, "finite_well-m2-hbar2": 17, "step_ladder-unit": 12,
    "step_ladder-m2-hbar2": 14, "hybrid-unit": 7, "hybrid-m2-hbar2": 7,
    "bouncer-unit": 9, "bouncer-m2-hbar2": 9, "symlin_even-unit": 14,
    "symlin_even-m2-hbar2": 14, "symlin_odd-unit": 16, "symlin_odd-m2-hbar2": 16,
    "asymlin-unit": 13, "asymlin-m2-hbar2": 13,
}


@pytest.mark.parametrize("spec,n,parity", list(_unit_states()))
def test_filon_panels_keep_their_tiling(request, spec, n, parity):
    # the tiling helper is shared with the norm check: the Filon panels, and
    # so transform.csv, move only on purpose
    st = eig.solve(spec, n, parity)
    panels = mom.FilonPanels(st)
    centers, halfwidths = _reference_panels(st)
    assert panels.centers.size == PANEL_COUNTS[request.node.callspec.id]
    assert np.array_equal(panels.centers, centers)
    assert np.array_equal(panels.halfwidths, halfwidths)


# --- norm check ---------------------------------------------------------------

WEAK_HYBRID = pot.HybridDeltaStep(g=0.864794, step_height=-0.468192, a=1.036333)
NORM_STATES = list(_unit_states()) + [
    pytest.param(WEAK_HYBRID, 1, None, id="hybrid_bound_by_0.3%"),
    pytest.param(pot.DeltaSum(deltas=((0.01, 0.0),)), 1, None, id="delta_g_0.01"),
    pytest.param(pot.DeltaSum(deltas=((1.0, 0.0),), hbar=10.0), 1, None, id="delta_hbar_10"),
    pytest.param(pot.SymmetricLinear(force=0.5), 30, "odd", id="symlin_30_odd"),
    pytest.param(pot.Bouncer(force=0.5), 30, None, id="bouncer_30"),
    pytest.param(pot.InfiniteWell(length=math.pi), 40, None, id="well_40"),
]


@pytest.mark.parametrize("spec,n,parity", NORM_STATES)
def test_norm_check_against_quad(spec, n, parity):
    st = eig.solve(spec, n, parity)
    norm, error = mom.norm_check(st)
    assert abs(norm - 1.0) <= 1e-13
    assert 0.0 <= error <= 1e-12
    assert abs(norm - tight_norm(st)) <= 1e-13


@pytest.mark.parametrize("spec,n,parity", [
    (pot.DeltaSum(deltas=((1.0, 0.0),)), 1, None),
    (WEAK_HYBRID, 1, None),
    (pot.Bouncer(force=0.5), 10, None),
], ids=["delta", "weak_hybrid", "bouncer_10"])
def test_norm_check_samples_psi_once_per_generation(monkeypatch, spec, n, parity):
    st = eig.solve(spec, n, parity)
    calls, generations = [], []
    slope = st.psi_and_slope
    st.psi_and_slope = lambda x: calls.append(np.shape(x)) or slope(x)
    bisect = mom._bisect_until_resolved
    monkeypatch.setattr(mom, "_bisect_until_resolved", lambda state, resolved: bisect(
        state, lambda c, hw: generations.append(c.size) or resolved(c, hw)))
    mom.norm_check(st)
    # every pending panel's 16 and 32 Gauss nodes, in one array per generation
    assert generations
    assert calls == [(48 * size,) for size in generations]


def test_norm_check_refuses_noisy_psi():
    st = eig.solve(pot.DeltaSum(deltas=((1.0, 0.0),)))
    clean = st.psi_and_slope

    def noisy(x):
        psi, slope = clean(x)
        return psi + 1e-9 * np.sin(1e7 * x), slope

    with pytest.raises(QuadratureBudgetExceeded):
        mom.norm_check(dataclasses.replace(st, psi_and_slope=noisy))


def test_norm_check_refuses_panels_too_narrow_for_their_position():
    with pytest.raises(QuadratureBudgetExceeded):
        mom.norm_check(eig.solve(pot.DeltaSum(deltas=((1e14, 0.3),))))


# --- transform ----------------------------------------------------------------

def test_transform_bessel_tables_per_halfwidth(monkeypatch):
    panels = mom.FilonPanels(eig.solve(pot.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0)))
    assert np.unique(panels.halfwidths).size > 1
    calls = []
    table = mom._bessel_table

    def counting(w):
        calls.append(w)
        return table(w)

    monkeypatch.setattr(mom, "_bessel_table", counting)
    grid = np.linspace(-1500.0, 1500.0, 3001)
    panels.transform(grid)
    # one table per block of distinct |p|, for every half-width at once
    blocks = math.ceil(np.unique(np.abs(grid)).size / mom._POINT_BLOCK)
    assert blocks > 1 and len(calls) == blocks
    assert all(w.size == np.unique(panels.halfwidths).size * mom._POINT_BLOCK
               for w in calls[:-1])


def _mp_sph_jn(k, w):
    if w == 0:
        return mpmath.mpf(int(k == 0))
    w = mpmath.mpf(w)
    return mpmath.sqrt(mpmath.pi / (2 * w)) * mpmath.besselj(k + mpmath.mpf(1) / 2, w)


def test_bessel_table_against_multiprecision():
    # the recurrence switches from upward to Miller's ratios at k = floor(w),
    # so integers and their neighbours are the delicate points
    ints = np.arange(1.0, 37.0)
    w = np.sort(np.concatenate([
        [0.0, 1e-12, 1e-3], ints, ints - 1e-12, ints + 1e-12,
        math.pi * np.arange(1, 12), np.linspace(0.0, 40.0, 200),
        10.0 ** np.arange(2, 9)]))
    table = mom._bessel_table(w)
    assert table.shape == (mom._DEGREE + 1, w.size)
    with mpmath.workdps(40):
        worst = max(abs(float(table[k, i] - _mp_sph_jn(k, x)))
                    for i, x in enumerate(w) for k in range(mom._DEGREE + 1))
    assert worst <= 1e-15


@pytest.mark.parametrize("spec,n,groups", [
    (pot.AsymmetricLinear(force_right=1.0, force_left=0.5), 5, 2),
    (pot.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0), 1, 5),
], ids=["asymlin_5", "hybrid"])
def test_quadrature_large_p_against_multiprecision_oracle(spec, n, groups):
    st = eig.solve(spec, n)
    panels = mom.FilonPanels(st)
    assert np.unique(panels.halfwidths).size == groups
    ps = [0.0, 13.0, 400.0]
    phi = panels.transform(np.array(ps))
    # unit sub-intervals keep the oracle's integrand to ~64 periods at p = 400;
    # psi is a double, so 17 digits suffice for the oracle's own arithmetic
    lo, hi = st.support
    cuts = sorted({*st.breaks, *np.arange(math.ceil(lo), hi)})
    with mpmath.workdps(17):
        for i, p in enumerate(ps):
            assert abs(phi[i] - mp_phi(st, p, lo, hi, cuts)) < 1e-9


def _mp_panel_sum(panels, p):
    """phi(p) as a 30-digit sum over the panels' own float centers,
    half-widths and Legendre coefficients: the transform's rounding alone."""
    hbar = mpmath.mpf(panels.hbar)
    q = mpmath.mpf(p) / hbar
    total, tables = mpmath.mpc(0), {}
    for c, hw, ck in zip(panels.centers, panels.halfwidths, panels.coeffs):
        if hw not in tables:
            tables[hw] = [_mp_sph_jn(k, q * mpmath.mpf(hw)) for k in range(ck.size)]
        moment = mpmath.fsum(mpmath.mpf(x) * 2 * (-1j) ** k * j
                             for k, (x, j) in enumerate(zip(ck, tables[hw])))
        total += mpmath.mpf(hw) * mpmath.expj(-q * mpmath.mpf(c)) * moment
    return complex(total / mpmath.sqrt(2 * mpmath.pi * hbar))


@pytest.mark.parametrize("spec,n,parity", [
    (pot.DeltaSum(deltas=((1.0, 0.0),)), 1, None),
    (pot.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0), 1, None),
    (pot.Bouncer(force=0.5), 10, None),
    (pot.SymmetricLinear(force=0.5), 11, "odd"),
    (pot.StepSum(steps=((0.0, -5.0), (1.0, 2.0), (2.0, 3.0))), 1, None),
    (pot.FiniteWell(depth=10.0, a=-1.0, b=1.0), 2, None),
], ids=["delta", "hybrid", "bouncer_10", "symlin_11_odd", "step_ladder", "finite_well"])
def test_transform_against_multiprecision_panel_sum(spec, n, parity):
    panels = mom.FilonPanels(eig.solve(spec, n, parity))
    ps = [0.3, 2.5, 17.0, 100.0, 1000.0, 3000.0]
    phi = panels.transform(np.array(ps))
    for i, p in enumerate(ps):
        assert abs(phi[i] - _mp_panel_sum(panels, p)) <= 1e-15


def test_transform_deep_tail_against_series():
    # phi ~ 1e-15 at p = 1000 and ~5e-18 at p = 3000 (a p^-5 tail): what is
    # left against the series is the transform's absolute rounding floor
    spec = pot.SymmetricLinear(force=0.5)
    st = eig.solve(spec, 11, "odd")
    series = asy.predict_tail(st, pot.discontinuities(spec)).series
    p = np.geomspace(500.0, 3000.0, 61)
    assert np.max(np.abs(mom.FilonPanels(st).transform(p) - series(p))) <= 8.5e-16


def test_transform_input_forms():
    st = eig.solve(pot.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0))
    panels = mom.FilonPanels(st)
    p = np.linspace(-6.0, 6.0, 12).reshape(3, 4)
    phi = panels.transform(p)
    assert phi.shape == (3, 4)
    assert panels.transform(2.5).shape == ()
    assert np.array_equal(panels.transform(-p), np.conj(phi))
    rep = panels.transform(np.array([1.5, 7.0, 1.5, -7.0, 1.5]))
    assert rep[0] == rep[2] == rep[4] and rep[3] == np.conj(rep[1])


def test_transform_memory_is_bounded():
    spec = pot.FiniteWell(depth=10.0, a=-1.0, b=1.0)
    st = eig.solve(spec, 1)
    pred = asy.predict_tail(st, pot.discontinuities(spec))
    grids = []
    mom.moment(lambda p: grids.append(p) or np.zeros(p.shape), 2, pred, p_scale=3.0)
    assert grids[0].size == 76400
    panels = mom.FilonPanels(st)
    tracemalloc.start()
    try:
        panels.transform(grids[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# --- moments ---------------------------------------------------------------

def _delta_setup():
    spec = pot.DeltaSum(deltas=((1.0, 0.0),))
    st = eig.solve(spec)
    pred = asy.predict_tail(st, pot.discontinuities(spec))
    fn = lambda p: mom.phi_closed_delta(spec, st, p).phi
    return fn, pred


def test_delta_moments():
    fn, pred = _delta_setup()
    assert mom.moment(fn, 0, pred) == pytest.approx(1.0, abs=1e-8)
    assert mom.moment(fn, 2, pred) == pytest.approx(1.0, abs=1e-6)
    assert mom.moment(fn, 1, pred) == 0.0
    assert mom.moment(fn, 3, pred) == 0.0
    with pytest.raises(DivergentMoment):
        mom.moment(fn, 4, pred)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_well_second_moment(n):
    well = pot.InfiniteWell(length=math.pi)
    st = eig.solve(well, n)
    pred = asy.predict_tail(st, pot.discontinuities(well))
    fn = lambda p: mom.phi_closed_well(well, n, p).phi
    assert mom.moment(fn, 2, pred, p_scale=float(n)) == pytest.approx(
        n * n, rel=1e-6)
    with pytest.raises(DivergentMoment):
        mom.moment(fn, 4, pred)


def test_finite_well_moment_converges():
    # step discontinuity: tail p^-3, so moments through <p^4> converge
    spec = pot.FiniteWell(depth=10.0, a=-1.0, b=1.0)
    st = eig.solve(spec, 1)
    pred = asy.predict_tail(st, pot.discontinuities(spec))
    panels = mom.FilonPanels(st)
    fn = lambda p: panels.transform(np.asarray(p, float))
    m2 = mom.moment(fn, 2, pred, p_scale=3.0)
    # <p^2> = 2m<T> = 2m(E + V0 * Prob(inside))
    from scipy.integrate import quad
    f = lambda x: float(st.psi(np.array([x]))[0]) ** 2
    prob_in, _ = quad(f, spec.a, spec.b, limit=200)
    assert m2 == pytest.approx(2.0 * (st.energy + spec.depth * prob_in), rel=1e-4)
    with pytest.raises(DivergentMoment):
        mom.moment(fn, 6, pred)


# --- classical density -----------------------------------------------------

def test_classical_density_bouncer():
    spec = pot.Bouncer(force=0.5)
    zeta1 = 2.33810741045977
    d0 = mom.classical_momentum_density(spec, 1, np.array([0.0]))[0]
    assert d0 == pytest.approx(1.0 / (2.0 * math.sqrt(zeta1)), rel=1e-10)
    outside = mom.classical_momentum_density(spec, 1, np.array([5.0]))[0]
    assert outside == 0.0
    p = np.linspace(-4.0, 4.0, 40001)
    dens = mom.classical_momentum_density(spec, 1, p)
    assert np.trapezoid(dens, p) == pytest.approx(1.0, abs=1e-3)


def test_bouncer_imaginary_component_halves_classical_density():
    # window-averaged |phi_im|^2 tracks half the classical density inside
    # the classically allowed region
    spec = pot.Bouncer(force=0.5)
    n = 10
    st = eig.solve(spec, n)
    qn = math.sqrt(2.0 * st.energy)
    p = np.linspace(0.02 * qn, 0.95 * qn, 2400)
    s = mom.phi_quadrature(st, p)
    im2 = s.phi_im ** 2
    dens = mom.classical_momentum_density(spec, n, p)
    # window spans a couple of local oscillations of the interference pattern
    z_top = st.energy / spec.force
    width = 2.0 * (2.0 * math.pi / z_top)
    out = []
    for c in np.linspace(0.15 * qn, 0.75 * qn, 12):
        m = (p > c - width) & (p < c + width)
        out.append(np.mean(im2[m]) / (0.5 * np.mean(dens[m])))
    assert all(abs(r - 1.0) < 0.15 for r in out)


def test_bouncer_imaginary_tail_exponent():
    spec = pot.Bouncer(force=0.5)
    st = eig.solve(spec, 3)
    qn = math.sqrt(2.0 * st.energy)
    pg = np.geomspace(10 * qn, 1000.0, 60)
    s = mom.phi_quadrature(st, pg)
    slope = np.polyfit(np.log(pg), np.log(np.abs(s.phi_im)), 1)[0]
    assert slope == pytest.approx(-5.0, abs=0.1)


def test_csv_serialization():
    spec = pot.DeltaSum(deltas=((1.0, 0.0),))
    st = eig.solve(spec)
    s = mom.phi_closed_delta(spec, st, np.array([1.0, 2.0]))
    text = s.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "p,phi_re,phi_im,abs_phi2"
    assert len(lines) == 3
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 1.0
    assert first[3] == pytest.approx(first[1] ** 2 + first[2] ** 2, rel=1e-15)
