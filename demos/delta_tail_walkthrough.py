"""Walkthrough: the attractive delta potential from bound state to momentum tail.

Solves the single bound state of V(x) = -g delta(x), transforms it to momentum
space two ways (closed form and oscillatory quadrature), predicts the large-|p|
power law from the wavefunction's cusp, and fits the sampled tail to confirm
phi ~ p^-2 with the expected coefficient.

Run:  python3 demos/delta_tail_walkthrough.py
"""

import math

import numpy as np

from momtail import asymptotics as asy
from momtail import eigensolve as eig
from momtail import momentum as mom
from momtail import potentials as pot
from momtail import tailfit

spec = pot.DeltaSum(deltas=((1.0, 0.0),))
state = eig.solve(spec)
print(f"bound state energy: {state.energy}  (closed form: -m g^2 / 2 hbar^2)")

side = state.derivative_table[0.0]
print(f"cusp at x = 0: psi'(0+) - psi'(0-) = {side.right[1] - side.left[1]:+.6f}"
      f"  (= -2 g psi(0) = {-2.0 * side.value:+.6f})")

grid = np.geomspace(1.0, 200.0, 120)
closed = mom.phi_closed_delta(spec, state, grid)
quad = mom.phi_quadrature(state, grid)
print(f"quadrature vs closed form, max |difference|: "
      f"{np.max(np.abs(quad.phi - closed.phi)):.2e}")

prediction = asy.predict_tail(state, pot.discontinuities(spec))
print()
print(asy.summary(prediction))
print(f"expected envelope constant p^2 |phi| -> sqrt(2/pi) = "
      f"{math.sqrt(2.0 / math.pi):.6f}")

fit = tailfit.fit_power_law(closed, component="abs", window=(50.0, 200.0))
print(f"fit over p in [50, 200]: exponent {fit.exponent:.4f}, "
      f"coefficient {fit.coefficient:.5f}, r^2 = {fit.r_squared:.6f}")

score = tailfit.compare(prediction, closed, window=(50.0, 200.0))
print(f"max relative deviation from the predicted envelope: "
      f"{score.max_rel_deviation:.2%}")
