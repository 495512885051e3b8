"""Independent references for the benchmark's correctness checks.

Nothing here goes through the momtail code paths the benchmark times:

- energies come from closed forms, mpmath Airy zeros and functions, a
  Birman-Schwinger eigenvalue route for delta chains, and a Sturm node count
  for piecewise-constant potentials;
- phi(p) comes from a plain composite Gauss-Legendre Fourier integral of
  psi, split at the state's kinks;
- the tail exponent comes from the kind of discontinuity alone.

Configs are the plain JSON dicts a user writes (``{"kind": ..., ...}``);
mass and hbar default to 1.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq

_GL_NODES, _GL_WEIGHTS = leggauss(20)


def _units(cfg: dict) -> tuple[float, float]:
    return float(cfg.get("mass", 1.0)), float(cfg.get("hbar", 1.0))


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def _bs_eigenvalue(g, a, kappa, n, m, hbar):
    """n-th largest eigenvalue of the Birman-Schwinger matrix at decay rate kappa."""
    sq = np.sqrt(g)
    s = (m / (hbar ** 2 * kappa)) * sq[:, None] * np.exp(
        -kappa * np.abs(a[:, None] - a[None, :])) * sq[None, :]
    return np.linalg.eigvalsh(s)[::-1][n - 1]


def delta_chain_energy(cfg: dict, n: int) -> float | None:
    """n-th level of sum_i -g_i delta(x - a_i), or None if it does not exist.

    Birman-Schwinger: E = -(hbar kappa)^2 / 2m is a level exactly when the
    matrix (m / hbar^2 kappa) sqrt(g_i g_j) exp(-kappa |a_i - a_j|) has
    eigenvalue 1, and its eigenvalues fall monotonically with kappa, so the
    n-th level is the root of (n-th largest eigenvalue) = 1.
    """
    m, hbar = _units(cfg)
    g = np.array([float(d[0]) for d in cfg["deltas"]])
    a = np.array([float(d[1]) for d in cfg["deltas"]])
    if not 1 <= n <= g.size:
        return None
    k_hi = m * float(g.sum()) / hbar ** 2 * (1.0 + 1e-12)
    k_lo = 1e-8 * k_hi
    if _bs_eigenvalue(g, a, k_lo, n, m, hbar) <= 1.0:
        return None
    kappa = brentq(lambda k: _bs_eigenvalue(g, a, k, n, m, hbar) - 1.0,
                   k_lo, k_hi, xtol=1e-16, rtol=8.9e-16, maxiter=400)
    return -(hbar * kappa) ** 2 / (2.0 * m)


def _advance(P, Q, beta, w):
    """(psi, psi') after width w of psi'' = beta psi, up to a positive factor,
    and the number of zeros of psi inside (0, w]."""
    if beta < 0.0:
        k = math.sqrt(-beta)
        phase = math.atan2(Q / k, P)
        zeros = (math.floor((k * w - phase - 0.5 * math.pi) / math.pi)
                 - math.floor((-phase - 0.5 * math.pi) / math.pi))
        c, s = math.cos(k * w), math.sin(k * w)
        return P * c + Q * s / k, -P * k * s + Q * c, zeros
    if beta > 0.0:
        r = math.sqrt(beta)
        t = math.tanh(r * w)
        zeros = int(Q != 0.0 and 0.0 < -P * r / Q <= t)
        return P + Q * t / r, P * r * t + Q, zeros
    return P + Q * w, Q, int(Q != 0.0 and 0.0 < -P / Q <= w)


def _sturm_count(xs, vs, cusps, energy, coef):
    """Number of levels below ``energy``: the zeros of the solution that
    decays at -infinity (Sturm oscillation theorem)."""
    P, Q = 1.0, math.sqrt(coef * (vs[0] - energy))
    zeros = 0
    for i, x in enumerate(xs):
        Q += coef * cusps[i] * P
        beta = coef * (vs[i + 1] - energy)
        if i == len(xs) - 1:
            r = math.sqrt(beta)
            # P cosh(r s) + (Q / r) sinh(r s) vanishes for some s > 0
            return zeros + int(Q != 0.0 and 0.0 < -P * r / Q < 1.0)
        P, Q, z = _advance(P, Q, beta, xs[i + 1] - x)
        zeros += z
        scale = max(abs(P), abs(Q))
        P, Q = P / scale, Q / scale
    raise ValueError("need at least one boundary")


def _piecewise(cfg: dict):
    """(boundaries, region potentials, delta coefficients) of a piecewise kind."""
    kind = cfg["kind"]
    if kind == "step_sum":
        xs = [float(s[0]) for s in cfg["steps"]]
        vs = [0.0] + list(np.cumsum([float(s[1]) for s in cfg["steps"]]))
        return xs, vs, [0.0] * len(xs)
    if kind == "finite_well":
        return ([float(cfg["a"]), float(cfg["b"])],
                [0.0, -float(cfg["depth"]), 0.0], [0.0, 0.0])
    if kind == "hybrid_delta_step":
        return ([0.0, float(cfg["a"])], [0.0, 0.0, float(cfg["step_height"])],
                [-float(cfg["g"]), 0.0])
    raise ValueError(f"not a piecewise-constant kind: {kind}")


def _piecewise_window(cfg: dict):
    m, hbar = _units(cfg)
    xs, vs, cusps = _piecewise(cfg)
    coef = 2.0 * m / hbar ** 2
    e_top = min(vs[0], vs[-1])
    binding = m * sum(-c for c in cusps if c < 0) ** 2 / (2.0 * hbar ** 2)
    e_bottom = min(vs) - binding
    span = e_top - e_bottom
    return xs, vs, cusps, coef, e_bottom - 1e-6 * span, e_top - 1e-12 * span


def piecewise_energy(cfg: dict, n: int) -> float | None:
    """n-th level of a step ladder, finite well or delta+step, by bisecting
    on the Sturm count; None if fewer than n levels exist."""
    xs, vs, cusps, coef, lo, hi = _piecewise_window(cfg)
    if n < 1 or hi <= lo or _sturm_count(xs, vs, cusps, hi, coef) < n:
        return None
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _sturm_count(xs, vs, cusps, mid, coef) >= n:
            hi = mid
        else:
            lo = mid
    return hi


def level_count(cfg: dict, margin: float = 0.0) -> int:
    """Number of bound levels of a delta chain or piecewise-constant kind
    lying at least ``margin`` of the well's depth below the continuum."""
    m, hbar = _units(cfg)
    if cfg["kind"] == "delta_sum":
        top = 0.0
        bottom = -m * sum(float(d[0]) for d in cfg["deltas"]) ** 2 / (2.0 * hbar ** 2)
        levels = [delta_chain_energy(cfg, n) for n in range(1, len(cfg["deltas"]) + 1)]
    else:
        xs, vs, cusps, coef, bottom, top = _piecewise_window(cfg)
        count = _sturm_count(xs, vs, cusps, top, coef) if top > bottom else 0
        levels = [piecewise_energy(cfg, n) for n in range(1, count + 1)]
    return sum(e is not None and top - e >= margin * (top - bottom) for e in levels)


_AIRY_ZEROS: dict[tuple[int, int], float] = {}


def airy_zero(n: int, derivative: int = 0) -> float:
    """n-th zero of Ai (or Ai'), as a positive number, from mpmath."""
    key = (n, derivative)
    if key not in _AIRY_ZEROS:
        _AIRY_ZEROS[key] = float(-mpmath.airyaizero(n, derivative=derivative))
    return _AIRY_ZEROS[key]


def _airy_scales(force, m, hbar):
    rho = (hbar ** 2 / (2.0 * m * force)) ** (1.0 / 3.0)
    return rho, force * rho


def asymmetric_linear_energy(cfg: dict, n: int) -> float:
    """n-th level of V = F z (z > 0), Fbar |z| (z < 0) from mpmath Airy functions.

    Splitting the line with a wall at z = 0 gives the two half-line bouncer
    ladders; merged, they interlace the full-line levels, so the n-th level is
    the only root of the matching determinant between the (n-1)-th and n-th
    merged bouncer levels.
    """
    m, hbar = _units(cfg)
    rho_r, e0_r = _airy_scales(float(cfg["force_right"]), m, hbar)
    rho_l, e0_l = _airy_scales(float(cfg["force_left"]), m, hbar)
    walls = sorted([e0_r * airy_zero(k) for k in range(1, n + 1)]
                   + [e0_l * airy_zero(k) for k in range(1, n + 1)])
    lo = walls[n - 2] if n > 1 else 0.0
    hi = walls[n - 1]

    def det(energy):
        ur, ul = -energy / e0_r, -energy / e0_l
        return float(mpmath.airyai(ur, derivative=1) * mpmath.airyai(ul) / rho_r
                     + mpmath.airyai(ur) * mpmath.airyai(ul, derivative=1) / rho_l)

    return brentq(det, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)


def reference_energy(cfg: dict, n: int, parity: str | None) -> float | None:
    """Energy of the requested level from a route independent of momtail,
    or None when the level does not exist."""
    m, hbar = _units(cfg)
    kind = cfg["kind"]
    if kind == "delta_sum":
        if len(cfg["deltas"]) == 1:
            g = float(cfg["deltas"][0][0])
            return -m * g * g / (2.0 * hbar ** 2) if n == 1 else None
        return delta_chain_energy(cfg, n)
    if kind == "infinite_well":
        length = float(cfg["length"])
        return (n * math.pi * hbar / length) ** 2 / (2.0 * m)
    if kind in ("finite_well", "step_sum", "hybrid_delta_step"):
        return piecewise_energy(cfg, n)
    if kind == "bouncer":
        return _airy_scales(float(cfg["force"]), m, hbar)[1] * airy_zero(n)
    if kind == "symmetric_linear":
        e0 = _airy_scales(float(cfg["force"]), m, hbar)[1]
        return e0 * airy_zero(n, derivative=1 if parity == "even" else 0)
    if kind == "asymmetric_linear":
        return asymmetric_linear_energy(cfg, n)
    raise ValueError(f"unknown kind {kind!r}")


def energy_matches(energy: float, reference: float) -> bool:
    return abs(energy - reference) <= 1e-10 * max(1.0, abs(reference))


# ---------------------------------------------------------------------------
# state shape and tail exponent
# ---------------------------------------------------------------------------

def expected_nodes(kind: str, n: int, parity: str | None) -> int:
    """Nodes of the requested level; symmetric-linear n counts within a parity."""
    if kind == "symmetric_linear":
        return 2 * n - 2 if parity == "even" else 2 * n - 1
    return n - 1


def count_nodes(psi, support, osc_scale) -> int:
    """Sign changes of psi on a grid fine enough for its shortest wavelength."""
    lo, hi = support
    points = 4001
    if math.isfinite(osc_scale):
        points = max(points, int(40.0 * (hi - lo) / osc_scale) + 1)
    v = np.asarray(psi(np.linspace(lo, hi, points)))
    v = v[np.abs(v) > 1e-8 * np.max(np.abs(v))]
    return int(np.count_nonzero(np.sign(v[1:]) != np.sign(v[:-1])))


def expected_exponent(kind: str, parity: str | None) -> int:
    """|phi| ~ p^-e: a delta or wall gives 2, a step 3, a kink 4, and a kink
    where psi vanishes (odd states of V = F|z|) 5."""
    if kind in ("delta_sum", "infinite_well", "bouncer", "hybrid_delta_step"):
        return 2
    if kind in ("finite_well", "step_sum"):
        return 3
    if kind == "symmetric_linear" and parity == "odd":
        return 5
    return 4


def p_scale(cfg: dict, energy: float) -> float:
    """sqrt(2m |E - V_floor|), the momentum where the tail window is anchored."""
    m, _ = _units(cfg)
    floor = 0.0
    if cfg["kind"] == "finite_well":
        floor = -float(cfg["depth"])
    elif cfg["kind"] == "step_sum":
        floor = min(0.0, float(np.min(np.cumsum([float(s[1]) for s in cfg["steps"]]))))
    return math.sqrt(2.0 * m * abs(energy - floor))


# ---------------------------------------------------------------------------
# momentum space
# ---------------------------------------------------------------------------

def phi_gauss(psi, support, breaks, osc_scale, momenta, hbar: float = 1.0):
    """phi(p) = (2 pi hbar)^-1/2 int psi(x) e^{-ipx/hbar} dx by composite
    20-point Gauss-Legendre, with panel edges at every kink of psi and panels
    short against both psi's wavelength and the highest momentum."""
    p = np.asarray(momenta, dtype=float)
    lo, hi = support
    edges = sorted({lo, hi, *(b for b in breaks if lo < b < hi)})
    hw_max = 0.5
    if math.isfinite(osc_scale):
        hw_max = min(hw_max, osc_scale / 8.0)
    if p.size and np.max(np.abs(p)) > 0.0:
        hw_max = min(hw_max, 4.0 * hbar / float(np.max(np.abs(p))))
    xs, ws = [], []
    for u, v in zip(edges[:-1], edges[1:]):
        count = max(1, math.ceil((v - u) / (2.0 * hw_max)))
        cuts = np.linspace(u, v, count + 1)
        c = 0.5 * (cuts[:-1] + cuts[1:])
        hw = 0.5 * (cuts[1:] - cuts[:-1])
        xs.append((c[:, None] + hw[:, None] * _GL_NODES[None, :]).ravel())
        ws.append((hw[:, None] * _GL_WEIGHTS[None, :]).ravel())
    x = np.concatenate(xs)
    wpsi = np.concatenate(ws) * np.asarray(psi(x))
    out = np.array([np.sum(wpsi * np.exp(-1j * q * x / hbar)) for q in p])
    return out / math.sqrt(2.0 * math.pi * hbar)


def phi_matches(phi, reference) -> bool:
    """Pointwise agreement to 1e-10 of the largest reference value plus 1e-8
    relative: loose enough for quadrature round-off, tight enough that a
    1e-6 relative error fails."""
    phi = np.asarray(phi)
    reference = np.asarray(reference)
    tol = 1e-10 * float(np.max(np.abs(reference))) + 1e-8 * np.abs(reference)
    return bool(np.all(np.abs(phi - reference) <= tol))
