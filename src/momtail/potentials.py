"""Catalog of 1D potentials with non-smooth structure and their discontinuity ledgers.

Each potential kind is an immutable dataclass. Its ledger lists the
(location, order, jump) records that drive the momentum-space tail
predictions: order -1 marks a delta singularity or an infinite wall, order 0 a
finite step, order k >= 1 a kink in the k-th derivative of V. Each kind is
described once: a constant-V kind (``Piecewise``) defines only its ledger,
from which its V follows; a linear kind (``Linear``) defines only its
``forces``, from which its ledger and V follow. The box (``InfiniteWell``)
defines its own.

Infinite walls are modeled as boundary conditions (psi = 0 beyond the wall),
not as a finite V -> infinity limit; they carry ``is_wall=True`` instead of a
finite jump value.

Units: every spec carries explicit mass and hbar (default m = hbar = 1).
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, fields
from itertools import accumulate
from typing import NamedTuple

from . import specfun
from .errors import NoSuchState

WALL = math.inf


class DiscontinuityRecord(NamedTuple):
    """A single non-smooth feature of the potential.

    ``order``: -1 for delta/wall, 0 for a step, k >= 1 for a kink in V^(k).
    ``jump``: V^(k)(a+) - V^(k)(a-); for a delta, the delta coefficient
    (negative for attraction). Walls carry is_wall=True and jump = nan. A
    named tuple: ``Piecewise.potential(x)`` builds the ledger on every call.
    """
    location: float
    order: int
    jump: float
    is_wall: bool = False


def airy_length(force: float, mass: float, hbar: float) -> float:
    """Airy length scale (hbar^2 / 2mF)^(1/3) of a linear potential of force F.

    Raises ``ArithmeticError`` naming F, m and hbar where hbar^2 / 2mF is
    not a positive normal float: past the range it is infinite, and as a
    subnormal or 0 it has lost the digits that every Airy level is scaled by.
    """
    cube = hbar ** 2 / (2.0 * mass * force)
    if not sys.float_info.min <= cube < math.inf:
        raise ArithmeticError(f"the Airy length's hbar^2/2mF is {cube!r}, not a positive "
                              f"normal float, at F = {force!r}, m = {mass!r}, hbar = {hbar!r}")
    return cube ** (1.0 / 3.0)


@dataclass(frozen=True, kw_only=True)
class _Kind:
    """What every potential kind carries and gives, by itself or by its family.

    Its units ``mass`` and ``hbar`` (keyword-only, default 1); ``ledger()``,
    its discontinuity records sorted by location; ``potential(x)``, V(x) with
    WALL beyond infinite walls and delta spikes excluded; ``v_floor``, the
    floor of V in the momentum scale sqrt(2m |E - v_floor|) that separates
    structure from tail; ``level_index(n, parity)``, the place of the
    state among all levels from 1 and the one check of a request, which
    every solver and ``classical_q`` read first; and ``classical_q(n,
    parity)``, the edge Q_n = sqrt(2m E_n) of the classical density, if any.
    Every parameter must be finite and mass and hbar positive; ``_check``
    adds the kind's own conditions.
    """
    mass: float = 1.0
    hbar: float = 1.0
    v_floor = 0.0

    def __post_init__(self):
        self._check()
        for f in fields(self):
            v = getattr(self, f.name)    # a number, or a tuple of pairs
            if not all(map(math.isfinite, sum(v, ()) if isinstance(v, tuple) else [v])):
                raise ValueError(f"{self.kind} parameters must be finite")
        if not (self.mass > 0 and self.hbar > 0):
            raise ValueError("mass and hbar must be positive")

    def _check(self) -> None:
        """Refuse parameters the kind cannot have (ValueError)."""

    def level_index(self, n: int, parity: str | None = None) -> int:
        """n as an int. A bool, anything else ``operator.index`` refuses, n < 1, and
        a parity where the kind's levels do not split by one name no level (NoSuchState)."""
        if isinstance(n, bool) or not hasattr(n, "__index__") or operator.index(n) < 1:
            raise NoSuchState(f"n must be an integer >= 1, not {n!r}")
        if parity is not None:
            raise NoSuchState(f"potential kind {self.kind!r} has no parity to choose, "
                              f"got parity = {parity!r}")
        return operator.index(n)

    def classical_q(self, n: int, parity: str | None = None) -> float:
        raise NoSuchState(f"no classical density for potential kind {self.kind!r}")


class Piecewise(_Kind):
    """A V that is constant between the locations of its ``ledger()``, whose
    delta (order -1) and step (order 0) records with V = 0 at -infinity are
    the whole potential."""

    def pieces(self) -> tuple[list[float], list[float], list[float]]:
        """(boundaries, the potentials of the regions between them, the delta
        coefficient at each boundary), summing the steps from V = 0 at -infinity."""
        records = self.ledger()
        return ([r.location for r in records],
                list(accumulate((r.jump if r.order == 0 else 0.0 for r in records),
                                initial=0.0)),
                [r.jump if r.order == -1 else 0.0 for r in records])

    def potential(self, x: float) -> float:
        """V(x), the steps below x summed from V = 0 at -infinity as ``pieces()``
        sums them; at a boundary, the value of the region to its left."""
        return sum((r.jump for r in self.ledger() if r.order == 0 and r.location < x), 0.0)


@dataclass(frozen=True)
class DeltaSum(Piecewise):
    """V(x) = sum_i -g_i * delta(x - a_i), g_i > 0."""
    deltas: tuple[tuple[float, float], ...]   # (strength g, location a)
    kind = "delta_sum"

    def _check(self) -> None:
        if not self.deltas:
            raise ValueError("need at least one delta")
        object.__setattr__(self, "deltas", tuple((float(g), float(a)) for g, a in self.deltas))
        locs = [a for _, a in self.deltas]
        if any(g <= 0 for g, _ in self.deltas):
            raise ValueError("delta strengths must be positive")
        if sorted(locs) != locs or len(set(locs)) != len(locs):
            raise ValueError("delta locations must be strictly increasing")

    def ledger(self) -> list[DiscontinuityRecord]:
        return [DiscontinuityRecord(a, -1, -g) for g, a in self.deltas]


@dataclass(frozen=True)
class InfiniteWell(_Kind):
    """Impenetrable box on (0, L)."""
    length: float
    kind = "infinite_well"

    def _check(self) -> None:
        if self.length <= 0:
            raise ValueError("well width must be positive")

    def ledger(self) -> list[DiscontinuityRecord]:
        return [DiscontinuityRecord(0.0, -1, math.nan, is_wall=True),
                DiscontinuityRecord(self.length, -1, math.nan, is_wall=True)]

    def potential(self, x: float) -> float:
        return 0.0 if 0.0 <= x <= self.length else WALL

    def classical_q(self, n: int, parity: str | None = None) -> float:
        return self.level_index(n, parity) * math.pi * self.hbar / self.length


@dataclass(frozen=True)
class FiniteWell(Piecewise):
    """V = -V0 on (a, b), zero outside; V0 > 0."""
    depth: float
    a: float
    b: float
    kind = "finite_well"

    def _check(self) -> None:
        if self.depth <= 0:
            raise ValueError("well depth must be positive")
        if not self.a < self.b:
            raise ValueError("need a < b")

    def ledger(self) -> list[DiscontinuityRecord]:
        return [DiscontinuityRecord(self.a, 0, -self.depth),
                DiscontinuityRecord(self.b, 0, +self.depth)]

    @property
    def v_floor(self) -> float:
        return -self.depth


@dataclass(frozen=True)
class StepSum(Piecewise):
    """Sum of Heaviside steps: V(x) = sum_i h_i * Theta(x - a_i)."""
    steps: tuple[tuple[float, float], ...]    # (location a, height jump h)
    kind = "step_sum"

    def _check(self) -> None:
        object.__setattr__(self, "steps", tuple((float(a), float(h)) for a, h in self.steps))
        locs = [a for a, _ in self.steps]
        if sorted(locs) != locs or len(set(locs)) != len(locs):
            raise ValueError("step locations must be strictly increasing")
        if any(h == 0 for _, h in self.steps):
            raise ValueError("step heights must be nonzero")

    def ledger(self) -> list[DiscontinuityRecord]:
        return [DiscontinuityRecord(a, 0, h) for a, h in self.steps]

    @property
    def v_floor(self) -> float:
        return min(self.pieces()[1])


@dataclass(frozen=True)
class HybridDeltaStep(Piecewise):
    """Attractive delta of strength g at x = 0 plus a step of height V0 at x = a > 0."""
    g: float
    step_height: float
    a: float
    kind = "hybrid_delta_step"

    def _check(self) -> None:
        if self.g <= 0:
            raise ValueError("delta strength must be positive")
        if self.a <= 0:
            raise ValueError("step location must be positive")

    def ledger(self) -> list[DiscontinuityRecord]:
        return [DiscontinuityRecord(0.0, -1, -self.g),
                DiscontinuityRecord(self.a, 0, self.step_height)]


def airy_level(k: int, wall: bool) -> float:
    """The Airy zero that level k of a single force F is e0 = F rho times:
    beside a wall zeta_k, the k-th zero of Ai; on the full line, where even and
    odd states alternate, eta_j (a zero of Ai') for odd k and zeta_j for even
    k, j = (k + 1) // 2."""
    if wall:
        return specfun.airy_zero(k)
    j = (k + 1) // 2
    return specfun.airy_prime_zero(j) if k % 2 else specfun.airy_zero(j)


class Linear(_Kind):
    """A linear potential on each side of z = 0, described by ``forces``, (F,
    Fbar) right and left of 0 with WALL for an infinite wall."""

    def ledger(self) -> list[DiscontinuityRecord]:
        """A wall at 0 where Fbar is WALL, else a kink: V' jumps by F + Fbar."""
        force, force_bar = self.forces
        if force_bar == WALL:
            return [DiscontinuityRecord(0.0, -1, math.nan, is_wall=True)]
        return [DiscontinuityRecord(0.0, 1, force + force_bar)]

    def potential(self, x: float) -> float:
        force, force_bar = self.forces
        return force * x if x >= 0.0 else force_bar * -x


class _OneForce(Linear):
    """A linear potential of a single force F > 0, with its Airy scales."""

    def _check(self) -> None:
        if self.force <= 0:
            raise ValueError("force must be positive")

    @property
    def rho(self) -> float:
        """Airy length scale (hbar^2 / 2mF)^(1/3)."""
        return airy_length(self.force, self.mass, self.hbar)

    def classical_q(self, n: int, parity: str | None = None) -> float:
        level = airy_level(self.level_index(n, parity), self.forces[1] == WALL)
        return (self.hbar / self.rho) * math.sqrt(level)


@dataclass(frozen=True)
class Bouncer(_OneForce):
    """V = F*z for z >= 0, infinite wall at z = 0; F > 0."""
    force: float
    kind = "bouncer"

    @property
    def forces(self) -> tuple[float, float]:
        return self.force, WALL


@dataclass(frozen=True)
class SymmetricLinear(_OneForce):
    """V = F*|z|; F > 0."""
    force: float
    kind = "symmetric_linear"

    @property
    def forces(self) -> tuple[float, float]:
        return self.force, self.force

    def level_index(self, n: int, parity: str | None = None) -> int:
        """Even and odd states alternate: the n-th even is level 2n - 1, the n-th odd 2n."""
        if parity not in ("even", "odd"):
            raise NoSuchState(f"symmetric linear needs parity even or odd, not {parity!r}")
        return 2 * super().level_index(n) - (parity == "even")


@dataclass(frozen=True)
class AsymmetricLinear(Linear):
    """V = F*z for z > 0, V = Fbar*|z| for z < 0; both forces positive."""
    force_right: float
    force_left: float
    kind = "asymmetric_linear"

    def _check(self) -> None:
        if self.force_right <= 0 or self.force_left <= 0:
            raise ValueError("forces must be positive")

    @property
    def forces(self) -> tuple[float, float]:
        return self.force_right, self.force_left


PotentialSpec = (DeltaSum | InfiniteWell | FiniteWell | StepSum
                 | HybridDeltaStep | Bouncer | SymmetricLinear | AsymmetricLinear)


def discontinuities(spec: PotentialSpec) -> list[DiscontinuityRecord]:
    """Complete ledger of discontinuity records, sorted by location."""
    return spec.ledger()


def evaluate(spec: PotentialSpec, x: float) -> float:
    """Pointwise V(x); WALL (inf) beyond infinite walls; delta spikes excluded."""
    return spec.potential(x)


def check_units(carrier, mass: float | None = None, hbar: float | None = None) -> None:
    """Refuse an explicit mass or hbar that differs from the carrier's own.

    ``carrier`` is a spec or a bound state; None means "use the carrier's
    value", so only a conflicting value raises ValueError.
    """
    for name, given in (("mass", mass), ("hbar", hbar)):
        if given is not None and given != getattr(carrier, name):
            raise ValueError(f"{name} = {given!r} differs from the carried "
                             f"{name} = {getattr(carrier, name)!r}")


_KINDS = {cls.kind: cls for cls in PotentialSpec.__args__}

# each kind's own parameters, in declaration order, mapped to whether the
# parameter is a tuple of pairs; mass and hbar are optional
_FIELDS = {kind: {f.name: f.type.startswith("tuple") for f in fields(cls)
                  if f.name not in ("mass", "hbar")}
           for kind, cls in _KINDS.items()}


def to_dict(spec: PotentialSpec) -> dict:
    d = {"kind": spec.kind}
    for name in _FIELDS[spec.kind]:
        value = getattr(spec, name)
        if isinstance(value, tuple):
            value = [list(pair) for pair in value]
        d[name] = value
    if spec.mass != 1.0:
        d["mass"] = spec.mass
    if spec.hbar != 1.0:
        d["hbar"] = spec.hbar
    return d


def _number(name: str, value):
    """``value`` if an int or a float, not a bool; else ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, not {value!r}")
    return value


def from_dict(d: dict) -> PotentialSpec:
    d = dict(d)
    kind = d.pop("kind", None)
    if kind not in _KINDS:
        raise ValueError(f"unknown potential kind {kind!r}")
    cls = _KINDS[kind]
    kwargs = {}
    for name, paired in _FIELDS[kind].items():
        if name not in d:
            raise ValueError(f"potential kind {kind!r} needs field {name!r}")
        value = d.pop(name)
        if not paired:
            kwargs[name] = _number(name, value)
        elif isinstance(value, list) and all(isinstance(pair, list) and len(pair) == 2
                                             for pair in value):
            kwargs[name] = tuple(tuple(_number(f"each entry of {name}", v) for v in pair)
                                 for pair in value)
        else:
            raise ValueError(f"{name} must be a list of 2-number lists, not {value!r}")
    kwargs["mass"] = float(_number("mass", d.pop("mass", 1.0)))
    kwargs["hbar"] = float(_number("hbar", d.pop("hbar", 1.0)))
    if d:
        raise ValueError(f"unexpected fields for {kind!r}: {sorted(d)}")
    return cls(**kwargs)


def to_json(spec: PotentialSpec) -> str:
    return json.dumps(to_dict(spec), sort_keys=True)


def from_json(text: str) -> PotentialSpec:
    return from_dict(json.loads(text))
