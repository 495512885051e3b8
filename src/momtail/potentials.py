"""Catalog of 1D potentials with non-smooth structure and their discontinuity ledgers.

Each potential kind is an immutable dataclass. ``discontinuities`` extracts the
ledger of (location, order, jump) records that drive the momentum-space tail
predictions: order -1 marks a delta singularity or an infinite wall, order 0 a
finite step, order k >= 1 a kink in the k-th derivative of V.

Infinite walls are modeled as boundary conditions (psi = 0 beyond the wall),
not as a finite V -> infinity limit; they carry ``is_wall=True`` instead of a
finite jump value.

Units: every spec carries explicit mass and hbar (default m = hbar = 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

WALL = math.inf


@dataclass(frozen=True)
class DiscontinuityRecord:
    """A single non-smooth feature of the potential.

    ``order``: -1 for delta/wall, 0 for a step, k >= 1 for a kink in V^(k).
    ``jump``: V^(k)(a+) - V^(k)(a-); for a delta, the delta coefficient
    (negative for attraction). Walls carry is_wall=True and jump = nan.
    """
    location: float
    order: int
    jump: float
    is_wall: bool = False


@dataclass(frozen=True)
class DeltaSum:
    """V(x) = sum_i -g_i * delta(x - a_i), g_i > 0."""
    deltas: tuple[tuple[float, float], ...]   # (strength g, location a)
    mass: float = 1.0
    hbar: float = 1.0
    kind = "delta_sum"

    def __post_init__(self):
        if not self.deltas:
            raise ValueError("need at least one delta")
        object.__setattr__(self, "deltas", tuple((float(g), float(a)) for g, a in self.deltas))
        locs = [a for _, a in self.deltas]
        if any(g <= 0 for g, _ in self.deltas):
            raise ValueError("delta strengths must be positive")
        if sorted(locs) != locs or len(set(locs)) != len(locs):
            raise ValueError("delta locations must be strictly increasing")


@dataclass(frozen=True)
class InfiniteWell:
    """Impenetrable box on (0, L)."""
    length: float
    mass: float = 1.0
    hbar: float = 1.0
    kind = "infinite_well"

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("well width must be positive")


@dataclass(frozen=True)
class FiniteWell:
    """V = -V0 on (a, b), zero outside; V0 > 0."""
    depth: float
    a: float
    b: float
    mass: float = 1.0
    hbar: float = 1.0
    kind = "finite_well"

    def __post_init__(self):
        if self.depth <= 0:
            raise ValueError("well depth must be positive")
        if not self.a < self.b:
            raise ValueError("need a < b")


@dataclass(frozen=True)
class StepSum:
    """Sum of Heaviside steps: V(x) = sum_i h_i * Theta(x - a_i)."""
    steps: tuple[tuple[float, float], ...]    # (location a, height jump h)
    mass: float = 1.0
    hbar: float = 1.0
    kind = "step_sum"

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple((float(a), float(h)) for a, h in self.steps))
        locs = [a for a, _ in self.steps]
        if sorted(locs) != locs or len(set(locs)) != len(locs):
            raise ValueError("step locations must be strictly increasing")
        if any(h == 0 for _, h in self.steps):
            raise ValueError("step heights must be nonzero")


@dataclass(frozen=True)
class HybridDeltaStep:
    """Attractive delta of strength g at x = 0 plus a step of height V0 at x = a > 0."""
    g: float
    step_height: float
    a: float
    mass: float = 1.0
    hbar: float = 1.0
    kind = "hybrid_delta_step"

    def __post_init__(self):
        if self.g <= 0:
            raise ValueError("delta strength must be positive")
        if self.a <= 0:
            raise ValueError("step location must be positive")


@dataclass(frozen=True)
class Bouncer:
    """V = F*z for z >= 0, infinite wall at z = 0; F > 0."""
    force: float
    mass: float = 1.0
    hbar: float = 1.0
    kind = "bouncer"

    def __post_init__(self):
        if self.force <= 0:
            raise ValueError("force must be positive")

    @property
    def rho(self) -> float:
        """Airy length scale (hbar^2 / 2mF)^(1/3)."""
        return (self.hbar ** 2 / (2.0 * self.mass * self.force)) ** (1.0 / 3.0)

    @property
    def energy_scale(self) -> float:
        return self.force * self.rho


@dataclass(frozen=True)
class SymmetricLinear:
    """V = F*|z|; F > 0."""
    force: float
    mass: float = 1.0
    hbar: float = 1.0
    kind = "symmetric_linear"

    def __post_init__(self):
        if self.force <= 0:
            raise ValueError("force must be positive")

    @property
    def rho(self) -> float:
        return (self.hbar ** 2 / (2.0 * self.mass * self.force)) ** (1.0 / 3.0)

    @property
    def energy_scale(self) -> float:
        return self.force * self.rho


@dataclass(frozen=True)
class AsymmetricLinear:
    """V = F*z for z > 0, V = Fbar*|z| for z < 0; both forces positive."""
    force_right: float
    force_left: float
    mass: float = 1.0
    hbar: float = 1.0
    kind = "asymmetric_linear"

    def __post_init__(self):
        if self.force_right <= 0 or self.force_left <= 0:
            raise ValueError("forces must be positive")


PotentialSpec = (DeltaSum | InfiniteWell | FiniteWell | StepSum
                 | HybridDeltaStep | Bouncer | SymmetricLinear | AsymmetricLinear)


def discontinuities(spec: PotentialSpec) -> list[DiscontinuityRecord]:
    """Complete ledger of discontinuity records, sorted by location."""
    recs: list[DiscontinuityRecord]
    if isinstance(spec, DeltaSum):
        recs = [DiscontinuityRecord(a, -1, -g) for g, a in spec.deltas]
    elif isinstance(spec, InfiniteWell):
        recs = [DiscontinuityRecord(0.0, -1, math.nan, is_wall=True),
                DiscontinuityRecord(spec.length, -1, math.nan, is_wall=True)]
    elif isinstance(spec, FiniteWell):
        recs = [DiscontinuityRecord(spec.a, 0, -spec.depth),
                DiscontinuityRecord(spec.b, 0, +spec.depth)]
    elif isinstance(spec, StepSum):
        recs = [DiscontinuityRecord(a, 0, h) for a, h in spec.steps]
    elif isinstance(spec, HybridDeltaStep):
        recs = [DiscontinuityRecord(0.0, -1, -spec.g),
                DiscontinuityRecord(spec.a, 0, spec.step_height)]
    elif isinstance(spec, Bouncer):
        recs = [DiscontinuityRecord(0.0, -1, math.nan, is_wall=True)]
    elif isinstance(spec, SymmetricLinear):
        # V'' = 2F delta(z): V' jumps by 2F at the origin
        recs = [DiscontinuityRecord(0.0, 1, 2.0 * spec.force)]
    elif isinstance(spec, AsymmetricLinear):
        recs = [DiscontinuityRecord(0.0, 1, spec.force_right + spec.force_left)]
    else:
        raise TypeError(f"unknown potential spec {spec!r}")
    return sorted(recs, key=lambda r: r.location)


def evaluate(spec: PotentialSpec, x: float) -> float:
    """Pointwise V(x); WALL (inf) beyond infinite walls; delta spikes excluded."""
    if isinstance(spec, DeltaSum):
        return 0.0
    if isinstance(spec, InfiniteWell):
        return 0.0 if 0.0 <= x <= spec.length else WALL
    if isinstance(spec, FiniteWell):
        return -spec.depth if spec.a < x < spec.b else 0.0
    if isinstance(spec, StepSum):
        return sum(h for a, h in spec.steps if x > a)
    if isinstance(spec, HybridDeltaStep):
        return spec.step_height if x > spec.a else 0.0
    if isinstance(spec, Bouncer):
        return spec.force * x if x >= 0.0 else WALL
    if isinstance(spec, SymmetricLinear):
        return spec.force * abs(x)
    if isinstance(spec, AsymmetricLinear):
        return spec.force_right * x if x >= 0.0 else spec.force_left * (-x)
    raise TypeError(f"unknown potential spec {spec!r}")


_KINDS = {cls.kind: cls for cls in
          (DeltaSum, InfiniteWell, FiniteWell, StepSum, HybridDeltaStep,
           Bouncer, SymmetricLinear, AsymmetricLinear)}

# each kind's own parameters, in declaration order; mass and hbar are optional
_FIELDS = {kind: tuple(f.name for f in fields(cls) if f.name not in ("mass", "hbar"))
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


def from_dict(d: dict) -> PotentialSpec:
    d = dict(d)
    kind = d.pop("kind", None)
    if kind not in _KINDS:
        raise ValueError(f"unknown potential kind {kind!r}")
    cls = _KINDS[kind]
    kwargs = {}
    for name in _FIELDS[kind]:
        if name not in d:
            raise ValueError(f"potential kind {kind!r} needs field {name!r}")
        value = d.pop(name)
        if isinstance(value, list):
            value = tuple(tuple(pair) for pair in value)
        kwargs[name] = value
    kwargs["mass"] = float(d.pop("mass", 1.0))
    kwargs["hbar"] = float(d.pop("hbar", 1.0))
    if d:
        raise ValueError(f"unexpected fields for {kind!r}: {sorted(d)}")
    return cls(**kwargs)


def to_json(spec: PotentialSpec) -> str:
    return json.dumps(to_dict(spec), sort_keys=True)


def from_json(text: str) -> PotentialSpec:
    return from_dict(json.loads(text))
