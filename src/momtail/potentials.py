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

Units: every spec carries explicit mass and hbar (default m = hbar = 1),
and they are read in one place: ``units``, the kind's ``Units``. Each
family names one natural origin x0 and length L (``natural()``): a
piecewise kind its first break, and the least of the span of its breaks and
each jump's own length, at which the jump's image is 2 in size (hbar^2/mg
for a delta); a linear kind 0 and the Airy length of its right-hand force;
the box 0 and its length. The solvers, the panels and the tail expansion
work on the spec's dimensionless image, where m = 1/2 and hbar = 1, x' =
(x - x0)/L, E' = E/E0 with E0 = hbar^2/2mL^2, and each jump in V^(k) is
L^k/E0 times its own (``Units.image``); ``Units`` carries their results
back to the user's units.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate, repeat
from typing import NamedTuple

from . import specfun
from .errors import NoSuchState

WALL = math.inf
# highest derivative order of psi in a derivative table, and so the deepest
# order of the predicted tail series, _TABLE_ORDER + 1: ``Units`` forms its
# half powers for j = 0.._TABLE_ORDER, one per order of either
_TABLE_ORDER = 5


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


def _power_product(*factors: tuple[float, float]) -> float:
    """The product of x ** e over (x, e) pairs of positive floats, formed on
    their mantissas in [1, 2) and their powers of two apart (``math.frexp``),
    so that it leaves the float range only where the product does: inf past
    it, a subnormal or 0.0 below. A power of two to a whole power is exact."""
    mantissa, exponent = 1.0, 0.0
    for x, e in factors:
        fraction, power = math.frexp(x)
        mantissa *= (2.0 * fraction) ** e
        exponent += (power - 1) * e
    whole = math.floor(exponent)
    try:
        return math.ldexp(mantissa * 2.0 ** (exponent - whole), whole)
    except OverflowError:
        return math.inf


def _normal(value: float) -> bool:
    """``value`` is a positive normal float: not 0, subnormal, negative, inf or NaN."""
    return sys.float_info.min <= value < math.inf


def airy_length(force: float, mass: float, hbar: float) -> float:
    """Airy length scale (hbar^2 / 2mF)^(1/3) of a linear potential of force F,
    formed without the quotient hbar^2 / 2mF (``_power_product``)."""
    third = 1.0 / 3.0
    return _power_product((hbar, 2.0 * third), (2.0, -third), (mass, -third), (force, -third))


class Units(NamedTuple):
    """Where a spec meets its dimensionless image, in which m = 1/2 and hbar = 1,
    so that psi'' = (V - E) psi: x = origin + length x', E = energy E' with
    energy = hbar^2 / 2m length^2, p = momentum p' with momentum = hbar /
    length, and psi(x) = psi'(x') / sqrt(length). ``of`` forms the factors
    the edges multiply by once: ``factors``, length^k / energy for k = -1, 0,
    1, and ``lengths`` and ``momenta``, length^-(j + 1/2) and momentum^(j +
    1/2) for j = 0.._TABLE_ORDER, or () where one of them is no normal float."""
    origin: float
    length: float
    energy: float
    momentum: float
    mass: float
    hbar: float
    factors: tuple = ()
    lengths: tuple = ()
    momenta: tuple = ()

    @classmethod
    def of(cls, origin: float, length: float, source: str, mass: float, hbar: float,
           energy: float | None = None) -> Units:
        """The units of the origin and ``length`` that ``source`` names, with the
        energy hbar^2 / 2m length^2 unless given. Raises ``ArithmeticError``
        naming the unit and ``source`` where the length, the energy or the
        momentum is not a positive normal float."""
        units = {"length": length}
        if _normal(length):
            units["energy"] = (0.5 * _power_product((hbar, 2.0), (mass, -1.0), (length, -2.0))
                               if energy is None else energy)
            units["momentum"] = hbar / length
        for name, value in units.items():
            if not _normal(value):
                raise ArithmeticError(
                    f"the unit {name} {value!r} is not a positive normal float: the length "
                    f"{length!r} is {source}, at m = {mass!r}, hbar = {hbar!r}")
        energy, momentum = units["energy"], units["momentum"]
        return cls(origin, length, energy, momentum, mass, hbar,
                   tuple(_power_product((length, k), (energy, -1.0)) for k in (-1.0, 0.0, 1.0)),
                   _half_powers(1.0 / length), _half_powers(momentum))

    def scale(self, value: float, order: int) -> float:
        """A value of V^(order) in the image, order -1, 0 or 1: ``value`` times
        length^order / energy."""
        return value * self.factors[order + 1]

    def image(self, record: DiscontinuityRecord) -> DiscontinuityRecord:
        """``record`` in the image: at (x - origin) / length, its jump ``scale``d."""
        return DiscontinuityRecord((record.location - self.origin) / self.length, record.order,
                                   self.scale(record.jump, record.order), record.is_wall)

    def derivatives(self, values) -> list[float]:
        """psi^(j) of the image in the user's units, j = 0.._TABLE_ORDER: each
        ``values[j]`` length^-(j + 1/2)."""
        return _scaled(values, 1.0 / self.length, self.lengths)

    def coefficients(self, values) -> list[complex]:
        """The coefficients of (p')^-n, n = 1.._TABLE_ORDER + 1, of the image in
        the user's units: each ``values[n - 1]`` (hbar / length)^(n - 1/2)."""
        return _scaled(values, self.momentum, self.momenta)


def _half_powers(base: float) -> tuple:
    """base^(j + 1/2), j = 0.._TABLE_ORDER, where all are normal floats (they
    run monotonically in j), else ()."""
    powers = tuple(accumulate(repeat(base, _TABLE_ORDER), operator.mul, initial=math.sqrt(base)))
    return powers if _normal(powers[0]) and _normal(powers[-1]) else ()


def _scaled(values, base: float, powers: tuple) -> list:
    """Each ``values[j]`` times base^(j + 1/2): by one product with
    ``powers[j]`` where there are powers, else one factor at a time, whose
    partial products run monotonically toward the result, so that none
    leaves the float range unless the result does."""
    if powers:
        return list(map(operator.mul, values, powers))
    out = []
    for j, value in enumerate(values):
        value *= math.sqrt(base)
        for _ in range(j):
            value *= base
        out.append(value)
    return out


@dataclass(frozen=True, kw_only=True)
class _Kind:
    """What every potential kind carries and gives, by itself or by its family.

    Its units ``mass`` and ``hbar`` (keyword-only, default 1), which only
    ``units`` reads, from the family's ``natural()`` origin and length;
    ``ledger()``, its discontinuity records sorted by location; ``potential(x)``, V(x) with
    WALL beyond infinite walls and delta spikes excluded; ``image_floor``, the
    image's floor V_floor' of V in the momentum scale sqrt(2m |E - V_floor|)
    that separates structure from tail; ``level_index(n, parity)``, the place
    of the state among all levels from 1 and the one
    check of a request, which every solver and ``classical_q`` read first;
    and ``classical_q(n, parity)``, the edge Q_n = sqrt(2m E_n) of the
    classical density, if any.
    Every parameter must be finite and mass and hbar positive; ``_check``
    adds the kind's own conditions.
    """
    mass: float = 1.0
    hbar: float = 1.0
    image_floor = 0.0

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

    @cached_property
    def units(self) -> Units:
        """The ``Units`` of the kind's ``natural()`` origin and length, formed
        on first read: a spec is immutable."""
        return Units.of(*self.natural(), self.mass, self.hbar)


class Piecewise(_Kind):
    """A V that is constant between the locations of its ``ledger()``, whose
    delta (order -1) and step (order 0) records with V = 0 at -infinity are
    the whole potential."""

    def natural(self) -> tuple[float, float, str]:
        """The first break, and the least of the span of the breaks and each
        record's length (hbar^2 / m |J|)^(1/(k+2)), at which the image of its
        jump J in V^(k) is 2 in size: hbar^2 / mg for a delta. A jump of 0
        sets no length."""
        records = self.ledger()
        first, last = records[0].location, records[-1].location
        lengths = [(last - first, f"the span of the breaks from {first!r} to {last!r}")
                   ] if len(records) > 1 else []
        for r in (r for r in records if r.jump):
            e = 1.0 / (r.order + 2)
            length = _power_product((self.hbar, 2.0 * e), (self.mass, -e), (abs(r.jump), -e))
            lengths.append((length, f"the length of the jump {r.jump!r} at x = {r.location!r}"))
        return first, *min(lengths)

    @cached_property
    def image_pieces(self) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
        """The image's (boundaries, the potentials of the regions between them,
        the delta coefficient at each boundary), summing the steps from V = 0
        at -infinity, formed on first read. Raises ``ArithmeticError`` naming
        the record whose image is no float."""
        units, ledger = self.units, self.ledger()
        records = [units.image(r) for r in ledger]
        for r, image in zip(ledger, records):
            if not (math.isfinite(image.location) and math.isfinite(image.jump)):
                raise ArithmeticError(
                    f"the image of the order-{r.order} jump {r.jump!r} at x = {r.location!r} "
                    f"is {image.jump!r} at x' = {image.location!r}, at the units "
                    f"{units.length!r} of length and {units.energy!r} of energy")
        return (tuple(r.location for r in records),
                tuple(accumulate((r.jump if r.order == 0 else 0.0 for r in records),
                                 initial=0.0)),
                tuple(r.jump if r.order == -1 else 0.0 for r in records))

    @property
    def image_floor(self) -> float:
        """The least potential of the image's regions, a float where the sum of
        the steps in the user's units may not be."""
        return min(self.image_pieces[1])

    def potential(self, x: float) -> float:
        """V(x), the steps below x summed from V = 0 at -infinity as
        ``image_pieces`` sums their images; at a boundary, the value of the
        region to its left."""
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

    def natural(self) -> tuple[float, float, str]:
        return 0.0, self.length, "the box length"

    def classical_q(self, n: int, parity: str | None = None) -> float:
        return self.units.momentum * (self.level_index(n, parity) * math.pi)


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


@dataclass(frozen=True)
class StepSum(Piecewise):
    """Sum of Heaviside steps: V(x) = sum_i h_i * Theta(x - a_i)."""
    steps: tuple[tuple[float, float], ...]    # (location a, height jump h)
    kind = "step_sum"

    def _check(self) -> None:
        if not self.steps:
            raise ValueError("need at least one step")
        object.__setattr__(self, "steps", tuple((float(a), float(h)) for a, h in self.steps))
        locs = [a for a, _ in self.steps]
        if sorted(locs) != locs or len(set(locs)) != len(locs):
            raise ValueError("step locations must be strictly increasing")
        if any(h == 0 for _, h in self.steps):
            raise ValueError("step heights must be nonzero")

    def ledger(self) -> list[DiscontinuityRecord]:
        return [DiscontinuityRecord(a, 0, h) for a, h in self.steps]


@dataclass(frozen=True)
class HybridDeltaStep(Piecewise):
    """Attractive delta of strength g at x = 0 plus a step of height V0 at x = a > 0."""
    g: float
    step_height: float
    a: float
    kind = "hybrid_delta_step"
    # 0 even below a negative step: ``verify``'s window starts at a multiple of
    # the momentum scale this floor sets, so moving it moves verdicts
    image_floor = 0.0

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

    @cached_property
    def units(self) -> Units:
        """0 and the Airy length rho of the right-hand force F, whose energy F rho
        is hbar^2 / 2m rho^2: the image's right-hand force is 1."""
        force = self.forces[0]
        rho = airy_length(force, self.mass, self.hbar)
        return Units.of(0.0, rho, f"the Airy length of F = {force!r}", self.mass, self.hbar,
                        force * rho)

    @cached_property
    def force_ratio(self) -> float:
        """Fbar / F, the image's left-hand force; WALL where Fbar is WALL, not where
        the quotient overflows. Raises ``ArithmeticError`` where it is not a
        positive normal float."""
        force, force_bar = self.forces
        ratio = force_bar if force_bar == WALL else force_bar / force
        if not (force_bar == WALL or _normal(ratio)):
            raise ArithmeticError(f"the image's force ratio Fbar/F = {ratio!r} is not a positive "
                                  f"normal float, at F = {force!r}, Fbar = {force_bar!r}")
        return ratio


class _OneForce(Linear):
    """A linear potential of a single force F > 0. Its Airy length and energy
    are its ``units``' length and energy."""

    def _check(self) -> None:
        if self.force <= 0:
            raise ValueError("force must be positive")

    def classical_q(self, n: int, parity: str | None = None) -> float:
        level = airy_level(self.level_index(n, parity), self.forces[1] == WALL)
        return self.units.momentum * math.sqrt(level)


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

    ``carrier`` is a spec or a ``Units``, the only place a bound state holds
    its mass and hbar (``state.units``); None means "use the carrier's
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
