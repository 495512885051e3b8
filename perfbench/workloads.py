"""Seeded workloads, the jobs that run them, and the checks on each job's output.

A workload is a deck of blocks of entries, generated from the seed alone;
the timed loop deals the deck in order until its time is up and the current
block is complete. ``Preparer`` computes an entry's references, untimed, the
first time it is dealt, so a job's check is a comparison against stored
numbers.

- ``tail_scan``: solve, panel and transform each of the 8 kinds on the grids
  users ask for (CLI default, log tail grids, the two reference figures).
- ``verify_sweep``: ``momtail solve`` then ``momtail verify`` in-process, per
  config, writing into a scratch directory.
- ``solve_sweep``: solve -> discontinuities -> predict_tail, then the
  predicted tail on the verify grid; no quadrature.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

import reference as ref
from momtail import asymptotics, cli, eigensolve, momentum, potentials
from momtail.errors import NoBoundState, NoSuchState

WORKLOADS = ("tail_scan", "verify_sweep", "solve_sweep")

CLI_GRID = ("linear", -50.0, 50.0, 1001)      # momtail transform default
LOG_GRID = ("log", 1.0, 1000.0, 121)          # log:1:1000:40
FIG2_GRID = ("log", 1.0, 300.0, 241)

# solvers that find levels by scanning for sign changes (ROADMAP item 4)
_SCAN_KINDS = ("delta_sum", "step_sum", "hybrid_delta_step", "asymmetric_linear")


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


# Parameter ranges. verify_sweep draws broadly, as one user checking many
# configs would. tail_scan keeps the ranges that set the panel count (binding
# strength, well shape, n, the linear force) narrow: a weakly bound level
# spreads over a wide support and costs several times more to transform, and
# a run holds only a few dozen jobs, so broad draws would make one seed's run
# unlike another's.
BROAD = {"g": (0.8, 1.25), "sep": (1.0, 4.0), "depth": (4.0, 12.0), "width": (1.5, 3.0),
         "v1": (3.0, 8.0), "w1": (1.0, 2.5), "w2": (0.5, 2.0), "up": (0.2, 1.0),
         "down": (0.1, 0.5), "hyb_a": (0.5, 3.0), "force": (0.3, 1.0),
         "f_right": (0.3, 1.5), "f_left": (0.3, 1.5), "n_airy": (1, 12), "n_asym": (1, 10),
         "n_box": (1, 6), "most": 3}
TIGHT = {"g": (0.95, 1.05), "sep": (2.5, 4.0), "depth": (6.0, 10.0), "width": (1.8, 2.4),
         "v1": (5.0, 7.0), "w1": (1.5, 2.0), "w2": (1.0, 1.5), "up": (0.2, 0.6),
         "down": (0.1, 0.2), "hyb_a": (1.0, 2.0), "force": (0.45, 0.6),
         "f_right": (0.8, 1.2), "f_left": (0.3, 0.6), "n_airy": (9, 11), "n_asym": (4, 6),
         "n_box": (3, 4), "most": 2}


def _delta_chain(rng, count, g, sep):
    x, deltas = 0.0, []
    for _ in range(count):
        deltas.append([_u(rng, *g), round(x, 6)])
        x += _u(rng, *sep)
    return {"kind": "delta_sum", "deltas": deltas}


def _step_ladder(rng, r):
    v1, h2 = _u(rng, *r["v1"]), _u(rng, 0.5, 2.0)
    x1 = _u(rng, -1.0, 1.0)
    x2 = round(x1 + _u(rng, *r["w1"]), 6)
    x3 = round(x2 + _u(rng, *r["w2"]), 6)
    return {"kind": "step_sum",
            "steps": [[x1, -v1], [x2, h2], [x3, round(v1 - h2 + _u(rng, 0.2, 2.0), 6)]]}


def _finite_well(rng, r):
    a = _u(rng, -2.0, 0.0)
    return {"kind": "finite_well", "depth": _u(rng, *r["depth"]), "a": a,
            "b": round(a + _u(rng, *r["width"]), 6)}


def _hybrid(rng, r):
    """A delta+step whose one level is bound by at least 5% of the depth
    (see _pick_level)."""
    while True:
        height = _u(rng, *r["up"]) if rng.random() < 0.5 else -_u(rng, *r["down"])
        cfg = {"kind": "hybrid_delta_step", "g": _u(rng, *r["g"]),
               "step_height": height, "a": _u(rng, *r["hyb_a"])}
        if ref.level_count(cfg, margin=0.05):
            return cfg


def _asym(rng, r):
    return {"kind": "asymmetric_linear", "force_right": _u(rng, *r["f_right"]),
            "force_left": _u(rng, *r["f_left"])}


def _entry(config, n=1, parity=None, grid=None, tag=""):
    return {"config": config, "n": n, "parity": parity, "grid": grid, "tag": tag}


def _pick_level(rng, config, most):
    """A level index drawn from 1..most among levels bound by at least 5% of
    the well's depth: a level at the continuum edge spreads over thousands
    of decay lengths and one such job can outlast the rest of the run."""
    return rng.randint(1, max(1, min(most, ref.level_count(config, margin=0.05))))


def _level(rng, lo, hi, stratum):
    """A level index in lo..hi; with ``stratum`` (i, k), drawn from the i-th
    of k equal slices of the range, so that k blocks span it evenly."""
    if stratum is None:
        return rng.randint(lo, hi)
    i, k = stratum
    width = (hi - lo + 1) / k
    return int(rng.uniform(lo + i * width, lo + (i + 1) * width))


def _kind_entries(rng, grid, r, stratum=None):
    """One entry of each of the 8 kinds, plus a two-delta chain, on the grid.
    ``stratum`` spreads the Airy levels, which set most of a job's cost,
    evenly over a deck's blocks (see _level)."""
    chain = _delta_chain(rng, 2, r["g"], r["sep"])
    well, ladder = _finite_well(rng, r), _step_ladder(rng, r)
    return [
        _entry({"kind": "delta_sum", "deltas": [[_u(rng, *r["g"]), _u(rng, -3.0, 3.0)]]},
               grid=grid),
        _entry({"kind": "infinite_well", "length": _u(rng, 2.0, 6.0)},
               rng.randint(*r["n_box"]), grid=grid),
        _entry(well, _pick_level(rng, well, r["most"]), grid=grid),
        _entry(ladder, _pick_level(rng, ladder, r["most"]), grid=grid),
        _entry(_hybrid(rng, r), grid=grid),
        _entry({"kind": "bouncer", "force": _u(rng, *r["force"])},
               _level(rng, *r["n_airy"], stratum), grid=grid),
        _entry({"kind": "symmetric_linear", "force": _u(rng, *r["force"])},
               _level(rng, *r["n_airy"], stratum), rng.choice(("even", "odd")), grid=grid),
        _entry(_asym(rng, r), _level(rng, *r["n_asym"], stratum), grid=grid),
        _entry(chain, _pick_level(rng, chain, 2), grid=grid),
    ]


# blocks per deck: enough distinct inputs that a run's average does not hinge
# on a few draws; the loop deals blocks in order and wraps around
BLOCKS = {"tail_scan": 6, "verify_sweep": 8, "solve_sweep": 4}


def _tail_block(rng):
    lin = _kind_entries(rng, CLI_GRID, TIGHT)
    log = _kind_entries(rng, LOG_GRID, TIGHT)
    # the single delta is the CLI default config; the chain rides the log grid
    return [e for pair in zip(lin[:8], log[:8]) for e in pair] + [log[8]] + [
        _entry({"kind": "bouncer", "force": 0.5}, 10, grid="figure1", tag="figure 1"),
        _entry({"kind": "symmetric_linear", "force": 0.5}, 11, "even",
               grid=FIG2_GRID, tag="figure 2"),
        _entry({"kind": "symmetric_linear", "force": 0.5}, 11, "odd",
               grid=FIG2_GRID, tag="figure 2"),
    ]


# The seed's delta-chain solver scans 4001 energies from -m (sum g)^2 / 2 hbar^2
# up to 0 for sign changes, so it loses or confuses two levels (or the top
# level and 0) that lie within one scan cell: the known defect of ROADMAP
# item 4. solve_sweep keeps the chains whose reference levels are at least
# RESOLVED_CELLS cells apart, so that no timed job fails; the fixed
# KNOWN_DEFECT_PROBES show in every run whether the defect is still there.
SCAN_CELLS = 4000
RESOLVED_CELLS = 3.0


def _resolvable(chain: dict) -> bool:
    """True if the chain's levels are resolvable by the seed's scan
    (unit mass and hbar)."""
    count = len(chain["deltas"])
    levels = [e for e in (ref.delta_chain_energy(chain, k) for k in range(1, count + 1))
              if e is not None] + [0.0]
    cell = sum(g for g, _ in chain["deltas"]) ** 2 / 2.0 / SCAN_CELLS
    return min(b - a for a, b in zip(levels, levels[1:])) >= RESOLVED_CELLS * cell


def _solve_block(rng):
    """Eigensolver states: as many cheap jobs (closed forms, Airy zeros,
    hybrids) as costly asymmetric-linear scans, so the median job lands
    among the mid-cost delta chains and step ladders."""
    r = BROAD
    block = []
    for count in (2, 3, 4, 5, 2, 3, 4, 5):
        chain = _delta_chain(rng, count, r["g"], (0.5, 25.0))
        while not _resolvable(chain):
            chain = _delta_chain(rng, count, r["g"], (0.5, 25.0))
        block.append(_entry(chain, rng.randint(1, count)))
    for _ in range(4):
        ladder = _step_ladder(rng, r)
        block.append(_entry(ladder, _pick_level(rng, ladder, 4)))
    for _ in range(2):
        well = _finite_well(rng, r)
        block.append(_entry(well, _pick_level(rng, well, 4)))
    for center in (3, 8, 13, 18, 23, 28):
        block.append(_entry(_asym(rng, TIGHT), rng.randint(center - 1, center + 1)))
    for lo, hi in ((1, 15), (16, 30)):
        block.append(_entry({"kind": "bouncer", "force": _u(rng, *r["force"])},
                            rng.randint(lo, hi)))
        block.append(_entry({"kind": "symmetric_linear", "force": _u(rng, *r["force"])},
                            rng.randint(lo, hi), rng.choice(("even", "odd"))))
    for _ in range(2):
        block.append(_entry(_hybrid(rng, r)))
    return block


def make_deck(workload: str, seed: int) -> list[dict]:
    """The workload's inputs: a pure function of (workload, seed)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"momtail-perfbench:{workload}:{seed}")
    deck = []
    for b in range(BLOCKS[workload]):
        if workload == "tail_scan":
            deck += _tail_block(rng)
        elif workload == "verify_sweep":
            deck += _kind_entries(rng, None, BROAD, (b, BLOCKS[workload]))
        else:
            deck += _solve_block(rng)
    return deck


def describe(deck: list[dict]) -> str:
    """Canonical JSON of a deck's inputs."""
    return json.dumps([{k: e[k] for k in ("config", "n", "parity", "grid", "tag")}
                       for e in deck], sort_keys=True)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def _grid(desc, energy: float) -> np.ndarray:
    if desc == "figure1":     # momtail figure 1: +-2Q with Q = sqrt(2 m E)
        q = math.sqrt(2.0 * energy)
        return np.linspace(-2.0 * q, 2.0 * q, 1201)
    kind, lo, hi, count = desc
    if kind == "linear":
        return np.linspace(lo, hi, count)
    return np.geomspace(lo, hi, count)


def _check_indices(grid: np.ndarray) -> np.ndarray:
    """Grid points near |p| = 0, 1, 3, 10, 30, 100 (those the grid reaches)."""
    picks = {int(np.argmin(np.abs(np.abs(grid) - t))) for t in (0.0, 1.0, 3.0, 10.0, 30.0, 100.0)
             if t <= np.max(np.abs(grid))}
    return np.array(sorted(picks))


def _tail_grid(cfg: dict, energy: float) -> np.ndarray:
    """The grid ``momtail verify`` samples: 40 per decade from 10 p_scale."""
    lo = 10.0 * ref.p_scale(cfg, energy)
    hi = max(1e3, 20.0 * lo)
    return np.geomspace(lo, hi, max(2, int(math.ceil(math.log10(hi / lo) * 40)) + 1))


def _nodes_checkable(cfg: dict) -> bool:
    """False for delta chains: a chain level's nodes can sit where |psi| is
    below double-precision resolution (far from the deltas it lives on).
    There the Birman-Schwinger energy alone fixes the level index."""
    return cfg["kind"] != "delta_sum" or len(cfg["deltas"]) == 1


class Preparer:
    """Computes an entry's references the first time the loop deals it.

    Also runs the ODE-shooting oracle once per kind it handles, on that
    kind's first level, as a cross-check of the reference route itself.
    """

    def __init__(self, workload: str, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.oracle_checks = 0
        self.oracle_max_diff = 0.0
        self._oracle_done: set[str] = set()
        self._count = 0

    def __call__(self, e: dict) -> None:
        if "spec" in e:
            return
        cfg, n, parity = e["config"], e["n"], e["parity"]
        self._count += 1
        e["kind"] = cfg["kind"]
        e["spec"] = potentials.from_dict(cfg)
        e["energy"] = ref.reference_energy(cfg, n, parity)
        e["exponent"] = ref.expected_exponent(cfg["kind"], parity)
        e["levels"] = []
        if cfg["kind"] == "delta_sum" and len(cfg["deltas"]) > 1:
            e["levels"] = [ref.delta_chain_energy(cfg, k)
                           for k in range(1, len(cfg["deltas"]) + 1)]
        # node count of the program's own state
        e["nodes_ok"] = None
        state = None
        if e["energy"] is not None:
            try:
                state = eigensolve.solve(e["spec"], n, parity)
            except (NoSuchState, NoBoundState):
                state = None
            if state is not None and _nodes_checkable(cfg):
                e["nodes_ok"] = (ref.count_nodes(state.psi, state.support, state.osc_scale)
                                 == ref.expected_nodes(cfg["kind"], n, parity))
        if (e["energy"] is not None and cfg["kind"] in ("asymmetric_linear", "hybrid_delta_step")
                and cfg["kind"] not in self._oracle_done):
            self._oracle_done.add(cfg["kind"])
            half = 1e-3 * max(1.0, abs(e["energy"]))
            shot = eigensolve.shooting_oracle(
                e["spec"], (e["energy"] - half, e["energy"] + half), n, parity)
            self.oracle_checks += 1
            self.oracle_max_diff = max(self.oracle_max_diff, abs(shot.energy - e["energy"]))
        if self.workload == "tail_scan":
            self._tail(e, state)
        elif self.workload == "verify_sweep":
            self._verify(e)
        else:
            e["p"] = (_tail_grid(cfg, e["energy"]) if e["energy"] is not None
                      else np.geomspace(10.0, 1e3, 81))

    def _tail(self, e, state):
        e["p"] = _grid(e["grid"], e["energy"])
        e["check_idx"] = _check_indices(e["p"])
        e["phi_ref"] = e["phi_closed"] = None
        if state is None:
            return
        hbar = e["spec"].hbar
        e["phi_ref"] = ref.phi_gauss(state.psi, state.support, state.breaks,
                                     state.osc_scale, e["p"][e["check_idx"]], hbar)
        if e["kind"] == "delta_sum":
            e["phi_closed"] = momentum.phi_closed_delta(e["spec"], state, e["p"]).phi
        elif e["kind"] == "infinite_well":
            e["phi_closed"] = momentum.phi_closed_well(
                e["spec"], e["n"], e["p"], e["spec"].mass, hbar).phi

    def _verify(self, e):
        e["dir"] = self.workdir / f"entry{self._count:04d}"
        e["dir"].mkdir(parents=True, exist_ok=True)
        run_cfg = {"potential": e["config"], "n": e["n"]}
        if e["parity"] is not None:
            run_cfg["parity"] = e["parity"]
        e["config_path"] = e["dir"] / "config.json"
        e["config_path"].write_text(json.dumps(run_cfg))
        e["points"] = (0 if e["energy"] is None
                       else _tail_grid(e["config"], e["energy"]).size)


# ---------------------------------------------------------------------------
# jobs: each returns (outputs, momentum samples delivered)
# ---------------------------------------------------------------------------

def _plain(name, fn, *args):
    return fn(*args)


def run_tail(e, call=_plain):
    """momtail transform / figure: solve, transform on the grid, and the
    classical density or the predicted tail where the CLI emits them."""
    spec = e["spec"]
    try:
        state = eigensolve.solve(spec, e["n"], e["parity"])
        samples = momentum.phi_quadrature(state, e["p"], spec.hbar)
        if e["kind"] in ("bouncer", "symmetric_linear", "infinite_well"):
            momentum.classical_momentum_density(spec, e["n"], e["p"], e["parity"])
        prediction = None
        if e["tag"] == "figure 2":
            prediction = asymptotics.predict_tail(state, potentials.discontinuities(spec))
    except Exception as exc:      # classified by check_tail
        return {"error": exc}, 0
    return {"state": state, "phi": samples.phi, "prediction": prediction}, e["p"].size


def _invoke(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=args, prog_name="momtail", standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
    return 0


def run_verify(e, call=_plain):
    """momtail solve, then momtail verify, on the entry's config file."""
    base = ["--config", str(e["config_path"]), "--out", str(e["dir"])]
    codes = [call("cli.main", _invoke, [command] + base) for command in ("solve", "verify")]
    return {"codes": codes}, e["points"] if codes[1] in (0, 1) else 0


def run_solve(e, call=_plain):
    """solve -> discontinuities -> predict_tail, then the predicted phi on
    the verify tail grid."""
    spec = e["spec"]
    try:
        state = eigensolve.solve(spec, e["n"], e["parity"])
        records = potentials.discontinuities(spec)
        prediction = asymptotics.predict_tail(state, records, mass=spec.mass, hbar=spec.hbar)
        series = prediction.series(e["p"])
    except Exception as exc:      # classified by check_solve
        return {"error": exc}, 0
    return {"state": state, "prediction": prediction, "series": series}, e["p"].size


def clear_outputs(e) -> None:
    """Remove the previous job's files so each check reads fresh output."""
    for name in ("solve.json", "verify.json"):
        (e["dir"] / name).unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# checks: each returns None when the job is right, else (reason, known)
# ---------------------------------------------------------------------------

def _known(e, reason: str, energy: float | None) -> bool:
    """Failures the seed is known to have (ROADMAP item 4): scan solvers
    refusing levels that exist, solve_hybrid ignoring n, and delta chains
    whose close levels share a cell of the energy scan, so the solver returns
    another level of the chain or loses digits (off by less than 1e-6).
    Also the CLI's trapezoid norm_check, off by more than 1e-4 on a level
    bound by less than 5% of its depth, whose support is hundreds of decay
    lengths wide."""
    if reason == "refused":
        return e["kind"] in _SCAN_KINDS
    if reason == "phantom":
        return e["kind"] == "hybrid_delta_step"
    if reason == "norm":
        return ref.level_count(e["config"], margin=0.05) < e["n"]
    if reason == "energy" and e["levels"]:
        return (abs(energy - e["energy"]) < 1e-6
                or any(ref.energy_matches(energy, level) for level in e["levels"]))
    return False


def _fail(e, reason, energy=None):
    return reason, _known(e, reason, energy)


def _check_state(e, out):
    """Shared: refusal, existence and energy against the reference."""
    if "error" in out:
        if isinstance(out["error"], (NoSuchState, NoBoundState)):
            return None if e["energy"] is None else _fail(e, "refused")
        return _fail(e, f"raised {type(out['error']).__name__}")
    if e["energy"] is None:
        return _fail(e, "phantom")
    if not ref.energy_matches(out["state"].energy, e["energy"]):
        return _fail(e, "energy", out["state"].energy)
    if e["nodes_ok"] is False:
        return _fail(e, "nodes")
    return None


def check_tail(e, out):
    bad = _check_state(e, out)
    if bad or "error" in out:
        return bad
    phi = out["phi"]
    if e["phi_ref"] is None or not ref.phi_matches(phi[e["check_idx"]], e["phi_ref"]):
        return _fail(e, "phi vs Gauss-Legendre")
    if e["phi_closed"] is not None and not ref.phi_matches(phi, e["phi_closed"]):
        return _fail(e, "phi vs closed form")
    if out["prediction"] is not None and out["prediction"].leading_exponent != e["exponent"]:
        return _fail(e, "exponent")
    return None


def check_solve(e, out):
    bad = _check_state(e, out)
    if bad or "error" in out:
        return bad
    if out["prediction"].leading_exponent != e["exponent"]:
        return _fail(e, "exponent")
    if not np.all(np.isfinite(out["series"])):
        return _fail(e, "series")
    return None


def check_verify(e, out):
    solve_code, verify_code = out["codes"]
    if solve_code == 2 or verify_code == 2:
        return None if e["energy"] is None else _fail(e, "refused")
    if e["energy"] is None:
        return _fail(e, "phantom")
    if solve_code != 0 or verify_code not in (0, 1):
        return _fail(e, f"exit codes {solve_code}, {verify_code}")
    try:
        solved = json.loads((e["dir"] / "solve.json").read_text())
        report = json.loads((e["dir"] / "verify.json").read_text())
    except (OSError, ValueError):
        return _fail(e, "missing output")
    for energy in (solved["energy"], report["energy"]):
        if not ref.energy_matches(energy, e["energy"]):
            return _fail(e, "energy", energy)
    if e["nodes_ok"] is False:
        return _fail(e, "nodes")
    if abs(solved["norm_check"] - 1.0) > 1e-4:
        return _fail(e, "norm")
    if report["predicted_exponent"] != e["exponent"]:
        return _fail(e, "exponent")
    window = report["comparison"]["window"]
    if abs(window[0] - 10.0 * ref.p_scale(e["config"], e["energy"])) > 1e-8 * window[0]:
        return _fail(e, "window")
    checks, comparison = report["checks"], report["comparison"]
    env_ok = comparison["max_rel_deviation"] <= checks["envelope_tolerance"]
    dev = comparison["exponent_deviation"]
    exp_ok = dev is None or abs(dev) <= checks["exponent_tolerance"]
    if report["pass"] != (env_ok and exp_ok) or report["pass"] != (verify_code == 0):
        return _fail(e, "verdict")
    return None


# ---------------------------------------------------------------------------
# known seed defects, probed once a run outside the timed loop
# ---------------------------------------------------------------------------

def _unit_pair(gap):
    return {"kind": "delta_sum", "deltas": [[1.0, 0.0], [1.0, gap]]}


# (job, entry): "solve" runs and checks the entry as a solve_sweep job;
# "cli_solve" runs ``momtail solve`` alone and checks its solve.json
KNOWN_DEFECT_PROBES = (
    [("solve", _entry(_unit_pair(gap), n, tag=f"two unit deltas, gap {gap}, n={n}"))
     for gap in (18.0, 20.0, 25.0) for n in (1, 2)]
    + [("solve",
        _entry({"kind": "hybrid_delta_step", "g": 1.0, "step_height": -0.3, "a": 2.0}, 2,
               tag="delta+step, n=2 (holds one level)")),
       ("cli_solve",
        _entry({"kind": "hybrid_delta_step", "g": 0.864794, "step_height": -0.468192,
                "a": 1.036333}, tag="delta+step bound by 0.3% of its depth, norm_check"))]
)


def _check_cli_solve(e, code):
    if code != 0:
        return _fail(e, f"exit code {code}")
    solved = json.loads((e["dir"] / "solve.json").read_text())
    if not ref.energy_matches(solved["energy"], e["energy"]):
        return _fail(e, "energy", solved["energy"])
    if abs(solved["norm_check"] - 1.0) > 1e-4:
        return _fail(e, "norm")
    return None


def probe_known_defects(workdir: Path) -> dict[str, str]:
    """Run and check each probe once.

    Returns each probe's outcome: "ok", "known: <reason>" while the seed
    defect is still there, or "failed: <reason>" for anything else.
    """
    prepare = {"solve": Preparer("solve_sweep", workdir),
               "cli_solve": Preparer("verify_sweep", workdir)}
    outcomes = {}
    for job, probe in KNOWN_DEFECT_PROBES:
        e = dict(probe)
        prepare[job](e)
        if job == "solve":
            bad = check_solve(e, run_solve(e)[0])
        else:
            code = _invoke(["solve", "--config", str(e["config_path"]),
                            "--out", str(e["dir"])])
            bad = _check_cli_solve(e, code)
        outcomes[e["tag"]] = ("ok" if bad is None
                              else f"{'known' if bad[1] else 'failed'}: {bad[0]}")
    return outcomes


RUNNERS = {"tail_scan": (run_tail, check_tail),
           "verify_sweep": (run_verify, check_verify),
           "solve_sweep": (run_solve, check_solve)}
