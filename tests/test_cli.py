"""End-to-end CLI runs via click's test runner."""

import contextlib
import gc
import io
import json
import math
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

from momtail import asymptotics as asy
from momtail import eigensolve as eig
from momtail import potentials as pot
from momtail.cli import main
from momtail.errors import NoConvergence

DELTA_CFG = {"potential": {"kind": "delta_sum", "deltas": [[1.0, 0.0]]}}
BOUNCER_CFG = {"potential": {"kind": "bouncer", "force": 0.5}, "n": 3}
ASYMLIN_CFG = {"potential": {"kind": "asymmetric_linear", "force_right": 0.5,
                             "force_left": 2.0}, "n": 5}
WELL_CFG = {"potential": {"kind": "infinite_well", "length": math.pi}, "n": 2,
            "grid": {"kind": "linear", "min": -30.0, "max": 30.0, "count": 201}}


@pytest.fixture
def runner():
    return CliRunner()


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_solve_delta_energy(runner, tmp_path):
    cfg = write_cfg(tmp_path, DELTA_CFG)
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0
    report = json.loads((tmp_path / "solve.json").read_text())
    assert report["energy"] == pytest.approx(-0.5, rel=1e-12)
    assert report["norm_check"] == pytest.approx(1.0, abs=1e-4)
    assert "0" in report["derivative_table"]


def test_solve_bouncer_energy(runner, tmp_path):
    cfg = write_cfg(tmp_path, BOUNCER_CFG)
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0
    report = json.loads((tmp_path / "solve.json").read_text())
    zeta3 = 5.520559828095551
    assert report["energy"] == pytest.approx(0.5 * zeta3, rel=1e-10)


WEAK_HYBRID_CFG = {"potential": {"kind": "hybrid_delta_step", "g": 0.864794,
                                  "step_height": -0.468192, "a": 1.036333}}


def test_hybrid_second_state_exits_2(runner, tmp_path):
    cfg = write_cfg(tmp_path, WEAK_HYBRID_CFG)
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path),
                               "--n", "2"])
    assert res.exit_code == 2
    assert not (tmp_path / "solve.json").exists()


@pytest.mark.parametrize("potential", [
    WEAK_HYBRID_CFG["potential"],
    {"kind": "delta_sum", "deltas": [[0.01, 0.0]]},
    {"kind": "delta_sum", "deltas": [[1.0, 0.0]], "hbar": 10.0},
], ids=["hybrid_bound_by_0.3%", "delta_g_0.01", "delta_hbar_10"])
def test_norm_check_of_wide_state(runner, tmp_path, potential):
    # supports from about 850 to 8400 wide
    cfg = write_cfg(tmp_path, {"potential": potential})
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0
    report = json.loads((tmp_path / "solve.json").read_text())
    assert abs(report["norm_check"] - 1.0) < 1e-10


DELTA_PAIR_GAP_12 = {"kind": "delta_sum", "deltas": [[1.0, 0.0], [1.0, 12.0]]}
FIVE_DELTA_CHAIN = {"kind": "delta_sum", "deltas": [[1.1, 0.0], [0.9, 3.0], [1.2, 7.5],
                                                    [1.0, 10.0], [0.85, 22.0]]}
WIDE_STATES = [
    ({"kind": "delta_sum", "deltas": [[0.01, 0.0]]}, 1),
    ({"kind": "delta_sum", "deltas": [[1.0, 0.0]], "hbar": 10.0}, 1),
    ({"kind": "finite_well", "depth": 0.01, "a": -1.0, "b": 1.0}, 1),
    (DELTA_PAIR_GAP_12, 1),
    (DELTA_PAIR_GAP_12, 2),
    (FIVE_DELTA_CHAIN, 3),
]
WIDE_IDS = ["delta_g_0.01", "delta_hbar_10", "finite_well_depth_0.01",
            "delta_pair_gap_12_n1", "delta_pair_gap_12_n2", "five_delta_chain_n3"]


@pytest.mark.parametrize("potential,n", WIDE_STATES, ids=WIDE_IDS)
def test_transform_of_wide_state(runner, tmp_path, potential, n):
    # decay lengths of 100 and more: the panel width follows the support;
    # chains 12 to 22 apart: psi between the deltas is smooth enough for the
    # panels' tolerance
    cfg = write_cfg(tmp_path, {"potential": potential, "n": n})
    res = runner.invoke(main, ["transform", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    lines = (tmp_path / "transform.csv").read_text().strip().split("\n")
    assert len(lines) == 1002


# the ladder's last two steps lie 1e-6 apart at x = 1, and at x' = 1 of its
# image: the panel between them spans ~2e9 ulps of its center
NARROW_CFG = {"potential": {"kind": "step_sum", "steps": [[0, -5], [1, 4], [1.000001, 1]]}}


def test_transform_of_unplaceable_narrow_state_exits_1(runner, tmp_path):
    cfg = write_cfg(tmp_path, NARROW_CFG)
    res = runner.invoke(main, ["transform", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert not (tmp_path / "transform.csv").exists()


def test_solve_of_unplaceable_narrow_state_exits_1(runner, tmp_path):
    cfg = write_cfg(tmp_path, NARROW_CFG)
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert "quadrature error" in res.output
    assert not (tmp_path / "solve.json").exists()


def test_solve_of_noisy_psi_exits_1(runner, tmp_path, monkeypatch):
    # a psi its own panel expansions cannot reproduce: solve refuses it as
    # transform and verify do
    import dataclasses

    import momtail.eigensolve as eig
    solve = eig.solve

    def noisy_solve(*args):
        st = solve(*args)
        clean = st.image.psi_and_slope

        def noisy(x):
            psi, slope = clean(x)
            return psi + 1e-9 * np.sin(1e7 * x), slope

        return dataclasses.replace(st, image=dataclasses.replace(st.image, psi_and_slope=noisy))

    monkeypatch.setattr(eig, "solve", noisy_solve)
    cfg = write_cfg(tmp_path, DELTA_CFG)
    for command in ("solve", "transform", "verify"):
        res = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 1, (command, res.output)
        assert res.output.startswith("quadrature error:")
        assert not (tmp_path / OUTPUTS[command]).exists()


def test_solve_of_narrow_delta_at_origin(runner, tmp_path):
    cfg = write_cfg(tmp_path, {"potential": {"kind": "delta_sum", "deltas": [[1e14, 0.0]]}})
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    report = json.loads((tmp_path / "solve.json").read_text())
    assert abs(report["norm_check"] - 1.0) <= 1e-13
    assert 0.0 <= report["norm_check_error"] <= 1e-12


def test_verify_of_weak_delta(runner, tmp_path):
    cfg = write_cfg(tmp_path, {"potential": WIDE_STATES[0][0]})
    res = runner.invoke(main, ["verify", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert json.loads((tmp_path / "verify.json").read_text())["pass"] is True


def test_verify_of_delta_with_hbar_10(runner, tmp_path):
    # the predicted tail scales with hbar, as phi's does
    cfg = write_cfg(tmp_path, {"potential": WIDE_STATES[1][0]})
    res = runner.invoke(main, ["verify", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["pass"] is True
    assert report["comparison"]["max_rel_deviation"] < 0.05


@pytest.mark.parametrize("n", [1, 2])
def test_verify_of_distant_delta_pair(runner, tmp_path, n):
    cfg = write_cfg(tmp_path, {"potential": DELTA_PAIR_GAP_12, "n": n})
    res = runner.invoke(main, ["verify", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert json.loads((tmp_path / "verify.json").read_text())["pass"] is True


def test_invalid_config_exits_2(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    res = runner.invoke(main, ["solve", "--config", str(path)])
    assert res.exit_code == 2
    res = runner.invoke(main, ["solve", "--config",
                               write_cfg(tmp_path, {"potential": {"kind": "zzz"}})])
    assert res.exit_code == 2


@pytest.mark.parametrize("cfg", [
    {"potential": {"kind": "finite_well", "depth": "x", "a": -1.0, "b": 1.0}},
    {**DELTA_CFG, "n": None},
    {**DELTA_CFG, "grid": {"kind": "linear", "min": "-50", "max": 50.0, "count": 11}},
    {"potential": {"kind": "delta_sum", "deltas": [1, 0]}},
    {**DELTA_CFG, "n": 1.9},
    {**DELTA_CFG, "n": "2"},
    {**DELTA_CFG, "parity": "sideways"},
    {"N": 2, **DELTA_CFG},
    {**DELTA_CFG, "grid": {"kind": "log", "min": 1, "max": 1000, "per_decad": 2}},
    {**DELTA_CFG, "grid": {"kind": "log", "min": 1, "max": 10, "count": 3}},
    {**DELTA_CFG, "grid": {"kind": "log", "min": True, "max": 1000}},
    {**DELTA_CFG, "grid": {"kind": "log", "min": 1, "max": 1000, "per_decade": True}},
    {**DELTA_CFG, "grid": {"kind": "linear", "min": False, "max": True, "count": 3}},
    # a grid numpy refuses before it allocates it
    {**DELTA_CFG, "grid": {"kind": "log", "min": 1, "max": 10, "per_decade": 1e308}},
], ids=["string_depth", "null_n", "string_grid_min", "flat_deltas", "fractional_n",
        "string_n", "unknown_parity", "unknown_field", "unknown_grid_field",
        "count_of_log_grid", "bool_grid_min", "bool_per_decade", "bool_grid_bounds",
        "unallocatable_grid"])
def test_config_of_wrong_field_type_exits_2(runner, tmp_path, cfg):
    # transform reads every field of a config, the grid too
    res = runner.invoke(main, ["transform", "--config", write_cfg(tmp_path, cfg),
                               "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert res.output.startswith("config error:"), res.output
    assert not (tmp_path / "transform.csv").exists()


def test_no_such_state_exits_2(runner, tmp_path):
    cfg = write_cfg(tmp_path, {**DELTA_CFG, "n": 2})
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 2


# a kind other than the symmetric linear one has no parity to choose: a
# parity it does not read is refused, not ignored
UNREAD_PARITY = {
    "finite_well_odd": ({"kind": "finite_well", "depth": 10, "a": -1, "b": 1}, 1, "odd"),
    "bouncer_even": ({"kind": "bouncer", "force": 1}, 2, "even"),
    "delta_odd": ({"kind": "delta_sum", "deltas": [[1.0, 0.0]]}, 1, "odd"),
}
OUTPUTS = ("solve.json", "transform.csv", "predict.csv", "verify.json")


@pytest.mark.parametrize("command", ["solve", "transform", "predict", "verify"])
@pytest.mark.parametrize("from_flag", [False, True], ids=["config", "flag"])
@pytest.mark.parametrize("name", UNREAD_PARITY)
def test_parity_the_kind_does_not_read_exits_2(runner, tmp_path, command, from_flag, name):
    potential, n, parity = UNREAD_PARITY[name]
    cfg = {"potential": potential, "n": n}
    flags = ["--parity", parity] if from_flag else []
    if not from_flag:
        cfg["parity"] = parity
    res = runner.invoke(main, [command, "--config", write_cfg(tmp_path, cfg),
                               "--out", str(tmp_path), *flags])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("solve error:") and "no parity" in res.output, res.output
    assert not any((tmp_path / out).exists() for out in OUTPUTS)


def test_failed_root_polish_exits_2(runner, tmp_path, monkeypatch):
    # the polish raises a typed error, which the CLI reports as a solve
    # error instead of a traceback
    import momtail.eigensolve as eig

    def no_root(*args, **kwargs):
        raise NoConvergence("the root polish did not converge in 200 iterations")

    monkeypatch.setattr(eig, "_brentq", no_root)
    cfg = write_cfg(tmp_path, ASYMLIN_CFG)
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "solve error: the root polish did not converge" in res.output
    assert not (tmp_path / "solve.json").exists()


@pytest.mark.parametrize("command", ["solve", "transform", "predict", "verify"])
@pytest.mark.parametrize("n,code", [(1, 0), (2, 2)])
def test_delta_pair_with_zero_energy_resonance(runner, tmp_path, command, n, code):
    # the odd level of this pair sits exactly at E = 0 and cannot be normalised
    cfg = write_cfg(tmp_path, {"potential": {"kind": "delta_sum",
                                             "deltas": [[0.5, -1.0], [0.5, 1.0]]}, "n": n})
    res = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == code, res.output


# potential -> exit codes of solve, transform, predict and verify, and the
# start of the report of an exit 2
VANISH = "solve error: psi and psi' both vanish"
UNIT = "solve error: the unit "          # a unit of the image that is no normal float
NO_DIGIT = "solve error: the image's level"     # V' - E' in a region has no digit
CORNERS = {
    # a break deep in psi's tail, where psi ~ 1e-33: its jump is still a term
    "far_step_30": ({"kind": "step_sum", "steps": [[0, -5], [1, 5], [30, 1]]}, (0, 0, 0, 1), None),
    "far_step_12": ({"kind": "step_sum", "steps": [[0, -50], [1, 40], [12, 10]]},
                    (0, 0, 0, 1), None),
    "far_hybrid_step": ({"kind": "hybrid_delta_step", "g": 1, "step_height": 1, "a": 60},
                        (0, 0, 0, 0), None),
    # a step of height 0 sets no length of the image: the lone delta's level
    "hybrid_zero_step": ({"kind": "hybrid_delta_step", "g": 1, "step_height": 0, "a": 1},
                         (0, 0, 0, 0), None),
    # psi and psi' underflow to 0.0 at the step: no expansion rule applies
    "underflowed_step": ({"kind": "step_sum", "steps": [[0, -5], [1, 5], [400, 1]]},
                         (0, 0, 2, 2), VANISH),
    # decay lengths of ~1e6 and more
    "weak_well": ({"kind": "finite_well", "depth": 1e-6, "a": -1, "b": 1}, (0, 0, 0, 0), None),
    # its verify window ends at p' = pL/hbar = 2 in the image, where |phi| is
    # ~3e-16 of its peak, the transform's floor: the fit there is not conclusive
    "light_well": ({"kind": "finite_well", "depth": 10, "a": -1, "b": 1, "mass": 1e-3,
                    "hbar": 1e3}, (0, 0, 0, 0), None),
    # finite parameters whose image has a unit past the floats, or whose
    # level's V - E keeps no digit in the image
    "delta_strength_1e300": ({"kind": "delta_sum", "deltas": [[1e300, 0]]}, (2, 2, 2, 2), UNIT),
    "delta_1e300_apart": ({"kind": "delta_sum", "deltas": [[1, 0], [1, 1e300]]}, (2, 2, 2, 2),
                          "solve error: math range error"),
    "deltas_2e300_apart": ({"kind": "delta_sum", "deltas": [[1, -1e300], [1, 1e300]]},
                           (2, 2, 2, 2), "solve error: math range error"),
    "well_width_2e300": ({"kind": "finite_well", "depth": 1, "a": -1e300, "b": 1e300},
                         (2, 2, 2, 2), NO_DIGIT),
    # its level, about -2e-600, lies below the least float
    "well_width_2e-300": ({"kind": "finite_well", "depth": 1, "a": -1e-300, "b": 1e-300},
                          (2, 2, 2, 2), UNIT),
    "well_depth_1e300": ({"kind": "finite_well", "depth": 1e300, "a": -1, "b": 1},
                         (2, 2, 2, 2), NO_DIGIT),
    "steps_1e308": ({"kind": "step_sum", "steps": [[0, -1e308], [1, 1e308]]}, (2, 2, 2, 2),
                    NO_DIGIT),
    "box_length_1e-300": ({"kind": "infinite_well", "length": 1e-300}, (2, 2, 2, 2), UNIT),
    "delta_hbar_1e-300": ({"kind": "delta_sum", "deltas": [[1, 0]], "hbar": 1e-300},
                          (2, 2, 2, 2), UNIT),
    # the image of each is the unit bouncer, whose levels and tail are floats
    "bouncer_hbar_1e300": ({"kind": "bouncer", "force": 1, "hbar": 1e300}, (0, 0, 0, 0), None),
    "asymmetric_linear_hbar_1e80": ({"kind": "asymmetric_linear", "force_right": 1,
                                     "force_left": 2, "hbar": 1e80}, (0, 0, 0, 0), None),
    "bouncer_hbar_1e100": ({"kind": "bouncer", "force": 1, "hbar": 1e100}, (0, 0, 0, 0), None),
    # hbar^2/(2mF) ~ 1e420 overflowed inside the Airy length, though rho ~ 1e140
    "bouncer_airy_length_overflows": ({"kind": "bouncer", "force": 1.260115539745528e-57,
                                       "mass": 3.951075183959357e-103,
                                       "hbar": 3.552976742453059e+130}, (0, 0, 0, 0), None),
    # a decay length far below the spacing of floats near 8.84: the user's
    # support has no width, but the image's panels hold psi
    "delta_support_of_no_width": ({"kind": "delta_sum",
                                   "deltas": [[91807072675.58, 8.842752429756352]],
                                   "hbar": 2.834980478188222e-69}, (0, 0, 0, 0), None),
    # its image's level, ~-6e-323, is subnormal: no polish can place it, and
    # the refusal names its bracket
    "well_decay_rate_subnormal": ({"kind": "finite_well", "depth": 0.0037255896952591407,
                                   "a": 8.336484381689615, "b": 11.260204310160416,
                                   "mass": 1.2664391494423287e-54,
                                   "hbar": 7.271337262988827e+52}, (2, 2, 2, 2),
                                  "solve error: level 1 of the image lies below the least normal"),
    "well_phase_overflows": ({"kind": "finite_well", "depth": 1.9970470594996236e+16,
                              "a": -8.8186205376442, "b": 9979892.695408143,
                              "mass": 4.2853158678256596e+59, "hbar": 3.727383137147171e-131},
                             (2, 2, 2, 2), NO_DIGIT),
    # psi decays by e^-1e147 from the delta to the step: no panels tile the
    # decay, and psi and psi' are 0.0 at the step
    "hybrid_rate_overflows": ({"kind": "hybrid_delta_step", "g": 5.474948198392659e-09,
                               "step_height": -5.833444434236515e-20, "a": 1.752032314049523e-18,
                               "mass": 4.758068778416576e+49, "hbar": 2.878615471663187e-62},
                              (1, 1, 2, 2), VANISH),
    # hbar^2/2mL^2 ~ 1e-337 underflows: the level ~1e-336 is no float
    "box_energy_underflows": ({"kind": "infinite_well", "length": 3.288438015345917e+91,
                               "hbar": 1.5147329205249785e-77}, (2, 2, 2, 2), UNIT),
    # the image's unit box: hw ** 3 overflowed in the user's units and the
    # panel budget refused it
    "box_length_1e130": ({"kind": "infinite_well", "length": 1.0682506336238505e130,
                          "hbar": 1.1133668697572003e116}, (0, 0, 0, 1), None, {"n": 2}),
    # every jump of its derivative table underflows to 0.0 in the user's
    # units, but not in its image: its p^-5 term leads
    "odd_symmetric_linear_underflowed_jumps": ({"kind": "symmetric_linear",
                                                "force": 9.377102194054041e-53,
                                                "mass": 6.398718530779836e-137,
                                                "hbar": 6.661384639285105e+50}, (0, 0, 0, 1),
                                               None, {"n": 2, "parity": "odd"}),
    # an empty ladder passed its checks, and natural() read its first record
    "empty_ladder": ({"kind": "step_sum", "steps": []}, (2, 2, 2, 2),
                     "config error: need at least one step"),
    # Fbar/F = 1e400 overflows to inf, which solved as a wall: a bouncer's
    # level, and a p^-2 tail where a kink gives p^-4
    "force_ratio_overflows": ({"kind": "asymmetric_linear", "force_right": 1e-200,
                               "force_left": 1e200}, (2, 2, 2, 2),
                              "solve error: the image's force ratio Fbar/F = inf"),
    # the second step lies at x' = 1e300 / 1e-150, past the floats
    "step_image_past_the_floats": ({"kind": "step_sum", "steps": [[0, -1e300], [1e300, 1e300]]},
                                   (2, 2, 2, 2), "solve error: the image of the order-0 jump"),
    # census configs: the box's level 88.8 E0 overflows in the user's units,
    # and the ladder's right-hand V' - E' rounds to 0
    "box_energy_overflows": ({"kind": "infinite_well", "length": 7.639126308652009e-49,
                              "hbar": 2.846433555588882e+105}, (2, 2, 2, 2),
                             "solve error: the level's energy inf is not a normal float",
                             {"n": 3}),
    "ladder_decay_rate_subnormal": ({"kind": "step_sum",
                                     "steps": [[-1.7522262551807124, -1.9097129264003736e+19],
                                               [-1.7522262538098703, -555604722219696.4],
                                               [-1.7491894873794573, 3544.6055962175396]],
                                     "hbar": 1.2712689109633575e-131}, (2, 2, 2, 2),
                                    "solve error: the image's level -2.000058187250506 decays "
                                    "at a subnormal V' - E'"),
    # the ladder's floor, -2e308, is no float in the user's units, but its
    # image's, -2.67, is: verify reads the momentum scale 9.9e99 from it, and
    # its window, 10 to 200 times that, gives a verdict
    "ladder_floor_past_the_floats": ({"kind": "step_sum", "mass": 5e-109, "hbar": 1e100,
                                      "steps": [[0, -1e308], [1, -1e308], [2, 1e308],
                                                [3, 1.5e308]]}, (0, 0, 0, 1), None),
    # hw ** 3 of its panels overflowed in the user's units, with a numpy warning
    "well_panels_overflowed": ({"kind": "finite_well", "depth": 383854132125529.25,
                                "a": -7.68425025177822, "b": -6.267606834127363,
                                "mass": 5.943619722427872e-123}, (0, 0, 0, 1), None),
}
@pytest.mark.parametrize("name", CORNERS)
def test_corner_configs_exit_without_traceback(runner, tmp_path, name):
    potential, codes, report, *level = CORNERS[name]
    cfg = write_cfg(tmp_path, {"potential": potential, **(level[0] if level else {})})
    for command, code in zip(["solve", "transform", "predict", "verify"], codes):
        res = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == code, (command, res.output, res.exception)
        # an exception the CLI does not report would end the process with a traceback
        assert res.exception is None or type(res.exception) is SystemExit, command
        assert "Traceback" not in res.output
        if code == 2:
            assert res.output.startswith(report)


@pytest.mark.parametrize("command", ["solve", "transform", "predict", "verify"])
@pytest.mark.parametrize("potential,parity", [
    ({"kind": "bouncer", "force": 1}, None),
    ({"kind": "symmetric_linear", "force": 1}, "even"),
    ({"kind": "symmetric_linear", "force": 1}, "odd"),
], ids=["bouncer", "symmetric_linear_even", "symmetric_linear_odd"])
def test_airy_level_past_the_last_finite_zero_exits_2(runner, tmp_path, command, potential,
                                                      parity):
    # its zero lies beyond x = -1e6, where Ai is NaN; the NaN energy it gave
    # ended the run with a traceback
    cfg = write_cfg(tmp_path, {"potential": potential, "n": 3 * 10 ** 8, "parity": parity})
    res = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("solve error: the Airy zero polish met a NaN")


@pytest.mark.parametrize("command", ["predict", "verify"])
def test_odd_symmetric_linear_with_hbar_1e80(runner, tmp_path, command):
    # its p^-5 coefficient is 3.19e120, though hbar^5 = 1e400 overflows a float
    cfg = write_cfg(tmp_path, {"potential": {"kind": "symmetric_linear", "force": 1,
                                             "hbar": 1e80}, "parity": "odd"})
    res = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    if command == "predict":
        rows = [line.split(",") for line in
                (tmp_path / "predict.csv").read_text().strip().split("\n")[1:]]
        fifth = [complex(float(re), float(im)) for order, _, _, re, im in rows if order == "5"]
        assert abs(fifth[0]) == pytest.approx(3.19e120, rel=1e-3)
    else:
        assert json.loads((tmp_path / "verify.json").read_text())["pass"] is True


def test_coefficient_past_the_float_range_ends_the_expansion(runner, tmp_path):
    # this well's p^-3 coefficients are 3.6e274, though hbar^3 = 1e330
    # overflows a float, and its p^-4 ones ~1e385: the expansion keeps orders
    # 1-3, and the leading one is p^-3
    cfg = write_cfg(tmp_path, {"potential": {"kind": "finite_well", "depth": 1e100, "a": -1,
                                             "b": 1, "mass": 1e120, "hbar": 1e110}})
    for command in ("solve", "transform", "predict"):
        res = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
    assert res.output.startswith("leading exponent: 3")
    rows = [line.split(",") for line in
            (tmp_path / "predict.csv").read_text().strip().split("\n")[1:]]
    assert sorted({int(row[0]) for row in rows}) == [1, 2, 3]
    assert all(math.isfinite(float(v)) for row in rows for v in row)
    # the verify window, p ~ 1e111, is p' ~ 10 to 200 in the image, where
    # the envelope is summed: its (1/p)^3 underflowed to 0 in the user's units
    res = runner.invoke(main, ["verify", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    comparison = json.loads((tmp_path / "verify.json").read_text())["comparison"]
    assert comparison["window"][0] > 1e110 and 0.0 < comparison["max_rel_deviation"] < 100.0


def test_odd_symmetric_linear_at_extreme_units_verifies(runner, tmp_path):
    # in the user's units (1/p)^5 overflowed in the verify window, and inf
    # times the tiny p^-5 coefficient gave "max_rel_deviation": NaN
    cfg = write_cfg(tmp_path, {"potential": {"kind": "symmetric_linear",
                                             "force": 1.847476586418087e-143,
                                             "mass": 2.709799972610435e-08,
                                             "hbar": 4.633642542731326e-108},
                               "parity": "odd"})
    res = runner.invoke(main, ["verify", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code in (0, 1), res.output
    assert math.isfinite(json.loads((tmp_path / "verify.json").read_text())["comparison"]
                         ["max_rel_deviation"])


def test_report_value_that_is_no_float_is_a_solve_error(runner, tmp_path, monkeypatch):
    # a NaN deviation would be no JSON number
    import dataclasses

    from momtail import tailfit
    compare = tailfit.compare
    monkeypatch.setattr(tailfit, "compare", lambda *args, **kwargs: dataclasses.replace(
        compare(*args, **kwargs), max_rel_deviation=math.nan))
    cfg = write_cfg(tmp_path, DELTA_CFG)
    res = runner.invoke(main, ["verify", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 2 and type(res.exception) is SystemExit
    assert res.output.startswith("solve error: verify.json would hold "
                                 "comparison.max_rel_deviation = nan")
    assert not (tmp_path / "verify.json").exists()


@pytest.mark.parametrize("parity,codes", [("even", (0, 0, 0, 0)), ("odd", (0, 0, 2, 2))])
def test_derivative_table_keeps_the_orders_that_are_floats(runner, tmp_path, parity, codes):
    # psi is finite, but psi^(4) at the kink overflows: the table keeps
    # orders 0-3. The even state's p^-4 tail reads psi^(3) and is predicted;
    # the odd state's p^-5 tail reads psi^(4), past the table
    cfg = write_cfg(tmp_path, {"potential": {"kind": "symmetric_linear",
                                             "force": 4.081387607210993e+103,
                                             "mass": 1.407874506404829e+121},
                               "parity": parity})
    for command, code in zip(OUTPUTS, codes):
        res = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == code, (command, res.output)
        if code:
            assert res.output.startswith("solve error: psi's order-4 derivative at the "
                                         "break x = 0.0 lies past orders 0 to 3")
            assert not (tmp_path / OUTPUTS[command]).exists()
    table = json.loads((tmp_path / "solve.json").read_text())["derivative_table"]
    assert list(table) == ["0"]
    assert len(table["0"]["left"]) == len(table["0"]["right"]) == 4
    assert all(map(math.isfinite, table["0"]["left"] + table["0"]["right"]))


@pytest.mark.parametrize("args", [["solve"], ["transform"], ["predict"], ["verify"],
                                  ["figure", "1"]], ids=lambda args: "_".join(args))
def test_output_path_that_is_a_file_is_a_config_error(runner, tmp_path, args):
    cfg = write_cfg(tmp_path, DELTA_CFG)
    taken = tmp_path / "taken"
    taken.write_text("")
    if args[0] != "figure":
        args = [*args, "--config", cfg]
    res = runner.invoke(main, [*args, "--out", str(taken)])
    assert res.exit_code == 2, res.output
    assert type(res.exception) is SystemExit
    assert res.output.startswith("config error:") and "Traceback" not in res.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "taken"]
    assert taken.read_text() == ""


def test_grid_too_large_to_allocate_is_a_config_error(runner, tmp_path):
    # 10^17 points would take 711 PiB, more than a 64-bit address space maps,
    # so numpy's allocation fails at once whatever the host's overcommit policy
    cfg = write_cfg(tmp_path, {**DELTA_CFG, "grid": {"kind": "linear", "min": -1.0, "max": 1.0,
                                                     "count": 10 ** 17}})
    res = runner.invoke(main, ["transform", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("config error: Unable to allocate")
    assert not (tmp_path / "transform.csv").exists()


@pytest.mark.parametrize("cfg,header,rows", [
    (WELL_CFG, "p,phi_re,phi_im,abs_phi2,classical_density", 201),
    (DELTA_CFG, "p,phi_re,phi_im,abs_phi2", 1001),   # no classical density
], ids=["infinite_well", "delta_sum"])
def test_transform_csv_and_classical_density(runner, tmp_path, cfg, header, rows):
    res = runner.invoke(main, ["transform", "--config", write_cfg(tmp_path, cfg),
                               "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "transform.csv").read_text().strip().split("\n")
    assert lines[0] == header
    assert len(lines) == rows + 1
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.all(np.isfinite(table))
    assert np.allclose(table[:, 3], table[:, 1] ** 2 + table[:, 2] ** 2, rtol=1e-15, atol=0)


def test_grid_override_flag(runner, tmp_path):
    cfg = write_cfg(tmp_path, DELTA_CFG)
    res = runner.invoke(main, ["transform", "--config", cfg, "--out", str(tmp_path),
                               "--grid", "log:1:100:10"])
    assert res.exit_code == 0
    lines = (tmp_path / "transform.csv").read_text().strip().split("\n")
    first = float(lines[1].split(",")[0])
    last = float(lines[-1].split(",")[0])
    assert first == pytest.approx(1.0) and last == pytest.approx(100.0)


def test_default_grid_is_mirrored_to_the_bit(runner, tmp_path):
    # p and -p are one |p|, with an exact 0 at the centre, so each phi row is
    # the exact conjugate of its mirror's
    cfg = write_cfg(tmp_path, {"potential": {"kind": "finite_well", "depth": 10.0,
                                             "a": -1.5, "b": 0.8}, "n": 2})
    res = runner.invoke(main, ["transform", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    rows = [line.split(",") for line in
            (tmp_path / "transform.csv").read_text().strip().split("\n")[1:]]
    p, re, im = (np.array([float(row[i]) for row in rows]) for i in range(3))
    assert p.size == 1001 and p[500] == 0.0
    assert np.array_equal(p, -p[::-1])
    assert np.array_equal(re, re[::-1]) and np.array_equal(im, -im[::-1])


def _grid_run(runner, tmp_path, grid, flag):
    """(exit code, output, p column) of transform with ``grid`` given as a
    config object, or, with ``flag``, as the --grid string of its fields."""
    cfg, flags = dict(DELTA_CFG), []
    if flag:
        flags = ["--grid", ":".join(str(v) for v in grid.values())]
    else:
        cfg["grid"] = grid
    csv = tmp_path / "transform.csv"
    csv.unlink(missing_ok=True)
    res = runner.invoke(main, ["transform", "--config", write_cfg(tmp_path, cfg),
                               "--out", str(tmp_path), *flags])
    p = [line.split(",")[0] for line in csv.read_text().split("\n")[1:]] if csv.exists() else None
    return res.exit_code, res.output, p


GRID_POLICIES = {
    "linear": {"kind": "linear", "min": -3.5, "max": 3.5, "count": 15},
    "log_fractional_per_decade": {"kind": "log", "min": 1, "max": 1000, "per_decade": 2.5},
    "log": {"kind": "log", "min": 0.5, "max": 50, "per_decade": 7},
}
BAD_GRIDS = {
    "unknown_kind": {"kind": "cubic", "min": 1, "max": 10, "per_decade": 3},
    "log_from_0": {"kind": "log", "min": 0, "max": 10, "per_decade": 3},
    "log_from_-1": {"kind": "log", "min": -1, "max": 10, "per_decade": 3},
    "per_decade_0.5": {"kind": "log", "min": 1, "max": 10, "per_decade": 0.5},
    "fractional_count": {"kind": "linear", "min": -1, "max": 1, "count": 5.5},
    "count_1": {"kind": "linear", "min": -1, "max": 1, "count": 1},
    "min_above_max": {"kind": "linear", "min": 1, "max": -1, "count": 5},
}


@pytest.mark.parametrize("name", GRID_POLICIES)
def test_grid_flag_and_grid_object_give_one_grid(runner, tmp_path, name):
    runs = [_grid_run(runner, tmp_path, GRID_POLICIES[name], flag) for flag in (False, True)]
    assert runs[0][0] == 0 and runs[0][2]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name", BAD_GRIDS)
def test_grid_flag_and_grid_object_are_refused_alike(runner, tmp_path, name):
    runs = [_grid_run(runner, tmp_path, BAD_GRIDS[name], flag) for flag in (False, True)]
    assert runs[0][0] == 2 and runs[0][1].startswith("config error:"), runs[0]
    assert runs[0] == runs[1]


def test_error_no_failure_names_propagates(runner, tmp_path, monkeypatch):
    # an error outside _FAILURES is a bug: the command does not report it
    def broken(*args):
        raise LookupError("a bug")

    monkeypatch.setattr(eig, "solve", broken)
    res = runner.invoke(main, ["solve", "--config", write_cfg(tmp_path, DELTA_CFG),
                               "--out", str(tmp_path)])
    assert type(res.exception) is LookupError and res.exit_code == 1


def test_predict_outputs_terms(runner, tmp_path):
    cfg = write_cfg(tmp_path, DELTA_CFG)
    res = runner.invoke(main, ["predict", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0
    assert "leading exponent: 2" in res.output
    lines = (tmp_path / "predict.csv").read_text().strip().split("\n")
    assert lines[0] == "order,location,jump,coefficient_re,coefficient_im"
    spec = pot.DeltaSum(deltas=((1.0, 0.0),))
    prediction = asy.predict_tail(eig.solve(spec), pot.discontinuities(spec))
    assert len(lines) == len(prediction.terms) + 1


def test_verify_passes_for_delta(runner, tmp_path):
    cfg = write_cfg(tmp_path, DELTA_CFG)
    res = runner.invoke(main, ["verify", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["pass"] is True
    assert report["predicted_exponent"] == 2


def test_verify_fails_on_corrupt_grid_free_state(runner, tmp_path, monkeypatch):
    # force a failure path: shrink the envelope tolerance to an impossible value
    import momtail.cli as cli
    monkeypatch.setattr(cli, "_ENVELOPE_TOL", 1e-15)
    cfg = write_cfg(tmp_path, DELTA_CFG)
    res = runner.invoke(main, ["verify", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 1


SYMLIN = {"kind": "symmetric_linear", "force": 0.5}
EVERY_KIND = {
    "delta_sum": DELTA_CFG,
    "infinite_well": WELL_CFG,
    "finite_well": {"potential": {"kind": "finite_well", "depth": 10.0, "a": -1.0,
                                  "b": 1.0}, "n": 2},
    "step_sum": {"potential": {"kind": "step_sum",
                               "steps": [[0.0, -5.0], [1.0, 2.0], [2.0, 3.0]]}},
    "hybrid_delta_step": {"potential": {"kind": "hybrid_delta_step", "g": 1.0,
                                        "step_height": 1.0, "a": 1.0}},
    "bouncer": BOUNCER_CFG,
    "symmetric_linear_even": {"potential": SYMLIN, "n": 2, "parity": "even"},
    "symmetric_linear_odd": {"potential": SYMLIN, "n": 2, "parity": "odd"},
    "asymmetric_linear": ASYMLIN_CFG,
}
OUTPUTS = {"solve": "solve.json", "transform": "transform.csv",
           "predict": "predict.csv", "verify": "verify.json"}


@pytest.mark.parametrize("name", EVERY_KIND)
def test_outputs_are_deterministic(runner, tmp_path, name):
    # two runs of every command write byte-identical files and exit alike;
    # solve, transform and predict succeed
    cfg = write_cfg(tmp_path, EVERY_KIND[name])
    runs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        run = {}
        for command, filename in OUTPUTS.items():
            res = runner.invoke(main, [command, "--config", cfg, "--out", str(out),
                                       "--grid", "linear:-8:8:257"])
            run[command] = (res.exit_code, (out / filename).read_bytes())
        runs.append(run)
    assert runs[0] == runs[1]
    assert all(runs[0][command][0] == 0 for command in ("solve", "transform", "predict"))


MALFORMED = {
    "grid_flag_log_to_inf": (DELTA_CFG, ["--grid", "log:1:inf:40"]),
    "grid_flag_linear_to_inf": (DELTA_CFG, ["--grid", "linear:-50:inf:11"]),
    "grid_flag_log_span_overflows": (DELTA_CFG, ["--grid", "log:1e-300:1e300:40"]),
    "grid_flag_linear_span_overflows": (DELTA_CFG, ["--grid", "linear:-1e308:1e308:3"]),
    "grid_log_to_inf": ({**DELTA_CFG, "grid": {"kind": "log", "min": 1.0, "max": math.inf}}, []),
    "grid_linear_to_inf": ({**DELTA_CFG, "grid": {"kind": "linear", "min": -50.0,
                                                  "max": math.inf, "count": 11}}, []),
    "grid_linear_from_nan": ({**DELTA_CFG, "grid": {"kind": "linear", "min": math.nan,
                                                    "max": 50.0, "count": 11}}, []),
    "fractional_count": ({**DELTA_CFG, "grid": {"kind": "linear", "min": -5.0, "max": 5.0,
                                                "count": 5.5}}, []),
    "unknown_parity": ({**DELTA_CFG, "parity": "sideways"}, []),
    "fractional_n": ({**DELTA_CFG, "n": 1.9}, []),
    "mass_0": ({"potential": {**DELTA_CFG["potential"], "mass": 0.0}}, []),
    "hbar_0": ({"potential": {**DELTA_CFG["potential"], "hbar": 0.0}}, []),
    "box_hbar_-1": ({"potential": {"kind": "infinite_well", "length": 1.0, "hbar": -1.0}}, []),
    "mass_nan": ({"potential": {**DELTA_CFG["potential"], "mass": math.nan}}, []),
    "bouncer_force_inf": ({"potential": {"kind": "bouncer", "force": math.inf}}, []),
    "finite_well_a_-inf": ({"potential": {"kind": "finite_well", "depth": 1.0,
                                          "a": -math.inf, "b": 1.0}}, []),
    # a JSON string, boolean or null where a number belongs
    "string_mass": ({"potential": {**DELTA_CFG["potential"], "mass": "2"}}, []),
    "null_hbar": ({"potential": {**DELTA_CFG["potential"], "hbar": None}}, []),
    "string_delta_strength": ({"potential": {"kind": "delta_sum", "deltas": [["1", 0]]}}, []),
    "bool_delta_strength": ({"potential": {"kind": "delta_sum", "deltas": [[True, 0]]}}, []),
    "bool_force": ({"potential": {"kind": "bouncer", "force": True}}, []),
    "string_force": ({"potential": {"kind": "bouncer", "force": "0.5"}}, []),
    "null_force": ({"potential": {"kind": "bouncer", "force": None}}, []),
    # a list of pairs or a number of the wrong shape
    "delta_triple": ({"potential": {"kind": "delta_sum", "deltas": [[1, 0, 5]]}}, []),
    "number_deltas": ({"potential": {"kind": "delta_sum", "deltas": 5}}, []),
    "pair_force": ({"potential": {"kind": "bouncer", "force": [1, 2]}}, []),
    # a config that is no object, and a --grid of three fields
    "config_list": ([DELTA_CFG], []),
    "grid_flag_three_fields": (DELTA_CFG, ["--grid", "log:1:100"]),
}


@pytest.mark.parametrize("command", list(OUTPUTS))
@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_input_is_a_config_error(runner, tmp_path, command, name):
    # exit 2 through the CLI's own report, not an exception (a traceback);
    # the config file carries the non-finite numbers as JSON Infinity/NaN
    cfg, flags = MALFORMED[name]
    res = runner.invoke(main, [command, "--config", write_cfg(tmp_path, cfg),
                               "--out", str(tmp_path)] + flags)
    assert res.exit_code == 2, res.output
    assert type(res.exception) is SystemExit
    assert res.output.startswith("config error:") and "Traceback" not in res.output
    assert not (tmp_path / OUTPUTS[command]).exists()


def test_log_grid_whose_span_overflows_names_the_grid(runner, tmp_path):
    # max/min = 1e600 overflows a float: the report names the grid's span
    res = runner.invoke(main, ["solve", "--config", write_cfg(tmp_path, DELTA_CFG),
                               "--out", str(tmp_path), "--grid", "log:1e-300:1e300:40"])
    assert res.exit_code == 2
    assert "log grid from 1e-300 to 1e+300" in res.output and "decades" in res.output


@pytest.mark.parametrize("n", [1, 3])
def test_asymmetric_linear_at_equal_forces_predicts_and_verifies(runner, tmp_path, n):
    # the kink's p^-4 tail, not a p^-2 term made of the match's residual
    cfg = write_cfg(tmp_path, {"potential": {"kind": "asymmetric_linear", "force_right": 1.0,
                                             "force_left": 1.0}, "n": n})
    res = runner.invoke(main, ["predict", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert "leading exponent: 4" in res.output
    res = runner.invoke(main, ["verify", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output


def test_in_process_runs_release_their_output_stream(tmp_path):
    # a harness that runs the CLI in-process swaps in a fresh stream per
    # call; each stream, with everything echoed to it, must not outlive it
    cfg = write_cfg(tmp_path, DELTA_CFG)
    refs = []
    for command in ("solve", "verify"):
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream):
            main.main(args=[command, "--config", cfg, "--out", str(tmp_path)],
                      standalone_mode=False)
        assert stream.getvalue().startswith("{")
        refs.append(weakref.ref(stream))
        del stream
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_figure_one(runner, tmp_path):
    res = CliRunner().invoke(main, ["figure", "1", "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "figure1.csv").read_text().strip().split("\n")
    assert lines[0] == "p,abs_phi2,phi_re2,phi_im2,classical_density"
    assert len(lines) == 1202


def test_figure_two(runner, tmp_path):
    res = CliRunner().invoke(main, ["figure", "2", "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "figure2.csv").read_text().strip().split("\n")
    assert lines[0] == "p,p4_abs_phi_even,p5_abs_phi_odd,even_asymptote,odd_asymptote"
    # scaled tails approach the predicted asymptotes at the top of the range
    last = [float(v) for v in lines[-1].split(",")]
    assert last[1] == pytest.approx(last[3], rel=0.05)
    assert last[2] == pytest.approx(last[4], rel=0.05)
