"""End-to-end CLI runs via click's test runner."""

import contextlib
import gc
import io
import json
import math
import weakref

import pytest
from click.testing import CliRunner

from momtail.cli import main

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


def test_transform_of_unplaceable_narrow_state_exits_1(runner, tmp_path):
    cfg = write_cfg(tmp_path, {"potential": {"kind": "delta_sum", "deltas": [[1e14, 0.3]]}})
    res = runner.invoke(main, ["transform", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert not (tmp_path / "transform.csv").exists()


def test_solve_of_unplaceable_narrow_state_exits_1(runner, tmp_path):
    # the norm check's panels at x = 0.3 span ~4e3 ulps of their centers
    cfg = write_cfg(tmp_path, {"potential": {"kind": "delta_sum", "deltas": [[1e14, 0.3]]}})
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert "quadrature error" in res.output
    assert not (tmp_path / "solve.json").exists()


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


def test_no_such_state_exits_2(runner, tmp_path):
    cfg = write_cfg(tmp_path, {**DELTA_CFG, "n": 2})
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 2


def test_transform_csv_and_classical_density(runner, tmp_path):
    cfg = write_cfg(tmp_path, WELL_CFG)
    res = runner.invoke(main, ["transform", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "transform.csv").read_text().strip().split("\n")
    assert lines[0] == "p,phi_re,phi_im,abs_phi2,classical_density"
    assert len(lines) == 202
    row = [float(v) for v in lines[1].split(",")]
    assert row[3] == pytest.approx(row[1] ** 2 + row[2] ** 2, rel=1e-12)


def test_grid_override_flag(runner, tmp_path):
    cfg = write_cfg(tmp_path, DELTA_CFG)
    res = runner.invoke(main, ["transform", "--config", cfg, "--out", str(tmp_path),
                               "--grid", "log:1:100:10"])
    assert res.exit_code == 0
    lines = (tmp_path / "transform.csv").read_text().strip().split("\n")
    first = float(lines[1].split(",")[0])
    last = float(lines[-1].split(",")[0])
    assert first == pytest.approx(1.0) and last == pytest.approx(100.0)


def test_predict_outputs_terms(runner, tmp_path):
    cfg = write_cfg(tmp_path, DELTA_CFG)
    res = runner.invoke(main, ["predict", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0
    assert "leading exponent: 2" in res.output
    lines = (tmp_path / "predict.csv").read_text().strip().split("\n")
    assert lines[0] == "order,location,jump,coefficient_re,coefficient_im"


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


def test_outputs_are_deterministic(runner, tmp_path):
    cfg = write_cfg(tmp_path, BOUNCER_CFG)
    texts = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        res = runner.invoke(main, ["transform", "--config", cfg, "--out", str(out),
                                   "--grid", "linear:-8:8:257"])
        assert res.exit_code == 0
        texts.append((out / "transform.csv").read_bytes())
    assert texts[0] == texts[1]


def test_solve_is_deterministic_for_asymmetric_linear(runner, tmp_path):
    cfg = write_cfg(tmp_path, ASYMLIN_CFG)
    texts = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        texts.append((out / "solve.json").read_bytes())
    assert texts[0] == texts[1]


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
