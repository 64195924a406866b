import json
import math
import os

import numpy as np
import pytest

import flockjump as fj
from flockjump import cli
from flockjump.harness import (
    ConfigError,
    ExperimentConfig,
    FitError,
    canonical_json,
    config_from_dict,
    config_to_dict,
    fit_speed,
    ks_histogram_vs_cdf,
    length_spec_from_dict,
    load_config,
    parse_rate_string,
    preset_config,
    rate_spec_from_dict,
    rate_spec_to_dict,
    run_scenario,
    save_config,
)


# ---------------------------------------------------------------------------
# spec serialization
# ---------------------------------------------------------------------------


def test_rate_spec_roundtrip():
    specs = [fj.ExponentialRate(1.5), fj.StepRate(2.0, 1.0),
             fj.PiecewiseLinearRate(3.0, 2.0), fj.ArccotRate(),
             fj.TabulatedRate(grid=(-1.0, 1.0), values=(2.0, 1.0))]
    for w in specs:
        assert rate_spec_from_dict(rate_spec_to_dict(w)) == w


def test_parse_rate_string():
    assert parse_rate_string("step:a=2,b=1") == fj.StepRate(2.0, 1.0)
    assert parse_rate_string("exponential:beta=2") == fj.ExponentialRate(2.0)
    assert parse_rate_string("arccot") == fj.ArccotRate()
    with pytest.raises(ConfigError):
        parse_rate_string("step:a=2,b")
    with pytest.raises(ConfigError):
        parse_rate_string("nope:x=1")


def test_length_spec_from_dict():
    assert isinstance(length_spec_from_dict({"family": "deterministic"}), fj.DeterministicJump)
    assert isinstance(length_spec_from_dict({"family": "exponential"}), fj.ExponentialJump)
    with pytest.raises(ConfigError):
        length_spec_from_dict({"family": "lognormal"})


# ---------------------------------------------------------------------------
# config validation and round-trip
# ---------------------------------------------------------------------------


def _minimal():
    return {"scenario": "t", "n": 10, "rate": {"family": "exponential", "beta": 1.0}}


def test_minimal_config_defaults():
    cfg = config_from_dict(_minimal())
    assert cfg.observations == 1000
    assert cfg.nbins == math.ceil(2 * math.sqrt(10))
    assert cfg.window == (-10.0, 10.0)
    assert cfg.initial == {"kind": "zeros"}


def test_config_errors_name_keys():
    with pytest.raises(ConfigError, match="histogram.window"):
        config_from_dict({**_minimal(), "window": (3.0, -3.0)})
    with pytest.raises(ConfigError, match="n:"):
        config_from_dict({**_minimal(), "n": 0})
    with pytest.raises(ConfigError, match="missing"):
        config_from_dict({"scenario": "t"})
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({**_minimal(), "bogus": 1})
    with pytest.raises(ConfigError, match="initial.positions"):
        config_from_dict({**_minimal(),
                          "initial": {"kind": "explicit", "positions": [1.0]}})


def test_config_save_load_roundtrip_byte_identical(tmp_path):
    cfg = config_from_dict({**_minimal(), "T": 12.5, "seed": 99,
                            "window": (-7.25, 11.0), "bins": 37})
    p1 = tmp_path / "a.json"
    save_config(cfg, p1)
    cfg2 = load_config(p1)
    p2 = tmp_path / "b.json"
    save_config(cfg2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_config_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="parse"):
        load_config(p)


def test_presets_exist_and_validate():
    for name in ("fig4_6", "fig7_9", "fig4_6_small", "fig7_9_small"):
        cfg = preset_config(name)
        assert cfg.scenario == name
    assert preset_config("fig4_6").n == 10_000
    assert preset_config("fig4_6_small").n == 1000
    with pytest.raises(ConfigError):
        preset_config("fig0")


# ---------------------------------------------------------------------------
# speed fit
# ---------------------------------------------------------------------------


def test_fit_speed_exact_line():
    t = np.linspace(0, 10, 50)
    slope, stderr = fit_speed(t, 1.5 * t)
    assert slope == pytest.approx(1.5, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)


def test_fit_speed_constant_path():
    t = np.linspace(0, 10, 50)
    slope, _ = fit_speed(t, np.ones_like(t))
    assert slope == pytest.approx(0.0, abs=1e-14)


def test_fit_speed_uses_trailing_window():
    t = np.linspace(0, 10, 101)
    y = np.where(t < 5, 0.0, 2.0 * (t - 5.0))      # kink at t=5
    slope, _ = fit_speed(t, y, window_fraction=0.5)
    assert slope == pytest.approx(2.0, rel=0.02)


def test_fit_speed_degenerate_window():
    with pytest.raises(FitError):
        fit_speed([0.0, 1.0], [0.0, 1.0])


# ---------------------------------------------------------------------------
# scenario runs
# ---------------------------------------------------------------------------


def _tiny_cfg(**over):
    base = {"scenario": "tiny", "n": 200, "rate": {"family": "step", "a": 2.0, "b": 1.0},
            "length": {"family": "exponential"}, "T": 30.0, "seed": 7,
            "observations": 200}
    base.update(over)
    return config_from_dict(base)


def test_run_scenario_summary_fields():
    out = run_scenario(_tiny_cfg())
    s = out.summary
    assert s["events"] > 0 and not s["truncated"]
    assert s["wave_speed_model"] == pytest.approx(1.5)
    assert 0 <= s["ks_timeavg"] <= 1
    assert out.hist_timeavg.nbins == math.ceil(2 * math.sqrt(200))
    assert len(out.mean_times) == 200
    assert np.all(np.diff(out.mean_path) >= 0)


def test_run_scenario_deterministic_and_bundle(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    run_scenario(_tiny_cfg(), outdir=d1)
    run_scenario(_tiny_cfg(), outdir=d2)
    names = ["config.snapshot", "summary.json", "hist_timeavg.csv",
             "hist_snapshot.csv", "mean_path.csv"]
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    summary = json.loads((d1 / "summary.json").read_text())
    assert summary["scenario"] == "tiny"
    assert summary["rng"].startswith("numpy PCG64")
    header = (d1 / "hist_timeavg.csv").read_text().splitlines()[0]
    assert header == "bin_left,bin_right,density"


def test_run_scenario_different_seed_differs(tmp_path):
    out1 = run_scenario(_tiny_cfg())
    out2 = run_scenario(_tiny_cfg(seed=8))
    assert out1.summary["events"] != out2.summary["events"]


def test_run_scenario_emits_events_csv_when_logged(tmp_path):
    d = tmp_path / "r"
    run_scenario(_tiny_cfg(log_events=True, T=5.0), outdir=d)
    assert (d / "events.csv").exists()
    lines = (d / "events.csv").read_text().splitlines()
    assert lines[0] == "time,particle_index,jump_length,center_of_mass"


def test_ks_histogram_vs_cdf_consistency():
    # histogram of exact Laplace draws vs the Laplace cdf should be small
    rng = np.random.default_rng(0)
    u = rng.random(200_000)
    r = 1.0 / 3.0
    draws = np.where(u < 0.5, np.log(2 * u) / r, -np.log(2 * (1 - u)) / r)
    hist = fj.build_histogram(draws, 0.0, -10.0, 10.0, nbins=200)
    ks = ks_histogram_vs_cdf(hist, lambda x: fj.laplace_wave_cdf(2.0, 1.0, x))
    assert ks <= 0.01


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_travelwave(capsys, tmp_path):
    out = tmp_path / "prof.csv"
    rc = cli.main(["travelwave", "--rate", "step:a=2,b=1", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "wave speed c = 1.5" in text
    assert "moment evaluations, final bracket width" in text
    assert out.read_text().splitlines()[0] == "x,density"


def test_cli_gap(capsys, tmp_path):
    out = tmp_path / "gap.csv"
    rc = cli.main(["gap", "--rate", "step:a=2,b=1", "--beta", "2.0", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "pi[0] = 0.333333333" in text
    assert out.exists()


def test_cli_extremes(capsys, tmp_path):
    out = tmp_path / "record.csv"
    rc = cli.main(["extremes", "--beta", "1.0", "--T", "4.0", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("t,Y\n")


def test_cli_simulate_and_pde(capsys, tmp_path):
    cfgp = tmp_path / "cfg.json"
    save_config(_tiny_cfg(T=5.0, observations=100), cfgp)
    rc = cli.main(["simulate", str(cfgp), "--outdir", str(tmp_path / "run")])
    assert rc == 0
    assert (tmp_path / "run" / "summary.json").exists()

    pde_cfg = {"rate": {"family": "exponential", "beta": 1.0}, "h": 0.02, "dt": 1e-3,
               "T": 0.5, "x_min": -6.0, "x_max": 20.0, "samples": 10,
               "outdir": str(tmp_path / "pde")}
    pde_path = tmp_path / "pde.json"
    pde_path.write_text(json.dumps(pde_cfg))
    rc = cli.main(["pde", str(pde_path)])
    assert rc == 0
    assert (tmp_path / "pde" / "pde_diagnostics.csv").exists()
    assert (tmp_path / "pde" / "final_density.csv").exists()


def test_cli_accept_single_criterion(capsys):
    rc = cli.main(["accept", "--quick", "--only", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS] criterion  1" in out
