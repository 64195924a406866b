import hashlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flockjump as fj
from flockjump import cli, kernel
from flockjump import mean_field as mf
from flockjump.model import RATE_FAMILIES
from flockjump.sim import UnsupportedSpecError
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
    pde_config_from_dict,
    preset_config,
    rate_spec_from_dict,
    run_scenario,
    save_config,
)


# ---------------------------------------------------------------------------
# spec serialization
# ---------------------------------------------------------------------------


def test_rate_spec_from_dict():
    cases = [({"family": "exponential", "beta": 1.5}, fj.ExponentialRate(1.5)),
             ({"family": "exponential"}, fj.ExponentialRate(1.0)),
             ({"family": "step", "a": 2, "b": 1}, fj.StepRate(2.0, 1.0)),
             ({"family": "piecewise_linear", "a": 3.0, "b": 2.0}, fj.PiecewiseLinearRate(3.0, 2.0)),
             ({"family": "arccot"}, fj.ArccotRate()),
             ({"family": "tabulated", "grid": [-1, 1], "values": [2.0, 1.0]},
              fj.TabulatedRate(grid=(-1.0, 1.0), values=(2.0, 1.0)))]
    for d, w in cases:
        assert rate_spec_from_dict(d) == w


@pytest.mark.parametrize("bad, key", [
    ({"family": "step", "a": 2}, "rate.b"),
    ({"family": "arccot", "beta": 3}, "rate.beta"),
    ({"family": "exponential", "beta": "x"}, "rate.beta"),
    ({"family": "tabulated", "grid": [0.0, 1.0], "values": 2.0}, "rate.values"),
    ({"family": "step", "a": 1.0, "b": 2.0}, "rate: step rates need a > b"),
    ({"family": "nope"}, "rate.family"),
    ({"family": ["step"]}, "rate.family"),
    ("step:a=2,b=1,c=5", "rate.c"),
    ({"family": "piecewise_linear", "a": 2.0, "b": 1.0, "grid": [-1.0, 1.0]},
     "rate.grid: not a parameter of the piecewise_linear family (parameters: a, b)"),
], ids=["missing-key", "extra-key", "not-a-number", "not-a-list", "invalid-values",
        "unknown-family", "family-not-a-string", "extra-key-in-string", "table-key"])
def test_bad_rate_spec_names_the_key(bad, key):
    build = parse_rate_string if isinstance(bad, str) else rate_spec_from_dict
    with pytest.raises(ConfigError, match=re.escape(key)):
        build(bad)
    if isinstance(bad, dict):
        with pytest.raises(ConfigError, match=re.escape(key)):
            ExperimentConfig(scenario="t", n=10, rate=bad)


def test_parse_rate_string():
    assert parse_rate_string("step:a=2,b=1") == fj.StepRate(2.0, 1.0)
    assert parse_rate_string("exponential:beta=2") == fj.ExponentialRate(2.0)
    assert parse_rate_string("arccot") == fj.ArccotRate()
    assert parse_rate_string("piecewise_linear:a=2,b=1") == fj.PiecewiseLinearRate(2.0, 1.0)
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
    with pytest.raises(ConfigError, match="window:"):
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
    with pytest.raises(ConfigError, match="engine: unknown engine 'bogus'"):
        config_from_dict({**_minimal(), "engine": "bogus"})


@pytest.mark.parametrize("override, key", [
    ({"length": "exponential"}, "length:"),
    ({"length": {"family": "deterministic", "mean": 2}}, "length.mean"),
    ({"T": math.nan}, "T:"),
    ({"T": math.inf}, "T:"),
    ({"T": "5"}, "T:"),
    ({"n": True}, "n:"),
    ({"n": 10.0}, "n:"),
    ({"seed": "x"}, "seed:"),
    ({"seed": 1.5}, "seed:"),
    ({"window": (-10.0, math.inf)}, "window:"),
    ({"window": (math.nan, 1.0)}, "window:"),
    ({"window": 5}, "window:"),
    ({"engine": "exponential", "rate": {"family": "step", "a": 2, "b": 1}}, "engine:"),
    ({"engine": "bounded"}, "engine:"),
    ({"bins": "x"}, "bins:"),
    ({"bins": 0}, "bins:"),
    ({"observations": "5"}, "observations:"),
    ({"observations": 18}, "observations:"),        # 9 samples in the fit window
    ({"observations": 40, "fit_window": 0.2}, "observations:"),
    ({"fit_window": "a"}, "fit_window:"),
    ({"fit_window": 0.0}, "fit_window:"),
    ({"burn_in": "x"}, "burn_in:"),
    ({"burn_in": 150.0}, "burn_in:"),               # past the horizon T = 100
    ({"snapshot_time": "x"}, "snapshot_time:"),
    ({"snapshot_time": math.nan}, "snapshot_time:"),
    ({"initial": "zeros"}, "initial:"),
    ({"initial": {"kind": "iid_uniform", "lo": 0.0}}, "initial.hi:"),
    ({"initial": {"kind": "iid_uniform", "lo": 0.0, "hi": "1"}}, "initial.hi:"),
    ({"initial": {"kind": "iid_normal", "sd": -1.0}}, "initial.sd:"),
    ({"initial": {"kind": "zeros", "lo": 0.0}}, "initial.lo:"),
    ({"initial": {"kind": "explicit", "positions": ["a"] * 10}}, "initial.positions:"),
    ({"T": 0}, "T:"),
    ({"log_events": "false"}, "log_events:"),
    ({"log_events": 1}, "log_events:"),
    ({"initial": {"kind": "iid_uniform", "lo": 2, "hi": 1}}, "initial.hi:"),
])
def test_config_rejects_bad_values_naming_the_key(override, key):
    with pytest.raises(ConfigError, match="^" + re.escape(key)):
        config_from_dict({**_minimal(), **override})


@pytest.mark.parametrize("override, key", [
    ({"scenario": None}, "scenario:"),
    ({"scenario": 5}, "scenario:"),
    ({"outdir": 5}, "outdir:"),
    ({"outdir": ["runs"]}, "outdir:"),
])
def test_config_checks_scenario_and_outdir(override, key):
    # a bad outdir fails here, not in write_bundle after the whole simulation
    with pytest.raises(ConfigError, match="^" + re.escape(key)):
        config_from_dict({**_minimal(), **override})
    with pytest.raises(ConfigError, match="^" + re.escape(key)):
        ExperimentConfig(**{**_minimal(), **override})


# One bad value per key, for the property test below: a wrong type, NaN, inf,
# an int past the float range or a value out of the key's range. The base
# configs are _minimal() and the PDE's exponential rate with the Gaussian
# start; no value listed is one they accept.
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**400])
NOT_A_NUMBER = st.one_of(st.text(max_size=4), st.booleans(), st.lists(st.integers(), max_size=2),
                         st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
NOT_A_STRING = st.one_of(st.integers(), st.floats(), st.booleans(),
                         st.lists(st.text(max_size=3), max_size=2))
NOT_A_DICT = st.one_of(st.none(), st.integers(), st.text(max_size=6),
                       st.lists(st.integers(), max_size=2))
NOT_AN_INTEGER = st.one_of(st.none(), NOT_A_NUMBER, st.floats())
BAD_RATE = st.one_of(
    NOT_A_DICT, st.just({}),
    st.fixed_dictionaries({"family": st.text(max_size=8).filter(lambda f: f not in RATE_FAMILIES)}),
    st.fixed_dictionaries({"family": st.just("exponential"),
                           "beta": st.one_of(NON_FINITE, st.floats(max_value=0.0), st.none())}))
BAD_CONFIG = {
    "scenario": st.one_of(st.none(), NOT_A_STRING),
    "n": st.one_of(NOT_AN_INTEGER, st.integers(max_value=0)),
    "rate": BAD_RATE,
    "length": st.one_of(NOT_A_DICT, st.fixed_dictionaries({"family": st.text(max_size=8).filter(
        lambda f: f not in ("exponential", "deterministic"))})),
    "T": st.one_of(st.none(), NOT_A_NUMBER, NON_FINITE, st.floats(max_value=0.0),
                   st.integers(max_value=0)),
    "seed": st.one_of(NOT_AN_INTEGER, st.integers(max_value=-1)),
    "observations": st.one_of(NOT_AN_INTEGER, st.integers(max_value=18)),
    "window": st.one_of(st.none(), st.integers(), st.text(max_size=2),
                        st.lists(st.floats(-5, 5), max_size=4).filter(lambda w: len(w) != 2),
                        st.tuples(NON_FINITE, st.floats(-5, 5)),
                        st.tuples(st.floats(-5, 5), st.floats(-5, 5)).filter(
                            lambda w: not w[0] < w[1])),
    "bins": st.one_of(NOT_A_NUMBER, st.floats(), st.integers(max_value=0)),
    "initial": st.one_of(NOT_A_DICT, st.fixed_dictionaries({"kind": st.text(max_size=8).filter(
        lambda k: k not in ("zeros", "explicit", "iid_uniform", "iid_normal"))})),
    "snapshot_time": st.one_of(NOT_A_NUMBER, NON_FINITE),
    "burn_in": st.one_of(st.none(), NOT_A_NUMBER, NON_FINITE,
                         st.floats(max_value=0.0, exclude_max=True), st.floats(min_value=100.5)),
    "fit_window": st.one_of(st.none(), NOT_A_NUMBER, NON_FINITE, st.floats(max_value=0.0),
                            st.floats(min_value=1.0, exclude_min=True)),
    "engine": st.one_of(st.none(), NOT_A_STRING, st.just("bounded"),
                        st.text(max_size=8).filter(
                            lambda e: e not in ("auto", "reference", "exponential"))),
    "log_events": st.one_of(st.none(), st.integers(), st.floats(), st.text(max_size=5)),
    "outdir": NOT_A_STRING,
}
BAD_PDE_CONFIG = {
    "rate": BAD_RATE,
    # h >= 62 leaves one node of np.arange(-6, 25 + h / 2, h)
    "h": st.one_of(st.none(), NOT_A_NUMBER, NON_FINITE, st.floats(max_value=0.0),
                   st.floats(min_value=62.0, allow_infinity=False)),
    "dt": st.one_of(st.none(), NOT_A_NUMBER, NON_FINITE, st.floats(max_value=0.0)),
    "T": st.one_of(st.none(), NOT_A_NUMBER, NON_FINITE,
                   st.floats(max_value=0.0, exclude_max=True)),
    # at or past the default x_max = 25, which x_min alone is checked against
    "x_min": st.one_of(st.none(), NOT_A_NUMBER, NON_FINITE, st.floats(min_value=25.0)),
    "x_max": st.one_of(st.none(), NOT_A_NUMBER, NON_FINITE, st.floats(max_value=-6.0)),
    "samples": st.one_of(NOT_AN_INTEGER, st.integers(max_value=0)),
    "initial": st.one_of(
        NOT_A_DICT, st.fixed_dictionaries({"kind": st.text(max_size=8).filter(
            lambda k: k not in ("wave", "gaussian"))}),
        st.fixed_dictionaries({"kind": st.just("gaussian"),
                               "sigma": st.one_of(NON_FINITE, st.floats(max_value=0.0))})),
    "outdir": NOT_A_STRING,
}
def one_bad_key(table):
    return st.sampled_from(sorted(table)).flatmap(
        lambda key: st.tuples(st.just(key), table[key]))


def assert_names_key(exc, key):
    message = str(exc.value)
    assert message.startswith(key) and message[len(key)] in ":.", (key, message)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(one_bad_key(BAD_CONFIG))
@example(("scenario", None))
@example(("outdir", 5))
@example(("T", 10**400))
@example(("window", (-1.0, 10**400)))
@example(("rate", {"family": "exponential", "beta": 10**400}))
def test_config_names_the_one_bad_key(case):
    key, value = case
    with pytest.raises(ConfigError) as exc:
        config_from_dict({**_minimal(), key: value})
    assert_names_key(exc, key)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(one_bad_key(BAD_PDE_CONFIG))
@example(("outdir", 5))
@example(("x_min", 30))
@example(("dt", 10**400))
@example(("h", 100))
@example(("h", 62.0))
def test_pde_config_names_the_one_bad_key(case):
    key, value = case
    # the Gaussian start keeps the default window, which BAD_PDE_CONFIG's
    # x_min, x_max and h are bad against
    base = {"rate": {"family": "exponential", "beta": 1.0}, "initial": {"kind": "gaussian"}}
    with pytest.raises(ConfigError) as exc:
        pde_config_from_dict({**base, key: value})
    assert_names_key(exc, key)


def test_pde_config_checks_a_wave_window_edge_against_the_wave_support():
    rate = {"family": "step", "a": 2.0, "b": 1.0}
    x_lo, x_hi = mf.profile_support(fj.StepRate(2.0, 1.0), 1.5)
    for cfg, key, message in (({"x_min": 181.0}, "x_min", f"must be below x_max = {x_hi}"),
                              ({"x_max": -181.0}, "x_max", "must exceed x_min"),
                              ({"h": 800.0}, "h", "must leave two grid nodes")):
        with pytest.raises(ConfigError, match=f"^{key}: {re.escape(message)}"):
            pde_config_from_dict({"rate": rate, **cfg})
    cfg = pde_config_from_dict({"rate": rate, "x_min": -10.0})
    assert (cfg["x_min"], cfg["x_max"]) == (-10.0, x_hi)
    cfg = pde_config_from_dict({"rate": rate, "initial": {"kind": "gaussian"}})
    assert (cfg["x_min"], cfg["x_max"]) == (-6.0, 25.0)


@pytest.mark.parametrize("rate", [{"family": "step", "a": 2.0, "b": 1.0},
                                  {"family": "exponential", "beta": 1.0},
                                  {"family": "exponential", "beta": 2.0}],
                         ids=lambda rate: rate["family"] + str(rate.get("beta", "")))
def test_pde_default_window_holds_the_wave_start(rate):
    # The default x_min = -6 held 93.2% of the step(2, 1) wave's mass; the
    # window is now the wave's support, outside which e^-60 of it lies.
    cfg = pde_config_from_dict({"rate": rate})
    wave = mf.stationary_wave(cfg["rate"])
    assert wave.cdf(cfg["x_max"]) - wave.cdf(cfg["x_min"]) >= 1 - 1e-9
    assert wave.cdf(cfg["x_min"]) <= 1e-15 and wave.cdf(cfg["x_max"]) >= 1 - 1e-15


def test_config_engine_rule_is_the_simulators():
    # ExperimentConfig and sim.simulate apply the one rule in sim.check_engine
    step = {"family": "step", "a": 2, "b": 1}
    for rate, engine in ((step, "exponential"), (_minimal()["rate"], "bounded")):
        with pytest.raises(UnsupportedSpecError) as sim_err:
            fj.simulate(rate_spec_from_dict(rate), fj.ExponentialJump(), 5, T=1.0,
                        seed=1, engine=engine)
        with pytest.raises(ConfigError) as cfg_err:
            config_from_dict({**_minimal(), "rate": rate, "engine": engine})
        assert str(cfg_err.value) == str(sim_err.value)
    for rate, engine in ((step, "bounded"), (step, "reference"), (step, "auto"),
                         (_minimal()["rate"], "exponential")):
        config_from_dict({**_minimal(), "rate": rate, "engine": engine})


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
    # 18155 events, more than one _BATCH, so the log's block doubles once, to
    # 32768 rows, before a later step call; the digest, in the form of
    # PRESET_DIGESTS, pins every byte of the bundle.
    d = tmp_path / "r"
    out = run_scenario(_tiny_cfg(log_events=True, T=60.0), outdir=d)
    assert (d / "events.csv").exists()
    lines = (d / "events.csv").read_text().splitlines()
    assert lines[0] == "time,particle_index,jump_length,center_of_mass"
    assert len(lines) - 1 == out.summary["events"] == 18155
    assert _bundle_digest(d) == "49afd2e82db0a192509a5d9864448f5f5a748a3dadbb96813825c3cbe89b47b1"


def _bundle_digest(outdir):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read() + b"\0")
    return digest.hexdigest()


# sha256 of the small-preset bundles at their preset seeds, hashed file by file
# in name order. They pin the random stream and every output byte, so a
# refactor that moves either shows here. The first two are the baselines in
# perfbench/METRICS.md; the deterministic-jump runs with an event log cover the
# jump-law and event-log paths of the exponential and bounded engines.
PRESET_DIGESTS = [
    ("fig4_6_small", {}, "b0eb46dd12029506667714b2f6a07fa735c8386769adff4c9018ee9a3c703ea2"),
    ("fig7_9_small", {}, "940f1748441623c90230878fb02f6103cba76cfbafdc00d04fe7d0ea3b49d3a6"),
    ("fig4_6_small", {"length": {"family": "deterministic"}, "log_events": True},
     "38b67d047b14146486912a379ecbaff8f25f58cd13f1fc3c0ec6dea6a54a1320"),
    ("fig7_9_small", {"length": {"family": "deterministic"}, "log_events": True},
     "270fe90a6d2f21ba6155305d080e6c94f4cd72bf1ec6a167448aac7437b430ed"),
]


@pytest.mark.parametrize("preset, overrides, expected", PRESET_DIGESTS,
                         ids=["fig4_6_small", "fig7_9_small",
                              "fig4_6_small-deterministic", "fig7_9_small-deterministic"])
def test_preset_bundle_digest(tmp_path, preset, overrides, expected):
    run_scenario(preset_config(preset, **overrides), outdir=tmp_path)
    assert _bundle_digest(tmp_path) == expected


@pytest.mark.parametrize("preset, overrides, expected", PRESET_DIGESTS,
                         ids=["fig4_6_small", "fig7_9_small",
                              "fig4_6_small-deterministic", "fig7_9_small-deterministic"])
def test_preset_bundle_digest_without_the_kernel(tmp_path, preset, overrides, expected):
    # the Python engine steps and the numpy histogram body write the same bytes
    with mock.patch.object(kernel, "_CC", "/nonexistent/bin/gcc"):
        assert kernel.load() is None
        run_scenario(preset_config(preset, **overrides), outdir=tmp_path)
    assert _bundle_digest(tmp_path) == expected


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
    capsys.readouterr()
    rc = cli.main(["pde", str(pde_path)])
    assert rc == 0
    trims = re.search(r"^trimmed on the left: (\d+) cells, mass \S+$", capsys.readouterr().out,
                      re.MULTILINE)
    assert trims and int(trims[1]) > 0
    assert (tmp_path / "pde" / "pde_diagnostics.csv").exists()
    assert (tmp_path / "pde" / "final_density.csv").exists()


def test_cli_pde_keeps_the_step_wave_on_its_default_window(capsys, tmp_path):
    # On the old default window [-6, 25] this start read drift 9.7e-5 and W1 2.19.
    pde_path = tmp_path / "pde.json"
    pde_path.write_text(json.dumps({"rate": {"family": "step", "a": 2.0, "b": 1.0},
                                    "T": 1.0, "samples": 5}))
    assert cli.main(["pde", str(pde_path)]) == 0
    out = capsys.readouterr().out
    drift = float(re.search(r"^mass drift per unit time: (\S+)$", out, re.MULTILINE)[1])
    w1 = float(re.search(r"W1 to wave \(shape\): (\S+)$", out, re.MULTILINE)[1])
    assert drift <= 1e-12 and w1 <= 1e-3
    assert re.search(r"^added on the right: [1-9][0-9]* cells$", out, re.MULTILINE)


@pytest.mark.parametrize("argv, message", [
    (["extremes", "--beta", "0.4", "--T", "3"], "k = 1/beta a positive integer"),
    (["extremes", "--beta", "1", "--T", "80"], "exceeds 2^62"),
    (["travelwave", "--rate", "nope"], "rate.family"),
    (["gap", "--rate", "step:a=2"], "rate.b"),
    (["extremes", "--beta", "0", "--T", "1"], "beta must be positive and finite"),
    (["extremes", "--beta", "0", "--T", "1", "--c", "1"], "beta must be positive and finite"),
    (["extremes", "--beta", "-1", "--T", "1"], "beta must be positive and finite"),
    (["extremes", "--beta", "-1", "--T", "1", "--c", "1"], "beta must be positive and finite"),
    (["extremes", "--beta", "nan", "--T", "1"], "beta must be positive and finite"),
    (["extremes", "--beta", "nan", "--T", "1", "--c", "1"], "beta must be positive and finite"),
    (["extremes", "--beta", "1", "--T", "nan"], "T must be finite and >= 0, got nan"),
    (["extremes", "--beta", "1", "--T", "inf"], "T must be finite and >= 0, got inf"),
    (["extremes", "--beta", "0.5", "--T", "0", "--c", "5"], "N(T) = 1 values, fewer than k = 2"),
    (["travelwave", "--rate", "step:a=2,b=1", "--h", "0"], "h must be finite and > 0, got 0.0"),
    (["travelwave", "--rate", "step:a=2,b=1", "--h", "nan"], "h must be finite and > 0, got nan"),
    (["travelwave", "--rate", "step:a=2,b=1", "--h", "-0.01"], "h must be finite and > 0, got -0.01"),
    (["travelwave", "--rate", "step:a=2,b=1", "--h", "inf"], "h must be finite and > 0, got inf"),
    (["travelwave", "--rate", "step:a=x,b=1"], "rate.a: expected a number, got 'x'"),
    (["gap", "--rate", "step:a=2,b=x"], "rate.b: expected a number, got 'x'"),
])
def test_cli_reports_model_errors_in_one_line(capsys, argv, message):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("flockjump: error: ")
    assert message in captured.err and "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1


def test_cli_reports_config_errors(capsys, tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({**_minimal(), "rate": {"family": "step", "a": 2, "b": 1},
                                "engine": "exponential"}))
    assert cli.main(["simulate", str(cfgp), "--outdir", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("flockjump: error: engine: ")
    assert not (tmp_path / "run").exists()
    pde_path = tmp_path / "pde.json"
    pde_path.write_text(json.dumps({"rate": {"family": "exponential", "beta": 1.0},
                                    "initial": {"kind": "bogus"}}))
    assert cli.main(["pde", str(pde_path)]) == 2
    assert capsys.readouterr().err.startswith("flockjump: error: initial.kind: ")
    rate = {"family": "exponential", "beta": 1.0}
    for cfg, key in (({"T": 1}, "rate"),
                     ({"rate": rate, "h": "x"}, "h"),
                     ({"rate": rate, "dt": "x"}, "dt"),
                     ({"rate": rate, "dt": 0}, "dt"),
                     ({"rate": rate, "T": "x"}, "T"),
                     ({"rate": rate, "x_min": "x"}, "x_min"),
                     ({"rate": rate, "x_max": None}, "x_max"),
                     ({"rate": rate, "x_min": 5, "x_max": 1}, "x_max"),
                     ({"rate": rate, "x_min": 30, "initial": {"kind": "gaussian"}}, "x_min"),
                     ({"rate": rate, "x_min": 70}, "x_min"),        # past the wave's support
                     ({"rate": rate, "samples": "x"}, "samples"),
                     ({"rate": rate, "initial": "wave"}, "initial"),
                     ({"rate": rate, "initial": {"kind": "gaussian", "sigma": 0}},
                      "initial.sigma"),
                     ({"rate": rate, "bogus": 1}, "unknown config keys"),
                     ({"rate": rate, "initial": {"kind": "gaussian", "centre": 3.0, "sigma": 0.5}},
                      "initial.centre"),
                     ({"rate": rate, "initial": {"kind": "wave", "sigma": 0.5}}, "initial.sigma"),
                     ([rate], "config file")):
        pde_path.write_text(json.dumps(cfg))
        assert cli.main(["pde", str(pde_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"flockjump: error: {key}"), (cfg, err)
        assert err.count("\n") == 1


# Everything the particle system, the record process, the two-particle gap
# laws and the traveling waves need, in one process: with the kernel built,
# scipy serves only the numpy fallbacks of the PDE step and the wave-equation
# residual, the gap master-equation and boundary oracles and
# CustomDensityJump.
NO_SCIPY_SCRIPT = textwrap.dedent("""
    import json, sys
    from pathlib import Path

    import numpy as np

    import flockjump as fj
    from flockjump import acceptance, cli, extremes, measures
    from flockjump.harness import preset_config, run_scenario

    out = Path(sys.argv[1])
    for engine, w in (("reference", fj.ArccotRate()), ("bounded", fj.StepRate(2.0, 1.0)),
                      ("exponential", fj.ExponentialRate(1.0))):
        fj.simulate(w, fj.ExponentialJump(), 20, T=2.0, seed=1, engine=engine,
                    observer=measures.TimeAverager(-1.0, 1.0, 4, samples=1000), log_events=True)
    for preset in ("fig4_6_small", "fig7_9_small"):
        run_scenario(preset_config(preset, T=2.0), outdir=out / preset)
    extremes.sample_final_uncentered(1.0, 1.0, 5.0, 3, np.random.default_rng(1))
    assert cli.main(["extremes", "--beta", "1", "--T", "5", "--seed", "1",
                     "--out", str(out / "record.csv")]) == 0
    for beta in (0.5, 1.0, 2.0, 4.0):
        fj.GapDensity(beta).pdf(np.linspace(0.0, 5.0, 11))
        fj.GapDensity(beta).cdf(np.linspace(0.0, 5.0, 11))
    fj.gap_stationary_pmf(fj.gap_chain(fj.StepRate(2.0, 1.0)))
    assert cli.main(["gap", "--rate", "step:a=2,b=1", "--beta", "1"]) == 0
    acceptance.crit_06_two_particle_continuous_gap(quick=True)
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
""")

# The `waves` benchmark path for every family, `flockjump travelwave` and
# `flockjump pde`: the wave speed, the stationary wave, the compiled residual
# and the compiled PDE step.
NO_SCIPY_WAVES_SCRIPT = textwrap.dedent("""
    import json, sys
    from pathlib import Path

    import numpy as np

    import flockjump as fj
    from flockjump import cli, kernel
    from flockjump import mean_field as mf

    assert kernel.load() is not None
    out = Path(sys.argv[1])
    for w in (fj.StepRate(2.0, 1.0), fj.PiecewiseLinearRate(2.0, 1.0), fj.ArccotRate(),
              fj.ExponentialRate(1.0),
              fj.TabulatedRate(grid=(-1.5, -0.5, 0.5, 1.5), values=(2.5, 2.0, 1.4, 1.0))):
        c = mf.wave_speed(w)
        mf.stationary_wave(w)
        assert mf.wave_equation_residual(w, c) <= 1e-6
        grid = np.arange(-6.0, 20.0 + 0.01, 0.02)
        field = mf.DensityField.gaussian(grid, center=0.0, sigma=0.1)
        mf.pde_integrate(field, w, T=0.05, dt=1e-3, samples=2)
    assert cli.main(["travelwave", "--rate", "step:a=2,b=1"]) == 0
    (out / "pde.json").write_text(json.dumps({"rate": {"family": "exponential", "beta": 1.0},
                                              "T": 0.05, "samples": 2}))
    assert cli.main(["pde", str(out / "pde.json")]) == 0
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
""")


def _scipy_modules_loaded_by(script, tmp_path):
    """The scipy modules `script` leaves loaded, run on this package in a new
    interpreter with `tmp_path` as its argument."""
    src = str(Path(fj.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_particles_and_the_record_process_load_no_scipy(tmp_path):
    assert _scipy_modules_loaded_by(NO_SCIPY_SCRIPT, tmp_path) == []
    assert (tmp_path / "fig4_6_small" / "summary.json").exists()


@pytest.mark.skipif(kernel.load() is None, reason="the PDE step and residual fall back to "
                    "their numpy bodies, which use scipy's lfilter, without the kernel")
def test_the_waves_path_travelwave_and_pde_load_no_scipy(tmp_path):
    assert _scipy_modules_loaded_by(NO_SCIPY_WAVES_SCRIPT, tmp_path) == []
    assert (tmp_path / "pde.json").exists()


def test_cli_accept_single_criterion(capsys):
    rc = cli.main(["accept", "--quick", "--only", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS] criterion  1" in out
