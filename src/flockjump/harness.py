"""Experiment harness: JSON configs, seeded reproducible scenario runs
(including the built-in wave presets), and the output bundle. The one module
that writes files: `write_csv` writes every CSV the package writes, the
CLI's included.

A run bundle directory contains `config.snapshot` (canonical JSON),
`summary.json`, `hist_timeavg.csv`, `hist_snapshot.csv`, `mean_path.csv`, and
optionally `events.csv`. CSV numbers are written `.17g` (round-trips, but 0.1
is 0.10000000000000001), JSON floats as Python's shortest round-trip repr, so
(config, seed) determines every output byte.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import get_type_hints

import numpy as np

from . import measures, mean_field, sim
from .model import (RATE_FAMILIES, DeterministicJump, ExponentialJump, ModelError,
                    is_count, is_finite_number)


class ConfigError(ModelError):
    """Bad or missing configuration key (the message names the key)."""


class FitError(ModelError):
    """Degenerate speed-fit window."""


# fewest mean-path samples the speed fit accepts in its trailing window
FIT_MIN_SAMPLES = 10

# rows `write_csv` formats at a time
_CSV_ROWS = 1 << 14


# ---------------------------------------------------------------------------
# rate / jump-length spec parsing
# ---------------------------------------------------------------------------


def _rate_param(key, kind, val):
    """Coerce one rate parameter to its field type (a float or a tuple of floats)."""
    try:
        if kind is float:
            return float(val)
        if kind is tuple and not isinstance(val, str):
            return tuple(float(x) for x in val)
    except (TypeError, ValueError, OverflowError):
        pass
    expected = "a number" if kind is float else "a list of numbers"
    raise ConfigError(f"rate.{key}: expected {expected}, got {val!r}")


def rate_spec_from_dict(d: dict):
    """Build a rate family from {"family": name, **parameters}.

    The parameters are the fields of the family's dataclass in RATE_FAMILIES
    that its constructor takes; one without a default is required, and any
    other key is an error.
    """
    if not isinstance(d, dict) or "family" not in d:
        raise ConfigError("rate: needs a 'family' key")
    fam = d["family"]
    cls = RATE_FAMILIES.get(fam) if isinstance(fam, str) else None
    if cls is None:
        raise ConfigError(f"rate.family: unknown family {fam!r}; have {sorted(RATE_FAMILIES)}")
    kinds = get_type_hints(cls)
    defaults = {f.name: f.default for f in fields(cls) if f.init}
    for key in d:
        if key != "family" and key not in defaults:
            raise ConfigError(f"rate.{key}: not a parameter of the {fam} family "
                              f"(parameters: {', '.join(defaults) or 'none'})")
    params = {}
    for name, default in defaults.items():
        if name in d:
            params[name] = _rate_param(name, kinds[name], d[name])
        elif default is MISSING:
            raise ConfigError(f"rate.{name}: required by the {fam} family")
    try:
        return cls(**params)
    except ModelError as exc:
        raise ConfigError(f"rate: {exc}") from exc


def length_spec_from_dict(d: dict):
    """Build a jump-length law from {"family": "exponential" | "deterministic"};
    both laws have mean one and take no parameters."""
    if not isinstance(d, dict):
        raise ConfigError(f"length: expected a dict such as {{'family': 'exponential'}}, "
                          f"got {d!r}")
    for key in d:
        if key != "family":
            raise ConfigError(f"length.{key}: the length families take no parameters")
    fam = d.get("family", "exponential")
    if fam == "exponential":
        return ExponentialJump()
    if fam == "deterministic":
        return DeterministicJump()
    raise ConfigError(f"length.family: unknown family {fam!r} "
                      "(custom densities are constructed in code, not from config)")


def parse_rate_string(text: str):
    """CLI shorthand, e.g. 'step:a=2,b=1', 'exponential:beta=1', 'arccot'."""
    fam, _, rest = text.partition(":")
    d = {"family": fam.strip()}
    if rest:
        for part in rest.split(","):
            key, _, val = part.partition("=")
            if not val:
                raise ConfigError(f"rate string: malformed parameter {part!r}")
            d[key.strip()] = val
    return rate_spec_from_dict(d)


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    scenario: str
    n: int
    rate: dict
    length: dict = field(default_factory=lambda: {"family": "exponential"})
    T: float = 100.0
    seed: int = 1
    observations: int = 1000
    window: tuple = (-10.0, 10.0)
    bins: int = None
    initial: dict = field(default_factory=lambda: {"kind": "zeros"})
    snapshot_time: float = None
    burn_in: float = 0.0
    fit_window: float = 0.5
    engine: str = "auto"
    log_events: bool = False
    outdir: str = None

    def __post_init__(self):
        if not isinstance(self.scenario, str):
            raise ConfigError(f"scenario: must be a string, got {self.scenario!r}")
        if self.outdir is not None and not isinstance(self.outdir, str):
            raise ConfigError(f"outdir: must be a string or null, got {self.outdir!r}")
        if not is_count(self.n, 1):
            raise ConfigError(f"n: must be an integer >= 1, got {self.n!r}")
        if not is_finite_number(self.T) or self.T <= 0:
            # at T = 0 every observation falls at t = 0 and the speed fit has no spread
            raise ConfigError(f"T: must be a finite number > 0, got {self.T!r}")
        if not is_count(self.seed, 0):
            raise ConfigError(f"seed: must be an integer >= 0, got {self.seed!r}")
        if (not isinstance(self.window, (tuple, list)) or len(self.window) != 2
                or not all(map(is_finite_number, self.window))):
            raise ConfigError(f"window: needs two finite numbers, got {self.window!r}")
        self.window = tuple(float(x) for x in self.window)
        if not self.window[0] < self.window[1]:
            raise ConfigError(f"window: needs a0 < a1, got {self.window}")
        if self.bins is not None and not is_count(self.bins, 1):
            raise ConfigError(f"bins: must be an integer >= 1, got {self.bins!r}")
        if not (is_finite_number(self.fit_window) and 0.0 < self.fit_window <= 1.0):
            raise ConfigError(f"fit_window: must be a number in (0, 1], got {self.fit_window!r}")
        if not is_count(self.observations, 1):
            raise ConfigError(f"observations: must be an integer >= 1, got {self.observations!r}")
        in_fit = self.observations - math.floor(self.observations * (1.0 - self.fit_window))
        if in_fit < FIT_MIN_SAMPLES:
            raise ConfigError(
                f"observations: the speed fit needs >= {FIT_MIN_SAMPLES} samples in its "
                f"trailing window (fit_window={self.fit_window}), and {self.observations} "
                f"observations put {in_fit} there")
        if not (is_finite_number(self.burn_in) and 0.0 <= self.burn_in <= self.T):
            raise ConfigError(f"burn_in: must be a number in [0, T], got {self.burn_in!r}")
        if self.snapshot_time is not None and not is_finite_number(self.snapshot_time):
            raise ConfigError(f"snapshot_time: must be a finite number, got {self.snapshot_time!r}")
        if not isinstance(self.log_events, bool):
            raise ConfigError(f"log_events: must be true or false, got {self.log_events!r}")
        w = rate_spec_from_dict(self.rate)
        try:
            sim.check_engine(w, self.engine)
        except sim.UnsupportedSpecError as exc:
            raise ConfigError(str(exc)) from exc
        length_spec_from_dict(self.length)
        _check_initial(self.initial, self.n)

    @property
    def nbins(self) -> int:
        return self.bins if self.bins is not None else measures.default_bins(self.n)

    def build_rate(self):
        return rate_spec_from_dict(self.rate)

    def build_length(self):
        return length_spec_from_dict(self.length)

    def build_initial(self):
        kind = self.initial.get("kind", "zeros")
        if kind == "zeros":
            return "zeros"
        if kind == "explicit":
            return np.asarray(self.initial["positions"], dtype=float)
        if kind == "iid_uniform":
            lo, hi = float(self.initial["lo"]), float(self.initial["hi"])
            return ("iid", lambda rng, n: rng.uniform(lo, hi, n))
        mu, sd = float(self.initial.get("mean", 0.0)), float(self.initial.get("sd", 1.0))
        return ("iid", lambda rng, n: rng.normal(mu, sd, n))


# initial.kind -> (required keys, optional keys); every value is a finite number
# except the explicit position list
_INITIAL_KEYS = {"zeros": ((), ()), "explicit": (("positions",), ()),
                 "iid_uniform": (("lo", "hi"), ()), "iid_normal": ((), ("mean", "sd"))}


def _check_initial(d, n: int):
    if not isinstance(d, dict):
        raise ConfigError(f"initial: expected a dict such as {{'kind': 'zeros'}}, got {d!r}")
    kind = d.get("kind", "zeros")
    if not isinstance(kind, str) or kind not in _INITIAL_KEYS:
        raise ConfigError(f"initial.kind: unknown kind {kind!r}; have {sorted(_INITIAL_KEYS)}")
    required, optional = _INITIAL_KEYS[kind]
    for key, val in d.items():
        if key == "kind":
            continue
        if key not in required + optional:
            raise ConfigError(f"initial.{key}: not a key of initial kind {kind!r}")
        if key != "positions" and not is_finite_number(val):
            raise ConfigError(f"initial.{key}: must be a finite number, got {val!r}")
    for key in required:
        if key not in d:
            raise ConfigError(f"initial.{key}: required by initial kind {kind!r}")
    if kind == "explicit":
        pos = d["positions"]
        if not (isinstance(pos, (list, tuple)) and len(pos) == n
                and all(map(is_finite_number, pos))):
            raise ConfigError("initial.positions: must list exactly n finite positions")
    if kind == "iid_uniform" and not d["lo"] <= d["hi"]:
        raise ConfigError(f"initial.hi: must be >= initial.lo = {d['lo']}, got {d['hi']}")
    if kind == "iid_normal" and not d.get("sd", 1.0) >= 0:
        raise ConfigError(f"initial.sd: must be >= 0, got {d['sd']}")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    d = asdict(cfg)
    d["window"] = list(cfg.window)
    return d


def config_from_dict(d: dict) -> ExperimentConfig:
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    extra = set(d) - known
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    missing = {"scenario", "n", "rate"} - set(d)
    if missing:
        raise ConfigError(f"missing required config keys: {sorted(missing)}")
    return ExperimentConfig(**d)


def canonical_json(obj) -> str:
    """Sorted, indented JSON; a numpy scalar is written as its Python value."""
    return json.dumps(obj, indent=2, sort_keys=True, default=lambda x: x.item()) + "\n"


def read_json(path) -> dict:
    """A JSON object from a config file; ConfigError if it is anything else."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file does not parse as JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file must hold a JSON object, got {type(raw).__name__}")
    return raw


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_json(path))


# `flockjump pde` numeric settings and their defaults; for the wave start, an
# omitted x_min or x_max is the edge of the wave's own support instead
_PDE_NUMBERS = {"h": 0.01, "dt": 1e-3, "T": 10.0, "x_min": -6.0, "x_max": 25.0}
# initial.kind -> its numeric keys and their defaults
_PDE_INITIAL = {"wave": {}, "gaussian": {"center": 0.0, "sigma": 0.1}}


def pde_config_from_dict(d: dict) -> dict:
    """Check a `flockjump pde` config and fill in its defaults.

    Returns the settings with `rate` built into its rate family; every bad or
    missing value is a ConfigError naming its key. When the start is the wave
    and the config omits x_min or x_max, that edge is where the profile at
    the solved speed falls to e^-60 of its peak (`mean_field.profile_support`,
    the support of `wave_profile`), so the window holds all but about e^-60
    of the profile's mass.
    """
    extra = set(d) - {"rate", "initial", "samples", "outdir", *_PDE_NUMBERS}
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    if "rate" not in d:
        raise ConfigError("rate: required, e.g. {'family': 'exponential', 'beta': 1.0}")
    outdir = d.get("outdir")
    if outdir is not None and not isinstance(outdir, str):
        raise ConfigError(f"outdir: must be a string or null, got {outdir!r}")
    out = {"rate": rate_spec_from_dict(d["rate"]), "outdir": outdir}
    init = d.get("initial", {"kind": "wave"})
    if not isinstance(init, dict):
        raise ConfigError(f"initial: expected a dict such as {{'kind': 'wave'}}, got {init!r}")
    kind = init.get("kind", "wave")
    if not isinstance(kind, str) or kind not in _PDE_INITIAL:
        raise ConfigError(f"initial.kind: unknown kind {kind!r}; have 'wave', 'gaussian'")
    known = _PDE_INITIAL[kind]
    extra = sorted(set(init) - {"kind", *known})
    if extra:
        raise ConfigError(f"initial.{extra[0]}: unknown key for kind {kind!r}")
    out["initial"] = {"kind": kind}
    for key, default in known.items():
        val = init.get(key, default)
        if not is_finite_number(val):
            raise ConfigError(f"initial.{key}: must be a finite number, got {val!r}")
        out["initial"][key] = float(val)
    if kind == "gaussian" and not out["initial"]["sigma"] > 0:
        raise ConfigError(f"initial.sigma: must be > 0, got {init['sigma']!r}")
    defaults = dict(_PDE_NUMBERS)
    if kind == "wave" and not {"x_min", "x_max"} <= set(d):
        w = out["rate"]
        defaults["x_min"], defaults["x_max"] = mean_field.profile_support(
            w, mean_field.wave_speed(w))
    for key, default in defaults.items():
        val = d.get(key, default)
        if not is_finite_number(val):
            raise ConfigError(f"{key}: must be a finite number, got {val!r}")
        out[key] = float(val)
    for key in ("h", "dt"):
        if not out[key] > 0:
            raise ConfigError(f"{key}: must be > 0, got {out[key]}")
    if out["T"] < 0:
        raise ConfigError(f"T: must be >= 0, got {out['T']}")
    if not out["x_min"] < out["x_max"]:
        # name the key the config set: x_min alone, against the default or tail x_max
        if "x_max" in d:
            raise ConfigError(f"x_max: must exceed x_min, got {out['x_min']} and {out['x_max']}")
        raise ConfigError(f"x_min: must be below x_max = {out['x_max']}, got {out['x_min']}")
    if not (out["x_max"] + out["h"] / 2 - out["x_min"]) / out["h"] > 1:
        # np.arange(x_min, x_max + h / 2, h) has ceil of this many nodes
        raise ConfigError(f"h: must leave two grid nodes or more on [x_min, x_max], "
                          f"got {out['h']}")
    samples = d.get("samples", 200)
    if not is_count(samples, 1):
        raise ConfigError(f"samples: must be an integer >= 1, got {samples!r}")
    out["samples"] = samples
    return out


def save_config(cfg: ExperimentConfig, path):
    with open(path, "w") as fh:
        fh.write(canonical_json(config_to_dict(cfg)))


# ---------------------------------------------------------------------------
# presets (large reference runs and desk-scale versions)
# ---------------------------------------------------------------------------

PRESETS = {
    "fig4_6": dict(scenario="fig4_6", n=10_000, rate={"family": "exponential", "beta": 1.0},
                   length={"family": "exponential"}, T=1000.0, seed=46, window=(-10.0, 10.0)),
    "fig7_9": dict(scenario="fig7_9", n=10_000, rate={"family": "step", "a": 2.0, "b": 1.0},
                   length={"family": "exponential"}, T=1000.0, seed=79, window=(-10.0, 10.0)),
    "fig4_6_small": dict(scenario="fig4_6_small", n=1000,
                         rate={"family": "exponential", "beta": 1.0},
                         length={"family": "exponential"}, T=200.0, seed=146, window=(-10.0, 10.0)),
    "fig7_9_small": dict(scenario="fig7_9_small", n=1000,
                         rate={"family": "step", "a": 2.0, "b": 1.0},
                         length={"family": "exponential"}, T=200.0, seed=179, window=(-10.0, 10.0)),
}


def preset_config(name: str, **overrides) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    d = dict(PRESETS[name])
    d.update(overrides)
    return config_from_dict(d)


# ---------------------------------------------------------------------------
# speed fit and histogram distances
# ---------------------------------------------------------------------------


def fit_speed(times, means, window_fraction: float = 0.5):
    """OLS slope and standard error of the mean path over the trailing window."""
    times = np.asarray(times, dtype=float)
    means = np.asarray(means, dtype=float)
    start = int(math.floor(len(times) * (1.0 - window_fraction)))
    t = times[start:]
    y = means[start:]
    if len(t) < FIT_MIN_SAMPLES:
        raise FitError(f"speed fit needs >= {FIT_MIN_SAMPLES} samples in the window, got {len(t)}")
    tc = t - t.mean()
    denom = float(np.dot(tc, tc))
    if denom == 0.0:
        raise FitError("speed fit window has zero time spread")
    slope = float(np.dot(tc, y)) / denom
    resid = y - y.mean() - slope * tc
    dof = max(len(t) - 2, 1)
    stderr = math.sqrt(float(np.dot(resid, resid)) / dof / denom)
    return slope, stderr


def ks_histogram_vs_cdf(hist: measures.Histogram, cdf) -> float:
    """KS distance between the sample law underlying a histogram and a model CDF,
    evaluated at the bin edges (the finest resolution the histogram retains)."""
    edges = hist.edges
    emp = hist.cdf_at_edges()
    model = np.asarray(cdf(edges), dtype=float)
    return float(np.max(np.abs(emp - model)))


def w1_histogram_vs_cdf(hist: measures.Histogram, cdf) -> float:
    """W1 restricted to the histogram window (CDF-difference integral)."""
    edges = hist.edges
    emp = hist.cdf_at_edges()
    model = np.asarray(cdf(edges), dtype=float)
    return float(np.trapezoid(np.abs(emp - model), edges))


# ---------------------------------------------------------------------------
# scenario runner
# ---------------------------------------------------------------------------


@dataclass
class ScenarioResult:
    config: ExperimentConfig
    summary: dict
    hist_timeavg: measures.Histogram
    hist_snapshot: measures.Histogram
    mean_times: np.ndarray
    mean_path: np.ndarray
    sim_result: sim.SimulationResult


def run_scenario(cfg: ExperimentConfig, outdir=None) -> ScenarioResult:
    """Execute one configured run and compute the standard diagnostics:
    time-averaged centered histogram, one snapshot histogram, the mean path
    with its trailing-window speed fit, and KS/W1 distances to the matching
    mean-field stationary density."""
    if outdir is None:
        outdir = cfg.outdir
    w = cfg.build_rate()
    z = cfg.build_length()
    rng = np.random.default_rng(cfg.seed)
    a0, a1 = cfg.window
    nbins = cfg.nbins
    snapshot_time = cfg.snapshot_time if cfg.snapshot_time is not None else 0.5 * cfg.T

    averager = measures.TimeAverager(a0, a1, nbins, samples=cfg.observations,
                                     burn_in=cfg.burn_in)
    result = sim.simulate(w, z, cfg.n, T=cfg.T, rng=rng, init=cfg.build_initial(),
                          observer=averager, observations=cfg.observations,
                          engine=cfg.engine, log_events=cfg.log_events)
    mean_times, mean_path = averager.t[:averager.rows], averager.m[:averager.rows]
    snapshot = int(np.argmin(np.abs(mean_times - snapshot_time)))     # the first nearest

    wave = mean_field.stationary_wave(w)
    hist_avg = averager.finalize()
    hist_snapshot = averager.histogram(snapshot)
    slope, stderr = fit_speed(mean_times, mean_path, cfg.fit_window)

    summary = {
        "scenario": cfg.scenario,
        "n": cfg.n,
        "seed": cfg.seed,
        "rng": "numpy PCG64 (default_rng)",
        "engine": result.engine,
        "events": result.events,
        "final_time": result.final_time,
        "truncated": result.truncated,
        "initial_center": result.initial_center,
        "final_center": result.final_center,
        "wave_label": wave.label,
        "wave_speed_model": wave.c,
        "fitted_speed": slope,
        "fitted_speed_stderr": stderr,
        "speed_rel_err": abs(slope - wave.c) / wave.c,
        "ks_timeavg": ks_histogram_vs_cdf(hist_avg, wave.cdf),
        "w1_timeavg": w1_histogram_vs_cdf(hist_avg, wave.cdf),
        "ks_snapshot": ks_histogram_vs_cdf(hist_snapshot, wave.cdf),
        "snapshot_time": mean_times[snapshot],
        "out_of_window_fraction_timeavg": hist_avg.out_count / hist_avg.n_samples,
    }

    out = ScenarioResult(config=cfg, summary=summary, hist_timeavg=hist_avg,
                         hist_snapshot=hist_snapshot,
                         mean_times=mean_times, mean_path=mean_path,
                         sim_result=result)
    if outdir is not None:
        write_bundle(out, outdir)
    return out


def write_bundle(res: ScenarioResult, outdir):
    os.makedirs(outdir, exist_ok=True)
    save_config(res.config, os.path.join(outdir, "config.snapshot"))
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        fh.write(canonical_json(res.summary))
    for name, hist in (("hist_timeavg.csv", res.hist_timeavg),
                       ("hist_snapshot.csv", res.hist_snapshot)):
        edges = hist.edges
        write_csv(os.path.join(outdir, name), "bin_left,bin_right,density",
                  edges[:-1], edges[1:], hist.values)
    write_csv(os.path.join(outdir, "mean_path.csv"), "t,mean", res.mean_times, res.mean_path)
    log = res.sim_result.log
    if log is not None:
        write_csv(os.path.join(outdir, "events.csv"),
                  "time,particle_index,jump_length,center_of_mass",
                  log.times, log.indices, log.lengths, log.centers)


def write_csv(path, header, *columns):
    """Write the numpy `columns` side by side under the comma-separated
    `header`, every number as `.17g`, which reads back as the same double.

    The one place the package formats a number for a file. Rows go out
    `_CSV_ROWS` at a time: each chunk becomes Python numbers (`.tolist()`)
    and one format call of the row template, so memory stays bounded by the
    chunk however long the columns are.
    """
    row = ",".join(["{:.17g}"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), _CSV_ROWS):
            chunk = [col[lo:lo + _CSV_ROWS].tolist() for col in columns]
            fh.write((row * len(chunk[0])).format(*itertools.chain.from_iterable(zip(*chunk))))
