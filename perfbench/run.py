"""flockjump benchmark: one workload per invocation, result as one JSON line.

    python3 perfbench/run.py --workload {scenario,logged_paths,waves,record}
                             --seed N --seconds S --trace {0,1}

Run it from a source checkout; it imports the package from `src/` and builds
nothing. Load is one process, a closed loop with one client: a round runs every
op of the workload once, in order, and rounds repeat the same inputs until the
time budget is spent. Metrics are medians over rounds.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 alternates
untraced and traced rounds and prints the per-layer metrics from the traced
ones, with the tracing overhead. Every op is checked against an oracle from the
package; ops that raise, miss their tolerance or fail to reproduce their first
fingerprint count as failed. Each run writes a result record (and, traced, its
spans) under perfbench/out/. perfbench/METRICS.md defines every number.

Times are reported in reference seconds: the measured wall time scaled by
CAL_REF_S / (time of a fixed calibration kernel run between the ops). The
host's speed drifts by tens of percent over minutes, which this cancels; the
raw wall times are kept in the result record.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("scenario", "logged_paths", "waves", "record")
SETUP_PROBES = 4            # extra fresh-process set-ups; the run's own is one more
MIN_ROUNDS = {0: 3, 1: 4}   # per trace mode; traced runs alternate untraced/traced
CAL_REF_S = 0.0125          # calibration-kernel time that defines one reference second
CAL_REPEATS = 5             # calibration runs after each set-up
BLAS_CAPS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrunken inputs for the smoke test (not comparable to full runs)")
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time one set-up in this fresh process and exit")
    return p.parse_args(argv)


def calibrate():
    """Seconds for fixed work that never touches flockjump: a pure-Python loop
    and small numpy calls, the two kinds of work the package does."""
    import numpy as np
    t0 = perf_counter()
    acc = 0.0
    for i in range(100_000):
        acc += (i % 7) * 0.5
    x = np.linspace(0.0, 1.0, 4096)
    for _ in range(300):
        x = np.sqrt(x * x + 1e-3)
    return perf_counter() - t0


def setup(args):
    """Import the package (numpy and scipy with it), build the inputs, warm
    caches. Returns the workload, raw set-up seconds and reference set-up seconds."""
    t0 = perf_counter()
    import workloads
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, args.tiny, str(OUT / "tmp"))
    seconds = perf_counter() - t0
    cal = statistics.median(calibrate() for _ in range(CAL_REPEATS))
    return wl, seconds, seconds * CAL_REF_S / cal


def probe_setups(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


def run_op(op, wrap_rng, tracer, op_id):
    """Run one op; returns (Outcome or None, failure text or None)."""
    try:
        if tracer is None:
            out = op.run(wrap_rng)
        else:
            tracer.op = op_id
            with tracer.span("bench.op"):
                out = op.run(wrap_rng)
    except Exception:       # an op that raises counts as failed; the run goes on
        return None, traceback.format_exc(limit=4)
    missed = [f"{lab}={val:.4g} > {tol:g}" for lab, val, tol in out.checks if not val <= tol]
    return out, ("; ".join(missed) or None)


def run_rounds(wl, args, fj):
    """Rounds of every op until the budget is spent; returns the round records."""
    tracer = tracing.Tracer() if args.trace else None
    rounds = []
    t_start = perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rec = {"traced": traced, "outcomes": [], "failures": [], "op_walls": [], "cal": []}
        if traced:
            rec["span_range"] = [tracer.begin_round(), None]
            ctx, wrap_rng = tracer.installed(fj), tracer.wrap_rng
        else:
            ctx, wrap_rng = contextlib.nullcontext(), (lambda gen: gen)
        with ctx:
            for k, op in enumerate(wl.ops):
                rec["cal"].append(calibrate())
                t0 = perf_counter()
                out, failure = run_op(op, wrap_rng, tracer if traced else None,
                                      f"r{len(rounds)}.{k}")
                rec["op_walls"].append(perf_counter() - t0)
                rec["outcomes"].append(out)
                rec["failures"].append(failure)
        rec["cal"].append(calibrate())
        rec["wall"] = sum(rec["op_walls"])
        if traced:
            rec["span_range"][1] = len(tracer.spans)
            rec["counts"] = dict(tracer.counts)
        rounds.append(rec)
        if len(rounds) < MIN_ROUNDS[args.trace] or (args.trace and len(rounds) % 2):
            continue
        # Stop before a further round (or untraced/traced pair) would overrun.
        step = sum(r["wall"] + sum(r["cal"]) for r in rounds[-(1 + args.trace):])
        if perf_counter() - t_start + step > args.seconds:
            break
    # One scale for the run: pooled over all its calibration samples, which
    # measured steadier between runs than a scale per round.
    scale = CAL_REF_S / statistics.median(c for r in rounds for c in r["cal"])
    for rec in rounds:
        rec["wall_ref"] = rec["wall"] * scale
    return rounds, tracer, scale


def check_rounds(wl, rounds):
    """Count failed ops: missed oracle, raised, or a fingerprint that differs from
    the op's first one (same inputs must give the same bytes, traced or not)."""
    first = {}
    failed, notes = 0, []
    for r, rec in enumerate(rounds):
        for k, (out, failure) in enumerate(zip(rec["outcomes"], rec["failures"])):
            if failure is None and out.fingerprint != first.setdefault(k, out.fingerprint):
                failure = f"fingerprint {out.fingerprint[:16]} != first {first[k][:16]}"
            if failure is not None:
                failed += 1
                notes.append(f"round {r} op {wl.ops[k].label}: {failure}")
        if rec["traced"]:
            ops_events = sum(o.events for o in rec["outcomes"] if o is not None)
            if rec["counts"].get("sim.events", 0) != ops_events:
                failed += 1
                notes.append(f"round {r}: traced sim.events {rec['counts'].get('sim.events', 0)} "
                             f"!= op events {ops_events}")
    return failed, notes


def end_to_end(rounds, setup_ref):
    work = [sum(o.work for o in r["outcomes"] if o is not None) for r in rounds]
    return {
        "setup_s": statistics.median(setup_ref),
        "wall_s": statistics.median(r["wall_ref"] for r in rounds),
        "events_per_s": statistics.median(w / r["wall_ref"] for w, r in zip(work, rounds)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(rounds, tracer, scale):
    per_round = []
    for rec in (r for r in rounds if r["traced"]):
        calls, self_s = tracer.layer_totals(*rec["span_range"])
        cnt = rec["counts"]
        m = {f"{name}.calls": n for name, n in calls.items()}
        m.update({f"{name}.self_s": s * scale for name, s in self_s.items()})
        m.update({k: cnt.get(k, 0) for k in tracing.COUNTERS})
        m["sim.events_per_self_s"] = _ratio(m["sim.events"], m.get("sim.simulate.self_s"))
        m["sim.accept_ratio"] = _ratio(cnt.get("sim.bounded_events", 0),
                                       cnt.get("sim.bounded_proposals"))
        m["mean_field.pde_steps_per_s"] = _ratio(m["mean_field.pde_steps"],
                                                 m.get("mean_field.pde_integrate.self_s"))
        m["extremes.draws_per_pool_value"] = _ratio(m["extremes.rng_draws"],
                                                    m["extremes.pool_values"])
        m["harness.bundle_bytes"] = sum(o.bundle_bytes for o in rec["outcomes"] if o is not None)
        m["trace.wall_s"] = rec["wall_ref"]
        per_round.append(m)
    names = {m["name"] for m in spec()["per_layer"]} - {"trace.overhead_s"}
    out = {name: statistics.median(m.get(name, 0) for m in per_round) for name in names}
    plain = statistics.median(r["wall_ref"] for r in rounds if not r["traced"])
    out["trace.overhead_s"] = out["trace.wall_s"] - plain
    return out


def _ratio(num, den):
    """num / den, or 0.0 where the layer did no work on this workload."""
    return num / den if den else 0.0


def run_facts(wl, rounds, scale):
    """Oracle statistics (worst over rounds per op) and fingerprints: printed as
    facts, not metrics, since an exact change that moves the random stream
    moves them at random."""
    facts = {"rounds": len(rounds), "unit_event": wl.unit_event, "ops": []}
    for k, op in enumerate(wl.ops):
        outs = [r["outcomes"][k] for r in rounds if r["outcomes"][k] is not None]
        worst = {}
        for out in outs:
            for lab, val, tol in out.checks:
                if lab not in worst or val > worst[lab][0]:
                    worst[lab] = (val, tol)
        entry = {"op": op.label,
                 "checks": {lab: {"worst": v, "tol": t} for lab, (v, t) in worst.items()}}
        if outs:
            entry["events"] = outs[0].events
            entry.update(outs[0].facts)
        facts["ops"].append(entry)
    facts["raw_round_walls_s"] = [r["wall"] for r in rounds]
    facts["raw_op_walls_s"] = [r["op_walls"] for r in rounds]
    facts["calibration_s"] = [r["cal"] for r in rounds]
    facts["reference_scale"] = scale
    return facts


def run_record(args):
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(),
        "blas_thread_caps": {k: os.environ.get(k) for k in BLAS_CAPS},
        "cal_ref_s": CAL_REF_S,
    }


def git_commit():
    """HEAD of the checkout, or None outside a git work tree (never looks above ROOT)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    env.pop("GIT_DIR", None)
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "flockjump" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'flockjump'}; "
              "run from a flockjump source checkout", file=sys.stderr)
        return 2
    os.environ.update(BLAS_CAPS)
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        _wl, raw, ref = setup(args)
        print(json.dumps({"raw_s": raw, "ref_s": ref}))
        return 0

    probes = [] if args.trace else probe_setups(args)
    wl, raw, ref = setup(args)
    probes.append({"raw_s": raw, "ref_s": ref})
    import flockjump
    if Path(flockjump.__file__).resolve().parent != ROOT / "src" / "flockjump":
        print(f"perfbench: imported {flockjump.__file__}, not the checkout's", file=sys.stderr)
        return 2

    rounds, tracer, scale = run_rounds(wl, args, flockjump)
    failed, notes = check_rounds(wl, rounds)
    attempted = sum(len(r["outcomes"]) for r in rounds)
    if args.trace:
        values, names = per_layer(rounds, tracer, scale), spec()["per_layer"]
    else:
        values, names = end_to_end(rounds, [p["ref_s"] for p in probes]), spec()["end_to_end"]
    facts = run_facts(wl, rounds, scale)
    facts["fail_frac"] = failed / attempted
    facts["setup_samples"] = probes

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.jsonl")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in names}}
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({"record": run_record(args), "facts": facts, "failures": notes,
                   "result": result}, fh, indent=1)

    for note in notes:
        print(f"FAILED {note}")
    for entry in facts["ops"]:
        if "bundle_sha256" in entry:
            print(f"bundle {entry['op']} sha256 {entry['bundle_sha256']}"
                  + {True: " (matches baseline)", False: " (DIFFERS from baseline)",
                     None: ""}[entry.get("matches_baseline")])
    print(f"fail_frac {facts['fail_frac']} ({failed}/{attempted} ops)")
    print(f"facts {json.dumps(facts)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
