"""Command-line interface.

Verbs:
  simulate <config.json>         run a configured scenario and write its bundle
  travelwave --rate SPEC         solve the wave speed and export the profile
  gap --rate SPEC [--beta B]     two-particle stationary laws (chain pmf and,
                                 with --beta, the continuous gap density)
  extremes --beta B --T T        record-process run, jump path to CSV
  pde <config.json>              integrate the mean-field equation
  accept [--quick] [--only N]    run the acceptance suite

Rate SPEC strings: 'exponential:beta=1', 'step:a=2,b=1',
'piecewise_linear:a=2,b=1', 'arccot'.

A model or configuration error, or a flag out of its range, is reported as
one line on stderr, "flockjump: error: <message>", with exit status 2. A bad
flag or configuration is refused before the verb prints or writes anything.
Every file a verb writes goes through `harness.write_csv` (CSVs, every number
`.17g`) or `harness.write_bundle`.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .model import ExponentialRate, ModelError


def _cmd_simulate(args):
    from .harness import load_config, run_scenario

    cfg = load_config(args.config)
    outdir = args.outdir or f"runs/{cfg.scenario}_seed{cfg.seed}"
    res = run_scenario(cfg, outdir=outdir)
    for key in ("scenario", "engine", "events", "wave_speed_model", "fitted_speed",
                "speed_rel_err", "ks_timeavg", "w1_timeavg"):
        print(f"{key}: {res.summary[key]}")
    print(f"bundle written to {outdir}")
    return 0


def _cmd_travelwave(args):
    from .harness import parse_rate_string, write_csv
    from .mean_field import wave_profile, wave_speed

    w = parse_rate_string(args.rate)
    report = {}
    c = wave_speed(w, report=report)
    prof = wave_profile(w, c, h=args.h)
    print(f"wave speed c = {c:.12g}")
    print(f"solver: {report['evaluations']} moment evaluations, "
          f"final bracket width {report['bracket_width']:.3g}")
    print(f"profile support: [{prof.grid[0]:.6g}, {prof.grid[-1]:.6g}], "
          f"{len(prof.grid)} points, trapz mass {prof.trapz_mass():.12g}, "
          f"mean {prof.trapz_mean():.3e}")
    if args.out:
        write_csv(args.out, "x,density", prof.grid, prof.values)
        print(f"profile written to {args.out}")
    return 0


def _cmd_gap(args):
    from .harness import parse_rate_string, write_csv
    from .two_particle import GapDensity, gap_chain, gap_stationary_pmf

    if not (math.isfinite(args.gmax) and args.gmax > 0):
        raise ModelError(f"gmax: must be a finite number > 0, got {args.gmax}")
    if args.npts < 1:
        raise ModelError(f"npts: must be an integer >= 1, got {args.npts}")
    w = parse_rate_string(args.rate)
    chain = gap_chain(w)
    pi = gap_stationary_pmf(chain)
    dens = GapDensity(args.beta) if args.beta is not None else None
    print(f"# birth-death gap chain (deterministic unit jumps), kmax = {chain.kmax}")
    for k in range(min(len(pi), args.kprint)):
        print(f"pi[{k}] = {pi[k]:.12g}")
    if dens is not None:
        print(f"# continuous gap density for w = exp(-{args.beta} x), exponential jumps")
        print(f"normalizer c = {dens.normalizer:.12g}")
        if args.out:
            gs = np.linspace(0.0, args.gmax, args.npts)
            write_csv(args.out, "g,density", gs, dens.pdf(gs))
            print(f"density written to {args.out}")
    return 0


def _cmd_extremes(args):
    from .extremes import new_pool, simulate_record
    from .harness import write_csv
    from .mean_field import stationary_wave

    if args.seed < 0:
        raise ModelError(f"seed: must be an integer >= 0, got {args.seed}")
    beta = args.beta
    c = args.c if args.c is not None else stationary_wave(ExponentialRate(beta)).c
    rng = np.random.default_rng(args.seed)
    pool = new_pool(beta, c, rng)
    path = simulate_record(pool, args.T, rng)
    final = path.uncentered_final()
    print(f"k = {pool.k}, c = {c:.6g}, pool size at T: {path.pool.pool_count}")
    print(f"jumps of Y: {len(path.yk_jumps)}, Y(T) - (1/beta) log N(T) = {final:.6g}")
    if args.out:
        write_csv(args.out, "t,Y", path.times, path.values)
        print(f"jump path written to {args.out}")
    return 0


def _cmd_pde(args):
    from .harness import pde_config_from_dict, read_json, write_csv
    from .mean_field import DensityField, pde_integrate, wave_profile, wave_speed

    cfg = pde_config_from_dict(read_json(args.config))
    w, h, dt, T = cfg["rate"], cfg["h"], cfg["dt"], cfg["T"]
    c = wave_speed(w)
    prof = wave_profile(w, c)
    grid = np.arange(cfg["x_min"], cfg["x_max"] + h / 2, h)
    init = cfg["initial"]
    if init["kind"] == "wave":
        field = DensityField.from_profile(prof, grid=grid)
    else:
        field = DensityField.gaussian(grid, center=init["center"], sigma=init["sigma"])
    final, diags = pde_integrate(field, w, T=T, dt=dt, wave=prof, samples=cfg["samples"])
    print(f"wave speed c = {c:.8g}")
    print(f"mass drift per unit time: {diags.mass_drift_per_unit_time():.3e}")
    print(f"trimmed on the left: {diags.trims} cells, mass {diags.trimmed_mass:.3e}")
    print(f"added on the right: {diags.added} cells")
    print(f"final mean: {final.mean:.6g};  W1 to wave (shape): {diags.w1_shape[-1]:.3e}")
    outdir = cfg["outdir"]
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        write_csv(os.path.join(outdir, "pde_diagnostics.csv"), "t,mass,mean,speed,w1",
                  diags.t, diags.mass, diags.mean, diags.speed, diags.w1_shape)
        write_csv(os.path.join(outdir, "final_density.csv"), "x,density",
                  final.grid, final.values)
        print(f"diagnostics written to {outdir}")
    return 0


def _cmd_accept(args):
    from .acceptance import run_acceptance

    return run_acceptance(quick=args.quick, only=args.only)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="flockjump", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("simulate", help="run a configured scenario")
    p.add_argument("config")
    p.add_argument("--outdir", default=None)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("travelwave", help="traveling-wave speed and profile")
    p.add_argument("--rate", required=True)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_travelwave)

    p = sub.add_parser("gap", help="two-particle stationary laws")
    p.add_argument("--rate", required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--kprint", type=int, default=10)
    p.add_argument("--gmax", type=float, default=10.0)
    p.add_argument("--npts", type=int, default=1001)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_gap)

    p = sub.add_parser("extremes", help="record-process run")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_extremes)

    p = sub.add_parser("pde", help="integrate the mean-field equation")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_pde)

    p = sub.add_parser("accept", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true",
                   help="scaled presets and reduced event counts")
    p.add_argument("--only", type=int, default=None, help="run a single criterion")
    p.set_defaults(fn=_cmd_accept)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ModelError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
