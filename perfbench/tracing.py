"""Spans and counters recorded from outside the program.

`Tracer.installed()` replaces module attributes (and two class methods) of
flockjump with timing wrappers, so calls made *inside* the package through its
module globals -- `harness` -> `sim.simulate`, `wave_speed` -> `profile_mean`,
`sample_final_uncentered` -> `simulate_record` -- are seen as well. The
re-exports in `flockjump/__init__.py` are bound at import time and are never
called by the package or by the benchmark, so they are left alone.

A span is [name, start, end, parent index, op id]; spans stay in memory and are
written out once at the end of a run. A span's self time is its duration minus
the time covered by its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter
from time import perf_counter


# Counters the hooks below produce that are reported as per-layer metrics as
# they are (the bounded_* pair only feeds sim.accept_ratio).
COUNTERS = ("sim.events", "sim.proposals", "measures.residual_path.events",
            "mean_field.pde_steps", "extremes.pool_values", "extremes.rng_draws")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_simulate(counts, args, kwargs, res):
    counts["sim.events"] += res.events
    counts["sim.proposals"] += res.proposals
    if res.engine == "bounded":
        # The exponential engine reports proposals = 0, so the acceptance
        # ratio is only defined over bounded-engine runs.
        counts["sim.bounded_events"] += res.events
        counts["sim.bounded_proposals"] += res.proposals


def _count_residual(counts, args, kwargs, res):
    counts["measures.residual_path.events"] += len(_arg(args, kwargs, 1, "log"))


def _count_pde(counts, args, kwargs, res):
    field = _arg(args, kwargs, 0, "field")
    dt = _arg(args, kwargs, 3, "dt")
    final, _diags = res
    counts["mean_field.pde_steps"] += round((final.time - field.time) / dt)


def _count_record(counts, args, kwargs, res):
    counts["extremes.pool_values"] += res.pool.pool_count


def _targets(fj):
    """(owner, attribute, span name, counting hook) for every traced boundary."""
    return [
        (fj.sim, "simulate", "sim.simulate", _count_simulate),
        (fj.measures, "build_histogram", "measures.build_histogram", None),
        (fj.measures.TimeAverager, "finalize", "measures.TimeAverager.finalize", None),
        (fj.measures, "residual_path", "measures.residual_path", _count_residual),
        (fj.measures, "ks_distance", "measures.ks_distance", None),
        (fj.mean_field, "wave_speed", "mean_field.wave_speed", None),
        (fj.mean_field, "profile_mean", "mean_field.profile_mean", None),
        (fj.mean_field, "stationary_wave", "mean_field.stationary_wave", None),
        (fj.mean_field, "wave_equation_residual", "mean_field.wave_equation_residual", None),
        (fj.mean_field, "pde_integrate", "mean_field.pde_integrate", _count_pde),
        (fj.two_particle, "gap_stationary_pmf", "two_particle.gap_stationary_pmf", None),
        (fj.two_particle.GapDensity, "cdf", "two_particle.GapDensity.cdf", None),
        (fj.extremes, "sample_final_uncentered", "extremes.sample_final_uncentered", None),
        (fj.extremes, "simulate_record", "extremes.simulate_record", _count_record),
        (fj.harness, "run_scenario", "harness.run_scenario", None),
        (fj.harness, "write_bundle", "harness.write_bundle", None),
    ]


class CountingGenerator:
    """Forwards every call to a numpy Generator and counts the values it returns.

    The wrapped generator does all the drawing, so the random stream is the
    one the unwrapped generator would produce.
    """

    def __init__(self, gen, counts):
        self._gen = gen
        self._counts = counts

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self._counts["extremes.rng_draws"] += getattr(out, "size", 1)
            return out

        return counted


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self.stack = []
        self.op = None
        self.counts = Counter()  # counters of the current round

    def begin_round(self):
        self.counts = Counter()
        return len(self.spans)

    def wrap_rng(self, gen):
        return CountingGenerator(gen, self.counts)

    @contextlib.contextmanager
    def span(self, name):
        stack = self.stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            stack.pop()

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                res = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counts, args, kwargs, res)
            return res

        return traced

    @contextlib.contextmanager
    def installed(self, fj):
        saved = []
        try:
            for owner, attr, name, hook in _targets(fj):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_totals(self, first, last):
        """Per span name: (calls, self seconds) over spans[first:last]."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for _name, start, end, parent, _op in spans:
            if parent >= first:
                child[parent - first] += end - start
        calls, self_s = Counter(), Counter()
        for k, (name, start, end, _parent, _op) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[k]
        return calls, self_s

    def write(self, path):
        with open(path, "w") as fh:
            for k, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
