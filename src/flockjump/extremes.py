"""Record-process oracle for the Gumbel family.

A pool of i.i.d. unit exponentials grows so that N(t) = ceil(e^{beta c t} /
(beta c)); with k = 1/beta a positive integer, Y(t) = k * (k-th largest pool
value) evolves like the mean-field particle with rate e^{beta(ct - y)}, and
Y(T) - (1/beta) log N(T) converges to the (uncentered) generalized Gumbel law.

`simulate_record` follows the whole jump path. Only the top k+1 pool values
are retained: the jump of the k-th maximum is exactly the gap between the new
k-th and (k+1)-st largest values, so deeper order statistics never matter.
Every pool value is drawn, but only draws above the ledger's floor reach
Python: each batch is scanned once in chunks that grow with the pool index,
so a run does O(k log N) Python steps.

`sample_final_uncentered` needs only Y(T), which is k times one order
statistic of the N(T) draws, so it walks no ledger. It draws whole runs as
the rows of one buffer of at most `_BLOCK` values, allocated once per call,
and picks each row's k-th largest with k - 1 argmax passes (each pick
overwritten with -inf) and one max; a run longer than the buffer is drawn
in pieces, each merged into the run's running top k. The Python work is
thus O(k) numpy calls per block, not per run, on top of the draws. Both
consume the generator identically, so for the same seed they give the same
Y(T) to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import DomainError, ModelError, is_count, is_finite_number
# The limit law; `mean_field` centers it into the exponential family's wave.
from .mean_field import generalized_gumbel_cdf, generalized_gumbel_pdf  # noqa: F401

_POOL_CAP_LOG = 62 * math.log(2.0)   # keep the pool inside 2^62
_BLOCK = 1 << 15        # values per draw call: simulate_record's batch, the sampler's buffer


class HorizonError(ModelError):
    """The requested time would overflow the integer pool size."""


def pool_size(beta: float, c: float, t: float) -> int:
    """N(t) = ceil(e^{beta c t} / (beta c)), at least 1."""
    if not (0.0 <= t < math.inf):
        raise DomainError(f"T must be finite and >= 0, got {t}")
    if not (0 < beta * c < math.inf):
        raise DomainError(f"beta * c must be positive and finite, got {beta * c}")
    log_pool = beta * c * t - math.log(beta * c)
    if log_pool > _POOL_CAP_LOG:
        raise HorizonError(
            f"pool size exp({log_pool:.3g}) exceeds 2^62; shorten the horizon")
    v = math.exp(beta * c * t) / (beta * c)
    # ceil with a relative epsilon so exact-integer boundaries (t = log(j bc)/(bc))
    # do not round up on floating-point noise
    return max(1, math.ceil(v - 1e-9 * max(1.0, abs(v))))


def arrival_time(j: int, beta: float, c: float) -> float:
    """Time at which the pool first holds j variables (inverse of pool_size)."""
    if j <= pool_size(beta, c, 0.0):
        return 0.0
    return math.log((j - 1) * beta * c) / (beta * c)


@dataclass
class RecordPool:
    """Top-(k+1) ledger of the growing exponential pool."""

    k: int
    beta: float
    c: float
    top: list                 # descending, at most k+1 entries
    pool_count: int
    t: float = 0.0


def _record_k(beta: float) -> int:
    """k = 1/beta, which the record connection needs to be a positive integer."""
    if not (is_finite_number(beta) and beta > 0):
        raise DomainError(f"beta must be positive and finite, got {beta}")
    k = 1.0 / beta
    if abs(k - round(k)) > 1e-9 or k < 1:
        raise DomainError(f"the record connection needs k = 1/beta a positive integer, got 1/beta={k}")
    return int(round(k))


def _check_holds_k(n: int, k: int) -> None:
    if n < k:
        raise DomainError(f"the pool holds N(T) = {n} values, fewer than k = {k}, "
                          "so its k-th largest is undefined; raise c or T")


def new_pool(beta: float, c: float, rng) -> RecordPool:
    """Start the pool at t = 0 with N(0) draws."""
    k = _record_k(beta)
    n0 = pool_size(beta, c, 0.0)
    draws = sorted(rng.standard_exponential(n0), reverse=True)
    return RecordPool(k=k, beta=beta, c=c, top=draws[: k + 1], pool_count=n0)


@dataclass
class RecordPath:
    times: np.ndarray          # jump epochs of Y (first entry is t=0 if Y is defined there)
    values: np.ndarray         # Y at those epochs
    yk_jumps: np.ndarray       # jump lengths of Y_k (Exp(k) in law)
    pool: RecordPool

    def uncentered_final(self) -> float:
        """Y(T) - (1/beta) log N(T); Y(T) needs a pool of at least k values."""
        _check_holds_k(self.pool.pool_count, self.pool.k)
        return float(self.values[-1]) - math.log(self.pool.pool_count) / self.pool.beta


def simulate_record(pool: RecordPool, T: float, rng,
                    batch: int = _BLOCK) -> RecordPath:
    """Advance the pool to time T, recording every jump of Y = k * Y_k.

    Arrivals are drawn in index batches and each batch is walked once, in
    chunks twice as long as the pool before them (at least 16 draws). A draw
    can change the ledger only if it beats its smallest entry, top[k], and
    that floor only rises, so filtering a chunk against its value at the chunk
    start keeps every draw that matters; those are absorbed in index order.
    About 2(k+1) draws pass per chunk, so a run costs O(k log N) Python steps
    on top of the O(N) draws.
    """
    if T < pool.t:
        raise DomainError(f"T={T} is before the pool's time t={pool.t}; "
                          "a record path only runs forward")
    if not is_count(batch, 1):
        raise DomainError(f"batch must be an integer >= 1, got {batch!r}")
    beta, c, k = pool.beta, pool.c, pool.k
    n_final = pool_size(beta, c, T)
    n0 = pool_size(beta, c, 0.0)
    top = list(pool.top)                        # kept descending throughout
    count = pool.pool_count
    times, values, jumps = [], [], []

    def record(j_index: int, yk: float):
        # arrival_time(j_index, beta, c), operation for operation
        times.append(0.0 if j_index <= n0 else math.log((j_index - 1) * beta * c) / (beta * c))
        values.append(k * yk)

    if len(top) >= k:
        times.append(pool.t)
        values.append(k * top[k - 1])

    def absorb(v: float, j_index: int):
        if len(top) < k:
            top.append(v)
            top.sort(reverse=True)
            if len(top) == k:
                record(j_index, top[k - 1])
            return
        if v <= top[k - 1]:
            if len(top) < k + 1:
                top.append(v)                   # v <= current minimum of the top k
            elif v > top[k]:
                top[k] = v
            return
        old_yk = top[k - 1]
        # insert v among the top k; the old k-th slides to position k+1
        lo = 0
        while lo < k and top[lo] >= v:
            lo += 1
        top.insert(lo, v)
        del top[k + 1:]
        record(j_index, top[k - 1])
        jumps.append(top[k - 1] - old_yk)

    while count < n_final:
        b = min(batch, n_final - count)
        draws = rng.standard_exponential(b)
        s = 0
        while s < b:
            if len(top) > k:
                floor, e = top[k], min(b, s + max(16, 2 * (count + s)))
            else:                               # filling the ledger: every draw counts
                floor, e = -math.inf, min(b, s + k + 1 - len(top))
            chunk = draws[s:e]
            idx = (chunk > floor).nonzero()[0]
            for i, v in zip(idx.tolist(), chunk[idx].tolist()):
                absorb(v, count + s + i + 1)
            s = e
        count += b
    out = replace(pool, top=top, pool_count=count, t=T)
    return RecordPath(times=np.asarray(times), values=np.asarray(values),
                      yk_jumps=np.asarray(jumps), pool=out)


def _top_k(block: np.ndarray, k: int) -> np.ndarray:
    """The k largest entries of each row of the 2-d `block`, in descending
    order, as a (rows, k) array. It makes k - 1 argmax passes, each one
    overwriting its picks with -inf, then one max; a value that occurs twice
    is picked twice, as a sort counts it. A row shorter than k pads with
    -inf. `block` is left overwritten."""
    rows = np.arange(block.shape[0])
    top = np.empty((block.shape[0], k))
    for i in range(k - 1):
        j = block.argmax(axis=1)
        top[:, i] = block[rows, j]
        block[rows, j] = -np.inf
    top[:, k - 1] = block.max(axis=1)
    return top


def _kth_largest_of_runs(k: int, n: int, runs: int, rng) -> np.ndarray:
    """The k-th largest of n fresh unit exponentials, for each of `runs` runs.

    One buffer of at most `_BLOCK` values is allocated and refilled with
    `standard_exponential(out=...)`. It holds floor(_BLOCK / n) whole runs
    as rows, and `_top_k` picks each row's k-th largest. A run longer than
    the buffer is drawn in pieces, and each piece's top k merges into the
    run's running top k. Runs are drawn one after another, each in index
    order.
    """
    yk = np.empty(runs)
    if n <= _BLOCK:
        per = max(1, min(_BLOCK // n, runs))            # whole runs per block
        buf = np.empty(per * n)
        for r in range(0, runs, per):
            block = buf[: min(per, runs - r) * n]
            rng.standard_exponential(out=block)
            yk[r:r + per] = _top_k(block.reshape(-1, n), k)[:, -1]
    else:
        buf = np.empty(_BLOCK)
        tops = np.empty((1, 2 * k))             # the run's top k, then the piece's
        for r in range(runs):
            tops[0, :k] = -np.inf
            for s in range(0, n, _BLOCK):
                piece = buf[: min(_BLOCK, n - s)]
                rng.standard_exponential(out=piece)
                tops[0, k:] = _top_k(piece[None], k)
                tops[0, :k] = _top_k(tops, k)
            yk[r] = tops[0, k - 1]
    return yk


def sample_final_uncentered(beta: float, c: float, T: float, runs: int, rng) -> np.ndarray:
    """Y(T) - (1/beta) log N(T) over independent runs (the Gumbel-limit sample).

    Y(T) is k times the k-th largest of the N(T) pool values, so no path is
    built: `_kth_largest_of_runs` draws whole runs into one reused block and
    picks each k-th largest by max passes. The draws are those of `new_pool`
    and `simulate_record` in the same order, so each sample equals that
    run's `RecordPath.uncentered_final()` to the bit and the generator ends
    in the same state. Every argument is checked before the first draw; a
    pool smaller than k at T raises DomainError.
    """
    k = _record_k(beta)
    n = pool_size(beta, c, T)
    _check_holds_k(n, k)
    if not is_count(runs, 0):
        raise DomainError(f"runs must be an integer >= 0, got {runs!r}")
    return k * _kth_largest_of_runs(k, n, runs, rng) - math.log(n) / beta
