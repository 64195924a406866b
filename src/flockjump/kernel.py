"""Build and load the compiled kernel (`_kernel.c`) through ctypes.

The kernel holds four kinds of loop. `fj_bounded` and `fj_exponential` are
step functions of the bounded and exponential engines: each runs events on a
`Run` record until `sim._drive`, the one driver of every engine, must act, and
returns the reason (EXIT_*). Their exit-for-exit Python twins in `sim` run on
the same record and random batches, with bit-identical results, when `load()`
returns None. A run leaves the kernel only to refill a batch, to re-sum the
center of mass (EXIT_RESUM: `_drive` re-sums it with math.fsum and sets S0 =
inf), to stop, or to stall (a total not finite and positive, in `value`, which
`_drive` raises as every engine's StallError). Its observer, a
`measures.TimeAverager`, is bound to the record, and the step bins each
observation due into the averager's next row, with the operations of
`measures._numpy_bins`, the body of `TimeAverager.add`, to the bit; it exits
(EXIT_OBSERVE) only for one that `add` refuses, which `_drive` then serves
through `add`, and `add` raises.
The exponential engine's sum tree of selection weights is built and rebased
inside `fj_exponential`, with libm exp as in the Python twin, whenever its
total is below half of S0; `rebuilds` counts it. Between rebuilds each event
carries its new leaf up to the root in a running sum, each ancestor being
that sum plus its other child, as the twin does; the parents get the bits of
tree[2j] + tree[2j+1], since IEEE addition is commutative.
`fj_residual` walks an event log for `measures.residual_path`: the identity
residual of the step rate, on a `Residual` record whose scratch arrays it
owns, bit-identical to the Python loop, which runs when `load()` returns None.
The explicit Euler step of the mean-field PDE (`fj_pde`) runs `mean_field`'s
numpy step to a tolerance, not to the bit, and `mean_field` falls back to the
numpy step in the same way. It holds the whole window policy, trim, widen and
right-edge test, with the numpy step's operations, and leaves the kernel only
to sample, to have cells added on the right (PDE_GROW) or to raise.
`fj_wave_residual` computes `mean_field.wave_equation_residual` in one pass
over the profile's nodes, on a `WaveResidual` record, from the family's
`kernel_rate()` block, which gives w and its integral; it agrees with the
numpy body, which runs when `load()` returns None, to roundoff. `bind_rate`
binds a family's `kernel_rate()` block to a record, for all three loops.
The shared library is built with gcc on first use, not at import, and cached as
`__pycache__/_kernel-<key>.so` next to this file, where the key is a sha256
of the source, the compiler and the flags; a build goes to a temporary file
that is renamed into place, so concurrent builds never expose a partial
library, and a successful build removes the cache's other `_kernel-*.so`
files. Any failure to build or load gives None. Loading compares the C size
of every record (`fj_record_size`) with its ctypes mirror and raises
`LayoutError` on a mismatch, before any call could write past a record.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_kernel.c")
_CC = "gcc"
# No -ffast-math or -march, and no fused multiply-add: every operation of the
# event steps and the residual walk must round as their Python twins' do.
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

# Exit codes of the event steps, compiled and Python (the EXIT_* enum of _kernel.c).
(EXIT_CAP, EXIT_HORIZON, EXIT_BATCH, EXIT_OBSERVE, EXIT_RESUM, EXIT_RATE_STALL,
 EXIT_WEIGHT_STALL) = range(7)

# Exit codes of fj_pde (the PDE_* enum of _kernel.c).
PDE_STEPS, PDE_GROW, PDE_UNSTABLE, PDE_NOT_FINITE = range(4)

# Exit codes of fj_residual (the RESIDUAL_* enum of _kernel.c).
RESIDUAL_DONE, RESIDUAL_BAD_INDEX, RESIDUAL_HEAP_FULL = range(3)

# Rate families with a C rate, by the name their kernel_rate() gives.
RATE_CODES = {"step": 0, "arccot": 1, "tabulated": 2, "exponential": 3}

_P = ctypes.c_void_p
_I64 = ctypes.c_int64
_F64 = ctypes.c_double


class LayoutError(RuntimeError):
    """A ctypes mirror whose size differs from its C record's."""


class _Record(ctypes.Structure):
    """A C record that points at numpy arrays. `_arrays` maps each pointer
    field to the dtype of the array it may point at; `bind` attaches arrays
    and keeps them alive for as long as the record points at them."""

    _arrays = {}

    def __init__(self, **fields):
        super().__init__(**fields)
        self.arrays = {}

    def bind(self, **arrays):
        """Point the named fields at 1-d C-contiguous arrays of their dtype."""
        for name, arr in arrays.items():
            if arr.dtype != self._arrays[name] or arr.ndim != 1 or not arr.flags.c_contiguous:
                raise TypeError(f"kernel field {name} needs a contiguous 1-d "
                                f"{np.dtype(self._arrays[name])} array, got {arr.dtype} {arr.shape}")
            self.arrays[name] = arr
            setattr(self, name, arr.ctypes.data)


class Run(_Record):
    """The fj_run record of `_kernel.c`: the loop state one engine run shares
    with the kernel."""

    _arrays = {"rate_params": np.float64, "pos": np.float64, "waits": np.float64,
               "lengths": np.float64, "uniforms": np.float64, "targets": np.int64,
               "tree": np.float64, "log_t": np.float64, "log_z": np.float64,
               "log_m": np.float64, "log_i": np.int64, "obs_t": np.float64,
               "obs_counts": np.float64, "obs_time": np.float64, "obs_m": np.float64,
               "obs_n": np.int64, "obs_below": np.int64, "obs_above": np.int64,
               "obs_rows": np.int64}
    _fields_ = [
        ("n", _I64), ("inv_n", _F64), ("horizon", _F64), ("max_events", _I64),
        ("resum_interval", _I64), ("family", ctypes.c_int32),
        ("rate_params", _P), ("n_rate_params", _I64), ("a", _F64), ("lam", _F64),
        ("beta", _F64),
        ("pos", _P), ("t", _F64), ("m", _F64), ("events", _I64), ("proposals", _I64),
        ("next_obs", _F64),
        ("waits", _P), ("lengths", _P), ("uniforms", _P), ("targets", _P),
        ("batch", _I64), ("cursor", _I64),
        ("tree", _P), ("leaves", _I64), ("S0", _F64), ("ref", _F64),
        ("log_t", _P), ("log_z", _P), ("log_m", _P), ("log_i", _P), ("log_len", _I64),
        ("value", _F64), ("rebuilds", _I64),
        ("obs_t", _P), ("n_obs", _I64), ("obs_k", _I64),
        ("a0", _F64), ("a1", _F64), ("nbins", _I64),
        ("obs_counts", _P), ("obs_time", _P), ("obs_m", _P),
        ("obs_n", _P), ("obs_below", _P), ("obs_above", _P), ("obs_rows", _P),
    ]


class Pde(_Record):
    """The fj_pde_run record of `_kernel.c`: the grid, values, mean and
    `offset0` that one PDE integration shares with the kernel, the trimmed
    mass and cell count it keeps, the `widen` and `grow` of a PDE_GROW exit,
    and `rates`, a scratch array of one entry per grid node that `fj_pde`
    owns. For the arccot and exponential families it holds the table
    w(grid[j] - ref), which the kernel rebuilds once the mean is more than
    1/32 (exponential: 1/(32 beta)) from ref, and on the first step after
    `ref` is set to nan: by the kernel when it trims the window, and by the
    caller whenever it binds a new one."""

    _arrays = {"rate_params": np.float64, "grid": np.float64, "values": np.float64,
               "rates": np.float64}
    _fields_ = [
        ("family", ctypes.c_int32),
        ("rate_params", _P), ("n_rate_params", _I64),
        ("grid", _P), ("values", _P), ("len", _I64),
        ("dt", _F64), ("h", _F64), ("r", _F64), ("w0", _F64), ("c1", _F64),
        ("offset0", _F64), ("empty", _F64), ("edge_share", _F64), ("edge", _I64),
        ("steps", _I64),
        ("mass", _F64), ("m", _F64), ("trimmed", _F64), ("trims", _I64),
        ("done", _I64), ("widen", _I64), ("grow", _I64), ("value", _F64),
        ("rates", _P), ("ref", _F64), ("lo", _I64), ("hi", _I64),
    ]


class Residual(_Record):
    """The fj_residual_walk record of `_kernel.c`: the event log, the step
    rate and the scratch of one martingale-residual walk
    (`measures.residual_path`)."""

    _arrays = {"log_t": np.float64, "log_z": np.float64, "log_i": np.int64,
               "pos": np.float64, "versions": np.int64, "heap_x": np.float64,
               "heap_i": np.int64, "heap_v": np.int64}
    _fields_ = [
        ("n", _I64), ("inv_n", _F64), ("a", _F64), ("b", _F64), ("t_end", _F64), ("m", _F64),
        ("log_t", _P), ("log_z", _P), ("log_i", _P), ("log_len", _I64),
        ("pos", _P), ("versions", _P), ("heap_x", _P), ("heap_i", _P), ("heap_v", _P),
        ("heap_cap", _I64), ("events", _I64), ("value", _F64), ("sup", _F64),
    ]


class WaveResidual(_Record):
    """The fj_wave record of `_kernel.c`: the rate's parameters, which also
    give its integral, the knots and the profile nodes of one traveling-wave
    residual (`mean_field.wave_equation_residual`), and its sup, trapezoid
    mass and count of kept nodes."""

    _arrays = {"rate_params": np.float64, "knots": np.float64}
    _fields_ = [
        ("family", ctypes.c_int32),
        ("rate_params", _P), ("n_rate_params", _I64),
        ("knots", _P), ("n_knots", _I64),
        ("c", _F64), ("h", _F64), ("log_norm", _F64), ("j_lo", _I64), ("j_hi", _I64),
        ("sup", _F64), ("mass", _F64), ("kept", _I64),
    ]


# The records in the order of fj_record_size(which).
RECORDS = (Run, Pde, Residual, WaveResidual)


def _build(cc: str) -> Path:
    """Path of the cached library for compiler cc, building it if needed."""
    source = _SOURCE.read_bytes()
    key = hashlib.sha256(b"\0".join([source, cc.encode(), *(f.encode() for f in _FLAGS)]))
    cache = _SOURCE.parent / "__pycache__"
    lib = cache / f"_kernel-{key.hexdigest()[:16]}.so"
    if lib.exists():
        return lib
    cache.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        subprocess.run([cc, *_FLAGS, "-o", tmp, str(_SOURCE), "-lm"],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    for stale in cache.glob("_kernel-*.so"):       # builds of other sources or flags
        if stale != lib:
            stale.unlink(missing_ok=True)
    return lib


@functools.cache
def _load(cc: str):
    try:
        lib = ctypes.CDLL(str(_build(cc)))
    except (OSError, subprocess.SubprocessError):
        return None
    for name, record in (("fj_bounded", Run), ("fj_exponential", Run),
                         ("fj_pde", Pde), ("fj_residual", Residual),
                         ("fj_wave_residual", WaveResidual)):
        fn = getattr(lib, name)
        fn.argtypes = [ctypes.POINTER(record)]
        fn.restype = ctypes.c_int
    lib.fj_record_size.argtypes = [ctypes.c_int32]
    lib.fj_record_size.restype = ctypes.c_int64
    for which, record in enumerate(RECORDS):
        size = lib.fj_record_size(which)
        if size != ctypes.sizeof(record):
            raise LayoutError(f"kernel.{record.__name__} is {ctypes.sizeof(record)} bytes, "
                              f"and its C record {size}: the mirror does not match _kernel.c")
    return lib


def load():
    """The kernel library, built and cached on first use, or None when it
    cannot be built or loaded here."""
    return _load(_CC)


def bind_rate(record, w):
    """Bind rate family w's C rate, its `kernel_rate()` block, to a `Run`,
    `Pde` or `WaveResidual` record, and return the library. Returns None,
    binding nothing, when w has no C rate or the kernel cannot be built."""
    spec = w.kernel_rate()
    lib = load() if spec is not None else None
    if lib is not None:
        name, params = spec
        record.family, record.n_rate_params = RATE_CODES[name], len(params)
        record.bind(rate_params=np.array(params, dtype=float))
    return lib
