"""Build and load the compiled kernel (`_kernel.c`) through ctypes.

The kernel holds two loops. `fj_bounded` and `fj_exponential` are step
functions of the bounded and exponential engines: each runs events on a `Run`
record until `sim._drive`, the one driver of every engine, must act, and
returns the reason (EXIT_*). Their exit-for-exit Python twins in `sim` run on
the same record and random batches, with bit-identical results, when `load()`
returns None. The exponential engine's sum tree of selection weights is built
and rebased in C (`fj_exp_rebase`, with libm exp as in the Python twin), so a
run leaves the kernel only to refill a batch, to observe, to stop or to raise.
The explicit Euler step of the mean-field PDE (`fj_pde`) runs `mean_field`'s
numpy step to a tolerance, not to the bit, and `mean_field` falls back to the
numpy step in the same way. The shared library is built with gcc on first
use, not at import, and cached as `__pycache__/_kernel-<key>.so` next to
this file, where the key is a sha256 of the source, the compiler and the
flags; a build goes to a temporary file that is renamed into place, so
concurrent builds never expose a partial library. Any failure to build or
load gives None.
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
# event steps must round as their Python twins' do.
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

# Exit codes of the event steps, compiled and Python (the EXIT_* enum of _kernel.c).
(EXIT_CAP, EXIT_HORIZON, EXIT_BATCH, EXIT_OBSERVE_BEFORE, EXIT_OBSERVE_AT, EXIT_RATE_STALL,
 EXIT_WEIGHT_STALL, EXIT_EXP_RANGE, EXIT_FSUM_INF, EXIT_FSUM_OVERFLOW) = range(10)

# The exceptions math.exp and math.fsum raise where the kernel exits with these.
ERRORS = {
    EXIT_EXP_RANGE: (OverflowError, "math range error"),
    EXIT_FSUM_INF: (ValueError, "-inf + inf in fsum"),
    EXIT_FSUM_OVERFLOW: (OverflowError, "intermediate overflow in fsum"),
}

# Exit codes of fj_pde (the PDE_* enum of _kernel.c).
PDE_STEPS, PDE_SHIFT, PDE_UNSTABLE, PDE_NOT_FINITE = range(4)

# Rate families with a C rate, by the name their kernel_rate() gives.
RATE_CODES = {"step": 0, "piecewise_linear": 1, "arccot": 2, "tabulated": 3, "exponential": 4}

_P = ctypes.c_void_p
_I64 = ctypes.c_int64
_F64 = ctypes.c_double


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
               "log_m": np.float64, "log_i": np.int64}
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
        ("value", _F64),
    ]


class Pde(_Record):
    """The fj_pde_run record of `_kernel.c`: the grid, values and mean that
    one PDE integration shares with the kernel."""

    _arrays = {"rate_params": np.float64, "grid": np.float64, "values": np.float64}
    _fields_ = [
        ("family", ctypes.c_int32),
        ("rate_params", _P), ("n_rate_params", _I64),
        ("grid", _P), ("values", _P), ("len", _I64),
        ("dt", _F64), ("h", _F64), ("r", _F64), ("w0", _F64), ("c1", _F64),
        ("offset0", _F64), ("steps", _I64),
        ("mass", _F64), ("m", _F64), ("done", _I64), ("value", _F64),
    ]


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
    return lib


@functools.cache
def _load(cc: str):
    try:
        lib = ctypes.CDLL(str(_build(cc)))
    except (OSError, subprocess.SubprocessError):
        return None
    for name, record in (("fj_bounded", Run), ("fj_exponential", Run),
                         ("fj_exp_rebase", Run), ("fj_pde", Pde)):
        fn = getattr(lib, name)
        fn.argtypes = [ctypes.POINTER(record)]
        fn.restype = ctypes.c_int
    lib.fj_fsum.argtypes = [_P, _I64, ctypes.POINTER(_F64)]
    lib.fj_fsum.restype = ctypes.c_int
    return lib


def load():
    """The kernel library, built and cached on first use, or None when it
    cannot be built or loaded here."""
    return _load(_CC)
