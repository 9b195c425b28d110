"""Build, cache and call the compiled kernels in ``_engine.c``: the
simulator's event loop, the strict parser of plain event files and the
background-activity filter.

The first call compiles the C source with the system ``cc`` into the
package's ``__pycache__/``. The library's file name carries the sha256 of the
source, the flags and the machine, so an edited kernel never loads a stale
library. Each build writes a name unique to its process and renames it into
place, so concurrent workers building at once are safe. Nothing here is
imported until ``parse_event_file``, ``filter_background`` or ``simulate``
runs. Without a library each caller runs its Python or numpy reference,
which gives the same result.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import warnings

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(HERE, "_engine.c")
CACHE_DIR = os.path.join(HERE, "__pycache__")
# no -ffast-math and no fused multiply-add: every operation rounds as in
# CPython, which keeps spikes bit-identical to the Python loop
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

EV_OK, EV_NOMEM, EV_PYTHON = 0, 1, 2


def _find_compiler() -> str | None:
    return shutil.which("cc")


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    i64p = ctypes.POINTER(ctypes.c_int64)
    f64p = ctypes.POINTER(ctypes.c_double)
    u8p = ctypes.POINTER(ctypes.c_uint8)
    lib.evstereo_run.argtypes = [
        ctypes.c_int64, f64p, i64p, u8p,
        i64p, i64p, f64p, u8p,
        ctypes.c_int64, i64p, i64p,
        ctypes.POINTER(i64p), ctypes.POINTER(i64p), i64p, i64p,
    ]
    lib.evstereo_run.restype = ctypes.c_int
    lib.evstereo_free.argtypes = [ctypes.c_void_p]
    lib.evstereo_free.restype = None
    i32p, i8p = ctypes.POINTER(ctypes.c_int32), ctypes.POINTER(ctypes.c_int8)
    lib.evstereo_parse_events.argtypes = [
        u8p, ctypes.c_int64, ctypes.c_int, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        i64p, i32p, i32p, i8p, i8p, i64p,
    ]
    lib.evstereo_parse_events.restype = ctypes.c_int
    lib.evstereo_background.argtypes = [
        ctypes.c_int64, i64p, i32p, i32p, i8p,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int, ctypes.c_int64,
        u8p,
    ]
    lib.evstereo_background.restype = ctypes.c_int
    return lib


def build(cache_dir: str) -> ctypes.CDLL:
    """Load the cached library for the current source, compiling it first
    if absent. Raises OSError (or a subclass) if it cannot be built or
    loaded."""
    with open(SOURCE, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256(source + " ".join(CFLAGS).encode() + os.uname().machine.encode()).hexdigest()[:16]
    path = os.path.join(cache_dir, f"_engine-{key}.so")
    if not os.path.exists(path):
        cc = _find_compiler()
        if cc is None:
            raise FileNotFoundError("no C compiler ('cc') on PATH")
        os.makedirs(cache_dir, exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            proc = subprocess.run(
                [cc, *CFLAGS, "-o", tmp, SOURCE, "-lm"], capture_output=True, text=True
            )
            if proc.returncode != 0:
                raise OSError(f"{cc} failed: {proc.stderr.strip()}")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    return _declare(ctypes.CDLL(path))


@functools.cache
def kernel() -> ctypes.CDLL | None:
    """The compiled library, or None (with one warning) if it cannot be
    built here; the callers then run the Python loop and the numpy parser
    and background filter."""
    try:
        return build(CACHE_DIR)
    except OSError as exc:
        warnings.warn(
            f"evstereo: compiled kernels unavailable ({exc}); using the Python loop for simulation "
            "and numpy for parsing and background filtering",
            RuntimeWarning,
        )
        return None


def _ptr(a: np.ndarray, ctype):
    return a.ctypes.data_as(ctypes.POINTER(ctype))


def parse_events(lib: ctypes.CDLL, data: bytes, start: int, side: int | None, x_end: int, y_end: int):
    """The columns (t, x, y, p, side) of the rows of a plain event file,
    ``data[start:]`` after its header, or None where the kernel declines
    them. ``side`` is None for rows with a side column, else the side of
    every row; a coordinate must lie below ``x_end``/``y_end``."""
    body = np.frombuffer(data, dtype=np.uint8)[start:]
    cap = data.count(b"\n", start) + (len(body) > 0 and data[-1:] != b"\n")
    t = np.empty(cap, np.int64)
    x, y = np.empty(cap, np.int32), np.empty(cap, np.int32)
    p, s = np.empty(cap, np.int8), np.empty(cap, np.int8)
    n = ctypes.c_int64(0)
    status = lib.evstereo_parse_events(
        _ptr(body, ctypes.c_uint8), len(body), side is None, 0 if side is None else side, x_end, y_end, cap,
        _ptr(t, ctypes.c_int64), _ptr(x, ctypes.c_int32), _ptr(y, ctypes.c_int32),
        _ptr(p, ctypes.c_int8), _ptr(s, ctypes.c_int8), ctypes.byref(n),
    )
    if status == EV_PYTHON:
        return None
    if status != EV_OK or n.value != cap:
        raise RuntimeError(f"compiled parser: status {status}, {n.value} of {cap} rows")
    return t, x, y, p, s


def background(lib: ctypes.CDLL, stream, window_us: int, radius: int, include_same_pixel: bool) -> np.ndarray | None:
    """The keep mask of the background-activity filter over ``stream`` (a
    canonically ordered ``StereoEventStream``), or None where only the numpy
    filter decides. The kernel allocates one int64 per pixel of both sides'
    frames padded by ``radius``; ``1 <= window_us < 2**63``."""
    t, x, y, side = (
        np.ascontiguousarray(col, dtype)
        for col, dtype in zip((stream.t, stream.x, stream.y, stream.side), (np.int64, np.int32, np.int32, np.int8))
    )
    keep = np.empty(len(t), np.uint8)
    status = lib.evstereo_background(
        len(t), _ptr(t, ctypes.c_int64), _ptr(x, ctypes.c_int32), _ptr(y, ctypes.c_int32), _ptr(side, ctypes.c_int8),
        stream.geometry.width, stream.geometry.height, radius, bool(include_same_pixel), window_us,
        _ptr(keep, ctypes.c_uint8),
    )
    if status == EV_NOMEM:
        raise MemoryError("compiled background filter: allocation failed")
    if status == EV_PYTHON:
        return None
    if status != EV_OK:
        raise RuntimeError(f"compiled background filter: unknown status {status}")
    return keep.view(bool)


def run(lib: ctypes.CDLL, net, ev_t: np.ndarray, ev_src: np.ndarray):
    """Run the event loop over ``net`` (a ``simulator._Network``) and the
    input events. Returns (spike times, spike ids, deliveries), or None where
    only the Python loop reproduces the result exactly."""
    n, m = len(net.tau_m), len(net.adj_post)
    if len(net.adj_start) != n + 1 or net.adj_start[0] != 0 or net.adj_start[-1] != m or np.any(np.diff(net.adj_start) < 0):
        raise ValueError("malformed synapse table")
    for ids in (net.adj_post, ev_src):
        if len(ids) and (ids.min() < 0 or ids.max() >= n):
            raise ValueError("neuron id out of range")
    kept = []  # the arrays behind the pointers, alive until the call returns

    def arg(arr, dtype, ctype, length):
        a = np.ascontiguousarray(arr, dtype=dtype)
        if a.shape != (length,):
            raise ValueError(f"expected {length} values, got shape {a.shape}")
        kept.append(a)
        return a.ctypes.data_as(ctypes.POINTER(ctype))

    i64, f64, u8 = ctypes.c_int64, ctypes.c_double, ctypes.c_uint8
    par = np.concatenate([net.tau_m, net.tau_s, net.gain, net.theta, net.reset, net.floor, net.coef])
    spike_t = ctypes.POINTER(i64)()
    spike_id = ctypes.POINTER(i64)()
    n_spikes, deliveries = i64(0), i64(0)
    status = lib.evstereo_run(
        n,
        arg(par, np.float64, f64, 7 * n),
        arg(net.refr, np.int64, i64, n),
        arg(net.equal_tau, np.uint8, u8, n),
        arg(net.adj_start, np.int64, i64, n + 1),
        arg(net.adj_post, np.int64, i64, m),
        arg(net.adj_weight, np.float64, f64, m),
        arg(net.adj_sat, np.uint8, u8, m),
        len(ev_t),
        arg(ev_t, np.int64, i64, len(ev_t)),
        arg(ev_src, np.int64, i64, len(ev_t)),
        ctypes.byref(spike_t), ctypes.byref(spike_id), ctypes.byref(n_spikes), ctypes.byref(deliveries),
    )
    try:
        if status == EV_NOMEM:
            raise MemoryError("compiled event loop: allocation failed")
        if status == EV_PYTHON:
            return None
        if status != EV_OK:
            raise RuntimeError(f"compiled event loop: unknown status {status}")
        count = n_spikes.value
        if count == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.int64), deliveries.value
        times = np.ctypeslib.as_array(spike_t, shape=(count,)).copy()
        ids = np.ctypeslib.as_array(spike_id, shape=(count,)).copy()
        return times, ids, deliveries.value
    finally:
        lib.evstereo_free(spike_t)
        lib.evstereo_free(spike_id)
