"""Build, cache and call the compiled kernels in ``_engine.c``: the
simulator's event loop, the strict parser of plain event files, the
background-activity filter, the emission loop of a synthetic stimulus and
the row assembly of the CSV writer.

The first call compiles the C source with the system ``cc`` into the
package's ``__pycache__/``. Where numpy ships its random C library
(``numpy/random/lib/libnpyrandom.a``), the build links it and defines
``evstereo_synth``, which draws from a Generator's own bit generator; without
it that symbol is absent and ``gen_stimulus`` runs its Python loop. The
library's file name carries the CRC-32 and Adler-32 of the source, the
flags, the machine and that archive, so an edited kernel never loads a
stale library (``zlib`` is loaded at start-up; ``hashlib`` would load
OpenSSL). Each build writes a name unique to its process and renames it
into place, so concurrent workers building at once are safe. Nothing here
is imported until a caller needs a kernel. Without a library each caller
runs its Python or numpy reference, which gives the same result.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import warnings
import zlib

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(HERE, "_engine.c")
CACHE_DIR = os.path.join(HERE, "__pycache__")
NPYRANDOM = os.path.join(os.path.dirname(np.__file__), "random", "lib", "libnpyrandom.a")
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
        ctypes.c_int64, f64p, i64p,
        i64p, i64p, f64p, u8p,
        ctypes.c_int64, i64p, i64p,
        ctypes.c_int64, i64p, ctypes.c_int64, i64p,
        ctypes.POINTER(i64p), ctypes.POINTER(i64p), i64p, i64p,
        f64p,
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
    lib.evstereo_format_rows.argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.POINTER(i64p), i64p, i64p, i64p, ctypes.c_char_p,
        ctypes.POINTER(ctypes.c_void_p), i64p,
    ]
    lib.evstereo_format_rows.restype = ctypes.c_int
    if hasattr(lib, "evstereo_synth"):
        lib.evstereo_synth.argtypes = [
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, i64p, ctypes.c_int64, i64p, ctypes.c_int64, i64p,
            ctypes.c_double, ctypes.c_double, ctypes.c_int64, ctypes.POINTER(i64p), i64p,
        ]
        lib.evstereo_synth.restype = ctypes.c_int
    return lib


def compile_command(cc: str, out: str) -> list[str]:
    """The command that builds the library at ``out``: with numpy's random C
    library linked where numpy ships it."""
    if os.path.exists(NPYRANDOM):
        return [cc, *CFLAGS, "-DEVSTEREO_NPYRANDOM", "-o", out, SOURCE, NPYRANDOM, "-lm"]
    return [cc, *CFLAGS, "-o", out, SOURCE, "-lm"]


def build(cache_dir: str) -> ctypes.CDLL:
    """Load the cached library for the current source, compiling it first
    if absent. Raises OSError (or a subclass) if it cannot be built or
    loaded."""
    with open(SOURCE, "rb") as fh:
        data = fh.read() + " ".join(CFLAGS).encode() + os.uname().machine.encode()
    if os.path.exists(NPYRANDOM):
        with open(NPYRANDOM, "rb") as fh:
            data += fh.read()
    path = os.path.join(cache_dir, f"_engine-{zlib.crc32(data):08x}{zlib.adler32(data):08x}.so")
    if not os.path.exists(path):
        import subprocess  # deferred: only a build needs it

        cc = _find_compiler()
        if cc is None:
            raise FileNotFoundError("no C compiler ('cc') on PATH")
        os.makedirs(cache_dir, exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            proc = subprocess.run(compile_command(cc, tmp), capture_output=True, text=True)
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
    built here; the callers then run their Python and numpy references."""
    try:
        return build(CACHE_DIR)
    except OSError as exc:
        warnings.warn(
            f"evstereo: compiled kernels unavailable ({exc}); using the Python loop for simulation and "
            "stimuli, numpy for parsing and background filtering and Python for CSV rows",
            RuntimeWarning,
        )
        return None


def _ptr(a: np.ndarray, ctype):
    return a.ctypes.data_as(ctypes.POINTER(ctype))


def _int64s(ptr, count: int) -> np.ndarray:
    """A read-only copy of the ``count`` int64 values at ``ptr``, made
    without ``numpy.ctypeslib``, which costs milliseconds to import."""
    return np.frombuffer(ctypes.string_at(ptr, 8 * count), np.int64)


def _accepted(status: int, what: str) -> bool:
    """False where the kernel declined (only the Python or numpy reference
    reproduces the result); raises on any failure."""
    if status == EV_NOMEM:
        raise MemoryError(f"{what}: allocation failed")
    if status == EV_PYTHON:
        return False
    if status != EV_OK:
        raise RuntimeError(f"{what}: unknown status {status}")
    return True


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
    if not _accepted(status, "compiled parser"):
        return None
    if n.value != cap:
        raise RuntimeError(f"compiled parser: {n.value} of {cap} rows")
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
    return keep.view(bool) if _accepted(status, "compiled background filter") else None


def run(lib: ctypes.CDLL, net, ev_t: np.ndarray, ev_src: np.ndarray, final_state: np.ndarray | None = None):
    """Run the event loop over ``net`` (a ``simulator._Network``) and the
    input events, with ``net.twins`` merged. Returns (spike times, spike ids,
    deliveries), or None where only the Python loop reproduces the result
    exactly. A float64 ``final_state`` of 2n + m values receives the final
    v, s (n values each) and the saturating synapses' values (m).

    The synapse tables and the twins of ``net`` are its topology's, whose
    ``syn_start`` checks them once: ids in range and the CSR monotone; twin
    pairs disjoint, each shadow after its excitatory neuron, by
    construction. Here only what varies per run is checked."""
    n, m = len(net.tau_m), len(net.adj_post)
    if ev_src.size and (ev_src.min() < 0 or ev_src.max() >= n):
        raise ValueError("input neuron id out of range")
    tau_idx = np.concatenate([net.tau_m_idx, net.tau_s_idx])
    if len(tau_idx) and (tau_idx.min() < 0 or tau_idx.max() >= len(net.taus)):
        raise ValueError("time constant index out of range")
    if not np.array_equal(net.taus[tau_idx], np.concatenate([net.tau_m, net.tau_s])):
        raise ValueError("time constant table disagrees with the per-neuron time constants")
    if final_state is not None and (final_state.dtype != np.float64 or final_state.shape != (2 * n + m,)
                                    or not final_state.flags.c_contiguous):
        raise ValueError(f"final_state must be a contiguous float64 array of {2 * n + m} values")
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
        len(net.taus),
        arg(net.taus, np.float64, f64, len(net.taus)),
        arg(tau_idx, np.int64, i64, 2 * n),
        arg(net.adj_start, np.int64, i64, n + 1),
        arg(net.adj_post, np.int64, i64, m),
        arg(net.adj_weight, np.float64, f64, m),
        arg(net.adj_sat, np.uint8, u8, m),
        len(ev_t),
        arg(ev_t, np.int64, i64, len(ev_t)),
        arg(ev_src, np.int64, i64, len(ev_t)),
        len(net.twins),
        arg(net.twins.ravel(), np.int64, i64, net.twins.size),
        len(net.twin_synapses),
        arg(net.twin_synapses.ravel(), np.int64, i64, net.twin_synapses.size),
        ctypes.byref(spike_t), ctypes.byref(spike_id), ctypes.byref(n_spikes), ctypes.byref(deliveries),
        None if final_state is None else _ptr(final_state, f64),
    )
    try:
        if not _accepted(status, "compiled event loop"):
            return None
        count = n_spikes.value
        if count == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.int64), deliveries.value
        return _int64s(spike_t, count), _int64s(spike_id, count), deliveries.value
    finally:
        lib.evstereo_free(spike_t)
        lib.evstereo_free(spike_id)


def synth(lib: ctypes.CDLL, rng: np.random.Generator, lattice_us: int, d: list[int], rows: list[int],
          cols: list[int], p_emit: float, sigma: float, duration_us: int) -> np.ndarray | None:
    """The emission loop of ``synth._emit`` on ``rng``'s own bit
    generator, which it advances exactly as the Python loop does: an (n, 5)
    int64 array of rows (t, x, y, p, side), or None where only the Python
    loop reproduces the result (no numpy random library linked, a jitter
    sigma that is not finite, or a duration of 2**62 or more)."""
    if not hasattr(lib, "evstereo_synth") or not np.isfinite(sigma) or not 0 < duration_us < 2**62:
        return None
    d_arr, rows_arr, cols_arr = (np.array(v, dtype=np.int64) for v in (d, rows, cols))
    events = ctypes.POINTER(ctypes.c_int64)()
    n = ctypes.c_int64(0)
    with rng.bit_generator.lock:
        status = lib.evstereo_synth(
            rng.bit_generator.ctypes.bit_generator, len(d_arr), lattice_us, _ptr(d_arr, ctypes.c_int64),
            len(rows_arr), _ptr(rows_arr, ctypes.c_int64), len(cols_arr), _ptr(cols_arr, ctypes.c_int64),
            p_emit, sigma, duration_us, ctypes.byref(events), ctypes.byref(n),
        )
    try:
        if not _accepted(status, "compiled stimulus"):
            return None
        if n.value == 0:
            return np.zeros((0, 5), np.int64)
        return _int64s(events, 5 * n.value).reshape(n.value, 5)
    finally:
        lib.evstereo_free(events)


def format_rows(lib: ctypes.CDLL, columns: list[tuple[np.ndarray, list[str] | None]]) -> bytes | None:
    """The CSV body of equal-length int64 ``columns``, each paired with its
    names (a cell is then ``names[value]``) or with None (a cell is the value
    in decimal); None where a value is no valid index into its names."""
    n_rows = len(columns[0][0]) if columns else 0
    values = [np.ascontiguousarray(v, dtype=np.int64) for v, _ in columns]
    if any(v.shape != (n_rows,) for v in values):
        raise ValueError("CSV columns have mismatched lengths")
    encoded = [[name.encode() for name in names] for _, names in columns if names is not None]
    bounds = np.cumsum([0] + [len(e) for names in encoded for e in names], dtype=np.int64)
    n_names = np.array([-1 if names is None else len(names) for _, names in columns], dtype=np.int64)
    first = np.concatenate([[0], np.cumsum(np.maximum(n_names, 0))[:-1]]).astype(np.int64)
    i64p = ctypes.POINTER(ctypes.c_int64)
    out, out_len = ctypes.c_void_p(), ctypes.c_int64(0)
    status = lib.evstereo_format_rows(
        n_rows, len(values), (i64p * len(values))(*(_ptr(v, ctypes.c_int64) for v in values)),
        _ptr(n_names, ctypes.c_int64), _ptr(first, ctypes.c_int64), _ptr(bounds, ctypes.c_int64),
        b"".join(e for names in encoded for e in names), ctypes.byref(out), ctypes.byref(out_len),
    )
    try:
        if not _accepted(status, "compiled CSV rows"):
            return None
        return ctypes.string_at(out, out_len.value) if out_len.value else b""
    finally:
        lib.evstereo_free(out)
