"""Every reader that ``run`` and ``eval`` call, in one table: a malformed
input exits 2 and names its file (or the config key); fuzzed inputs never
exit 1 or raise. And the shared CSV column conversion against ``int()`` and
``float()``, cell by cell."""

import json
import math
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evstereo.cli import main
from evstereo.events import CsvRows

# a 32x32 recording, halved to the 16x16 retina, of a 2x2 cluster that the
# right camera sees 4 px (2 retina px) to the right, with a matching marker
CONFIG = {
    "sample_label": "readers",
    "preprocess": {"full_geometry": [32, 32], "downscale_factor": 2, "crop_origin": [0, 0]},
    "topology": {"d_max": 4},
}
FILES = ("left", "right", "markers", "calibration")


def event_rows(dx):
    return "t_us,x,y,p\n" + "".join(
        f"{t + k},{x + dx},{y},{(t // 2000 + k) % 2}\n"
        for t in range(0, 200_000, 2000)
        for k, (x, y) in enumerate([(10, 10), (11, 10), (10, 11), (11, 11)])
    )


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The valid inputs, with the spike and trace CSVs of their run."""
    d = tmp_path_factory.mktemp("valid")
    (d / "left").write_text(event_rows(0))
    (d / "right").write_text(event_rows(4))
    (d / "markers").write_text(
        "t_us,joint,X_mm,Y_mm,Z_mm\n" + "".join(f"{t},torso,21.0,21.0,1.0\n" for t in range(0, 300_001, 50_000))
    )
    p_right = [[1, 0, 0, 4], [0, 1, 0, 0], [0, 0, 1, 0]]
    (d / "calibration").write_text(json.dumps({"left": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], "right": p_right}))
    (d / "config").write_text(json.dumps(CONFIG))
    assert command(d, d / "out", "run") == 0
    for name in ("spikes", "trace"):
        shutil.copy(d / "out" / {"spikes": "spikes.csv", "trace": "disparity_trace.csv"}[name], d / name)
    return d


def command(inputs, out, name, *flags):
    """``main`` on the inputs in ``inputs``, the config's paths set from the command line."""
    keys = {"left": "left_events", "right": "right_events", "markers": "markers", "calibration": "calibration"}
    sets = [f"input.{key}={inputs / file}" for file, key in keys.items()] + [f"output_dir={out}"]
    sets = [arg for item in sets for arg in ("--set", item)]
    files = ["--spikes", str(inputs / "spikes"), "--trace", str(inputs / "trace")] if name == "eval" else []
    return main([name, "-c", str(inputs / "config"), *sets, *files, *flags])


def with_file(valid, tmp, which, data):
    """A copy of the valid inputs in ``tmp`` with ``which`` holding ``data``."""
    for name in (*FILES, "config", "spikes", "trace"):
        shutil.copy(valid / name, tmp / name)
    (tmp / which).write_bytes(data)
    return "eval" if which in ("spikes", "trace") else "run"


def edited(valid, which, edit):
    """The valid file ``which`` with ``edit`` applied to its lines."""
    return "\n".join(edit((valid / which).read_text().splitlines())).encode() + b"\n"


MALFORMED = [
    ("left", b"t_us,x,y\n0,1,2\n"),
    ("left", b"t_us,x,y,p\n0,1,2\n"),
    ("left", b"t_us,x,y,p\n0,1,2,5\n"),
    ("left", b"t_us,x,y,p\n0,x,2,1\n"),
    ("left", b"t_us,x,y,p\n0,40,2,1\n"),
    ("left", b"t_us,x,y,p\n-1,1,2,1\n"),
    ("right", b"t_us,x,y,p\n99999999999999999999,1,2,1\n"),
    ("right", b"t_us,x,y,p\n0,1,2,nan\n"),
    ("right", b"t_us,x,y,p\n\xff,1,2,1\n"),
    ("markers", b"t,joint,X,Y,Z\n0,a,1,2,3\n"),
    ("markers", b"t_us,joint,X_mm,Y_mm,Z_mm\n"),
    ("markers", b"t_us,joint,X_mm,Y_mm,Z_mm\n0,a,1,2\n"),
    ("markers", b"t_us,joint,X_mm,Y_mm,Z_mm\n0,a,1,inf,3\n"),
    ("markers", b"t_us,joint,X_mm,Y_mm,Z_mm\n0.5,a,1,2,3\n"),
    ("markers", b"t_us,joint,X_mm,Y_mm,Z_mm\n0,torso,21.0,21.0,1.0\n"),  # covers no window's centre
    ("calibration", b'{"left": '),
    ("calibration", b'{"left": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]}'),
    ("calibration", b'{"left": [[1, 0, 0, NaN], [0, 1, 0, 0], [0, 0, 1, 0]], "right": 5}'),
    ("trace", b"window_i,t_center_us\n"),
    ("trace", lambda rows: rows[:1]),
    ("trace", lambda rows: rows[:2] + rows[3:]),
    ("trace", lambda rows: rows[:2] + ["1,75000.0,inf,inf,inf,1"] + rows[3:]),
    ("trace", lambda rows: rows[:3] + ["2,125000.5,,,,0"] + rows[4:]),
    ("trace", lambda rows: rows[:2] + ["1,75000.0,1.0,1.0,x,1"] + rows[3:]),
    ("spikes", b"t_us,neuron,population\n"),
    ("spikes", lambda rows: rows[:2] + ["1,2"] + rows[2:]),
    ("spikes", lambda rows: rows[:2] + ["1.5,2,COINC_EXC"] + rows[2:]),
    ("spikes", lambda rows: rows[:2] + ["1,99999999999999999999,COINC_EXC"] + rows[2:]),
    ("spikes", lambda rows: rows[:2] + ["1,999999,DISPARITY"] + rows[2:]),
    ("spikes", lambda rows: rows[:2] + ["-1,2,COINC_EXC"] + rows[2:]),
    ("spikes", lambda rows: rows[:2] + ["1,2,BOGUS"] + rows[2:]),
    ("config", b'{"analysis": '),
    # a recording spanning more than 2**60 us, named by the file of its last event
    ("left", b"t_us,x,y,p\n0,10,10,1\n1152921504606846977,10,10,1\n"),
]
# config values that are read: the message starts with the dotted key instead
BAD_CONFIG_VALUES = [
    (b'{"analysis": {"eps_d": Infinity}}', "analysis.eps_d"),
    (b'{"energy": {"e_spike_pj": NaN}}', "energy.e_spike_pj"),
    (b'{"topology": {"weights": {"w_rc": 1e400}}}', "topology.weights.w_rc"),
    (b'{"preprocess": {"hot_pixel_factor": -Infinity}}', "preprocess.hot_pixel_factor"),
    (b'{"analysis": {"eps_d": -1}}', "analysis.eps_d must be >= 0, got -1.0"),
    (b'{"analysis": {"pcd_mode": "bogus"}}', "analysis.pcd_mode must be 'global' or 'per-window-mean', got 'bogus'"),
    (b'{"topology": {"weights": {"w_rc": -1}}}', "topology.weights.w_rc must be > 0, got -1.0"),
    (b'{"topology": {"retina_width": 0}}', "topology.retina_width must be >= 1, got 0"),
    (b'{"topology": {"retina_height": 0}}', "topology.retina_height must be >= 1, got 0"),
    (b'{"topology": {"d_max": -1}}', "topology.d_max must be in [0, 15], got -1"),
    (b'{"topology": {"polarity_mode": "both"}}', "topology.polarity_mode must be 'rectified' or 'separated', got 'both'"),
    (b'{"topology": {"continuity_radius": -2}}', "topology.continuity_radius must be >= 0, got -2"),
    (
        b'{"simulator": {"mismatch": {"weight_sigma": 0.1, "threshold_sigma": -0.5}}}',
        "simulator.mismatch.threshold_sigma must be >= 0, got -0.5",
    ),
    # stimulus lattices far beyond the cap, refused before anything is allocated
    (
        b'{"input": {"synthetic": {"shape": "DOT"}, "duration_us": 4611686018427387904}}',
        "input.duration_us 4611686018427387904 gives 4611686018427388 lattice steps x 1 rows x 1 columns",
    ),
    (
        b'{"input": {"synthetic": {"shape": "CLOUD", "y": 2, "height": 12, "dots_per_row": 4},'
        b' "duration_us": 4611686018427387904}}',
        "input.duration_us 4611686018427387904 gives 4611686018427388 lattice steps x 12 rows x 4 columns",
    ),
    # what the closed forms and int64 cannot represent
    (b'{"simulator": {"refractory_us": 1e19}}', "simulator.refractory_us must lie in [0, 2**60], got 10000000000000000000"),
    (
        b'{"simulator": {"tau_m": 1000, "tau_s": 1000.0000000000001}}',
        "simulator.tau_s must equal tau_m or differ from it by more than 1e-06 of the larger, "
        "got tau_s 1000.0000000000001 and tau_m 1000.0",
    ),
    (b'{"simulator": {"tau_s": 1e19}}', "simulator.tau_s must lie in (0, 1e9] us, got 1e+19"),
    (
        b'{"simulator": {"overrides": {"DISPARITY": {"tau_m": 1e10}}}}',
        "simulator.overrides.DISPARITY.tau_m must lie in (0, 1e9] us, got 10000000000.0",
    ),
    # more windows than the cap, refused before any is allocated
    (
        b'{"input": {"synthetic": {"shape": "DOT"}, "duration_us": 2000000}, "analysis": {"window_us": 1}}',
        "analysis.window_us 1 gives 2000001 windows over 2000000 us, more than 131072",
    ),
]


@pytest.mark.parametrize(
    "which,data,key",
    [(which, data, None) for which, data in MALFORMED] + [("config", data, key) for data, key in BAD_CONFIG_VALUES],
    ids=[f"{w}-{i}" for i, (w, _) in enumerate(MALFORMED)] + [key for _, key in BAD_CONFIG_VALUES],
)
def test_every_reader_exits_2_naming_its_file_or_key(valid, tmp_path, capsys, which, data, key):
    name = with_file(valid, tmp_path, which, edited(valid, which, data) if callable(data) else data)
    capsys.readouterr()
    assert command(tmp_path, tmp_path / "out", name) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error ({name}): {key or tmp_path / which}" + ("" if key else ":")), err


@pytest.mark.parametrize(
    "name,flags", [("synth", ()), ("topology", ()), ("topology", ("--hardware-budget",)), ("eval", ())],
    ids=["synth", "topology", "topology-hardware-budget", "eval"],
)
@pytest.mark.parametrize("data,key", BAD_CONFIG_VALUES, ids=[key for _, key in BAD_CONFIG_VALUES])
def test_every_command_refuses_the_bad_config_values(valid, tmp_path, capsys, name, flags, data, key):
    with_file(valid, tmp_path, "config", data)
    capsys.readouterr()
    assert command(tmp_path, tmp_path / "out", name, *flags) == 2
    assert capsys.readouterr().err.startswith(f"config error ({name}): {key}")
    assert not (tmp_path / "out").exists()


def mutate(data, how, at, token):
    """``data`` with one mutation at the byte ``at`` (taken modulo the length)."""
    at = at % max(len(data), 1)
    if how == "truncate":
        return data[:at]
    if how == "delete-delimiter":
        cuts = [i for i, b in enumerate(data) if b in b",\n:"]
        return data if not cuts else data[:cuts[at % len(cuts)]] + data[cuts[at % len(cuts)] + 1:]
    if how == "swap":
        return data[:at] + data[at + 1:at + 2] + data[at:at + 1] + data[at + 2:]
    cells = [i + 1 for i, b in enumerate(data) if b in b",\n"]  # the start of a cell
    start = cells[at % len(cells)] if cells else 0
    end = min([i for i in range(start, len(data)) if data[i] in b",\n]}"] or [len(data)])
    return data[:start] + token + data[end:]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((*FILES, "config", "spikes", "trace")),
    st.sampled_from(["truncate", "delete-delimiter", "swap", "token"]),
    st.integers(0, 2**20),
    st.sampled_from([b"nan", b"inf", b"-inf", b"NaN", b"Infinity", b"1e400"]),
)
def test_mutated_inputs_exit_0_or_2(valid, tmp_path_factory, which, how, at, token):
    tmp = tmp_path_factory.mktemp("mutated")
    name = with_file(valid, tmp, which, mutate((valid / which).read_bytes(), how, at, token))
    code = command(tmp, tmp / "out", name)
    assert code in (0, 2)
    if name == "run" and code == 0:
        # eval on the run's own spikes and trace, into the same directory, scores them as the run did;
        # only the counters that a spike CSV does not carry differ
        out = tmp / "out"
        com, report = (out / "com.csv").read_bytes(), json.loads((out / "metrics.json").read_text())
        shutil.copy(out / "spikes.csv", tmp / "spikes")
        shutil.copy(out / "disparity_trace.csv", tmp / "trace")
        assert command(tmp, out, "eval") == 0
        assert (out / "com.csv").read_bytes() == com
        evaluated = json.loads((out / "metrics.json").read_text())
        for key in ("input_events", "deliveries", "energy_uw"):
            del report[key], evaluated[key]
        assert json.dumps(evaluated) == json.dumps(report)


PIECES = list("0123456789+-_ .eE\t") + ["inf", "nan", "Infinity", "9" * 19, "\u0663"]
CELL = st.lists(st.sampled_from(PIECES), max_size=8).map("".join)


def expected(cells, convert):
    """Each cell's value by ``convert``, or the message of the first bad cell."""
    values = []
    for k, cell in enumerate(cells):
        try:
            values.append(convert(cell))
        except ValueError as exc:
            return f"p:{k + 2}: {exc}"
    return values


def as_int64(cell):
    value = int(cell)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"v {cell} exceeds the 64-bit range")
    return value


def as_finite(cell):
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"v must be finite, got {cell!r}")
    return value


@settings(max_examples=150, deadline=None)
@given(st.lists(CELL, max_size=12), st.data())
def test_column_conversion_equals_int_and_float_cell_by_cell(cells, data):
    where = np.array(data.draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells))), dtype=bool)
    for convert, read, fill in ((as_int64, CsvRows.ints, 0), (as_finite, CsvRows.floats, np.nan)):
        for mask in (None, where):
            rows = CsvRows("p", ["v", *cells])
            values = read(rows, 0, "v", mask)
            chosen = [c if mask is None or mask[k] else "0" for k, c in enumerate(cells)]
            want = expected(chosen, convert)
            if isinstance(want, str):
                with pytest.raises(ValueError) as exc:
                    rows.finish()
                assert str(exc.value) == want
                continue
            rows.finish()
            want = np.array(want, dtype=values.dtype)
            if mask is not None:
                want[~mask] = fill
            assert values.dtype == want.dtype and len(values) == len(cells)
            assert values.view(np.int64).tolist() == want.view(np.int64).tolist()  # bit for bit
    # without a name, a value beyond 64 bits saturates and is no fault
    rows = CsvRows("p", ["v", *cells])
    values = rows.ints(0)
    want = expected(cells, lambda cell: min(max(int(cell), -(2**63)), 2**63 - 1))
    if isinstance(want, list):
        rows.finish()
        assert values.tolist() == want
