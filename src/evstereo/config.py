"""Run configuration: one JSON file with a section per pipeline stage,
plus dotted-path overrides from the command line."""

from __future__ import annotations

import json
import math
import os
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Any

from .events import DAVIS_GEOMETRY, CameraGeometry, InputError, read_text
from .metrics import PCD_GLOBAL, PCD_PER_WINDOW_MEAN, EnergyCoefficients
from .preprocess import PreprocessConfig, Rect
from .simulator import LifParams, MismatchModel, NeuronParams
from .synth import DisparityProfile, validate_profile_bounds
from .topology import Population, WeightParams


@dataclass
class InputConfig:
    left_events: str | None = None
    right_events: str | None = None
    events: str | None = None  # merged stereo file
    synthetic: DisparityProfile | None = None
    duration_us: int | None = None  # synthetic stimulus length
    markers: str | None = None
    calibration: str | None = None

    @property
    def is_synthetic(self) -> bool:
        return self.synthetic is not None


@dataclass
class TopologyConfig:
    retina_width: int = 16
    retina_height: int = 16
    d_max: int = 7
    weights: WeightParams = field(default_factory=WeightParams)
    polarity_mode: str = "rectified"
    continuity_radius: int | None = None

    @property
    def geometry(self) -> CameraGeometry:
        return CameraGeometry(self.retina_width, self.retina_height)


@dataclass
class AnalysisConfig:
    window_us: int = 50_000
    eps_d: float = 1.0
    pcd_mode: str = PCD_GLOBAL


@dataclass
class RunConfig:
    input: InputConfig = field(default_factory=InputConfig)
    preprocess_enabled: bool = True
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    full_geometry: CameraGeometry = DAVIS_GEOMETRY
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    simulator: LifParams = field(default_factory=LifParams)
    mismatch: MismatchModel | None = None
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    energy: EnergyCoefficients = field(default_factory=EnergyCoefficients)
    output_dir: str = "out"
    seed: int = 0
    sample_label: str = "run"

    # ------------------------------------------------------------ validation

    def validate_for_run(self) -> None:
        """The checks of a run's inputs: its files, the stimulus bounds, the
        preprocessing geometry and the crop against the retina."""
        inp = self.input
        if inp.is_synthetic:
            if inp.duration_us is None or inp.duration_us <= 0:
                raise InputError("synthetic input requires a positive input.duration_us")
            try:
                validate_profile_bounds(inp.synthetic, self.topology.geometry, inp.duration_us)
            except ValueError as exc:
                raise InputError(f"input.synthetic: {exc}") from None
        else:
            has_pair = inp.left_events is not None and inp.right_events is not None
            if not has_pair and inp.events is None:
                raise InputError(
                    "input requires either a synthetic profile, a merged events file, "
                    "or both left_events and right_events"
                )
            for label, path in (
                ("input.left_events", inp.left_events),
                ("input.right_events", inp.right_events),
                ("input.events", inp.events),
                ("input.markers", inp.markers),
                ("input.calibration", inp.calibration),
            ):
                if path is not None and not os.path.exists(path):
                    raise InputError(f"{label}: file not found: {path}")
            if inp.markers is None or inp.calibration is None:
                raise InputError(
                    "file input requires input.markers and input.calibration for ground truth"
                )
            if self.preprocess_enabled:  # else the run checks the input's geometry against the retina
                try:
                    self.preprocess.validate(self.full_geometry)
                except ValueError as exc:
                    raise InputError(f"preprocess: {exc}") from None
                cw, ch = self.preprocess.crop_size
                if (cw, ch) != (self.topology.retina_width, self.topology.retina_height):
                    raise InputError(
                        f"preprocess crop size {cw}x{ch} must equal the retina "
                        f"{self.topology.retina_width}x{self.topology.retina_height}"
                    )


# ---------------------------------------------------------------- the table


class _Kind:
    """The JSON kind of a key: ``accepts`` checks a raw value's type,
    ``build`` turns it into its field's value (raising ValueError for a value
    the field's dataclass rejects) and ``dump`` turns that back into JSON."""

    def __init__(self, what: str, accepts, build=lambda raw: raw, dump=lambda value: value):
        self.what, self.accepts, self.build, self.dump = what, accepts, build, dump

    def parse(self, raw, key: str):
        if not self.accepts(raw):
            raise InputError(f"{key} must be {self.what}, got {raw!r}")
        try:
            return self.build(raw)
        except (ValueError, OverflowError) as exc:
            raise InputError(f"{key}: {exc}") from None


def _is_number(raw) -> bool:
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def _nullable(kind: _Kind) -> _Kind:
    return _Kind(
        f"{kind.what} or null",
        lambda raw: raw is None or kind.accepts(raw),
        lambda raw: None if raw is None else kind.build(raw),
        lambda value: None if value is None else kind.dump(value),
    )


def _fixed_list(what: str, kinds: tuple[_Kind, ...], build, dump=list) -> _Kind:
    """A JSON list of ``len(kinds)`` items of those kinds, as ``build(items)``."""
    return _Kind(
        what,
        lambda raw: isinstance(raw, list) and len(raw) == len(kinds) and all(k.accepts(v) for k, v in zip(kinds, raw)),
        lambda raw: build([kind.build(item) for kind, item in zip(kinds, raw)]),
        dump,
    )


def _list_of(what: str, item: _Kind, build) -> _Kind:
    return _Kind(
        what,
        lambda raw: isinstance(raw, list) and all(map(item.accepts, raw)),
        lambda raw: build(map(item.build, raw)),
        lambda value: [item.dump(v) for v in value],
    )


INT = _Kind("an integer", lambda raw: _is_number(raw) and (isinstance(raw, int) or raw.is_integer()), int)
FLOAT = _Kind("a number", lambda raw: _is_number(raw) and math.isfinite(raw), float)  # JSON has no inf or NaN
INTEGRAL = _Kind(INT.what, INT.accepts, float)  # an integer, stored as a float
BOOL = _Kind("a boolean", lambda raw: isinstance(raw, bool))
STR = _Kind("a string", lambda raw: isinstance(raw, str))
INT_PAIR = _fixed_list("a list of 2 integers", (INT, INT), tuple)
GEOMETRY = _fixed_list("a list of 2 integers", (INT, INT), lambda v: CameraGeometry(*v), lambda v: list(astuple(v)))
KEYFRAMES = _list_of("a list of [t_us, d] pairs of finite numbers", _fixed_list("", (INT, FLOAT), tuple), tuple)
RECTS = _list_of(
    "a list of [x, y, w, h] lists", _fixed_list("", (INT,) * 4, lambda v: Rect(*v), lambda v: list(astuple(v))), list
)


@dataclass(frozen=True)
class _Section:
    """A JSON object built into ``cls``; a nullable one reads null and ``{}``
    as None."""

    cls: type
    nullable: bool = False


class _PopulationMap:
    """``{population name: {NeuronParams field: number}}``, with float values;
    ``refractory_us`` must be integral."""

    def parse(self, raw, key: str) -> dict:
        params = [f.name for f in fields(NeuronParams)]
        return {
            Population[name]: {
                param: (INTEGRAL if param == "refractory_us" else FLOAT).parse(value, f"{key}.{name}.{param}")
                for param, value in _object(vals, f"{key}.{name}", params).items()
            }
            for name, vals in _object(raw, key, Population.__members__).items()
        }

    def dump(self, value: dict) -> dict:
        return {pop.name: dict(vals) for pop, vals in value.items()}


@dataclass(frozen=True)
class Row:
    """One config key: the value at dotted JSON ``key`` has ``kind`` and fills
    ``owner.field``."""

    key: str
    kind: Any
    owner: type | None = None  # default: the dataclass of the enclosing section
    field: str | None = None  # default: the last part of ``key``
    seeded: bool = False  # an absent value takes the run's ``seed``

    @property
    def section(self) -> str:
        return self.key.rpartition(".")[0]

    @property
    def name(self) -> str:
        return self.key.rpartition(".")[2]


def _table(*rows: Row) -> tuple[Row, ...]:
    """``rows`` with each owner and field filled in; a section precedes its keys."""
    section_cls = {"": RunConfig}
    resolved = []
    for row in rows:
        row = replace(row, owner=row.owner or section_cls[row.section], field=row.field or row.name)
        if isinstance(row.kind, _Section):
            section_cls[row.key] = row.kind.cls
        resolved.append(row)
    return tuple(resolved)


# Every config key, in echo order. Defaults are the dataclasses' own.
TABLE = _table(
    Row("seed", INT),
    Row("sample_label", STR),
    Row("output_dir", STR),
    Row("input", _Section(InputConfig)),
    Row("input.left_events", _nullable(STR)),
    Row("input.right_events", _nullable(STR)),
    Row("input.events", _nullable(STR)),
    Row("input.synthetic", _Section(DisparityProfile, nullable=True)),
    Row("input.synthetic.shape", STR),
    Row("input.synthetic.keyframes", KEYFRAMES),
    Row("input.synthetic.x", INT),
    Row("input.synthetic.y", INT),
    Row("input.synthetic.height", INT),
    Row("input.synthetic.dots_per_row", INT),
    Row("input.synthetic.rate_hz", FLOAT),
    Row("input.synthetic.jitter_sigma_us", FLOAT),
    Row("input.synthetic.seed", INT, seeded=True),
    Row("input.duration_us", _nullable(INT)),
    Row("input.markers", _nullable(STR)),
    Row("input.calibration", _nullable(STR)),
    Row("preprocess", _Section(PreprocessConfig)),
    Row("preprocess.enabled", BOOL, RunConfig, "preprocess_enabled"),
    Row("preprocess.mask_rects", RECTS),
    Row("preprocess.hot_pixel_factor", _nullable(FLOAT)),
    Row("preprocess.background_window_us", _nullable(INT)),
    Row("preprocess.background_radius", INT),
    Row("preprocess.background_include_same_pixel", BOOL),
    Row("preprocess.downscale_factor", INT),
    Row("preprocess.crop_origin", _nullable(INT_PAIR)),
    Row("preprocess.crop_size", INT_PAIR),
    Row("preprocess.full_geometry", GEOMETRY, RunConfig, "full_geometry"),
    Row("topology", _Section(TopologyConfig)),
    Row("topology.retina_width", INT),
    Row("topology.retina_height", INT),
    Row("topology.d_max", INT),
    Row("topology.weights", _Section(WeightParams)),
    Row("topology.weights.w_rc", FLOAT),
    Row("topology.weights.w_ce", FLOAT),
    Row("topology.weights.w_ci", FLOAT),
    Row("topology.weights.w_dd", FLOAT),
    Row("topology.polarity_mode", STR),
    Row("topology.continuity_radius", _nullable(INT)),
    Row("simulator", _Section(LifParams)),
    Row("simulator.tau_m", FLOAT),
    Row("simulator.tau_s", FLOAT),
    Row("simulator.threshold", FLOAT),
    Row("simulator.reset", FLOAT),
    Row("simulator.refractory_us", INT),
    Row("simulator.v_floor", FLOAT),
    Row("simulator.overrides", _PopulationMap()),
    Row("simulator.mismatch", _Section(MismatchModel, nullable=True), RunConfig, "mismatch"),
    Row("simulator.mismatch.seed", INT, seeded=True),
    Row("simulator.mismatch.weight_sigma", FLOAT),
    Row("simulator.mismatch.threshold_sigma", FLOAT),
    Row("analysis", _Section(AnalysisConfig)),
    Row("analysis.window_us", INT),
    Row("analysis.eps_d", FLOAT),
    Row("analysis.pcd_mode", STR),
    Row("energy", _Section(EnergyCoefficients)),
    Row("energy.e_input_pj", FLOAT),
    Row("energy.e_spike_pj", FLOAT),
    Row("energy.e_delivery_pj", FLOAT),
)
_CHILDREN: dict[str, list[Row]] = {}
for _row in TABLE:
    _CHILDREN.setdefault(_row.section, []).append(_row)


def _object(raw, key: str, known) -> dict:
    """``raw``, checked to be a JSON object with only ``known`` keys."""
    if not isinstance(raw, dict):
        raise InputError(f"{key} must be an object, got {raw!r}")
    unknown = set(raw) - set(known)
    if unknown:
        raise InputError(f"{key}: unknown keys {sorted(unknown)}")
    return raw


def _parse_section(key: str, raw, kwargs: dict) -> None:
    """Check the object ``raw`` at ``key`` against its rows and put each value
    given (or seeded) into ``kwargs[row.owner][row.field]``."""
    rows = _CHILDREN[key]
    _object(raw, key or "config", [row.name for row in rows])
    for row in rows:
        if row.name not in raw:
            if row.seeded:
                kwargs[row.owner][row.field] = kwargs[RunConfig].get("seed", RunConfig.seed)
            continue
        value = raw[row.name]
        if not isinstance(row.kind, _Section):
            value = row.kind.parse(value, row.key)
        elif row.kind.nullable and value in (None, {}):
            value = None
        else:
            kwargs[row.kind.cls] = {}
            _parse_section(row.key, value, kwargs)
            try:
                value = row.kind.cls(**kwargs.pop(row.kind.cls))
            except ValueError as exc:
                raise InputError(f"{row.key}: {exc}") from None
        kwargs[row.owner][row.field] = value


def config_from_dict(data: dict) -> RunConfig:
    """The config of ``data``. Beyond each key's JSON kind, it checks the
    values that every command reads; each message starts with the key at
    fault (a ``simulator`` message names the population)."""
    kwargs = {RunConfig: {}}
    _parse_section("", data, kwargs)
    cfg = RunConfig(**kwargs[RunConfig])
    a = cfg.analysis
    if a.window_us <= 0:
        raise InputError(f"analysis.window_us must be > 0, got {a.window_us}")
    if a.eps_d < 0:
        raise InputError(f"analysis.eps_d must be >= 0, got {a.eps_d!r}")
    if a.pcd_mode not in (PCD_GLOBAL, PCD_PER_WINDOW_MEAN):
        raise InputError(f"analysis.pcd_mode must be {PCD_GLOBAL!r} or {PCD_PER_WINDOW_MEAN!r}, got {a.pcd_mode!r}")
    try:
        cfg.topology.weights.validate()
    except ValueError as exc:  # its message starts with the weight's name
        raise InputError(f"topology.weights.{exc}") from None
    for pop in Population:
        try:
            cfg.simulator.for_population(pop)
        except ValueError as exc:
            raise InputError(f"simulator ({pop.name} parameters): {exc}") from None
    return cfg


def _dump_section(key: str, objects: dict) -> dict:
    out = {}
    for row in _CHILDREN[key]:
        value = getattr(objects[row.owner], row.field)
        if isinstance(row.kind, _Section):
            objects[row.kind.cls] = value
            out[row.name] = None if value is None else _dump_section(row.key, objects)
        else:
            out[row.name] = row.kind.dump(value)
    return out


def config_to_dict(cfg: RunConfig) -> dict:
    """Resolved configuration (echoed into reports; feeding it back
    reproduces the run)."""
    return _dump_section("", {RunConfig: cfg})


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply ``section.key=value`` strings onto the raw config dict; values
    parse as JSON with bare-string fallback."""
    for item in overrides:
        if "=" not in item:
            raise InputError(f"override must look like section.key=value, got {item!r}")
        path, raw = item.split("=", 1)
        keys = path.split(".")
        try:
            value: Any = json.loads(raw)
        except ValueError:  # also an integer too long to convert
            value = raw
        node = data
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise InputError(f"override path {path!r} crosses a non-object value")
        node[keys[-1]] = value
    return data


def load_config(path: str, overrides: list[str] | None = None) -> RunConfig:
    if not os.path.exists(path):
        raise InputError(f"config file not found: {path}")
    text = read_text(path)
    try:
        data = json.loads(text)
    except ValueError as exc:  # also an integer too long to convert
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    if overrides:
        data = apply_overrides(data, overrides)
    return config_from_dict(data)
