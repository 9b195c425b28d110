"""Run configuration: one JSON file with a section per pipeline stage,
plus dotted-path overrides from the command line."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any

from .events import CameraGeometry
from .metrics import PCD_GLOBAL, PCD_PER_WINDOW_MEAN, EnergyCoefficients
from .preprocess import PreprocessConfig, Rect
from .simulator import LifParams, MismatchModel
from .synth import DisparityProfile, validate_profile_bounds
from .topology import Population, WeightParams


class ConfigError(ValueError):
    """Invalid configuration or missing input; maps to exit code 2."""


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
    full_geometry: CameraGeometry = field(default_factory=lambda: CameraGeometry(346, 260))
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
        inp = self.input
        if inp.is_synthetic:
            if inp.duration_us is None or inp.duration_us <= 0:
                raise ConfigError("synthetic input requires a positive input.duration_us")
            try:
                validate_profile_bounds(inp.synthetic, self.topology.geometry, inp.duration_us)
            except ValueError as exc:
                raise ConfigError(f"input.synthetic: {exc}") from None
        else:
            has_pair = inp.left_events is not None and inp.right_events is not None
            if not has_pair and inp.events is None:
                raise ConfigError(
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
                    raise ConfigError(f"{label}: file not found: {path}")
            if inp.markers is None or inp.calibration is None:
                raise ConfigError(
                    "file input requires input.markers and input.calibration for ground truth"
                )
            try:
                self.preprocess.validate(self.full_geometry)
            except ValueError as exc:
                raise ConfigError(f"preprocess: {exc}") from None
            cw, ch = self.preprocess.crop_size
            if (cw, ch) != (self.topology.retina_width, self.topology.retina_height):
                raise ConfigError(
                    f"preprocess crop size {cw}x{ch} must equal the retina "
                    f"{self.topology.retina_width}x{self.topology.retina_height}"
                )
        if self.analysis.window_us <= 0:
            raise ConfigError("analysis.window_us must be > 0")
        if self.analysis.eps_d < 0:
            raise ConfigError("analysis.eps_d must be >= 0")
        if self.analysis.pcd_mode not in (PCD_GLOBAL, PCD_PER_WINDOW_MEAN):
            raise ConfigError(f"unknown analysis.pcd_mode {self.analysis.pcd_mode!r}")
        try:
            self.topology.weights.validate()
            for pop in Population:
                self.simulator.for_population(pop)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------- parsing


def _keyframes(raw) -> tuple[tuple[int, float], ...]:
    """``[[t_us, d], ...]`` as a tuple of (int, float) pairs."""
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"input.synthetic.keyframes must be a list of [t_us, d] pairs, got {raw!r}")
    pairs = []
    for i, pair in enumerate(raw):
        if not (
            isinstance(pair, (list, tuple))
            and len(pair) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in pair)
        ):
            raise ConfigError(f"input.synthetic.keyframes[{i}] must be a [t_us, d] pair of finite numbers, got {pair!r}")
        pairs.append((int(pair[0]), float(pair[1])))
    return tuple(pairs)


def _profile_from_dict(data: dict, default_seed: int) -> DisparityProfile:
    known = {
        "shape", "keyframes", "x", "y", "height", "dots_per_row",
        "rate_hz", "jitter_sigma_us", "seed",
    }
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown synthetic profile keys: {sorted(unknown)}")
    kwargs = dict(data)
    if "keyframes" in kwargs:
        kwargs["keyframes"] = _keyframes(kwargs["keyframes"])
    kwargs.setdefault("seed", default_seed)
    try:
        return DisparityProfile(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"input.synthetic: {exc}") from None


def _as(kind: type, value, key: str):
    """``kind(value)`` for ``kind`` int or float; a value it rejects is a
    ConfigError naming the dotted ``key``."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {what}, got {value!r}") from None


def _take(data: dict, section: str, known: set[str]) -> dict:
    """``data``, checked to be an object with only ``known`` keys."""
    if not isinstance(data, dict):
        raise ConfigError(f"{section} must be an object, got {data!r}")
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {sorted(unknown)}")
    return data


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config must be an object, got {data!r}")
    data = dict(data)
    cfg = RunConfig()
    cfg.seed = _as(int, data.pop("seed", 0), "seed")
    cfg.sample_label = str(data.pop("sample_label", "run"))
    cfg.output_dir = str(data.pop("output_dir", "out"))

    inp = _take(
        data.pop("input", {}),
        "input",
        {"left_events", "right_events", "events", "synthetic", "duration_us", "markers", "calibration"},
    )
    synthetic = inp.get("synthetic")
    cfg.input = InputConfig(
        left_events=inp.get("left_events"),
        right_events=inp.get("right_events"),
        events=inp.get("events"),
        synthetic=_profile_from_dict(synthetic, cfg.seed) if synthetic else None,
        duration_us=None if inp.get("duration_us") is None else _as(int, inp["duration_us"], "input.duration_us"),
        markers=inp.get("markers"),
        calibration=inp.get("calibration"),
    )

    pre = _take(
        data.pop("preprocess", {}),
        "preprocess",
        {
            "enabled", "mask_rects", "hot_pixel_factor", "background_window_us",
            "background_radius", "background_include_same_pixel", "downscale_factor",
            "crop_origin", "crop_size", "full_geometry",
        },
    )
    cfg.preprocess_enabled = bool(pre.get("enabled", True))
    fg = pre.get("full_geometry", [346, 260])
    if not (isinstance(fg, (list, tuple)) and len(fg) == 2):
        raise ConfigError(f"preprocess.full_geometry must be [width, height], got {fg!r}")
    cfg.full_geometry = CameraGeometry(*(_as(int, v, "preprocess.full_geometry") for v in fg))
    try:
        cfg.preprocess = PreprocessConfig(
            mask_rects=[Rect(*map(int, r)) for r in pre.get("mask_rects", [])],
            hot_pixel_factor=pre.get("hot_pixel_factor", 10.0),
            background_window_us=pre.get("background_window_us", 5000),
            background_radius=int(pre.get("background_radius", 1)),
            background_include_same_pixel=bool(pre.get("background_include_same_pixel", False)),
            downscale_factor=int(pre.get("downscale_factor", 6)),
            crop_origin=tuple(map(int, pre["crop_origin"])) if pre.get("crop_origin") else None,
            crop_size=tuple(map(int, pre.get("crop_size", (16, 16)))),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"preprocess: {exc}") from None

    topo = _take(
        data.pop("topology", {}),
        "topology",
        {"retina_width", "retina_height", "d_max", "weights", "polarity_mode", "continuity_radius"},
    )
    weights = _take(topo.get("weights", {}), "topology.weights", {"w_rc", "w_ce", "w_ci", "w_dd"})
    for name, value in weights.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"topology.weights.{name} must be a number, got {value!r}")
    try:
        cfg.topology = TopologyConfig(
            retina_width=_as(int, topo.get("retina_width", 16), "topology.retina_width"),
            retina_height=_as(int, topo.get("retina_height", 16), "topology.retina_height"),
            d_max=_as(int, topo.get("d_max", 7), "topology.d_max"),
            weights=WeightParams(**weights) if weights else WeightParams(),
            polarity_mode=topo.get("polarity_mode", "rectified"),
            continuity_radius=topo.get("continuity_radius"),
        )
    except TypeError as exc:
        raise ConfigError(f"topology: {exc}") from None

    sim = _take(
        data.pop("simulator", {}),
        "simulator",
        {"tau_m", "tau_s", "threshold", "reset", "refractory_us", "v_floor", "overrides", "mismatch"},
    )
    overrides_raw = sim.get("overrides")
    if overrides_raw is None:
        overrides = LifParams().overrides
    else:
        overrides = {}
        if not isinstance(overrides_raw, dict):
            raise ConfigError(f"simulator.overrides must be an object, got {overrides_raw!r}")
        for name, vals in overrides_raw.items():
            try:
                pop = Population[name]
            except KeyError:
                raise ConfigError(f"simulator.overrides: unknown population {name!r}") from None
            if not isinstance(vals, dict):
                raise ConfigError(f"simulator.overrides.{name} must be an object, got {vals!r}")
            overrides[pop] = {k: _as(float, v, f"simulator.overrides.{name}.{k}") for k, v in vals.items()}
    cfg.simulator = LifParams(
        tau_m=_as(float, sim.get("tau_m", 2000.0), "simulator.tau_m"),
        tau_s=_as(float, sim.get("tau_s", 10000.0), "simulator.tau_s"),
        threshold=_as(float, sim.get("threshold", 1.0), "simulator.threshold"),
        reset=_as(float, sim.get("reset", 0.0), "simulator.reset"),
        refractory_us=_as(int, sim.get("refractory_us", 1000), "simulator.refractory_us"),
        v_floor=_as(float, sim.get("v_floor", -1.0), "simulator.v_floor"),
        overrides=overrides,
    )
    mm = sim.get("mismatch")
    if mm is not None:
        _take(mm, "simulator.mismatch", {"seed", "weight_sigma", "threshold_sigma"})
    cfg.mismatch = (
        MismatchModel(
            seed=_as(int, mm.get("seed", cfg.seed), "simulator.mismatch.seed"),
            weight_sigma=_as(float, mm.get("weight_sigma", 0.0), "simulator.mismatch.weight_sigma"),
            threshold_sigma=_as(float, mm.get("threshold_sigma", 0.0), "simulator.mismatch.threshold_sigma"),
        )
        if mm
        else None
    )

    ana = _take(data.pop("analysis", {}), "analysis", {"window_us", "eps_d", "pcd_mode"})
    cfg.analysis = AnalysisConfig(
        window_us=_as(int, ana.get("window_us", 50_000), "analysis.window_us"),
        eps_d=_as(float, ana.get("eps_d", 1.0), "analysis.eps_d"),
        pcd_mode=ana.get("pcd_mode", PCD_GLOBAL),
    )

    en = _take(data.pop("energy", {}), "energy", {"e_input_pj", "e_spike_pj", "e_delivery_pj"})
    cfg.energy = EnergyCoefficients(
        e_input_pj=_as(float, en.get("e_input_pj", 30.0), "energy.e_input_pj"),
        e_spike_pj=_as(float, en.get("e_spike_pj", 900.0), "energy.e_spike_pj"),
        e_delivery_pj=_as(float, en.get("e_delivery_pj", 120.0), "energy.e_delivery_pj"),
    )

    if data:
        raise ConfigError(f"unknown top-level config keys: {sorted(data)}")
    return cfg


def config_to_dict(cfg: RunConfig) -> dict:
    """Resolved configuration (echoed into reports; feeding it back
    reproduces the run)."""
    profile = cfg.input.synthetic
    return {
        "seed": cfg.seed,
        "sample_label": cfg.sample_label,
        "output_dir": cfg.output_dir,
        "input": {
            "left_events": cfg.input.left_events,
            "right_events": cfg.input.right_events,
            "events": cfg.input.events,
            "synthetic": (
                {
                    "shape": profile.shape,
                    "keyframes": [[t, d] for t, d in profile.keyframes],
                    "x": profile.x,
                    "y": profile.y,
                    "height": profile.height,
                    "dots_per_row": profile.dots_per_row,
                    "rate_hz": profile.rate_hz,
                    "jitter_sigma_us": profile.jitter_sigma_us,
                    "seed": profile.seed,
                }
                if profile
                else None
            ),
            "duration_us": cfg.input.duration_us,
            "markers": cfg.input.markers,
            "calibration": cfg.input.calibration,
        },
        "preprocess": {
            "enabled": cfg.preprocess_enabled,
            "mask_rects": [[r.x, r.y, r.w, r.h] for r in cfg.preprocess.mask_rects],
            "hot_pixel_factor": cfg.preprocess.hot_pixel_factor,
            "background_window_us": cfg.preprocess.background_window_us,
            "background_radius": cfg.preprocess.background_radius,
            "background_include_same_pixel": cfg.preprocess.background_include_same_pixel,
            "downscale_factor": cfg.preprocess.downscale_factor,
            "crop_origin": list(cfg.preprocess.crop_origin) if cfg.preprocess.crop_origin else None,
            "crop_size": list(cfg.preprocess.crop_size),
            "full_geometry": [cfg.full_geometry.width, cfg.full_geometry.height],
        },
        "topology": {
            "retina_width": cfg.topology.retina_width,
            "retina_height": cfg.topology.retina_height,
            "d_max": cfg.topology.d_max,
            "weights": {
                "w_rc": cfg.topology.weights.w_rc,
                "w_ce": cfg.topology.weights.w_ce,
                "w_ci": cfg.topology.weights.w_ci,
                "w_dd": cfg.topology.weights.w_dd,
            },
            "polarity_mode": cfg.topology.polarity_mode,
            "continuity_radius": cfg.topology.continuity_radius,
        },
        "simulator": {
            "tau_m": cfg.simulator.tau_m,
            "tau_s": cfg.simulator.tau_s,
            "threshold": cfg.simulator.threshold,
            "reset": cfg.simulator.reset,
            "refractory_us": cfg.simulator.refractory_us,
            "v_floor": cfg.simulator.v_floor,
            "overrides": {
                pop.name: dict(vals) for pop, vals in cfg.simulator.overrides.items()
            },
            "mismatch": (
                {
                    "seed": cfg.mismatch.seed,
                    "weight_sigma": cfg.mismatch.weight_sigma,
                    "threshold_sigma": cfg.mismatch.threshold_sigma,
                }
                if cfg.mismatch
                else None
            ),
        },
        "analysis": {
            "window_us": cfg.analysis.window_us,
            "eps_d": cfg.analysis.eps_d,
            "pcd_mode": cfg.analysis.pcd_mode,
        },
        "energy": {
            "e_input_pj": cfg.energy.e_input_pj,
            "e_spike_pj": cfg.energy.e_spike_pj,
            "e_delivery_pj": cfg.energy.e_delivery_pj,
        },
    }


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply ``section.key=value`` strings onto the raw config dict; values
    parse as JSON with bare-string fallback."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        path, raw = item.split("=", 1)
        keys = path.split(".")
        try:
            value: Any = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {path!r} crosses a non-object value")
        node[keys[-1]] = value
    return data


def load_config(path: str, overrides: list[str] | None = None) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if overrides:
        data = apply_overrides(data, overrides)
    return config_from_dict(data)
