"""Network graph of the cooperative stereo SNN.

Coordinate algebra: a binocular match candidate (x_left, x_right, y) is
addressed by its cyclopean position x_cyc = x_right + x_left and disparity
d = x_right - x_left; x_cyc and d always share parity, and the map
(x_left, x_right) <-> (x_cyc, d) is a bijection on valid coordinates.

Populations: two retina input sheets, excitatory and inhibitory twin copies
of the coincidence population, and the disparity population. Connectivity:

  R1  each retina pixel excites every coincidence neuron (both copies)
      whose receptive field includes it (x_left = x for LEFT, x_right = x
      for RIGHT, same row).
  R2  each inhibitory coincidence neuron inhibits every disparity neuron at
      its own cyclopean position and row.
  R3  each excitatory coincidence neuron excites every disparity neuron
      tuned to its own disparity and row (optionally limited to a cyclopean
      neighbourhood by ``continuity_radius``).
  R4  disparity neurons sharing a line of sight (same x_left or same
      x_right) and row inhibit each other (uniqueness competition).

No synapse crosses rows. Neuron ids within the coincidence and disparity
populations are ordered by (d, y, x_cyc) so rasters sort by disparity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class Population(IntEnum):
    RETINA_L = 0
    RETINA_R = 1
    COINC_EXC = 2
    COINC_INH = 3
    DISPARITY = 4


EXC = 1
INH = -1

FEEDFORWARD = 0
RECURRENT = 1

RECTIFIED = "rectified"
SEPARATED = "separated"


@dataclass(frozen=True)
class NeuronCoord:
    x_cyc: int
    y: int
    d: int

    def __post_init__(self) -> None:
        if (self.x_cyc + self.d) % 2 != 0:
            raise ValueError(f"x_cyc={self.x_cyc} and d={self.d} must share parity")

    @property
    def x_left(self) -> int:
        return (self.x_cyc - self.d) // 2

    @property
    def x_right(self) -> int:
        return (self.x_cyc + self.d) // 2

    @classmethod
    def from_pair(cls, x_left: int, x_right: int, y: int) -> "NeuronCoord":
        return cls(x_cyc=x_right + x_left, y=y, d=x_right - x_left)


@dataclass(frozen=True)
class Synapse:
    pre: int
    post: int
    sign: int  # EXC / INH
    weight: float
    kind: int  # FEEDFORWARD / RECURRENT

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("synapse weight must be > 0")
        if self.pre == self.post:
            raise ValueError("self-connections are not allowed")


@dataclass(frozen=True)
class WeightParams:
    """Synaptic weights in units of the firing threshold.

    ``w_rc = 0.6`` makes one retinal EPSP sub-threshold and two coincident
    ones supra-threshold; the coincidence->disparity weights are set so one
    coincidence spike is sub-threshold for a disparity neuron but a short
    same-disparity burst crosses.
    """

    w_rc: float = 0.6
    w_ce: float = 0.4
    w_ci: float = 0.4
    w_dd: float = 0.4

    def validate(self) -> None:
        for name in ("w_rc", "w_ce", "w_ci", "w_dd"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True)
class HardwareLimits:
    """Per-neuron fan-in and neuron-count budget of the target processor:
    64 fan-in entries per neuron, 256 neurons per core, 4 cores per chip,
    3 chips on the board."""

    max_fan_in: float = 64
    neurons_per_core: float = 256
    cores_per_chip: float = 4
    chips: float = 3

    @property
    def neuron_budget(self) -> float:
        return self.chips * self.cores_per_chip * self.neurons_per_core


@dataclass
class ConstraintReport:
    fan_in_ok: bool
    budget_ok: bool
    max_fan_in_found: int
    fan_in_limit: float
    violating_neurons: list[int]
    neuron_count: int
    neuron_budget: float

    @property
    def passed(self) -> bool:
        return self.fan_in_ok and self.budget_ok

    def summary_lines(self) -> list[str]:
        lines = [
            f"fan-in:  max {self.max_fan_in_found} vs limit {self.fan_in_limit}: "
            f"{'pass' if self.fan_in_ok else f'FAIL ({len(self.violating_neurons)} neurons over)'}",
            f"budget:  {self.neuron_count} coincidence+disparity neurons vs "
            f"{self.neuron_budget}: {'pass' if self.budget_ok else 'FAIL'}",
        ]
        return lines


class Topology:
    """Immutable neuron/synapse tables plus id<->coordinate bijections."""

    def __init__(
        self,
        retina_width: int,
        retina_height: int,
        d_max: int,
        weights: WeightParams,
        polarity_mode: str,
        continuity_radius: int | None,
    ) -> None:
        self.retina_width = retina_width
        self.retina_height = retina_height
        self.d_max = d_max
        self.weights = weights
        self.polarity_mode = polarity_mode
        self.continuity_radius = continuity_radius
        self.n_channels = 2 if polarity_mode == SEPARATED else 1

        w, h, ch = retina_width, retina_height, self.n_channels
        self.n_retina_per_side = w * h * ch

        # coincidence/disparity coordinates ordered by (d, y, x_cyc)
        coords = [
            NeuronCoord.from_pair(xl, xr, y)
            for y in range(h)
            for xl in range(w)
            for xr in range(w)
            if abs(xr - xl) <= d_max
        ]
        coords.sort(key=lambda c: (c.d, c.y, c.x_cyc))
        self.disparity_coords: tuple[NeuronCoord, ...] = tuple(coords)
        self.n_triplets = len(coords)

        self.offsets = {
            Population.RETINA_L: 0,
            Population.RETINA_R: self.n_retina_per_side,
            Population.COINC_EXC: 2 * self.n_retina_per_side,
            Population.COINC_INH: 2 * self.n_retina_per_side + ch * self.n_triplets,
            Population.DISPARITY: 2 * self.n_retina_per_side + 2 * ch * self.n_triplets,
        }
        self.counts = {
            Population.RETINA_L: self.n_retina_per_side,
            Population.RETINA_R: self.n_retina_per_side,
            Population.COINC_EXC: ch * self.n_triplets,
            Population.COINC_INH: ch * self.n_triplets,
            Population.DISPARITY: self.n_triplets,
        }
        self.n_neurons = self.offsets[Population.DISPARITY] + self.n_triplets

        self._coord_index = {c: i for i, c in enumerate(coords)}
        self._build_id_arrays()
        self._build_synapses()

    # ---------------------------------------------------------- id algebra

    def _build_id_arrays(self) -> None:
        """Per-id ``pop_code`` (int8 Population code) and ``d``, ``x_cyc``,
        ``y`` of the coincidence/disparity coordinate (0 on retina ids)."""
        self.pop_code = np.repeat(
            np.arange(len(Population), dtype=np.int8), [self.counts[p] for p in Population]
        )
        triplet = np.array([(c.d, c.x_cyc, c.y) for c in self.disparity_coords], dtype=np.int64).reshape(-1, 3)
        per_id = np.zeros((self.n_neurons, 3), dtype=np.int64)
        per_id[self.offsets[Population.COINC_EXC]:] = np.tile(triplet, (2 * self.n_channels + 1, 1))
        self.d, self.x_cyc, self.y = per_id.T.copy()
        for arr in (self.pop_code, self.d, self.x_cyc, self.y):
            arr.setflags(write=False)

    def population_of(self, neuron_id: int) -> Population:
        if not 0 <= neuron_id < self.n_neurons:
            raise KeyError(f"unknown neuron id {neuron_id}")
        return Population(int(self.pop_code[neuron_id]))

    def id_of_retina(self, side: int, x: int, y: int, channel: int = 0) -> int:
        if not (0 <= x < self.retina_width and 0 <= y < self.retina_height):
            raise KeyError(f"retina pixel ({x},{y}) out of range")
        if not 0 <= channel < self.n_channels:
            raise KeyError(f"retina channel {channel} out of range")
        pop = Population.RETINA_L if side == 0 else Population.RETINA_R
        return self.offsets[pop] + (channel * self.retina_height + y) * self.retina_width + x

    def id_of(self, population: Population, coord: NeuronCoord, channel: int = 0) -> int:
        if population not in (Population.COINC_EXC, Population.COINC_INH, Population.DISPARITY):
            raise KeyError(f"id_of expects a coincidence/disparity population, got {population}")
        idx = self._coord_index.get(coord)
        if idx is None:
            raise KeyError(f"coordinate {coord} not in topology")
        if population is Population.DISPARITY:
            if channel != 0:
                raise KeyError("disparity population has a single channel")
            return self.offsets[population] + idx
        if not 0 <= channel < self.n_channels:
            raise KeyError(f"channel {channel} out of range")
        return self.offsets[population] + channel * self.n_triplets + idx

    def coord_of(self, neuron_id: int):
        """Return (population, NeuronCoord, channel) or
        (population, (x, y), channel) for retina neurons."""
        pop = self.population_of(neuron_id)
        rel = neuron_id - self.offsets[pop]
        if pop in (Population.RETINA_L, Population.RETINA_R):
            channel, rem = divmod(rel, self.retina_width * self.retina_height)
            y, x = divmod(rem, self.retina_width)
            return pop, (x, y), channel
        if pop is Population.DISPARITY:
            return pop, self.disparity_coords[rel], 0
        channel, idx = divmod(rel, self.n_triplets)
        return pop, self.disparity_coords[idx], channel

    def population_ids(self, population: Population) -> np.ndarray:
        off = self.offsets[population]
        return np.arange(off, off + self.counts[population], dtype=np.int64)

    def disparity_of_ids(self, ids: np.ndarray) -> np.ndarray:
        """d_n for each (coincidence or disparity) neuron id. The first
        offending id raises KeyError if unknown, ValueError if retina."""
        ids = np.asarray(ids, dtype=np.int64)
        unknown = (ids < 0) | (ids >= self.n_neurons)
        retina = ~unknown & (self.pop_code[np.where(unknown, 0, ids)] <= Population.RETINA_R)
        bad = np.flatnonzero(unknown | retina)
        if len(bad):
            if unknown[bad[0]]:
                raise KeyError(f"unknown neuron id {ids[bad[0]]}")
            raise ValueError("retina neurons carry no disparity")
        return self.d[ids]

    # ---------------------------------------------------------- synapse build

    def _build_synapses(self) -> None:
        w = self.weights
        pre: list[int] = []
        post: list[int] = []
        sign: list[int] = []
        weight: list[float] = []
        kind: list[int] = []
        saturating: list[bool] = []

        def add(p, q, s, ww, k, sat=False):
            pre.append(p)
            post.append(q)
            sign.append(s)
            weight.append(ww)
            kind.append(k)
            saturating.append(sat)

        coords = self.disparity_coords
        ch_range = range(self.n_channels)

        # R1: retina -> coincidence (both copies), saturating synapses so an
        # arbitrary monocular train can never sum past one EPSP per side
        for idx, c in enumerate(coords):
            for channel in ch_range:
                left_id = self.id_of_retina(0, c.x_left, c.y, channel)
                right_id = self.id_of_retina(1, c.x_right, c.y, channel)
                for pop in (Population.COINC_EXC, Population.COINC_INH):
                    cid = self.id_of(pop, c, channel)
                    add(left_id, cid, EXC, w.w_rc, FEEDFORWARD, sat=True)
                    add(right_id, cid, EXC, w.w_rc, FEEDFORWARD, sat=True)

        # group triplet indices by cyclopean column and by disparity line
        by_xcyc: dict[tuple[int, int], list[int]] = {}
        by_line: dict[tuple[int, int], list[int]] = {}
        for idx, c in enumerate(coords):
            by_xcyc.setdefault((c.x_cyc, c.y), []).append(idx)
            by_line.setdefault((c.d, c.y), []).append(idx)

        # R2: inhibitory coincidence -> every disparity neuron at the same
        # cyclopean position and row
        for group in by_xcyc.values():
            for i in group:
                for channel in ch_range:
                    cid = self.id_of(Population.COINC_INH, coords[i], channel)
                    for j in group:
                        add(cid, self.offsets[Population.DISPARITY] + j, INH, w.w_ci, FEEDFORWARD)

        # R3: excitatory coincidence -> every disparity neuron at the same
        # disparity and row (within the continuity radius when set)
        radius = self.continuity_radius
        for group in by_line.values():
            for i in group:
                for channel in ch_range:
                    cid = self.id_of(Population.COINC_EXC, coords[i], channel)
                    for j in group:
                        if radius is not None and abs(coords[i].x_cyc - coords[j].x_cyc) > radius:
                            continue
                        add(cid, self.offsets[Population.DISPARITY] + j, EXC, w.w_ce, FEEDFORWARD)

        # R4: recurrent inhibition between disparity neurons sharing a line
        # of sight; the two line families partition the pairs (a pair can
        # share x_left or x_right, never both)
        d_off = self.offsets[Population.DISPARITY]
        for los in ("x_left", "x_right"):
            groups: dict[tuple[int, int], list[int]] = {}
            for idx, c in enumerate(coords):
                groups.setdefault((getattr(c, los), c.y), []).append(idx)
            for group in groups.values():
                for i in group:
                    for j in group:
                        if i != j:
                            add(d_off + i, d_off + j, INH, w.w_dd, RECURRENT)

        self.syn_pre = np.array(pre, dtype=np.int64)
        self.syn_post = np.array(post, dtype=np.int64)
        self.syn_sign = np.array(sign, dtype=np.int8)
        self.syn_weight = np.array(weight, dtype=np.float64)
        self.syn_kind = np.array(kind, dtype=np.int8)
        self.syn_saturating = np.array(saturating, dtype=bool)
        for arr in (self.syn_pre, self.syn_post, self.syn_sign, self.syn_weight, self.syn_kind, self.syn_saturating):
            arr.setflags(write=False)

    @property
    def n_synapses(self) -> int:
        return len(self.syn_pre)

    def synapses(self):
        for i in range(self.n_synapses):
            yield Synapse(
                pre=int(self.syn_pre[i]),
                post=int(self.syn_post[i]),
                sign=int(self.syn_sign[i]),
                weight=float(self.syn_weight[i]),
                kind=int(self.syn_kind[i]),
            )

    def fan_in_counts(self) -> np.ndarray:
        return np.bincount(self.syn_post, minlength=self.n_neurons)

    # ---------------------------------------------------------- export

    def to_json_dict(self) -> dict:
        neurons = []
        for nid in range(self.n_neurons):
            pop, coord, channel = self.coord_of(nid)
            if pop in (Population.RETINA_L, Population.RETINA_R):
                entry = {"id": nid, "population": pop.name, "x": coord[0], "y": coord[1]}
            else:
                entry = {
                    "id": nid,
                    "population": pop.name,
                    "x_cyc": coord.x_cyc,
                    "y": coord.y,
                    "d": coord.d,
                }
            if self.n_channels > 1 and pop is not Population.DISPARITY:
                entry["channel"] = channel
            neurons.append(entry)
        synapses = [
            {
                "pre": int(self.syn_pre[i]),
                "post": int(self.syn_post[i]),
                "sign": "EXC" if self.syn_sign[i] > 0 else "INH",
                "weight": float(self.syn_weight[i]),
                "kind": "RECURRENT" if self.syn_kind[i] == RECURRENT else "FEEDFORWARD",
            }
            for i in range(self.n_synapses)
        ]
        return {
            "retina_width": self.retina_width,
            "retina_height": self.retina_height,
            "d_max": self.d_max,
            "polarity_mode": self.polarity_mode,
            "continuity_radius": self.continuity_radius,
            "weights": {
                "w_rc": self.weights.w_rc,
                "w_ce": self.weights.w_ce,
                "w_ci": self.weights.w_ci,
                "w_dd": self.weights.w_dd,
            },
            "populations": {p.name: int(self.counts[p]) for p in Population},
            "neurons": neurons,
            "synapses": synapses,
        }

    def write_json(self, path: str) -> None:
        import os

        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)


def build_topology(
    retina_width: int,
    retina_height: int,
    d_max: int,
    weights: WeightParams | None = None,
    polarity_mode: str = RECTIFIED,
    continuity_radius: int | None = None,
) -> Topology:
    if retina_width < 1 or retina_height < 1:
        raise ValueError(f"retina must be at least 1x1, got {retina_width}x{retina_height}")
    if not 0 <= d_max <= retina_width - 1:
        raise ValueError(f"d_max must be in [0, {retina_width - 1}], got {d_max}")
    if polarity_mode not in (RECTIFIED, SEPARATED):
        raise ValueError(f"polarity_mode must be '{RECTIFIED}' or '{SEPARATED}'")
    if continuity_radius is not None and continuity_radius < 0:
        raise ValueError("continuity_radius must be >= 0")
    weights = weights or WeightParams()
    weights.validate()
    return Topology(retina_width, retina_height, d_max, weights, polarity_mode, continuity_radius)


def check_hardware_constraints(topology: Topology, limits: HardwareLimits | None = None) -> ConstraintReport:
    """Count afferents per neuron and total (coincidence + disparity) neurons
    against the hardware limits. Advisory only: the simulator runs either way.
    Retina cells are camera pixels and do not consume neuron budget."""
    limits = limits or HardwareLimits()
    fan_in = topology.fan_in_counts()
    over = np.flatnonzero(fan_in > limits.max_fan_in)
    n_on_chip = sum(
        topology.counts[p] for p in (Population.COINC_EXC, Population.COINC_INH, Population.DISPARITY)
    )
    return ConstraintReport(
        fan_in_ok=len(over) == 0,
        budget_ok=n_on_chip <= limits.neuron_budget,
        max_fan_in_found=int(fan_in.max()) if len(fan_in) else 0,
        fan_in_limit=limits.max_fan_in,
        violating_neurons=[int(i) for i in over],
        neuron_count=int(n_on_chip),
        neuron_budget=limits.neuron_budget,
    )


def largest_feasible_d_max(
    retina_width: int,
    retina_height: int,
    limits: HardwareLimits | None = None,
    weights: WeightParams | None = None,
) -> int | None:
    """Largest d_max whose build passes the hardware constraints, or None."""
    for d_max in range(retina_width - 1, -1, -1):
        topo = build_topology(retina_width, retina_height, d_max, weights)
        if check_hardware_constraints(topo, limits).passed:
            return d_max
    return None
