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

import functools
import json
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .events import atomic_write


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


@dataclass(frozen=True, repr=False)
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
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")


#: Per-neuron fan-in and neuron-count budget of the target processor: 64
#: fan-in entries per neuron, 256 neurons per core, 4 cores per chip, 3 chips
#: on the board.
MAX_FAN_IN = 64
NEURON_BUDGET = 3 * 4 * 256


@dataclass(repr=False, eq=False)
class ConstraintReport:
    """The outcome of ``check_hardware_constraints``."""

    fan_in_ok: bool
    budget_ok: bool
    max_fan_in_found: int
    fan_in_limit: int
    violating_neurons: list[int]
    neuron_count: int
    neuron_budget: int

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
    """Immutable neuron/synapse tables plus id<->coordinate bijections.

    Every coincidence/disparity coordinate is a ``(d, y, x_cyc)`` triplet.
    Triplet ``i`` is the ``i``-th valid cell, in row-major order, of the dense
    grid ``_index`` with axes ``(d + d_max, y, x_cyc)``; the grid holds ``i``
    there and -1 where no triplet exists. So ids follow ``(d, y, x_cyc)``, and
    each rule R1-R4 is one lookup of candidate triplets in the grid.

    The synapse tables ``syn_*`` are sorted by ``pre`` and, within one
    ``pre``, in delivery order: ascending post triplet, a retina pixel
    driving the excitatory copy of each triplet before the inhibitory one,
    and a disparity neuron inhibiting its ``x_left`` line of sight before its
    ``x_right`` one. The simulator delivers in this order as stored.
    """

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

        # (d, y, x_cyc) is a match candidate iff x_left and x_right are pixels
        d, y, x_cyc = np.meshgrid(np.arange(-d_max, d_max + 1), np.arange(h), np.arange(2 * w - 1), indexing="ij")
        valid = ((x_cyc + d) % 2 == 0) & (np.abs(d) <= x_cyc) & (x_cyc <= 2 * (w - 1) - np.abs(d))
        self.n_triplets = int(np.count_nonzero(valid))
        self._index = np.full(valid.shape, -1, dtype=np.int64)
        self._index[valid] = np.arange(self.n_triplets)
        self._index.setflags(write=False)
        tri_d, tri_y, tri_x = d[valid], y[valid], x_cyc[valid]

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

        # per-id pop_code (int8 Population code) and d, x_cyc, y of the
        # coincidence/disparity coordinate (0 on retina ids)
        self.pop_code = np.repeat(
            np.arange(len(Population), dtype=np.int8), [self.counts[p] for p in Population]
        )
        retina = np.zeros(2 * self.n_retina_per_side, dtype=np.int64)
        self.d, self.x_cyc, self.y = (np.concatenate([retina, np.tile(a, 2 * ch + 1)]) for a in (tri_d, tri_x, tri_y))
        for arr in (self.pop_code, self.d, self.x_cyc, self.y):
            arr.setflags(write=False)
        self._build_synapses(tri_d, tri_y, tri_x)

    # ---------------------------------------------------------- id algebra

    @functools.cached_property
    def syn_start(self) -> np.ndarray:
        """Where each neuron's efferent synapses start in the tables, which
        are sorted by pre: those of neuron ``i`` are rows
        ``syn_start[i]:syn_start[i + 1]``. Built on first use and checked
        once, with the post ids, for the compiled event loop, which indexes
        with both unchecked."""
        start = np.searchsorted(self.syn_pre, np.arange(self.n_neurons + 1))
        post = self.syn_post
        if start[0] != 0 or start[-1] != len(post) or np.any(np.diff(start) < 0):
            raise ValueError("malformed synapse table")
        if post.size and (post.min() < 0 or post.max() >= self.n_neurons):
            raise ValueError("synapse post id out of range")
        start.setflags(write=False)
        return start

    @functools.cached_property
    def twin_inputs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """How the inputs of the coincidence twins (COINC_EXC id ``e`` and
        COINC_INH id ``e + counts[COINC_EXC]``, pair ``k`` for the ``k``-th
        COINC_EXC id) pair up by structure alone: ``(synapses, pair_of,
        paired)``. Row ``j`` of ``synapses`` is (the ``j``-th synapse into
        COINC_EXC, the ``j``-th into COINC_INH), each in table (delivery)
        order, and ``pair_of[j]`` the pair its first ends at; the rows are
        empty where the two counts differ. ``paired[k]`` holds where every
        row at pair ``k`` ends at both its twins, shares the pre, a neuron
        without in-synapses, and the saturating flag. Built on first use."""
        exc = self.population_ids(Population.COINC_EXC)
        post, pre, sat = self.syn_post, self.syn_pre, self.syn_saturating
        into_e = np.flatnonzero((post >= exc[0]) & (post <= exc[-1]))
        into_i = np.flatnonzero((post >= exc[0] + len(exc)) & (post <= exc[-1] + len(exc)))
        paired = np.zeros(len(exc), dtype=bool)
        if len(into_e) == len(into_i):
            in_degree = np.bincount(post, minlength=self.n_neurons)
            match = (
                (post[into_e] + len(exc) == post[into_i]) & (pre[into_e] == pre[into_i])
                & (sat[into_e] == sat[into_i]) & (in_degree[pre[into_e]] == 0)
            )
            paired[:] = True
            paired[post[into_e[~match]] - exc[0]] = False
            paired[post[into_i[~match]] - exc[0] - len(exc)] = False
        else:
            into_e = into_i = into_e[:0]
        synapses, pair_of = np.stack([into_e, into_i], axis=1), post[into_e] - exc[0]
        for arr in (synapses, pair_of, paired):
            arr.setflags(write=False)
        return synapses, pair_of, paired

    def retina_ids(self, side, x, y, channel=0):
        """The id of each retina neuron at pixel ``(x, y)`` of ``channel``
        on ``side`` (0 left, 1 right), unchecked: the one spelling of the
        retina's id layout. Each argument is an int or an int64 array, so
        that no product overflows."""
        return side * self.n_retina_per_side + (channel * self.retina_height + y) * self.retina_width + x

    def id_of_retina(self, side: int, x: int, y: int, channel: int = 0) -> int:
        """``retina_ids`` of one pixel, checked; any side but 0 is the right."""
        if not (0 <= x < self.retina_width and 0 <= y < self.retina_height):
            raise KeyError(f"retina pixel ({x},{y}) out of range")
        if not 0 <= channel < self.n_channels:
            raise KeyError(f"retina channel {channel} out of range")
        return self.retina_ids(int(side != 0), x, y, channel)

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

    def _line_of_sight(self, y: np.ndarray, x: np.ndarray, side: int) -> np.ndarray:
        """Triplets with ``x_left == x`` (side 0) or ``x_right == x`` (side 1)
        in row ``y``: one row per query, ascending in d (so in id), -1 where
        the partner pixel lies outside the retina. Clipping only moves an
        ``x_cyc`` with ``d != 0`` onto the grid's edge, where ``|d| > 0``
        leaves no triplet."""
        d = np.arange(-self.d_max, self.d_max + 1)
        x_cyc = 2 * x[:, None] + (d if side == 0 else -d)
        return self._index[d + self.d_max, y[:, None], np.clip(x_cyc, 0, 2 * self.retina_width - 2)]

    def _build_synapses(self, tri_d: np.ndarray, tri_y: np.ndarray, tri_x: np.ndarray) -> None:
        """Each rule is a fan-out: one row of candidate triplets per pre
        neuron, -1 for none. ``_fan_out`` keeps the candidates in row-major
        order, and the blocks are concatenated in ascending pre id, so the
        tables come out sorted by pre, in delivery order."""
        wp, ch, n_tri = self.weights, self.n_channels, self.n_triplets
        exc, inh, disp = (self.offsets[p] for p in (Population.COINC_EXC, Population.COINC_INH, Population.DISPARITY))
        blocks: list[tuple[int, np.ndarray, np.ndarray]] = []  # (rule 0..3 for R1..R4, pre, post)

        # R1: retina -> coincidence (both copies), saturating synapses so an
        # arbitrary monocular train can never sum past one EPSP per side; a
        # pixel drives each triplet on its line of sight, excitatory copy first
        px_y, px_x = np.divmod(np.arange(self.retina_width * self.retina_height), self.retina_width)
        for side in (0, 1):
            px, tri = _fan_out(self._line_of_sight(px_y, px_x, side))
            for c in range(ch):
                pre = self.retina_ids(side, px_x[px], px_y[px], c)
                post = np.stack([exc + c * n_tri + tri, inh + c * n_tri + tri], axis=1)
                blocks.append((0, np.repeat(pre, 2), post.ravel()))

        # R3: excitatory coincidence -> every disparity neuron at the same
        # disparity and row (within the continuity radius when set)
        x_cyc = np.arange(2 * self.retina_width - 1)
        same_line = self._index[tri_d[:, None] + self.d_max, tri_y[:, None], x_cyc]
        if self.continuity_radius is not None:
            same_line[np.abs(x_cyc - tri_x[:, None]) > self.continuity_radius] = -1
        src, dst = _fan_out(same_line)
        blocks += [(2, exc + c * n_tri + src, disp + dst) for c in range(ch)]

        # R2: inhibitory coincidence -> every disparity neuron at the same
        # cyclopean position and row
        src, dst = _fan_out(self._index[:, tri_y, tri_x].T)
        blocks += [(1, inh + c * n_tri + src, disp + dst) for c in range(ch)]

        # R4: recurrent inhibition between disparity neurons sharing a line
        # of sight; the two line families partition the pairs (a pair can
        # share x_left or x_right, never both)
        tri_xl, tri_xr = (tri_x - tri_d) // 2, (tri_x + tri_d) // 2
        sight = np.hstack([self._line_of_sight(tri_y, tri_xl, 0), self._line_of_sight(tri_y, tri_xr, 1)])
        sight[sight == np.arange(n_tri)[:, None]] = -1
        src, dst = _fan_out(sight)
        blocks.append((3, disp + src, disp + dst))

        rule = np.concatenate([np.full(len(src), r, dtype=np.int8) for r, src, _ in blocks])
        self.syn_pre = np.concatenate([src for _, src, _ in blocks])
        self.syn_post = np.concatenate([dst for _, _, dst in blocks])
        self.syn_sign = np.array([EXC, INH, EXC, INH], dtype=np.int8)[rule]
        self.syn_weight = np.array([wp.w_rc, wp.w_ci, wp.w_ce, wp.w_dd], dtype=np.float64)[rule]
        self.syn_kind = np.array([FEEDFORWARD, FEEDFORWARD, FEEDFORWARD, RECURRENT], dtype=np.int8)[rule]
        self.syn_saturating = rule == 0
        for arr in (self.syn_pre, self.syn_post, self.syn_sign, self.syn_weight, self.syn_kind, self.syn_saturating):
            arr.setflags(write=False)

    @property
    def n_synapses(self) -> int:
        return len(self.syn_pre)

    def fan_in_counts(self) -> np.ndarray:
        return np.bincount(self.syn_post, minlength=self.n_neurons)

    # ---------------------------------------------------------- export

    def write_json(self, path: str) -> None:
        """Write the bytes of ``json.dumps(..., indent=1)`` of the header, the
        neuron table and the synapse table, each population's entries from
        one template filled with columns. The synapses of one presynaptic
        population follow one rule, so they share a sign, a weight and a
        kind."""
        head = json.dumps(
            {
                "retina_width": self.retina_width,
                "retina_height": self.retina_height,
                "d_max": self.d_max,
                "polarity_mode": self.polarity_mode,
                "continuity_radius": self.continuity_radius,
                "weights": {name: getattr(self.weights, name) for name in ("w_rc", "w_ce", "w_ci", "w_dd")},
                "populations": {p.name: int(self.counts[p]) for p in Population},
            },
            indent=1,
        )
        neurons: list[str] = []
        synapses: list[str] = []
        for p in Population:
            ids = self.population_ids(p)
            rel = ids - self.offsets[p]
            if p <= Population.RETINA_R:
                channel, pixel = np.divmod(rel, self.retina_width * self.retina_height)
                y, x = np.divmod(pixel, self.retina_width)
                fields, columns = ["x", "y"], [x, y]
            else:
                channel = rel // self.n_triplets
                fields, columns = ["x_cyc", "y", "d"], [self.x_cyc[ids], self.y[ids], self.d[ids]]
            if self.n_channels > 1 and p is not Population.DISPARITY:
                fields, columns = [*fields, "channel"], [*columns, channel]
            template = _entry(['"id": {}', f'"population": "{p.name}"'] + [f'"{f}": {{}}' for f in fields])
            neurons += map(template.format, ids.tolist(), *(c.tolist() for c in columns))

            lo, hi = self.syn_start[ids[0]], self.syn_start[ids[-1] + 1]
            if hi > lo:
                template = _entry([
                    '"pre": {}',
                    '"post": {}',
                    f'"sign": "{"EXC" if self.syn_sign[lo] > 0 else "INH"}"',
                    f'"weight": {json.dumps(float(self.syn_weight[lo]))}',
                    f'"kind": "{"RECURRENT" if self.syn_kind[lo] == RECURRENT else "FEEDFORWARD"}"',
                ])
                synapses += map(template.format, self.syn_pre[lo:hi].tolist(), self.syn_post[lo:hi].tolist())
        tables = ',\n "neurons": [\n' + ",\n".join(neurons) + '\n ],\n "synapses": [\n' + ",\n".join(synapses)
        atomic_write(path, head[:-2] + tables + "\n ]\n}\n")


def _entry(fields: list[str]) -> str:
    """The ``str.format`` template of one object of a list at ``indent=1``."""
    return "  {{\n   " + ",\n   ".join(fields) + "\n  }}"


def _fan_out(candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, candidate) of every entry >= 0 of a 2-D candidate matrix, in
    row-major order."""
    rows, cols = np.nonzero(candidates >= 0)
    return rows, candidates[rows, cols]


#: The most values of the largest array a topology build allocates, R3's
#: candidate matrix of ``n_triplets x (2W - 1)`` int64 values (128 MiB; a
#: build peaks near 850 MB at the cap, 1.3 GB with separated polarities).
MAX_CANDIDATES = 2**24


def triplet_count(retina_width: int, retina_height: int, d_max: int) -> int:
    """The match candidates ``(d, y, x_cyc)`` of a retina and band:
    ``H ((2 d_max + 1) W - d_max (d_max + 1))``."""
    return retina_height * ((2 * d_max + 1) * retina_width - d_max * (d_max + 1))


def candidate_count(retina_width: int, retina_height: int, d_max: int) -> int:
    """The values of R3's candidate matrix: ``n_triplets x (2W - 1)``."""
    return triplet_count(retina_width, retina_height, d_max) * (2 * retina_width - 1)


def check_topology(
    retina_width: int, retina_height: int, d_max: int, polarity_mode: str, continuity_radius: int | None
) -> None:
    """The checks of ``build_topology``'s arguments, weights aside; each
    message starts with the argument's name. A retina whose candidate matrix
    exceeds ``MAX_CANDIDATES`` is refused before anything is allocated."""
    if retina_width < 1:
        raise ValueError(f"retina_width must be >= 1, got {retina_width}")
    if retina_height < 1:
        raise ValueError(f"retina_height must be >= 1, got {retina_height}")
    if not 0 <= d_max <= retina_width - 1:
        raise ValueError(f"d_max must be in [0, {retina_width - 1}], got {d_max}")
    size = candidate_count(retina_width, retina_height, d_max)
    if size > MAX_CANDIDATES:
        raise ValueError(
            f"retina_width {retina_width} x retina_height {retina_height} with d_max {d_max} gives a candidate "
            f"matrix of {size} values, more than {MAX_CANDIDATES}"
        )
    if polarity_mode not in (RECTIFIED, SEPARATED):
        raise ValueError(f"polarity_mode must be {RECTIFIED!r} or {SEPARATED!r}, got {polarity_mode!r}")
    if continuity_radius is not None and continuity_radius < 0:
        raise ValueError(f"continuity_radius must be >= 0, got {continuity_radius}")


def build_topology(
    retina_width: int,
    retina_height: int,
    d_max: int,
    weights: WeightParams | None = None,
    polarity_mode: str = RECTIFIED,
    continuity_radius: int | None = None,
) -> Topology:
    check_topology(retina_width, retina_height, d_max, polarity_mode, continuity_radius)
    weights = weights or WeightParams()
    weights.validate()
    return Topology(retina_width, retina_height, d_max, weights, polarity_mode, continuity_radius)


def check_hardware_constraints(topology: Topology) -> ConstraintReport:
    """Count afferents per neuron and total (coincidence + disparity) neurons
    against ``MAX_FAN_IN`` and ``NEURON_BUDGET``. Advisory only: the simulator
    runs either way. Retina cells are camera pixels and do not consume neuron
    budget."""
    fan_in = topology.fan_in_counts()
    over = np.flatnonzero(fan_in > MAX_FAN_IN)
    n_on_chip = sum(
        topology.counts[p] for p in (Population.COINC_EXC, Population.COINC_INH, Population.DISPARITY)
    )
    return ConstraintReport(
        fan_in_ok=len(over) == 0,
        budget_ok=n_on_chip <= NEURON_BUDGET,
        max_fan_in_found=int(fan_in.max()) if len(fan_in) else 0,
        fan_in_limit=MAX_FAN_IN,
        violating_neurons=[int(i) for i in over],
        neuron_count=int(n_on_chip),
        neuron_budget=NEURON_BUDGET,
    )


def largest_feasible_d_max(
    retina_width: int, retina_height: int, polarity_mode: str, continuity_radius: int | None
) -> int | None:
    """Largest d_max whose network passes the hardware constraints, or None.
    Bands over ``MAX_CANDIDATES`` or ``NEURON_BUDGET`` are skipped by their
    closed-form counts. No synapse crosses rows and every row is the same,
    so the largest fan-in is that of a ``W`` x 1 build."""
    n_channels = 2 if polarity_mode == SEPARATED else 1
    for d_max in range(retina_width - 1, -1, -1):
        if (
            candidate_count(retina_width, retina_height, d_max) > MAX_CANDIDATES
            or (2 * n_channels + 1) * triplet_count(retina_width, retina_height, d_max) > NEURON_BUDGET
        ):
            continue
        row = build_topology(retina_width, 1, d_max, polarity_mode=polarity_mode, continuity_radius=continuity_radius)
        if row.fan_in_counts().max() <= MAX_FAN_IN:
            return d_max
    return None
