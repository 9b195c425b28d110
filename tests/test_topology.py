import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NeuronCoord,
    coord_of,
    disparity_coords,
    id_of,
    largest_feasible_d_max_reference,
    topology_json_reference,
)
from evstereo.topology import (
    EXC,
    FEEDFORWARD,
    INH,
    NEURON_BUDGET,
    RECURRENT,
    Population,
    WeightParams,
    build_topology,
    candidate_count,
    check_hardware_constraints,
    largest_feasible_d_max,
    triplet_count,
)


# ------------------------------------------------------------- coordinates

def test_coord_algebra_from_pair():
    c = NeuronCoord.from_pair(x_left=3, x_right=5, y=2)
    assert (c.x_cyc, c.d, c.y) == (8, 2, 2)
    assert (c.x_left, c.x_right) == (3, 5)


def test_coord_parity_enforced():
    with pytest.raises(ValueError, match="parity"):
        NeuronCoord(x_cyc=3, y=0, d=0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 15))
def test_pair_coordinate_bijection(xl, xr, y):
    c = NeuronCoord.from_pair(xl, xr, y)
    assert (c.x_left, c.x_right, c.y) == (xl, xr, y)


# ------------------------------------------------------------- counting

def brute_force_triplets(w, h, d_max):
    return [
        (xl, xr, y)
        for y in range(h)
        for xl in range(w)
        for xr in range(w)
        if abs(xr - xl) <= d_max
    ]


def test_counts_2x1_band1():
    # oracle: enumerate (x_l, x_r) pairs by brute force -> 4 triplets
    assert len(brute_force_triplets(2, 1, 1)) == 4
    topo = build_topology(2, 1, 1)
    assert topo.counts[Population.DISPARITY] == 4
    assert topo.counts[Population.COINC_EXC] + topo.counts[Population.COINC_INH] == 8


def test_counts_1x1_band0():
    topo = build_topology(1, 1, 0)
    assert topo.counts[Population.DISPARITY] == 1
    assert topo.counts[Population.COINC_EXC] == 1
    assert topo.counts[Population.COINC_INH] == 1
    # no distinct disparity pair shares a line of sight -> no recurrence
    assert not np.any(topo.syn_kind == RECURRENT)


def test_counts_16x16_full_band():
    # (x_l, x_r) pairs = retina_w^2 per row
    topo = build_topology(16, 16, 15)
    assert topo.counts[Population.DISPARITY] == 16 * 256
    assert topo.counts[Population.COINC_EXC] + topo.counts[Population.COINC_INH] == 8192


# ------------------------------------------------------------- id mapping

def test_id_coord_roundtrip_everywhere():
    topo = build_topology(4, 3, 2)
    for nid in range(topo.n_neurons):
        pop, coord, channel = coord_of(topo, nid)
        if pop in (Population.RETINA_L, Population.RETINA_R):
            side = 0 if pop is Population.RETINA_L else 1
            assert topo.id_of_retina(side, coord[0], coord[1], channel) == nid
        else:
            assert id_of(topo, pop, coord, channel) == nid


@pytest.mark.parametrize("mode", ["rectified", "separated"])
def test_per_id_arrays_match_coordinates(mode):
    topo = build_topology(5, 3, 2, polarity_mode=mode)
    for pop in Population:
        assert np.all(topo.pop_code[topo.population_ids(pop)] == pop)
    for nid in range(topo.population_ids(Population.COINC_EXC)[0], topo.n_neurons):
        _, c, _ = coord_of(topo, nid)
        assert (topo.d[nid], topo.x_cyc[nid], topo.y[nid]) == (c.d, c.x_cyc, c.y)
    d_id = int(topo.population_ids(Population.DISPARITY)[0])
    r_id = int(topo.population_ids(Population.RETINA_R)[-1])
    with pytest.raises(ValueError, match="retina"):
        topo.disparity_of_ids(np.array([d_id, r_id]))
    for bad in (-1, topo.n_neurons):
        with pytest.raises(KeyError):
            topo.disparity_of_ids(np.array([d_id, bad, r_id]))


def test_ids_sorted_by_disparity():
    topo = build_topology(16, 16, 15)
    first = coord_of(topo, int(topo.population_ids(Population.DISPARITY)[0]))[1]
    assert first.d == -15
    ids = topo.population_ids(Population.DISPARITY)
    ds = topo.disparity_of_ids(ids)
    assert np.all(np.diff(ds) >= 0)


def test_unknown_lookups_raise():
    topo = build_topology(2, 2, 1)
    with pytest.raises(KeyError):
        coord_of(topo, topo.n_neurons)
    with pytest.raises(KeyError):
        id_of(topo, Population.DISPARITY, NeuronCoord.from_pair(0, 5, 0))


# ------------------------------------------------------------- rules R1-R4

def rule_oracle(topo):
    """Independent O(N^2) evaluation of R1-R4 over all neuron pairs.

    Returns the set of (pre, post, sign, kind) demanded by the rules.
    """
    expected = set()
    n_ch = topo.n_channels
    coords = disparity_coords(topo)
    for idx_a, a in enumerate(coords):
        for ch in range(n_ch):
            ce = id_of(topo, Population.COINC_EXC, a, ch)
            ci = id_of(topo, Population.COINC_INH, a, ch)
            # R1: binocular retina drive into both copies
            for cid in (ce, ci):
                expected.add((topo.id_of_retina(0, a.x_left, a.y, ch), cid, EXC, FEEDFORWARD))
                expected.add((topo.id_of_retina(1, a.x_right, a.y, ch), cid, EXC, FEEDFORWARD))
            for idx_b, b in enumerate(coords):
                did = topo.offsets[Population.DISPARITY] + idx_b
                # R2: same cyclopean position and row
                if a.x_cyc == b.x_cyc and a.y == b.y:
                    expected.add((ci, did, INH, FEEDFORWARD))
                # R3: same disparity and row, within continuity radius
                if a.d == b.d and a.y == b.y:
                    if topo.continuity_radius is None or abs(a.x_cyc - b.x_cyc) <= topo.continuity_radius:
                        expected.add((ce, did, EXC, FEEDFORWARD))
    # R4: shared line of sight, same row, no self-connection
    d_off = topo.offsets[Population.DISPARITY]
    for i, a in enumerate(coords):
        for j, b in enumerate(coords):
            if i == j or a.y != b.y:
                continue
            if a.x_left == b.x_left or a.x_right == b.x_right:
                expected.add((d_off + i, d_off + j, INH, RECURRENT))
    return expected


@pytest.mark.parametrize(
    "w,h,d_max,mode,radius",
    [
        (2, 1, 1, "rectified", None),
        (3, 2, 2, "rectified", None),
        (4, 4, 3, "rectified", None),
        (4, 2, 2, "rectified", 2),
        (3, 2, 1, "separated", None),
        (1, 1, 0, "rectified", None),
        (4, 2, 3, "rectified", None),
        (4, 2, 3, "rectified", 0),
        (4, 3, 2, "separated", 0),
        (4, 3, 2, "separated", 1),
    ],
)
def test_rules_match_exhaustive_oracle(w, h, d_max, mode, radius):
    topo = build_topology(w, h, d_max, polarity_mode=mode, continuity_radius=radius)
    built = set(zip(topo.syn_pre.tolist(), topo.syn_post.tolist(), topo.syn_sign.tolist(), topo.syn_kind.tolist()))
    assert len(built) == topo.n_synapses  # no duplicate synapses
    assert not np.any(topo.syn_pre == topo.syn_post)  # no self-connections
    assert np.all(topo.syn_weight > 0)
    assert built == rule_oracle(topo)


@pytest.mark.parametrize("mode,radius", [("rectified", None), ("separated", 1)])
def test_synapses_stored_by_pre_in_delivery_order(mode, radius):
    """The simulator delivers each pre's synapses in stored order: ascending
    post triplet (for a retina pixel, the excitatory copy before the
    inhibitory one), and for a disparity pre its x_left family before its
    x_right family."""
    topo = build_topology(5, 3, 3, polarity_mode=mode, continuity_radius=radius)
    pre, post = topo.syn_pre, topo.syn_post
    assert np.all(np.diff(pre) >= 0)
    triplet = (post - topo.offsets[Population.COINC_EXC]) % topo.n_triplets
    x_left2 = topo.x_cyc - topo.d  # 2 * x_left per id
    starts = np.searchsorted(pre, np.arange(topo.n_neurons + 1))
    for p in range(topo.n_neurons):
        lo, hi = starts[p], starts[p + 1]
        pop = topo.pop_code[p]
        if pop <= Population.RETINA_R:
            keys = list(zip(triplet[lo:hi].tolist(), topo.pop_code[post[lo:hi]].tolist()))
            assert keys == sorted(set(keys)), p
        elif pop == Population.DISPARITY:
            shares_left = x_left2[post[lo:hi]] == x_left2[p]
            n_left = int(shares_left.sum())
            assert shares_left[:n_left].all(), p
            for family in (post[lo:lo + n_left], post[lo + n_left:hi]):
                assert np.all(np.diff(family) > 0), p
        else:
            assert np.all(np.diff(post[lo:hi]) > 0), p


def test_every_coincidence_has_two_retina_afferents():
    topo = build_topology(4, 3, 3)
    retina_max = topo.offsets[Population.COINC_EXC]
    from_retina = topo.syn_pre < retina_max
    counts = np.bincount(topo.syn_post[from_retina], minlength=topo.n_neurons)
    for pop in (Population.COINC_EXC, Population.COINC_INH):
        assert np.all(counts[topo.population_ids(pop)] == 2)


def test_recurrent_inhibition_is_symmetric():
    topo = build_topology(4, 2, 3)
    rec = topo.syn_kind == RECURRENT
    pairs = set(zip(topo.syn_pre[rec].tolist(), topo.syn_post[rec].tolist()))
    assert all((b, a) in pairs for a, b in pairs)


def test_no_synapse_crosses_rows():
    topo = build_topology(4, 3, 2)

    def row_of(nid):
        pop, coord, _ = coord_of(topo, nid)
        return coord[1] if isinstance(coord, tuple) else coord.y

    for pre, post in zip(topo.syn_pre.tolist(), topo.syn_post.tolist()):
        assert row_of(pre) == row_of(post)


def test_weights_assigned_per_rule():
    w = WeightParams(w_rc=0.7, w_ce=0.3, w_ci=0.35, w_dd=0.5)
    topo = build_topology(3, 1, 2, weights=w)
    retina_max = topo.offsets[Population.COINC_EXC]
    d_off = topo.offsets[Population.DISPARITY]
    columns = (topo.syn_pre, topo.syn_sign, topo.syn_weight, topo.syn_kind)
    for pre, sign, weight, kind in zip(*(c.tolist() for c in columns)):
        if pre < retina_max:
            assert weight == w.w_rc and sign == EXC
        elif kind == RECURRENT:
            assert weight == w.w_dd and sign == INH
        elif pre >= topo.offsets[Population.COINC_INH] and pre < d_off:
            assert weight == w.w_ci and sign == INH
        else:
            assert weight == w.w_ce and sign == EXC


# ------------------------------------------------------------- hardware check

def test_hardware_check_singleton_passes():
    topo = build_topology(1, 1, 0)
    report = check_hardware_constraints(topo)
    assert report.passed
    assert report.max_fan_in_found <= 2


def test_hardware_check_full_16x16():
    # the densest disparity neuron collects 16 inhibitory C + 15 excitatory C
    # + 30 recurrent = 61 <= 64 (a full 16-entry cyclopean column and a full
    # 16-entry disparity line cannot coincide: x_cyc=15 is odd, d=0 is even),
    # and the population exceeds the 3*4*256 = 3072 neuron budget
    topo = build_topology(16, 16, 15)
    report = check_hardware_constraints(topo)
    assert report.max_fan_in_found == 61
    assert report.fan_in_ok
    assert not report.budget_ok
    assert report.neuron_count == 8192 + 4096
    assert report.neuron_budget == 3072
    assert not report.passed


def test_fan_in_matches_exhaustive_count():
    topo = build_topology(4, 2, 3)
    fan_in = topo.fan_in_counts()
    brute = np.zeros(topo.n_neurons, dtype=int)
    for post in topo.syn_post.tolist():
        brute[post] += 1
    assert np.array_equal(fan_in, brute)


def test_largest_feasible_d_max_search():
    best = largest_feasible_d_max(16, 16, "rectified", None)
    assert best is not None
    assert check_hardware_constraints(build_topology(16, 16, best)).passed
    if best < 15:
        assert not check_hardware_constraints(build_topology(16, 16, best + 1)).passed


@pytest.mark.parametrize("mode", ["rectified", "separated"])
@pytest.mark.parametrize("radius", [None, 0, 1, 3])
def test_largest_feasible_d_max_equals_the_full_build_search(mode, radius):
    # every shape up to 12x4, where fan-in binds only when separated, and
    # three larger ones where the neuron budget and the row's fan-in bind
    shapes = [(w, h) for w in range(1, 13) for h in range(1, 5)] + [(16, 16), (30, 2), (20, 3)]
    for w, h in shapes:
        assert largest_feasible_d_max(w, h, mode, radius) == largest_feasible_d_max_reference(w, h, mode, radius)


# ------------------------------------------------------------- validation

def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_topology(0, 1, 0)
    with pytest.raises(ValueError):
        build_topology(4, 4, 4)
    with pytest.raises(ValueError):
        build_topology(4, 4, -1)
    with pytest.raises(ValueError):
        build_topology(4, 4, 2, polarity_mode="other")


@pytest.mark.parametrize("w,h,d_max", [(1, 1, 0), (2, 1, 1), (5, 3, 2), (8, 4, 7), (16, 16, 7), (16, 16, 15)])
def test_candidate_count_is_the_size_of_r3s_candidate_matrix(w, h, d_max):
    topo = build_topology(w, h, d_max)
    assert candidate_count(w, h, d_max) == topo.n_triplets * (2 * w - 1)


def test_build_refuses_a_candidate_matrix_beyond_the_cap(monkeypatch):
    from evstereo import topology

    monkeypatch.setattr(topology, "MAX_CANDIDATES", candidate_count(16, 16, 5))
    build_topology(16, 16, 5)
    monkeypatch.setattr(topology, "Topology", None)  # nothing is built beyond the cap
    with pytest.raises(ValueError, match=r"^retina_width 16 x retina_height 16 with d_max 6 gives a candidate matrix"):
        build_topology(16, 16, 6)


@pytest.mark.parametrize(
    "w,h,mode,radius,cap_d_max,expected",
    [
        (16, 16, "separated", None, None, 0),  # the neuron budget binds
        (32, 32, "rectified", None, None, 0),  # d_max 0 fills the budget exactly
        (30, 2, "separated", None, None, 0),  # the fan-in binds
        (30, 2, "rectified", 2, None, 9),
        (30, 2, "rectified", 2, 7, 7),  # the candidate cap binds
    ],
)
def test_largest_feasible_d_max_builds_one_row_within_the_cap_and_the_budget(
    monkeypatch, w, h, mode, radius, cap_d_max, expected
):
    from evstereo import topology

    built = []

    def build(*args, **kwargs):
        built.append((*args, kwargs))
        return build_topology(*args, **kwargs)

    if cap_d_max is not None:
        monkeypatch.setattr(topology, "MAX_CANDIDATES", candidate_count(w, h, cap_d_max))
    monkeypatch.setattr(topology, "build_topology", build)
    assert largest_feasible_d_max(w, h, mode, radius) == expected
    assert built
    n_channels = 2 if mode == "separated" else 1
    for bw, bh, d_max, kwargs in built:
        assert (bw, bh) == (w, 1)
        assert kwargs == {"polarity_mode": mode, "continuity_radius": radius}
        assert candidate_count(w, h, d_max) <= topology.MAX_CANDIDATES
        assert (2 * n_channels + 1) * triplet_count(w, h, d_max) <= NEURON_BUDGET


def test_separated_mode_doubles_retina_and_coincidence():
    base = build_topology(3, 2, 1)
    sep = build_topology(3, 2, 1, polarity_mode="separated")
    assert sep.counts[Population.RETINA_L] == 2 * base.counts[Population.RETINA_L]
    assert sep.counts[Population.COINC_EXC] == 2 * base.counts[Population.COINC_EXC]
    assert sep.counts[Population.DISPARITY] == base.counts[Population.DISPARITY]


@pytest.mark.parametrize(
    "w,h,d_max,mode,radius,weights",
    [
        (8, 4, 5, "rectified", None, None),
        (8, 4, 5, "separated", None, None),
        (8, 3, 5, "rectified", 2, None),
        (5, 1, 4, "separated", 1, None),
        (1, 1, 0, "rectified", None, None),
        (4, 2, 3, "separated", None, WeightParams(w_rc=1, w_ce=0.1 + 0.2, w_ci=float("inf"), w_dd=float("nan"))),
    ],
)
def test_write_json_bytes_equal_the_per_element_reference(tmp_path, w, h, d_max, mode, radius, weights):
    topo = build_topology(w, h, d_max, weights, polarity_mode=mode, continuity_radius=radius)
    topo.write_json(str(tmp_path / "topology.json"))
    expected = json.dumps(topology_json_reference(topo), indent=1) + "\n"
    assert (tmp_path / "topology.json").read_bytes() == expected.encode()
