from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import random_fractional_x
from datagen import random_instance

from welfair.errors import FlowError, InfeasibleFlowError, InternalInvariantError
from welfair.metrics import pairwise_pow
from welfair import rounding
from welfair.model import Instance, Params
from welfair.rounding import (
    FlowNetwork,
    _extract,
    _floor_ceil,
    build_rawlsian_networks,
    build_utilitarian_network,
    has_negative_cycle,
    min_cost_flow,
    rawlsian_round,
    snap_mass,
    split_support,
    utilitarian_round,
)


def _case(n=20, k=3, H=2, seed=0, delta=0.1, lam=0.5):
    inst = random_instance(n, 2, H, seed)
    params = Params.with_delta(inst, k, lam, delta)
    rng = np.random.default_rng(seed + 7)
    centers = inst.features[rng.choice(n, size=k, replace=False)]
    dist = pairwise_pow(inst.features, centers, params.p)
    x = random_fractional_x(k, n, rng)
    return inst, params, dist, x


def _lp_flow_cost(net: FlowNetwork) -> float:
    """Independent minimum-cost-flow value via the network LP (its constraint
    matrix is totally unimodular, so the LP optimum is the integral one)."""
    V, E = net.num_nodes, len(net.tail)
    A = np.zeros((V, E))
    for a in range(E):
        A[net.head[a], a] += 1.0
        A[net.tail[a], a] -= 1.0
    res = linprog(
        net.cost,
        A_eq=A,
        b_eq=net.demand.astype(float),
        bounds=[(0.0, float(c)) for c in net.cap],
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


class TestSnapping:
    def test_snap_mass(self):
        assert snap_mass(2.9999999995) == 3.0
        assert snap_mass(3.0000000004) == 3.0
        assert snap_mass(2.5) == 2.5
        assert snap_mass(-1e-10) == 0.0

    def test_floor_ceil(self):
        assert _floor_ceil(2.9999999995) == (3, 3)
        assert _floor_ceil(2.5) == (2, 3)
        assert _floor_ceil(3.0) == (3, 3)
        assert _floor_ceil(-1e-10) == (0, 0)
        assert _floor_ceil(0.4) == (0, 1)


class TestNetworkConstruction:
    def test_rawlsian_hand_case(self):
        inst = random_instance(6, 2, 2, seed=1)
        inst.colors[:] = [0, 0, 0, 1, 1, 1]
        params = Params.with_delta(inst, 2, 0.5)
        dist = np.ones((6, 2))
        x = np.array(
            [
                [0.5, 1.0, 0.0, 1.0, 1.0, 0.5],
                [0.5, 0.0, 1.0, 0.0, 0.0, 0.5],
            ]
        )
        nets = build_rawlsian_networks(x, inst, params, dist, split_support(x, inst))
        assert len(nets) == 2
        # color 0: mass [1.5, 1.5] -> floors [1, 1], ceils [2, 2]; points 1
        # and 2 are fixed to centers 0 and 1, so only point 0 is a node and
        # the colcenter floors drop to [0, 0]; the sink takes 3 - 2 = 1
        net0 = nets[0]
        assert net0.num_nodes == 1 + 2 + 1
        assert net0.node_labels == [
            ("point", 0), ("colcenter", 0, 0), ("colcenter", 1, 0), ("sink", 0)
        ]
        assert net0.demand.tolist() == [-1, 0, 0, 1]
        assert net0.tail.tolist() == [0, 0, 1, 2]
        assert net0.head.tolist() == [1, 2, 3, 3]
        assert net0.cap.tolist() == [1, 1, 1, 1]
        assert net0.arc_point.tolist() == [0, 0, -1, -1]
        assert net0.arc_center.tolist() == [0, 1, -1, -1]
        # color 1: mass [2.5, 0.5] -> floors [2, 0]; points 3 and 4 are fixed
        # to center 0, leaving point 5 and floors [0, 0]; sink 3 - 2 = 1
        net1 = nets[1]
        assert net1.node_labels == [
            ("point", 5), ("colcenter", 0, 1), ("colcenter", 1, 1), ("sink", 1)
        ]
        assert net1.demand.tolist() == [-1, 0, 0, 1]
        assert net1.cap[net1.arc_point < 0].tolist() == [1, 1]
        assert net1.arc_point.tolist() == [5, 5, -1, -1]

    def test_integral_mass_has_zero_slack_caps(self):
        inst = random_instance(6, 2, 2, seed=1)
        inst.colors[:] = [0, 0, 0, 1, 1, 1]
        params = Params.with_delta(inst, 2, 0.5)
        dist = np.ones((6, 2))
        x = np.zeros((2, 6))
        x[0, :3] = 1.0
        x[1, 3:] = 1.0
        nets = build_rawlsian_networks(x, inst, params, dist, split_support(x, inst))
        for net in nets:
            slack = net.cap[net.arc_point < 0]
            assert slack.tolist() == [0, 0]

    def test_near_integral_mass_snaps(self):
        # masses a hair off integers must floor/ceil to the integer itself
        inst = random_instance(4, 2, 2, seed=2)
        inst.colors[:] = [0, 0, 1, 1]
        params = Params.with_delta(inst, 2, 0.5)
        dist = np.ones((4, 2))
        eps = 2.5e-10
        x = np.array(
            [
                [1.0 - eps, 1.0 + eps, 0.5, 0.5],
                [eps, -0.0, 0.5, 0.5],
            ]
        )
        x = np.abs(x)
        nets = build_rawlsian_networks(x, inst, params, dist, split_support(x, inst))
        # color 0: mass [2, eps] snaps to floors = ceils = [2, 0]; point 1 is
        # fixed to center 0, so the one point node leaves floors [1, 0]
        net0 = nets[0]
        assert net0.node_labels[0] == ("point", 0)
        assert net0.demand.tolist() == [-1, 1, 0, 0]
        assert net0.cap[net0.arc_point < 0].tolist() == [0, 0]

    def test_utilitarian_layers(self):
        # groups of 9 and 3 points, so the 1/n_h arc costs differ
        inst, params, dist, x = _case(n=12, k=2, H=2, seed=4)
        net = build_utilitarian_network(x, inst, params, dist, split_support(x, inst))
        n, k, H = 12, 2, 2
        # the expected layout, written out point by point
        npos = [int((x[:, j] > 0).sum()) for j in range(n)]
        frac = [j for j in range(n) if npos[j] > 1]
        assert 0 < len(frac) < n
        m = len(frac)
        col_lo = np.zeros((k, H), dtype=np.int64)
        col_hi = np.zeros((k, H), dtype=np.int64)
        rest = np.zeros((k, H), dtype=np.int64)
        for i in range(k):
            for h in range(H):
                mass = float(x[i, inst.colors == h].sum())
                col_lo[i, h], col_hi[i, h] = _floor_ceil(mass)
                fixed = sum(
                    1 for j in range(n)
                    if npos[j] == 1 and x[i, j] > 0 and inst.colors[j] == h
                )
                rest[i, h] = col_lo[i, h] - fixed
        clu = [_floor_ceil(float(x[i].sum())) for i in range(k)]
        assert net.num_nodes == m + k * H + k + 1
        assert net.node_labels == (
            [("point", j) for j in frac]
            + [("colcenter", i, h) for i in range(k) for h in range(H)]
            + [("center", i) for i in range(k)]
            + [("sink",)]
        )
        assert net.demand.tolist() == (
            [-1] * m
            + [int(rest[i, h]) for i in range(k) for h in range(H)]
            + [int(clu[i][0] - col_lo[i].sum()) for i in range(k)]
            + [n - sum(int(lo) for lo, _ in clu)]
        )
        slack = net.arc_point < 0
        assert net.tail[slack].tolist() == list(range(m, m + k * H + k))
        assert net.cap[slack].tolist() == (
            [int(col_hi[i, h] - col_lo[i, h]) for i in range(k) for h in range(H)]
            + [int(hi - lo) for lo, hi in clu]
        )
        want = [(j, i) for i in range(k) for j in frac if x[i, j] > 0]
        got = list(zip(net.arc_point[~slack].tolist(), net.arc_center[~slack].tolist()))
        assert got == want
        assert inst.counts.tolist() == [9, 3]
        assert net.cost[~slack].tolist() == [
            dist[j, i] / inst.counts[inst.colors[j]] for j, i in want
        ]
        assert net.cost[slack].tolist() == [0.0] * (k * H + k)

    def test_validate_rejects_imbalance(self):
        net = FlowNetwork(
            num_nodes=2,
            demand=np.array([-1, 2]),
            tail=np.array([0]),
            head=np.array([1]),
            cap=np.array([1]),
            cost=np.array([0.0]),
            node_labels=[("a",), ("b",)],
            arc_point=np.array([-1]),
            arc_center=np.array([-1]),
        )
        with pytest.raises(FlowError):
            net.validate()

    def test_validate_rejects_big_cap(self):
        net = FlowNetwork(
            num_nodes=2,
            demand=np.array([-1, 1]),
            tail=np.array([0]),
            head=np.array([1]),
            cap=np.array([2]),
            cost=np.array([0.0]),
            node_labels=[("a",), ("b",)],
            arc_point=np.array([-1]),
            arc_center=np.array([-1]),
        )
        with pytest.raises(FlowError):
            net.validate()

    def test_dump_format(self):
        inst, params, dist, x = _case(n=8, k=2, H=2, seed=4)
        net = build_utilitarian_network(x, inst, params, dist, split_support(x, inst))
        lines = net.dump().splitlines()
        assert lines[0] == f"nodes {net.num_nodes}"
        assert lines[1 + net.num_nodes] == f"arcs {len(net.tail)}"
        first_arc = lines[2 + net.num_nodes].split()
        assert len(first_arc) == 4
        assert float(first_arc[3]) == net.cost[0]


class TestMinCostFlow:
    def test_hand_network_against_networkx(self):
        nx = pytest.importorskip("networkx")
        net = FlowNetwork(
            num_nodes=4,
            demand=np.array([-2, 0, 0, 2]),
            tail=np.array([0, 0, 1, 2, 0]),
            head=np.array([1, 2, 3, 3, 3]),
            cap=np.array([1, 1, 1, 1, 1]),
            cost=np.array([1.0, 3.0, 1.0, 1.0, 10.0]),
            node_labels=[("v", i) for i in range(4)],
            arc_point=np.full(5, -1),
            arc_center=np.full(5, -1),
        )
        res = min_cost_flow(net)
        assert res.cost == 6.0
        g = nx.DiGraph()
        for v in range(4):
            g.add_node(v, demand=int(net.demand[v]))
        for a in range(5):
            g.add_edge(
                int(net.tail[a]),
                int(net.head[a]),
                capacity=int(net.cap[a]),
                weight=int(net.cost[a]),
            )
        want, _ = nx.network_simplex(g)
        assert res.cost == want

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lp_value(self, seed):
        inst, params, dist, x = _case(n=16, k=3, H=2, seed=seed)
        support = split_support(x, inst)
        for net in build_rawlsian_networks(x, inst, params, dist, support):
            res = min_cost_flow(net)
            assert res.cost == pytest.approx(_lp_flow_cost(net), abs=1e-8)
        net = build_utilitarian_network(x, inst, params, dist, support)
        res = min_cost_flow(net)
        assert res.cost == pytest.approx(_lp_flow_cost(net), abs=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_no_negative_residual_cycle(self, seed):
        inst, params, dist, x = _case(n=14, k=3, H=3, seed=100 + seed)
        net = build_utilitarian_network(x, inst, params, dist, split_support(x, inst))
        res = min_cost_flow(net)
        assert not has_negative_cycle(net, res.flow)

    def test_flow_conservation(self):
        inst, params, dist, x = _case(n=18, k=3, H=2, seed=12)
        net = build_utilitarian_network(x, inst, params, dist, split_support(x, inst))
        fl = min_cost_flow(net).flow
        inflow = np.zeros(net.num_nodes, dtype=np.int64)
        np.add.at(inflow, net.head, fl)
        np.subtract.at(inflow, net.tail, fl)
        np.testing.assert_array_equal(inflow, net.demand)
        assert np.all(fl >= 0) and np.all(fl <= net.cap)

    def test_infeasible_raises(self):
        net = FlowNetwork(
            num_nodes=2,
            demand=np.array([-1, 1]),
            tail=np.zeros(0, dtype=np.int64),
            head=np.zeros(0, dtype=np.int64),
            cap=np.zeros(0, dtype=np.int64),
            cost=np.zeros(0),
            node_labels=[("a",), ("b",)],
            arc_point=np.zeros(0, dtype=np.int64),
            arc_center=np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(InfeasibleFlowError):
            min_cost_flow(net)

    def test_negative_cycle_detector_positive_case(self):
        net = FlowNetwork(
            num_nodes=2,
            demand=np.array([0, 0]),
            tail=np.array([0, 1]),
            head=np.array([1, 0]),
            cap=np.array([1, 1]),
            cost=np.array([-1.0, 0.0]),
            node_labels=[("a",), ("b",)],
            arc_point=np.full(2, -1),
            arc_center=np.full(2, -1),
        )
        assert has_negative_cycle(net, np.zeros(2, dtype=np.int64))


class TestRoundingBounds:
    """Integral masses stay within floor/ceil of the fractional masses, and
    per-network distance cost never exceeds the fractional cost."""

    @pytest.mark.parametrize("seed", range(8))
    def test_rawlsian(self, seed):
        inst, params, dist, x = _case(
            n=24, k=4, H=3, seed=seed, lam=[0.2, 0.5, 0.9][seed % 3]
        )
        out = rawlsian_round(x, inst, params, dist)
        counts = inst.counts
        for h in range(inst.num_colors):
            jh = np.nonzero(inst.colors == h)[0]
            mass = x[:, jh].sum(axis=1)
            frac_cost = float((x[:, jh] * dist[jh, :].T).sum()) / counts[h]
            int_cost = 0.0
            for i in range(params.k):
                lo, hi = _floor_ceil(mass[i])
                assert lo <= out.color_mass[i, h] <= hi
            sel = out.assignment[jh]
            int_cost = float(dist[jh, sel].sum()) / counts[h]
            assert int_cost <= frac_cost + 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_utilitarian(self, seed):
        inst, params, dist, x = _case(
            n=24, k=4, H=3, seed=50 + seed, lam=[0.2, 0.5, 0.9][seed % 3]
        )
        out = utilitarian_round(x, inst, params, dist)
        counts = inst.counts
        frac_cost = 0.0
        for h in range(inst.num_colors):
            jh = np.nonzero(inst.colors == h)[0]
            mass = x[:, jh].sum(axis=1)
            frac_cost += float((x[:, jh] * dist[jh, :].T).sum()) / counts[h]
            for i in range(params.k):
                lo, hi = _floor_ceil(mass[i])
                assert lo <= out.color_mass[i, h] <= hi
        for i in range(params.k):
            lo, hi = _floor_ceil(float(x[i].sum()))
            assert lo <= out.cluster_sizes[i] <= hi
        int_cost = float(
            (dist[np.arange(inst.n), out.assignment] / counts[inst.colors]).sum()
        )
        assert int_cost <= frac_cost + 1e-9

    def test_every_point_assigned_once(self):
        inst, params, dist, x = _case(n=30, k=3, H=2, seed=77)
        for rounder in (rawlsian_round, utilitarian_round):
            out = rounder(x, inst, params, dist)
            assert np.all(out.assignment >= 0)
            assert np.all(out.assignment < params.k)
            assert int(out.cluster_sizes.sum()) == inst.n
            recount = np.zeros((params.k, inst.num_colors), dtype=np.int64)
            np.add.at(recount, (out.assignment, inst.colors), 1)
            np.testing.assert_array_equal(recount, out.color_mass)

    def test_integral_input_is_fixed_point(self):
        # one-hot x rounds to itself
        inst, params, dist, _ = _case(n=16, k=3, H=2, seed=5)
        rng = np.random.default_rng(9)
        assign = rng.integers(0, params.k, size=inst.n)
        x = np.zeros((params.k, inst.n))
        x[assign, np.arange(inst.n)] = 1.0
        for rounder in (rawlsian_round, utilitarian_round):
            out = rounder(x, inst, params, dist)
            np.testing.assert_array_equal(out.assignment, assign)

    def test_deterministic(self):
        inst, params, dist, x = _case(n=26, k=3, H=3, seed=13)
        a = rawlsian_round(x, inst, params, dist)
        b = rawlsian_round(x, inst, params, dist)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        c = utilitarian_round(x, inst, params, dist)
        d = utilitarian_round(x, inst, params, dist)
        np.testing.assert_array_equal(c.assignment, d.assignment)

    def test_objective_matches_report_kind(self):
        inst, params, dist, x = _case(n=20, k=3, H=2, seed=21)
        from welfair.metrics import report_from_distances

        ra = rawlsian_round(x, inst, params, dist)
        rep = report_from_distances(inst, params, dist, ra.assignment)
        assert ra.objective == pytest.approx(rep.R)
        ua = utilitarian_round(x, inst, params, dist)
        rep = report_from_distances(inst, params, dist, ua.assignment)
        assert ua.objective == pytest.approx(rep.U)


class TestExtractGuards:
    def test_unassigned_point_detected(self):
        inst, params, dist, x = _case(n=10, k=2, H=2, seed=6)
        nets = build_rawlsian_networks(x, inst, params, dist, split_support(x, inst))
        zero_flows = [np.zeros(len(net.tail), dtype=np.int64) for net in nets]
        with pytest.raises(InternalInvariantError, match="unassigned"):
            _extract(
                nets, zero_flows, split_support(x, inst).assignment,
                inst, params, dist, "rawlsian",
            )

    def test_fixed_point_routed_again_detected(self):
        inst, params, dist, x = _case(n=10, k=2, H=2, seed=6)
        nets = build_rawlsian_networks(x, inst, params, dist, split_support(x, inst))
        flows = [min_cost_flow(net).flow for net in nets]
        prefilled = split_support(x, inst).assignment
        j = int(nets[0].arc_point[0])  # a fractional point
        prefilled[j] = 0
        with pytest.raises(InternalInvariantError, match="routed twice"):
            _extract(nets, flows, prefilled, inst, params, dist, "rawlsian")

    @pytest.mark.parametrize(
        "rounder, share, what",
        [
            (rawlsian_round, 0.99, "(cluster, color) mass"),
            (utilitarian_round, 0.99, "(cluster, color) mass"),
            (utilitarian_round, 0.6, "cluster size"),
        ],
    )
    def test_mass_outside_floor_ceil_raises(self, rounder, share, what, monkeypatch):
        # networks built from other masses than the rounder's x: the flow is
        # feasible, but what it rounds leaves x's floor/ceil. Under x every
        # (cluster, color) mass is 1.5 (floor 1, ceil 2) and every cluster
        # size 3; under the skewed x the cheap center 0 gets 3 points of
        # each color at share 0.99, and 2 (size 4) at share 0.6
        inst = random_instance(6, 2, 2, seed=1)
        inst.colors[:] = [0, 0, 0, 1, 1, 1]
        params = Params.with_delta(inst, 2, 0.5)
        dist = np.zeros((6, 2))
        dist[:, 1] = 1.0
        x = np.full((2, 6), 0.5)
        skewed = np.array([[share] * 6, [1.0 - share] * 6])
        for name in ("build_rawlsian_networks", "build_utilitarian_network"):
            build = getattr(rounding, name)
            monkeypatch.setattr(
                rounding,
                name,
                lambda _x, inst, params, dist, _s, _b=build: _b(
                    skewed, inst, params, dist, split_support(skewed, inst)
                ),
            )
        with pytest.raises(InternalInvariantError, match=re.escape(f"rounded {what}")):
            rounder(x, inst, params, dist)


def _transport_optimum(x, inst, dist, kind):
    """Independent rounding optimum: the transportation LP over every point,
    with an arc where x > 0 and each (cluster, color) mass, and for the joint
    rounding each cluster size, within floor/ceil of its fractional mass. Its
    constraint matrix is totally unimodular, so the optimum is integral."""
    k, n = x.shape
    arcs = [(i, j) for i in range(k) for j in range(n) if x[i, j] > 0]
    cost = [dist[j, i] / inst.counts[inst.colors[j]] for i, j in arcs]
    A_eq = np.zeros((n, len(arcs)))
    for a, (_, j) in enumerate(arcs):
        A_eq[j, a] = 1.0
    groups = [
        lambda i, j, h=h: inst.colors[j] == h for h in range(inst.num_colors)
    ]
    if kind == "utilitarian":
        groups.append(lambda i, j: True)
    A_ub, b_ub = [], []
    for i in range(k):
        for member in groups:
            row = np.array(
                [1.0 if ii == i and member(ii, j) else 0.0 for ii, j in arcs]
            )
            mass = sum(x[i, j] for j in range(n) if member(i, j))
            lo, hi = _floor_ceil(float(mass))
            A_ub += [row, -row]
            b_ub += [float(hi), -float(lo)]
    res = linprog(
        cost, A_ub=np.array(A_ub), b_ub=b_ub, A_eq=A_eq, b_eq=np.ones(n),
        bounds=(0.0, 1.0), method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    H=st.integers(2, 4),
    k=st.integers(2, 5),
    n=st.integers(8, 24),
    one_hot=st.floats(0.0, 1.0),
    kind=st.sampled_from(["rawlsian", "utilitarian"]),
)
def test_restricted_rounding_matches_transportation_lp(seed, H, k, n, one_hot, kind):
    # rounding over the fractional support alone reaches the optimum of the
    # rounding problem over all n points, and fixed points keep their center
    rng = np.random.default_rng(seed)
    # uneven group sizes, so the 1/n_h arc costs differ between colors
    share = rng.dirichlet(np.ones(H))
    colors = np.concatenate([np.arange(H), rng.choice(H, size=n - H, p=share)])
    rng.shuffle(colors)
    inst = Instance(rng.normal(size=(n, 2)), colors, [f"g{h}" for h in range(H)])
    dist = rng.random((n, k))
    x = random_fractional_x(k, n, rng)
    hot = np.nonzero(rng.random(n) < one_hot)[0]
    x[:, hot] = 0.0
    x[rng.integers(0, k, size=len(hot)), hot] = 1.0
    params = Params.with_delta(inst, k, 0.5)
    rounder = rawlsian_round if kind == "rawlsian" else utilitarian_round
    out = rounder(x, inst, params, dist)
    single = (x > 0).sum(axis=0) == 1
    np.testing.assert_array_equal(
        out.assignment[single], np.argmax(x[:, single] > 0, axis=0)
    )
    got = float((dist[np.arange(n), out.assignment] / inst.counts[inst.colors]).sum())
    assert got == pytest.approx(_transport_optimum(x, inst, dist, kind), abs=1e-9)
