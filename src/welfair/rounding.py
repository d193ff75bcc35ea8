"""Min-cost-flow rounding of fractional assignments.

A point whose LP column has a single positive entry can only go to that
center, so it is fixed before any network is built (`split_support`); an LP
vertex leaves few other points. The networks hold only those fractional
points plus O(kH) nodes: one network per color for the min-max objective
(colors round independently), a single layered network for the sum objective.
Node demands carry the floor of each fractional mass, less the fixed points
it already holds, and slack arcs carry ceil - floor, so the integral masses
stay inside [floor, ceil] exactly; both rounders check that at the end.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import FlowError, InfeasibleFlowError, InternalInvariantError
from .metrics import report_from_distances
from .model import Instance, Params

_MASS_EPS = 1e-9


def snap_mass(v, eps: float = _MASS_EPS):
    """Treat a mass within eps of an integer as that integer (elementwise)."""
    v = np.asarray(v, dtype=np.float64)
    r = np.round(v)
    return np.where(np.abs(v - r) <= eps, r, v)


def _floor_ceil(v):
    """Floor and ceil of a snapped mass, or of each mass in an array."""
    s = snap_mass(v)
    return np.floor(s).astype(np.int64), np.ceil(s).astype(np.int64)


@dataclass
class FlowNetwork:
    """Directed network with node demands b(v) (net required inflow)."""

    num_nodes: int
    demand: np.ndarray
    tail: np.ndarray
    head: np.ndarray
    cap: np.ndarray
    cost: np.ndarray
    node_labels: list[tuple]
    arc_point: np.ndarray        # global point index of a point arc, else -1
    arc_center: np.ndarray       # center index of a point arc, else -1

    def validate(self) -> None:
        if int(self.demand.sum()) != 0:
            raise FlowError("node demands do not balance")
        if self.cap.size and (self.cap.min() < 0 or self.cap.max() > 1):
            raise FlowError("arc capacities must be 0 or 1")

    def dump(self) -> str:
        out = [f"nodes {self.num_nodes}"]
        for v in range(self.num_nodes):
            out.append(f"{v} {int(self.demand[v])}")
        out.append(f"arcs {len(self.tail)}")
        for a in range(len(self.tail)):
            out.append(
                f"{int(self.tail[a])} {int(self.head[a])} "
                f"{int(self.cap[a])} {self.cost[a]:.17g}"
            )
        return "\n".join(out) + "\n"


@dataclass
class FlowResult:
    flow: np.ndarray
    cost: float
    augmentations: int


@dataclass
class IntegralAssignment:
    assignment: np.ndarray
    x: np.ndarray
    color_mass: np.ndarray
    cluster_sizes: np.ndarray
    objective: float
    flow_cost: float


@dataclass
class Support:
    """An LP vertex split for rounding: the points it fixes, the fractional
    rest, and the floor/ceil of every mass the rounding keeps."""

    assignment: np.ndarray   # (n,) center of each fixed point, -1 if fractional
    frac: np.ndarray         # ids of the fractional points, ascending
    col_lo: np.ndarray       # (k, H) floor of each (cluster, color) mass
    col_hi: np.ndarray       # (k, H) ceil of each (cluster, color) mass
    col_rest: np.ndarray     # (k, H) col_lo minus the fixed points it holds
    clu_lo: np.ndarray       # (k,) floor of each cluster size
    clu_hi: np.ndarray       # (k,) ceil of each cluster size


def split_support(xfrac: np.ndarray, instance: Instance) -> Support:
    """Fix every point whose x column has exactly one positive entry.

    Such a point has a single arc in any rounding network, so every feasible
    flow sends it to that center; the networks then hold only the fractional
    points, with the colcenter floors lowered by the fixed counts.
    """
    k = xfrac.shape[0]
    H = instance.num_colors
    colors = instance.colors
    pos = xfrac > 0.0
    is_fixed = np.count_nonzero(pos, axis=0) == 1
    assignment = np.where(is_fixed, pos.argmax(axis=0), -1)
    mass = np.stack([xfrac[:, colors == h].sum(axis=1) for h in range(H)], axis=1)
    col_lo, col_hi = _floor_ceil(mass)
    cells = assignment[is_fixed] * H + colors[is_fixed]
    col_rest = col_lo - np.bincount(cells, minlength=k * H).reshape(k, H)
    if np.any(col_rest < 0):
        raise InternalInvariantError(
            "fixed points exceed the floor of their (cluster, color) mass"
        )
    clu_lo, clu_hi = _floor_ceil(xfrac.sum(axis=1))
    return Support(
        assignment=assignment,
        frac=np.nonzero(~is_fixed)[0],
        col_lo=col_lo,
        col_hi=col_hi,
        col_rest=col_rest,
        clu_lo=clu_lo,
        clu_hi=clu_hi,
    )


def _network(
    xfrac: np.ndarray,
    instance: Instance,
    dist_pow: np.ndarray,
    pts: np.ndarray,
    color_node: np.ndarray,
    demand: np.ndarray,
    slack: tuple[np.ndarray, np.ndarray, np.ndarray],
    labels: list[tuple],
) -> FlowNetwork:
    """Nodes 0..len(pts)-1 are pts; one unit arc per positive x entry, in
    (center, point) order, to node color_node[center, color], then the slack
    arcs (tails, heads, caps) at zero cost."""
    centers, local = np.nonzero(xfrac[:, pts] > 0.0)
    glob = pts[local]
    colors = instance.colors[glob]
    tail, head, cap = slack
    none = np.full(len(tail), -1, dtype=np.int64)
    net = FlowNetwork(
        num_nodes=len(demand),
        demand=demand,
        tail=np.concatenate([local, tail]),
        head=np.concatenate([color_node[centers, colors], head]),
        cap=np.concatenate([np.ones(len(local), dtype=np.int64), cap]),
        cost=np.concatenate(
            [dist_pow[glob, centers] / instance.counts[colors], np.zeros(len(tail))]
        ),
        node_labels=labels,
        arc_point=np.concatenate([glob, none]),
        arc_center=np.concatenate([centers, none]),
    )
    net.validate()
    return net


def build_rawlsian_networks(
    xfrac: np.ndarray,
    instance: Instance,
    params: Params,
    dist_pow: np.ndarray,
    support: Support,
) -> list[FlowNetwork]:
    """One independent rounding network per color, in color-id order, over
    that color's fractional points; support is split_support(xfrac, instance)."""
    k = xfrac.shape[0]
    H = instance.num_colors
    nets = []
    for h in range(H):
        jh = support.frac[instance.colors[support.frac] == h]
        n_h = len(jh)
        sink = n_h + k
        lo = support.col_lo[:, h]
        # the fixed points lower the colcenter floors only; the sink still
        # takes the color's points above the full floors
        demand = np.concatenate(
            [
                np.full(n_h, -1),
                support.col_rest[:, h],
                [instance.counts[h] - lo.sum()],
            ]
        ).astype(np.int64)
        colcenter = n_h + np.arange(k)
        labels = (
            [("point", int(j)) for j in jh]
            + [("colcenter", i, h) for i in range(k)]
            + [("sink", h)]
        )
        slack = (colcenter, np.full(k, sink), support.col_hi[:, h] - lo)
        nets.append(
            _network(
                xfrac, instance, dist_pow, jh,
                np.broadcast_to(colcenter[:, None], (k, H)), demand, slack, labels,
            )
        )
    return nets


def build_utilitarian_network(
    xfrac: np.ndarray,
    instance: Instance,
    params: Params,
    dist_pow: np.ndarray,
    support: Support,
) -> FlowNetwork:
    """Single network over the fractional points: points -> per-color cluster
    nodes -> clusters -> sink; support is split_support(xfrac, instance)."""
    k = xfrac.shape[0]
    H = instance.num_colors
    col_lo, clu_lo = support.col_lo, support.clu_lo
    if np.any(clu_lo - col_lo.sum(axis=1) < 0):
        raise InternalInvariantError(
            "cluster floor below the sum of color floors; mass snapping drifted"
        )
    m = len(support.frac)
    base_cc = m
    base_c = m + k * H
    sink = base_c + k
    # a fixed point counts toward both its colcenter's and its cluster's
    # floor, so only the colcenter demands are lowered
    demand = np.concatenate(
        [
            np.full(m, -1),
            support.col_rest.ravel(),
            clu_lo - col_lo.sum(axis=1),
            [instance.n - clu_lo.sum()],
        ]
    ).astype(np.int64)
    colcenter = base_cc + np.arange(k * H).reshape(k, H)
    labels = (
        [("point", int(j)) for j in support.frac]
        + [("colcenter", i, h) for i in range(k) for h in range(H)]
        + [("center", i) for i in range(k)]
        + [("sink",)]
    )
    slack = (
        np.concatenate([colcenter.ravel(), base_c + np.arange(k)]),
        np.concatenate([base_c + np.repeat(np.arange(k), H), np.full(k, sink)]),
        np.concatenate([(support.col_hi - col_lo).ravel(), support.clu_hi - clu_lo]),
    )
    return _network(
        xfrac, instance, dist_pow, support.frac, colcenter, demand, slack, labels
    )


def min_cost_flow(net: FlowNetwork) -> FlowResult:
    """Successive shortest augmenting paths with node potentials.

    Shortest-path ties resolve to the lowest node index.
    """
    net.validate()
    V = net.num_nodes
    E = len(net.tail)
    flow = np.zeros(E, dtype=np.int64)
    excess = (-net.demand).astype(np.int64)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(V)]
    for a in range(E):
        if net.cap[a] > 0:
            adj[net.tail[a]].append((a, 1))
            adj[net.head[a]].append((a, -1))

    def residual(a: int, d: int) -> int:
        return int(net.cap[a] - flow[a]) if d > 0 else int(flow[a])

    pi = np.zeros(V)
    augmentations = 0
    while True:
        sources = np.nonzero(excess > 0)[0]
        if len(sources) == 0:
            break
        s = int(sources[0])
        dist = np.full(V, np.inf)
        dist[s] = 0.0
        parent: list[tuple[int, int] | None] = [None] * V
        done = np.zeros(V, dtype=bool)
        heap = [(0.0, s)]
        while heap:
            dv, v = heapq.heappop(heap)
            if done[v]:
                continue
            done[v] = True
            for a, d in adj[v]:
                if residual(a, d) <= 0:
                    continue
                w = int(net.head[a]) if d > 0 else int(net.tail[a])
                if done[w]:
                    continue
                c = float(net.cost[a]) if d > 0 else -float(net.cost[a])
                nd = dv + c + pi[v] - pi[w]
                if nd < dist[w] - 1e-15:
                    dist[w] = nd
                    parent[w] = (a, d)
                    heapq.heappush(heap, (nd, w))
        targets = np.nonzero((excess < 0) & np.isfinite(dist))[0]
        if len(targets) == 0:
            raise InfeasibleFlowError(
                f"no augmenting path from node {s}; remaining excess "
                f"{int(excess[s])}"
            )
        t = int(targets[np.argmin(dist[targets])])
        # walk back to find the bottleneck
        path = []
        w = t
        while w != s:
            a, d = parent[w]  # type: ignore[misc]
            path.append((a, d))
            w = int(net.tail[a]) if d > 0 else int(net.head[a])
        delta = min(int(excess[s]), -int(excess[t]))
        for a, d in path:
            delta = min(delta, residual(a, d))
        for a, d in path:
            flow[a] += d * delta
        excess[s] -= delta
        excess[t] += delta
        dt = dist[t]
        pi += np.where(np.isfinite(dist), np.minimum(dist, dt), dt)
        augmentations += 1
    cost = float((flow * net.cost).sum())
    return FlowResult(flow=flow, cost=cost, augmentations=augmentations)


def has_negative_cycle(net: FlowNetwork, flow: np.ndarray) -> bool:
    """Bellman-Ford scan of the residual network; optimality certificate."""
    V = net.num_nodes
    arcs = []
    for a in range(len(net.tail)):
        if flow[a] < net.cap[a]:
            arcs.append((int(net.tail[a]), int(net.head[a]), float(net.cost[a])))
        if flow[a] > 0:
            arcs.append((int(net.head[a]), int(net.tail[a]), -float(net.cost[a])))
    dist = np.zeros(V)
    for it in range(V):
        changed = False
        for tl, hd, c in arcs:
            if dist[tl] + c < dist[hd] - 1e-12:
                dist[hd] = dist[tl] + c
                changed = True
        if not changed:
            return False
    return True


def _extract(
    nets: list[FlowNetwork],
    flows: list[np.ndarray],
    assignment: np.ndarray,
    instance: Instance,
    params: Params,
    dist_pow: np.ndarray,
    kind: str,
) -> IntegralAssignment:
    """Complete the fixed points' assignment (-1 elsewhere) from the unit
    point arcs the flows use."""
    n = instance.n
    k = params.k
    H = instance.num_colors
    assignment = assignment.copy()
    for net, fl in zip(nets, flows):
        sel = np.nonzero((net.arc_point >= 0) & (fl == 1))[0]
        pts = net.arc_point[sel]
        if np.any(assignment[pts] >= 0):
            raise InternalInvariantError("point routed twice in rounding")
        assignment[pts] = net.arc_center[sel]
    if np.any(assignment < 0):
        raise InternalInvariantError("point left unassigned by rounding")
    x = np.zeros((k, n))
    x[assignment, np.arange(n)] = 1.0
    color_mass = np.bincount(
        assignment * H + instance.colors, minlength=k * H
    ).reshape(k, H)
    report = report_from_distances(instance, params, dist_pow, assignment)
    objective = report.R if kind == "rawlsian" else report.U
    flow_cost = float(
        (dist_pow[np.arange(n), assignment] / instance.counts[instance.colors]).sum()
    )
    return IntegralAssignment(
        assignment=assignment,
        x=x,
        color_mass=color_mass,
        cluster_sizes=np.bincount(assignment, minlength=k),
        objective=objective,
        flow_cost=flow_cost,
    )


def _check_within(
    got: np.ndarray, lo: np.ndarray, hi: np.ndarray, what: str
) -> None:
    """Raise unless every rounded mass lies in the floor/ceil of the LP's."""
    bad = np.argwhere((got < lo) | (got > hi))
    if len(bad):
        idx = tuple(int(v) for v in bad[0])
        raise InternalInvariantError(
            f"rounded {what} {idx} is {int(got[idx])}, outside "
            f"[{int(lo[idx])}, {int(hi[idx])}] of the fractional mass"
        )


def rawlsian_round(
    xfrac: np.ndarray,
    instance: Instance,
    params: Params,
    dist_pow: np.ndarray,
) -> IntegralAssignment:
    """Round each color's fractional assignment independently."""
    support = split_support(xfrac, instance)
    nets = build_rawlsian_networks(xfrac, instance, params, dist_pow, support)
    flows = [min_cost_flow(net).flow for net in nets]
    out = _extract(
        nets, flows, support.assignment, instance, params, dist_pow, "rawlsian"
    )
    _check_within(
        out.color_mass, support.col_lo, support.col_hi, "(cluster, color) mass"
    )
    return out


def utilitarian_round(
    xfrac: np.ndarray,
    instance: Instance,
    params: Params,
    dist_pow: np.ndarray,
) -> IntegralAssignment:
    """Round all colors jointly, preserving cluster sizes within floor/ceil."""
    support = split_support(xfrac, instance)
    net = build_utilitarian_network(xfrac, instance, params, dist_pow, support)
    fl = min_cost_flow(net).flow
    out = _extract(
        [net], [fl], support.assignment, instance, params, dist_pow, "utilitarian"
    )
    _check_within(
        out.color_mass, support.col_lo, support.col_hi, "(cluster, color) mass"
    )
    _check_within(out.cluster_sizes, support.clu_lo, support.clu_hi, "cluster size")
    return out
