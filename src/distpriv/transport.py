"""Exact bottleneck optimal transport on discrete distributions.

The infinity-Wasserstein distance between two finite distributions is the
smallest threshold t such that all probability mass can be transported
along pairs at L1 distance at most t. We compute it exactly: probability
masses are integers over a common denominator, feasibility at a threshold
is an integer max-flow question, and the threshold search runs over the
finite set of realized pairwise distances. Only the distances themselves
are floating point; no feasibility decision ever depends on float
rounding.

Each call builds one network object, _Dinic, dense and bipartite: rows
are the positive-mass points of mu, columns those of nu, and it holds
their distances, one integer matrix of the flow between them, the
residual supply and demand vectors and the total flow carried. A
threshold is the mask dist <= t. The search bisects over thresholds with
a warm start: a flow feasible within t stays feasible within every larger
threshold, so a probe that falls short keeps its maximum flow as the base
of every later probe, which lies above it. A probe that reaches the
needed mass is undone by restoring the supply, demand, flow and total
saved before it, and it lowers the upper end of the bisection to the
longest edge its flow uses, a threshold that flow shows feasible. Max flow
is Dinic's: a phase whose first column layer already reaches the sink is a
greedy fill, rows in ascending order each pushing into their columns from
the highest index down, which is the order the generic DFS takes on such a
phase, so both give the same flow. Any deeper phase first prunes its dead
ends, walking from the sink back to the roots, then builds the candidate
lists of a whole layer from one nonzero over that layer's submatrix, so
its DFS calls no numpy per node it visits. In one dimension W-infinity
needs no flow at all: it is the largest gap between the two quantile
functions, found by walking the sorted supports in integer masses.

The relaxed notion, (W, delta)-closeness, asks for a coupling that moves
all but delta of the mass by at most W; it is decided by the same flow
machinery and witnessed by an explicit coupling certificate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Finite support points in R^m with exact rational masses.

    Masses are stored as integer numerators over a single integer
    denominator and must sum exactly to one.
    """

    points: np.ndarray
    mass_num: Tuple[int, ...]
    mass_den: int

    def __init__(self, points, mass_num, mass_den):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError("points must form a 2-D array of row vectors")
        if not np.all(np.isfinite(pts)):
            raise ValueError("support points must be finite")
        pts = pts + 0.0  # fold -0.0 into 0.0, so numeric and byte equality agree
        try:
            nums = tuple(map(operator.index, mass_num))
            den = operator.index(mass_den)
        except TypeError:
            raise ValueError("masses and their denominator must be integers") from None
        if len(nums) != pts.shape[0]:
            raise ValueError("one mass per support point required")
        if den < 1:
            raise ValueError("mass denominator must be a positive integer")
        if any(n < 0 for n in nums):
            raise ValueError("masses must be nonnegative")
        if sum(nums) != den:
            raise ValueError(f"masses must sum to 1 exactly ({sum(nums)}/{den} given)")
        # Sorted rows put equal points side by side.
        ordered = pts[np.lexsort(pts.T)] if pts.shape[1] else pts
        if (ordered[1:] == ordered[:-1]).all(axis=1).any():
            raise ValueError("support points must be pairwise distinct")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "mass_num", nums)
        object.__setattr__(self, "mass_den", den)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def masses(self) -> List[Fraction]:
        return [Fraction(n, self.mass_den) for n in self.mass_num]

    @classmethod
    def from_json(cls, doc: dict) -> "DiscreteDistribution":
        return cls(doc["points"], doc["mass_num"], doc["mass_den"])


@dataclass(frozen=True)
class ClosenessCertificate:
    """A witnessing partial coupling for a (W, delta)-closeness claim.

    coupling_edges holds (source index, target index, mass) triples with
    exact rational masses. The certificate can be re-verified against the
    two distributions without trusting the solver that produced it.
    """

    coupling_edges: Tuple[Tuple[int, int, Fraction], ...]
    retained_mass: Fraction
    max_retained_distance: float

    def verify(self, mu: DiscreteDistribution, nu: DiscreteDistribution, w: float, delta) -> bool:
        """Independent feasibility check of the stored coupling.

        Every edge must join a point of mu to a point of nu, carry a
        nonnegative mass and be no longer than w or max_retained_distance;
        no point may send or receive more than its mass; the masses must
        add up to retained_mass, and that to at least 1 - delta. Masses are
        compared exactly, as integers over their common denominator.
        """
        w = _check_radius(w)
        delta = _check_delta(delta)
        retained = Fraction(self.retained_mass)
        src, dst, masses = zip(*self.coupling_edges) if self.coupling_edges else ((), (), ())
        src, dst = _point_indices(src, mu.size), _point_indices(dst, nu.size)
        if src is None or dst is None:
            return False
        masses = [m if isinstance(m, Fraction) else Fraction(m) for m in masses]
        scale = math.lcm(mu.mass_den, nu.mass_den, retained.denominator,
                         *(m.denominator for m in masses))
        nums = [m.numerator * (scale // m.denominator) for m in masses]
        if any(n < 0 for n in nums):
            return False
        d = _l1(mu.points[src], nu.points[dst])
        if (d > self.max_retained_distance).any() or (d > w).any():
            return False
        src_used: dict = {}
        dst_used: dict = {}
        for i, j, n in zip(src.tolist(), dst.tolist(), nums):
            src_used[i] = src_used.get(i, 0) + n
            dst_used[j] = dst_used.get(j, 0) + n
        mu_unit, nu_unit = scale // mu.mass_den, scale // nu.mass_den
        if any(used > mu.mass_num[i] * mu_unit for i, used in src_used.items()):
            return False
        if any(used > nu.mass_num[j] * nu_unit for j, used in dst_used.items()):
            return False
        total = sum(nums)
        if total != retained.numerator * (scale // retained.denominator):
            return False
        return Fraction(total, scale) >= 1 - delta


def _point_indices(values, size: int) -> Optional[np.ndarray]:
    """Edge ends as an index array; None unless each is an integer in [0, size)."""
    idx = np.asarray(values)
    if idx.size == 0:
        return idx.astype(np.intp)
    if idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= size:
        return None
    return idx


def _l1(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """L1 distances between broadcast rows of x and y, each summed over its
    own last axis, so an edge measures the same bits wherever it is measured."""
    return np.abs(x - y).sum(axis=-1)


_DIST_BLOCK_ROWS = 64


def _scaled_masses(mu: DiscreteDistribution, nu: DiscreteDistribution):
    scale = math.lcm(mu.mass_den, nu.mass_den)
    supplies = [n * (scale // mu.mass_den) for n in mu.mass_num]
    demands = [n * (scale // nu.mass_den) for n in nu.mass_num]
    return supplies, demands, scale


class _Dinic:
    """The transport network of one pair, and its max flow.

    Rows are the positive-mass points of mu, columns those of nu. `dist`
    holds their L1 distances, `flow` the flow on every transport edge,
    `supply` and `demand` the residual source and sink edges, and `total`
    the flow carried so far, out of the common mass scale `scale`.
    Transport edges have no capacity of their own: conservation already
    bounds flow[i, j] by min(supply_i, demand_j). So within threshold w
    the residual network has an edge i -> j wherever dist[i, j] <= w and
    an edge j -> i wherever flow[i, j] > 0. Entries are int64, or Python
    integers once the scale reaches 2**63, so no scale of masses can
    overflow.

    BFS levels come from numpy reductions over whole rows and columns.
    The blocking flow is an iterative DFS, so support sizes are limited by
    time, not recursion depth. It runs over candidate lists built once per
    phase, a layer at a time, after the nodes that cannot reach the sink
    are pruned. A phase with a single column layer, whose every column in
    reach drains to the sink, is a greedy fill in the order the DFS would
    take, with no paths to keep.
    """

    def __init__(self, mu: DiscreteDistribution, nu: DiscreteDistribution):
        if mu.dim != nu.dim:
            raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
        supplies, demands, self.scale = _scaled_masses(mu, nu)
        dtype = np.int64 if self.scale < 2**63 else object  # exact either way
        sup = np.array(supplies, dtype=dtype)
        dem = np.array(demands, dtype=dtype)
        self.rows, self.cols = np.flatnonzero(sup > 0), np.flatnonzero(dem > 0)
        # Measured by _l1, as ClosenessCertificate.verify measures its edges,
        # so each distance is bit-equal to the one verify recomputes. Blocks
        # of rows bound the (rows, cols, dim) differences held at once.
        p, q = mu.points[self.rows][:, None, :], nu.points[self.cols][None, :, :]
        self.dist = np.empty((self.rows.size, self.cols.size))
        for start in range(0, self.rows.size, _DIST_BLOCK_ROWS):
            block = slice(start, start + _DIST_BLOCK_ROWS)
            self.dist[block] = _l1(p[block], q)
        self.supply, self.demand = sup[self.rows], dem[self.cols]
        self.flow = np.zeros((self.rows.size, self.cols.size), dtype=dtype)
        self.total = 0

    def max_flow(self, w: float, limit: Optional[int] = None) -> int:
        """Augment the flow within threshold w until it is maximal, or
        until the total reaches at least `limit`; return the total."""
        allowed = self.dist <= w
        while limit is None or self.total < limit:
            layers = self._levels(allowed)
            if layers is None:
                break
            rest = None if limit is None else limit - self.total
            if len(layers[1]) == 1:
                self.total += self._fill(allowed, layers[0][0], layers[1][0], rest)
            else:
                self.total += self._blocking_flow(allowed, *layers, rest)
        return self.total

    def longest_edge(self, w: float, needed: int) -> Optional[float]:
        """The longest edge of a flow of `needed` within w; None if none fits.

        A probe that falls short leaves its maximum flow in place as the
        base for every later probe, which lies above it. A probe that
        succeeds is undone: the supply, demand, flow and total saved
        before it are restored. The edge it reports is itself a feasible
        threshold, because the probe's flow fits within it.
        """
        saved = self.supply.copy(), self.demand.copy(), self.flow.copy(), self.total
        if self.max_flow(w, needed) < needed:
            return None
        longest = self.longest_used()
        self.supply, self.demand, self.flow, self.total = saved
        return longest

    def longest_used(self) -> float:
        """The longest transport edge carrying flow; 0.0 when none does."""
        return float(self.dist[self.flow > 0].max(initial=0.0))

    def coupling(self) -> List[Tuple[int, int, Fraction]]:
        """(i, j, mass) for every transport edge carrying flow, sorted."""
        return [
            (int(self.rows[a]), int(self.cols[b]), Fraction(int(self.flow[a, b]), self.scale))
            for a, b in zip(*np.nonzero(self.flow > 0))  # row-major, so already sorted
        ]

    def _levels(self, allowed: np.ndarray):
        """Rows and columns by BFS depth, as masks: rows of depth t reach
        columns of depth t over allowed edges, and those reach rows of
        depth t + 1 over edges carrying flow. The last column mask keeps
        only the columns with residual demand, which reach the sink.
        None when the sink is out of reach."""
        rows = self.supply > 0
        seen_rows, seen_cols = rows.copy(), np.zeros(self.demand.size, dtype=bool)
        row_layers: List[np.ndarray] = []
        col_layers: List[np.ndarray] = []
        while True:
            cols = allowed[rows].any(axis=0) & ~seen_cols
            if not cols.any():
                return None
            row_layers.append(rows)
            ends = cols & (self.demand > 0)
            if ends.any():
                col_layers.append(ends)
                return row_layers, col_layers
            col_layers.append(cols)
            seen_cols |= cols
            rows = (self.flow[:, cols] > 0).any(axis=1) & ~seen_rows
            seen_rows |= rows

    def _fill(self, allowed, rows, ends, limit: Optional[int]) -> int:
        """Blocking flow of a phase whose first column layer reaches the sink.

        Every path is a single edge from a row to a column with demand
        left, so the DFS of _blocking_flow reduces to this: rows in
        ascending order, each pushing into its columns from the highest
        index down until its supply or their demand runs out. Stops once
        the flow has grown by at least `limit`.
        """
        flow = self.flow
        supply, demand = self.supply.tolist(), self.demand.tolist()
        total = 0
        for root in rows.nonzero()[0].tolist():
            left = supply[root]
            for col in reversed((allowed[root] & ends).nonzero()[0].tolist()):
                push = min(left, demand[col])
                left -= push
                demand[col] -= push
                flow[root, col] += push
                total += push
                if not demand[col]:
                    ends[col] = False
                if not left or (limit is not None and total >= limit):
                    break
            supply[root] = left
            if limit is not None and total >= limit:
                break
        self.supply[:] = supply
        self.demand[:] = demand
        return total

    def _blocking_flow(self, allowed, row_layers, col_layers, limit: Optional[int]) -> int:
        """Augment along shortest paths until none is left in the level
        graph, or until the flow has grown by at least `limit`.

        A path alternates rows (even positions) and columns (odd ones).
        Each node's candidate list holds its live next-layer neighbours as
        the phase starts (see _phase_candidates), with the one to try next
        at its end. A node found to be a dead end leaves its layer mask,
        so candidate lists skip it from then on; so does an edge back to a
        row once it carries no flow. Within a phase masks only shrink and
        the flow on edges back to rows only falls, so these lists find the
        paths a list built at each node's first visit would, in the same
        order.
        """
        flow, supply, demand = self.flow, self.supply, self.demand
        last = len(col_layers) - 1
        row_next, col_next = _phase_candidates(allowed, flow, row_layers, col_layers)
        total = 0
        for root in row_layers[0].nonzero()[0].tolist():
            path = [root]
            while path:
                node = path[-1]
                depth = (len(path) - 1) // 2
                if len(path) % 2:  # a row
                    live = col_layers[depth]
                    nxt = row_next[node]
                    while nxt and not live[nxt[-1]]:
                        nxt.pop()
                    if nxt:
                        path.append(nxt[-1])
                        continue
                    row_layers[depth][node] = False
                elif depth < last:  # a column short of the sink
                    live = row_layers[depth + 1]
                    nxt = col_next[node]
                    while nxt and not (live[nxt[-1]] and flow[nxt[-1], node] > 0):
                        nxt.pop()
                    if nxt:
                        path.append(nxt[-1])
                        continue
                    col_layers[depth][node] = False
                else:  # a column that drains to the sink
                    forward = list(zip(path[0::2], path[1::2]))
                    backward = list(zip(path[2::2], path[1::2]))
                    push = min(supply[root], demand[node], *(flow[e] for e in backward))
                    supply[root] -= push
                    demand[node] -= push
                    for e in forward:
                        flow[e] += push
                    for e in backward:
                        flow[e] -= push
                    total += int(push)
                    if limit is not None and total >= limit:
                        return total
                    if supply[root] == 0:
                        break
                    if demand[node] == 0:
                        col_layers[last][node] = False
                    # Retreat to the tail of the first edge the push ran dry.
                    cut = next((2 * q + 2 for q, e in enumerate(backward) if flow[e] == 0), len(path) - 1)
                    del path[cut:]
                    continue
                path.pop()
        return total


def _phase_candidates(allowed, flow, row_layers, col_layers):
    """Every live node's candidate list for one phase, dead ends pruned.

    Walks the layers from the sink back to the roots. A column short of
    the sink stays live only with flow to a live row of the next layer,
    and a row only with an allowed edge to a live column of its own
    layer; the DFS would find every pruned node a dead end on its first
    visit. One nonzero over each layer's submatrix gives all of that
    layer's lists. Returns (row lists, column lists) keyed by node.
    """
    row_next: dict = {}
    col_next: dict = {}
    last = len(col_layers) - 1
    for depth in range(last, -1, -1):
        if depth < last:
            cols, rows = col_layers[depth], row_layers[depth + 1]
            _neighbour_lists(flow[rows][:, cols].T > 0, cols, rows, col_next)
        rows, cols = row_layers[depth], col_layers[depth]
        _neighbour_lists(allowed[rows][:, cols], rows, cols, row_next)
    return row_next, col_next


def _neighbour_lists(edges, src_mask, dst_mask, out: dict) -> None:
    """Store in `out` the ascending neighbours of each node of src_mask
    over the (src, dst) submatrix `edges`, and drop the nodes that have
    none from src_mask."""
    src, dst = src_mask.nonzero()[0], dst_mask.nonzero()[0]
    a, b = edges.nonzero()  # row-major, so each node's neighbours ascend
    lists: dict = {}
    for node, nbr in zip(src[a].tolist(), dst[b].tolist()):
        held = lists.get(node)
        if held is None:
            lists[node] = [nbr]
        else:
            held.append(nbr)
    src_mask[src] = False
    src_mask[list(lists)] = True
    out.update(lists)


def _smallest_feasible_threshold(mu, nu, delta: Fraction) -> float:
    """Least realized distance t within which all but delta of the mass
    can be transported.

    Bisects over the distances between positive-mass points, plus 0; the
    flow only changes at those, so no other distance can be the answer.
    A feasible probe lowers the upper end to the longest edge its flow
    uses, which is feasible too.
    """
    net = _Dinic(mu, nu)
    thresholds = np.unique(net.dist)
    if thresholds[0] > 0.0:
        thresholds = np.concatenate(([0.0], thresholds))
    needed = net.scale - math.floor(delta * net.scale)

    lo, hi = 0, thresholds.size - 1
    if needed >= net.scale:
        # Full transport: every positive-mass point needs an edge within the
        # threshold, so the covering radius is a cheap search floor.
        cover = max(float(net.dist.min(axis=1).max()), float(net.dist.min(axis=0).max()))
        lo = int(np.searchsorted(thresholds, cover))

    if net.longest_edge(float(thresholds[lo]), needed) is not None:
        return float(thresholds[lo])
    # Invariant: lo infeasible, hi feasible (full transport always is).
    while hi - lo > 1:
        mid = (lo + hi) // 2
        longest = net.longest_edge(float(thresholds[mid]), needed)
        if longest is None:
            lo = mid
        else:
            hi = int(np.searchsorted(thresholds, longest))
    return float(thresholds[hi])


def _winf_on_line(mu: DiscreteDistribution, nu: DiscreteDistribution) -> float:
    """W-infinity in one dimension: the largest gap between the quantile
    functions, walked in integer masses over the merged supports.

    The sorted coupling is optimal for the bottleneck, and float rounding
    is monotone, so this is the least feasible float threshold as well.
    """
    supplies, demands, _ = _scaled_masses(mu, nu)
    a = sorted((x, m) for x, m in zip(mu.points[:, 0].tolist(), supplies) if m > 0)
    b = sorted((y, m) for y, m in zip(nu.points[:, 0].tolist(), demands) if m > 0)
    i = j = 0
    left_a, left_b = a[0][1], b[0][1]
    gap = 0.0
    while i < len(a):  # both sides run out together: their masses are equal
        gap = max(gap, abs(a[i][0] - b[j][0]))
        step = min(left_a, left_b)
        left_a -= step
        left_b -= step
        if left_a == 0:
            i += 1
            left_a = a[i][1] if i < len(a) else 0
        if left_b == 0:
            j += 1
            left_b = b[j][1] if j < len(b) else 0
    return gap


def _check_radius(w) -> float:
    if not w >= 0:  # also rejects NaN
        raise ValueError(f"w must be nonnegative, got {w}")
    return float(w)


def _check_delta(delta) -> Fraction:
    """delta as an exact rational (a float means its exact value), in [0, 1]."""
    delta_frac = Fraction(delta)
    if not (0 <= delta_frac <= 1):
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    return delta_frac


def winf_distance(mu: DiscreteDistribution, nu: DiscreteDistribution) -> float:
    """Infinity-Wasserstein distance under the L1 ground metric, exact.

    Returns the smallest threshold t, among realized pairwise distances,
    such that a coupling of mu and nu exists whose every positive-mass
    edge has L1 length at most t.
    """
    if mu.dim == 1 and nu.dim == 1:
        return _winf_on_line(mu, nu)
    return min_w_for_delta(mu, nu, 0)


def max_mass_within(mu: DiscreteDistribution, nu: DiscreteDistribution, w: float) -> Fraction:
    """Largest coupling mass placeable on pairs with L1 distance <= w."""
    w = _check_radius(w)
    net = _Dinic(mu, nu)
    return Fraction(net.max_flow(w), net.scale)


def is_w_delta_close(
    mu: DiscreteDistribution, nu: DiscreteDistribution, w: float, delta
) -> Tuple[bool, Optional[ClosenessCertificate]]:
    """Decide (w, delta)-closeness; return a verifiable coupling when true.

    delta is interpreted exactly (a float argument means the exact
    rational value of that float), so the mass comparison never depends
    on rounding.
    """
    w = _check_radius(w)
    delta_frac = _check_delta(delta)
    net = _Dinic(mu, nu)
    retained = Fraction(net.max_flow(w), net.scale)
    if retained < 1 - delta_frac:
        return False, None
    cert = ClosenessCertificate(
        coupling_edges=tuple(net.coupling()),
        retained_mass=retained,
        max_retained_distance=net.longest_used(),
    )
    return True, cert


def min_w_for_delta(mu: DiscreteDistribution, nu: DiscreteDistribution, delta) -> float:
    """Smallest realized-distance threshold w with (w, delta)-closeness.

    With delta = 0 this equals winf_distance; with delta = 1 it is 0.
    """
    return _smallest_feasible_threshold(mu, nu, _check_delta(delta))


def discretize_samples(samples, mass_resolution: int) -> DiscreteDistribution:
    """Empirical distribution of samples with duplicate points merged.

    Masses are multiples of 1/mass_resolution, so the sample count must
    divide the resolution.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] < 1:
        raise ValueError("need at least one sample")
    x = x + 0.0  # key -0.0 and 0.0 as one point, as DiscreteDistribution does
    count = x.shape[0]
    try:
        resolution = operator.index(mass_resolution)
    except TypeError:
        raise ValueError(f"mass resolution must be an integer, got {mass_resolution!r}") from None
    if resolution < 1 or resolution % count != 0:
        raise ValueError(
            f"mass resolution {resolution} incompatible with sample count {count}"
        )
    unit = resolution // count
    order: List[bytes] = []
    multiplicity: dict = {}
    rows: dict = {}
    for row in x:
        key = row.tobytes()
        if key not in multiplicity:
            multiplicity[key] = 0
            rows[key] = row
            order.append(key)
        multiplicity[key] += 1
    points = np.vstack([rows[k] for k in order])
    nums = [multiplicity[k] * unit for k in order]
    return DiscreteDistribution(points, nums, resolution)
