"""Exact bottleneck optimal transport on discrete distributions.

The infinity-Wasserstein distance between two finite distributions is the
smallest threshold t such that all probability mass can be transported
along pairs at L1 distance at most t. We compute it exactly: probability
masses are integers over a common denominator, feasibility at a threshold
is an integer max-flow question, and the threshold search runs over the
finite set of realized pairwise distances. Only the distances themselves
are floating point; no feasibility decision ever depends on float
rounding.

The search builds the flow network once per call, with its transport
edges sorted by length, and bisects over thresholds with a warm start: a
flow feasible within t stays feasible within every larger threshold, so
each probe adds only the edges between the largest infeasible threshold
seen so far and its own, and resumes max flow from that threshold's
residual. A probe that reaches the needed mass stops there and is undone;
one that falls short becomes the new base. In one dimension W-infinity
needs no flow at all: it is the largest gap between the two quantile
functions, found by walking the sorted supports in integer masses.

The relaxed notion, (W, delta)-closeness, asks for a coupling that moves
all but delta of the mass by at most W; it is decided by the same flow
machinery and witnessed by an explicit coupling certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .model import solve_spd

__all__ = [
    "DiscreteDistribution",
    "ClosenessCertificate",
    "winf_distance",
    "max_mass_within",
    "is_w_delta_close",
    "min_w_for_delta",
    "closeness_from_bounds",
    "discretize_samples",
    "discretize_gaussian",
]


@dataclass(frozen=True)
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
        pts = pts + 0.0  # fold -0.0 into 0.0 so distinctness is numeric
        nums = tuple(int(n) for n in mass_num)
        den = int(mass_den)
        if len(nums) != pts.shape[0]:
            raise ValueError("one mass per support point required")
        if den < 1:
            raise ValueError("mass denominator must be a positive integer")
        if any(n < 0 for n in nums):
            raise ValueError("masses must be nonnegative")
        if sum(nums) != den:
            raise ValueError(f"masses must sum to 1 exactly ({sum(nums)}/{den} given)")
        seen = set()
        for row in pts:
            key = row.tobytes()
            if key in seen:
                raise ValueError("support points must be pairwise distinct")
            seen.add(key)
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
    def from_fractions(cls, points, masses: Sequence[Fraction]) -> "DiscreteDistribution":
        fracs = [Fraction(m) for m in masses]
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        nums = [int(f * den) for f in fracs]
        return cls(points, nums, den)

    def to_json(self) -> dict:
        return {
            "points": [[float(x) for x in row] for row in self.points],
            "mass_num": list(self.mass_num),
            "mass_den": self.mass_den,
        }

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
        """Independent feasibility check of the stored coupling."""
        w = _check_radius(w)
        src_used = [Fraction(0)] * mu.size
        dst_used = [Fraction(0)] * nu.size
        total = Fraction(0)
        for i, j, mass in self.coupling_edges:
            if mass < 0:
                return False
            d = float(np.abs(mu.points[i] - nu.points[j]).sum())
            if d > self.max_retained_distance or d > w:
                return False
            src_used[i] += mass
            dst_used[j] += mass
            total += mass
        if total != self.retained_mass:
            return False
        mu_masses, nu_masses = mu.masses(), nu.masses()
        if any(src_used[i] > mu_masses[i] for i in range(mu.size)):
            return False
        if any(dst_used[j] > nu_masses[j] for j in range(nu.size)):
            return False
        return total >= 1 - Fraction(delta)


class _Dinic:
    """Max flow with arbitrary-precision integer capacities.

    Edges live in flat parallel arrays; the reverse of edge e is e ^ 1.
    The blocking-flow search is iterative, so support sizes are limited
    by time, not recursion depth, and capacities are Python integers, so
    no scale of masses can overflow. Edges can be added to a network that
    already carries flow, and dropped again by restoring a saved copy of
    the capacities.
    """

    def __init__(self, n: int):
        self.n = n
        self.to: List[int] = []
        self.cap: List[int] = []
        self.head: List[List[int]] = [[] for _ in range(n)]

    def add_edges(self, tails: List[int], heads: List[int], caps: List[int]) -> None:
        """Append edges tails[q] -> heads[q]; edge q gets handle len(to) + 2q."""
        e = len(self.to)
        head = self.head
        for u, v in zip(tails, heads):
            head[u].append(e)
            head[v].append(e + 1)
            e += 2
        pairs = [0] * (2 * len(caps))
        pairs[0::2] = heads
        pairs[1::2] = tails
        self.to.extend(pairs)
        pairs[0::2] = caps
        pairs[1::2] = [0] * len(caps)
        self.cap.extend(pairs)

    def restore(self, cap: List[int]) -> None:
        """Return to a saved capacity list, dropping the edges added since."""
        to, head = self.to, self.head
        for e in range(len(to) - 2, len(cap) - 2, -2):
            head[to[e]].pop()
            head[to[e + 1]].pop()
        del to[len(cap):]
        self.cap = cap

    def max_flow(self, s: int, t: int, limit: Optional[int] = None) -> int:
        """Augment the current flow until it is maximal, or until it has
        grown by at least `limit`; return how much it grew."""
        to, cap, head = self.to, self.cap, self.head
        total = 0
        while limit is None or total < limit:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                nxt = level[u] + 1
                for e in head[u]:
                    v = to[e]
                    if cap[e] > 0 and level[v] < 0:
                        level[v] = nxt
                        queue.append(v)
            if level[t] < 0:
                return total
            it = [0] * self.n
            path: List[int] = []
            u = s
            while True:
                if u == t:
                    bottleneck = min(cap[e] for e in path)
                    total += bottleneck
                    for e in path:
                        cap[e] -= bottleneck
                        cap[e ^ 1] += bottleneck
                    if limit is not None and total >= limit:
                        return total
                    # Retreat to the first saturated edge on the path.
                    cut = next(idx for idx, e in enumerate(path) if cap[e] == 0)
                    u = to[path[cut] ^ 1]
                    del path[cut:]
                    continue
                advanced = False
                edges = head[u]
                end = len(edges)
                i = it[u]
                base = level[u] + 1
                while i < end:
                    e = edges[i]
                    v = to[e]
                    if cap[e] > 0 and level[v] == base:
                        it[u] = i
                        path.append(e)
                        u = v
                        advanced = True
                        break
                    i += 1
                if not advanced:
                    it[u] = i
                    if u == s:
                        break
                    level[u] = -1
                    e = path.pop()
                    u = to[e ^ 1]
                    it[u] += 1
        return total


def _pairwise_l1(mu: DiscreteDistribution, nu: DiscreteDistribution) -> np.ndarray:
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    return np.abs(mu.points[:, None, :] - nu.points[None, :, :]).sum(axis=2)


def _scaled_masses(mu: DiscreteDistribution, nu: DiscreteDistribution):
    scale = math.lcm(mu.mass_den, nu.mass_den)
    supplies = [n * (scale // mu.mass_den) for n in mu.mass_num]
    demands = [n * (scale // nu.mass_den) for n in nu.mass_num]
    return supplies, demands, scale


class _ThresholdNetwork:
    """The transport flow network of one pair, grown as the threshold rises.

    Node 0 is the source, 1..k the support of mu, k+1..k+l that of nu and
    k+l+1 the sink. Transport edges join positive-mass points only and are
    sorted by L1 length once, so the edges within a threshold are a prefix
    of them. A flow feasible within some threshold stays feasible within
    every larger one, so `augment` only adds the missing part of the
    prefix and resumes from the flow already carried.
    """

    def __init__(self, mu: DiscreteDistribution, nu: DiscreteDistribution, dist: np.ndarray):
        supplies, demands, self.scale = _scaled_masses(mu, nu)
        k, l = mu.size, nu.size
        self.k, self.sink = k, k + l + 1
        dtype = np.int64 if self.scale < 2**63 else object  # exact either way
        sup = np.array(supplies, dtype=dtype)
        dem = np.array(demands, dtype=dtype)
        src, dst = np.flatnonzero(sup > 0), np.flatnonzero(dem > 0)
        self.net = _Dinic(k + l + 2)
        self.net.add_edges([0] * src.size, (1 + src).tolist(), sup[src].tolist())
        self.net.add_edges((1 + k + dst).tolist(), [self.sink] * dst.size, dem[dst].tolist())
        self.first = len(self.net.to)  # handle of the shortest transport edge

        rows = np.repeat(src, dst.size)
        cols = np.tile(dst, src.size)
        lengths = dist[rows, cols]
        order = np.argsort(lengths)
        self.lengths, self.rows, self.cols = lengths[order], rows[order], cols[order]
        self.caps = np.minimum(sup[self.rows], dem[self.cols])
        self.built = 0  # transport edges in the network
        self.flow = 0

    def augment(self, w: float, limit: Optional[int] = None) -> int:
        """Flow within threshold w: the maximum, or at least `limit` if that fits."""
        count = int(np.searchsorted(self.lengths, w, side="right"))
        if count > self.built:
            new = slice(self.built, count)
            self.net.add_edges(
                (1 + self.rows[new]).tolist(),
                (1 + self.k + self.cols[new]).tolist(),
                self.caps[new].tolist(),
            )
            self.built = count
        rest = None if limit is None else limit - self.flow
        self.flow += self.net.max_flow(0, self.sink, rest)
        return self.flow

    def reaches(self, w: float, needed: int) -> bool:
        """Whether a flow of `needed` fits within w.

        A probe that falls short leaves its maximum flow in place as the
        base for every later probe, which lies above it. A probe that
        succeeds stops early and is undone.
        """
        cap, built, flow = self.net.cap[:], self.built, self.flow
        if self.augment(w, needed) < needed:
            return False
        self.net.restore(cap)
        self.built, self.flow = built, flow
        return True

    def coupling(self) -> List[Tuple[int, int, Fraction]]:
        """(i, j, mass) for every transport edge carrying flow, sorted."""
        cap = self.net.cap
        edges = []
        for q in range(self.built):
            f = cap[self.first + 2 * q + 1]
            if f > 0:
                edges.append((int(self.rows[q]), int(self.cols[q]), Fraction(f, self.scale)))
        return sorted(edges)


def _flow_within(mu, nu, dist, w):
    """Max transportable integer mass using only edges of distance <= w."""
    net = _ThresholdNetwork(mu, nu, dist)
    flow = net.augment(w)
    return flow, net.scale, net.coupling()


def _smallest_feasible_threshold(mu, nu, dist, needed_of_scale) -> float:
    """Least realized distance t whose flow reaches the needed fraction.

    Bisects over the distances between positive-mass points, plus 0; the
    flow only changes at those, so no other distance can be the answer.
    """
    net = _ThresholdNetwork(mu, nu, dist)
    lengths = net.lengths  # sorted, so equal lengths are adjacent
    thresholds = lengths[np.concatenate(([True], lengths[1:] != lengths[:-1]))]
    if thresholds[0] > 0.0:
        thresholds = np.concatenate(([0.0], thresholds))
    needed = needed_of_scale(net.scale)

    lo, hi = 0, thresholds.size - 1
    if needed >= net.scale:
        # Full transport: every positive-mass point needs an edge within the
        # threshold, so the covering radius is a cheap search floor.
        src = np.array(mu.mass_num) > 0
        dst = np.array(nu.mass_num) > 0
        cover = max(
            float(dist[src][:, dst].min(axis=1).max()),
            float(dist[src][:, dst].min(axis=0).max()),
        )
        lo = int(np.searchsorted(thresholds, cover))

    if net.reaches(float(thresholds[lo]), needed):
        return float(thresholds[lo])
    # Invariant: lo infeasible, hi feasible (full transport always is).
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if net.reaches(float(thresholds[mid]), needed):
            hi = mid
        else:
            lo = mid
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


def winf_distance(mu: DiscreteDistribution, nu: DiscreteDistribution) -> float:
    """Infinity-Wasserstein distance under the L1 ground metric, exact.

    Returns the smallest threshold t, among realized pairwise distances,
    such that a coupling of mu and nu exists whose every positive-mass
    edge has L1 length at most t.
    """
    if mu.dim == 1 and nu.dim == 1:
        return _winf_on_line(mu, nu)
    dist = _pairwise_l1(mu, nu)
    return _smallest_feasible_threshold(mu, nu, dist, lambda scale: scale)


def max_mass_within(mu: DiscreteDistribution, nu: DiscreteDistribution, w: float) -> Fraction:
    """Largest coupling mass placeable on pairs with L1 distance <= w."""
    w = _check_radius(w)
    dist = _pairwise_l1(mu, nu)
    flow, scale, _ = _flow_within(mu, nu, dist, w)
    return Fraction(flow, scale)


def is_w_delta_close(
    mu: DiscreteDistribution, nu: DiscreteDistribution, w: float, delta
) -> Tuple[bool, Optional[ClosenessCertificate]]:
    """Decide (w, delta)-closeness; return a verifiable coupling when true.

    delta is interpreted exactly (a float argument means the exact
    rational value of that float), so the mass comparison never depends
    on rounding.
    """
    w = _check_radius(w)
    delta_frac = Fraction(delta)
    if not (0 <= delta_frac <= 1):
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    dist = _pairwise_l1(mu, nu)
    flow, scale, edges = _flow_within(mu, nu, dist, w)
    ok = Fraction(flow, scale) >= 1 - delta_frac
    if not ok:
        return False, None
    max_dist = max((float(dist[i, j]) for i, j, _ in edges), default=0.0)
    cert = ClosenessCertificate(
        coupling_edges=tuple(edges),
        retained_mass=Fraction(flow, scale),
        max_retained_distance=max_dist,
    )
    return True, cert


def min_w_for_delta(mu: DiscreteDistribution, nu: DiscreteDistribution, delta) -> float:
    """Smallest realized-distance threshold w with (w, delta)-closeness.

    With delta = 0 this equals winf_distance; with delta = 1 it is 0.
    """
    delta_frac = Fraction(delta)
    if not (0 <= delta_frac <= 1):
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    dist = _pairwise_l1(mu, nu)

    def needed(scale: int) -> int:
        return scale - math.floor(delta_frac * scale)

    return _smallest_feasible_threshold(mu, nu, dist, needed)


def closeness_from_bounds(delta_e1: float, c: float) -> float:
    """Closeness radius implied by mean gaps plus concentration.

    If each query distribution puts mass at least 1 - delta/2 within L1
    radius c of its mean, every protected pair is (delta_e1 + 2c, delta)-
    close, where delta_e1 is the worst-case L1 distance between means.
    """
    if delta_e1 < 0 or c < 0:
        raise ValueError("both bound terms must be nonnegative")
    return float(delta_e1) + 2.0 * float(c)


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
    resolution = int(mass_resolution)
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


def discretize_gaussian(
    mean,
    cov,
    points_per_axis: int = 41,
    half_width_sds: float = 6.0,
    mass_resolution: int = 10**6,
) -> DiscreteDistribution:
    """Axis-aligned grid approximation of a Gaussian.

    Covers each axis to +/- half_width_sds standard deviations and
    assigns rational masses proportional to the density. This is a
    bridging approximation for cross-checking transport bounds against
    Gaussian models; it is never an exact representation.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    m = mean.size
    sds = np.sqrt(np.maximum(np.diag(cov), 1e-300))
    axes = [
        np.linspace(mean[k] - half_width_sds * sds[k], mean[k] + half_width_sds * sds[k], points_per_axis)
        for k in range(m)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([g.ravel() for g in mesh])
    centered = points - mean
    mahal = np.einsum("ij,ji->i", centered, solve_spd(cov, centered.T))
    weights = np.exp(-0.5 * (mahal - mahal.min()))
    shares = weights / weights.sum()
    nums = np.floor(shares * mass_resolution).astype(object)
    shortfall = mass_resolution - int(nums.sum())
    # Hand the rounding remainder to the heaviest cells, deterministically.
    for idx in np.argsort(-shares, kind="stable")[:shortfall]:
        nums[idx] += 1
    keep = np.nonzero(nums > 0)[0]
    return DiscreteDistribution(
        points[keep], [int(nums[i]) for i in keep], mass_resolution
    )
