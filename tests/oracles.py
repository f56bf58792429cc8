"""Independent brute-force oracles the fast implementations are checked against.

These deliberately share no code with the package solvers: max flow is
plain breadth-first augmentation on a dense Fraction capacity matrix,
and the bottleneck distance scans every realized threshold from below.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from distpriv.transport import DiscreteDistribution


def oracle_max_mass(mu: DiscreteDistribution, nu: DiscreteDistribution, w: float) -> Fraction:
    k, l = mu.size, nu.size
    n = k + l + 2
    source, sink = 0, n - 1
    cap = [[Fraction(0)] * n for _ in range(n)]
    mu_masses, nu_masses = mu.masses(), nu.masses()
    for i in range(k):
        cap[source][1 + i] = mu_masses[i]
    for j in range(l):
        cap[1 + k + j][sink] = nu_masses[j]
    for i in range(k):
        for j in range(l):
            if float(np.abs(mu.points[i] - nu.points[j]).sum()) <= w:
                cap[1 + i][1 + k + j] = min(mu_masses[i], nu_masses[j])

    flow = Fraction(0)
    while True:
        parent = [-1] * n
        parent[source] = source
        queue = [source]
        for u in queue:
            for v in range(n):
                if parent[v] < 0 and cap[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] < 0:
            return flow
        bottleneck = None
        v = sink
        while v != source:
            u = parent[v]
            bottleneck = cap[u][v] if bottleneck is None else min(bottleneck, cap[u][v])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            cap[u][v] -= bottleneck
            cap[v][u] += bottleneck
            v = u
        flow += bottleneck


def oracle_winf(mu: DiscreteDistribution, nu: DiscreteDistribution) -> float:
    thresholds = sorted(
        {float(np.abs(p - q).sum()) for p in mu.points for q in nu.points}
    )
    for t in thresholds:
        if oracle_max_mass(mu, nu, t) == 1:
            return t
    raise AssertionError("full transport must be feasible at the largest distance")


def scipy_max_mass(mu: DiscreteDistribution, nu: DiscreteDistribution, w: float) -> Fraction:
    """max_mass_within by scipy's maximum_flow on the same bipartite network.

    Needs scipy (a test-only dependency) and both sides over one
    denominator below 2**31, scipy's capacity range.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    assert mu.mass_den == nu.mass_den < 2**31
    k, l = mu.size, nu.size
    sup = np.asarray(mu.mass_num, dtype=np.int32)
    dem = np.asarray(nu.mass_num, dtype=np.int32)
    dist = np.abs(mu.points[:, None, :] - nu.points[None, :, :]).sum(axis=2)
    ii, jj = np.nonzero(dist <= w)
    sink = k + l + 1
    rows = np.concatenate([np.zeros(k, dtype=np.int64), 1 + ii, 1 + k + np.arange(l)])
    cols = np.concatenate([1 + np.arange(k), 1 + k + jj, np.full(l, sink)])
    caps = np.concatenate([sup, np.minimum(sup[ii], dem[jj]), dem])
    graph = csr_matrix((caps, (rows, cols)), shape=(sink + 1, sink + 1))
    return Fraction(int(maximum_flow(graph, 0, sink).flow_value), mu.mass_den)


def oracle_mean_cov_two_pass(samples: np.ndarray):
    """Two-pass mean/unbiased-covariance, scalar loops only."""
    x = np.asarray(samples, dtype=float)
    n, m = x.shape
    mean = np.zeros(m)
    for row in x:
        mean += row
    mean /= n
    cov = np.zeros((m, m))
    for row in x:
        d = row - mean
        for a in range(m):
            for b in range(m):
                cov[a, b] += d[a] * d[b]
    cov /= n - 1
    return mean, cov


def random_twentieths_distribution(rng: np.random.Generator, max_points: int = 5, dim: int | None = None):
    """Random distribution with <= max_points integer support points and
    masses in multiples of 1/20."""
    k = int(rng.integers(1, max_points + 1))
    m = int(rng.integers(1, 3)) if dim is None else dim
    while True:
        pts = rng.integers(-5, 6, size=(k, m)).astype(float)
        if len({tuple(r) for r in pts}) == k:
            break
    if k > 1:
        cuts = np.sort(rng.choice(np.arange(1, 20), size=k - 1, replace=False))
        nums = np.diff(np.concatenate([[0], cuts, [20]]))
    else:
        nums = np.array([20])
    return DiscreteDistribution(pts, [int(x) for x in nums], 20)
