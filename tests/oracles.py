"""Independent brute-force oracles the fast implementations are checked against.

These deliberately share no code with the package solvers: max flow is
plain breadth-first augmentation on a dense Fraction capacity matrix,
the bottleneck distance scans every realized threshold from below, a
certificate is checked one edge at a time in Fractions, a Dinic
blocking flow builds each node's candidate list when the DFS first visits
it, the Adult parser reads one decoded line at a time with str.split and int,
the auditor's events are scored by sorting each side and calling
np.quantile, its releases are drawn as a model draw plus the plan's noise
whatever the plan, and a meta-classifier is fitted on its own, one damped
Newton loop per feature matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List

import numpy as np

from distpriv.dataio import AGE_BOUNDS, EDUCATION_BOUNDS, HOURS_BOUNDS, Table, dataset_files
from distpriv.errors import FormatError, ParseError
from distpriv.mechanisms import _AUDIT_QUANTILES, apply_batch, gaussian_model_draws
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


def oracle_verify(cert, mu: DiscreteDistribution, nu: DiscreteDistribution, w: float, delta) -> bool:
    """ClosenessCertificate.verify as it once was: one Fraction sum and one
    numpy distance per edge. Trusts its edge indices and takes w and delta
    as given."""
    src_used = [Fraction(0)] * mu.size
    dst_used = [Fraction(0)] * nu.size
    total = Fraction(0)
    for i, j, mass in cert.coupling_edges:
        if mass < 0:
            return False
        d = float(np.abs(mu.points[i] - nu.points[j]).sum())
        if d > cert.max_retained_distance or d > w:
            return False
        src_used[i] += mass
        dst_used[j] += mass
        total += mass
    if total != cert.retained_mass:
        return False
    mu_masses, nu_masses = mu.masses(), nu.masses()
    if any(src_used[i] > mu_masses[i] for i in range(mu.size)):
        return False
    if any(dst_used[j] > nu_masses[j] for j in range(nu.size)):
        return False
    return total >= 1 - Fraction(delta)


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


def oracle_blocking_flow(net, allowed, row_layers, col_layers, limit) -> int:
    """One Dinic phase on a transport._Dinic, each node's candidate list
    built when the DFS first visits it.

    The same DFS as the package's, with nothing computed ahead of the
    search: no pruning, and one numpy mask and nonzero per node visited.
    Mutates `net` and the layer masks as the package does.
    """
    flow, supply, demand = net.flow, net.supply, net.demand
    last = len(col_layers) - 1
    row_next: dict = {}
    col_next: dict = {}
    total = 0
    for root in row_layers[0].nonzero()[0].tolist():
        path = [root]
        while path:
            node = path[-1]
            depth = (len(path) - 1) // 2
            if len(path) % 2:  # a row
                live = col_layers[depth]
                nxt = row_next.get(node)
                if nxt is None:
                    nxt = row_next[node] = (allowed[node] & live).nonzero()[0].tolist()
                while nxt and not live[nxt[-1]]:
                    nxt.pop()
                if nxt:
                    path.append(nxt[-1])
                    continue
                row_layers[depth][node] = False
            elif depth < last:  # a column short of the sink
                live = row_layers[depth + 1]
                nxt = col_next.get(node)
                if nxt is None:
                    nxt = col_next[node] = ((flow[:, node] > 0) & live).nonzero()[0].tolist()
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
                cut = next((2 * q + 2 for q, e in enumerate(backward) if flow[e] == 0), len(path) - 1)
                del path[cut:]
                continue
            path.pop()
    return total


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


def oracle_load_adult(path):
    """The Adult files at `path` read a row at a time, as `load_adult` once
    did: (table, rows dropped as missing, rows dropped as out of range).
    Neither logs the counts nor checks the canonical row count."""
    columns: List[List] = [[] for _ in range(7)]
    dropped_missing = 0
    dropped_range = 0
    for file in dataset_files(path):
        with open(file, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("|"):
                    continue
                fields = [f.strip() for f in line.split(",")]
                if len(fields) != 15:
                    raise FormatError(
                        f"{file.name}: expected 15 comma-separated fields, got {len(fields)}",
                        line=lineno,
                    )
                if "?" in fields:
                    dropped_missing += 1
                    continue
                try:
                    age = int(fields[0])
                    education_num = int(fields[4])
                    hours = int(fields[12])
                except ValueError as exc:
                    raise ParseError(f"{file.name}: {exc}", line=lineno) from exc
                if not (AGE_BOUNDS[0] <= age <= AGE_BOUNDS[1]
                        and EDUCATION_BOUNDS[0] <= education_num <= EDUCATION_BOUNDS[1]
                        and HOURS_BOUNDS[0] <= hours <= HOURS_BOUNDS[1]):
                    dropped_range += 1
                    continue
                label = fields[14].rstrip(".")
                columns[0].append(age)
                columns[1].append(education_num)
                columns[2].append(fields[5] == "Never-married")
                columns[3].append(fields[9] == "Female")
                columns[4].append(hours)
                columns[5].append(label == ">50K")
                columns[6].append(fields[1] == "Private")
    return Table(*columns), dropped_missing, dropped_range


def oracle_release_draws(plan, model, n, rng):
    """n releases of the plan's query under a model, drawn as `audit` once
    drew them for every plan: a model draw, then the plan's noise on it."""
    return apply_batch(plan, gaussian_model_draws(model, n, rng), rng)


def oracle_audit_violation(out_i, out_j, direction, params) -> float:
    """The auditor's score of release draws as `audit` once computed it:
    per direction, sort the pool and take `np.quantile` of it, sort each
    side, and count both tails of each side with its own `searchsorted`.
    `direction` is the Mahalanobis direction, or None when the means agree."""
    trials = out_i.shape[0]
    axes = [(out_i[:, k], out_j[:, k]) for k in range(out_i.shape[1])]
    if direction is not None:
        axes.append((out_i @ direction, out_j @ direction))

    def slack(p):
        return 3.0 * np.sqrt(p * (1.0 - p) / trials + 1.0 / trials**2)

    e_eps = math.exp(params.epsilon)
    worst = -math.inf
    for a_i, a_j in axes:
        thresholds = np.quantile(np.sort(np.concatenate([a_i, a_j])), _AUDIT_QUANTILES)
        s_i = np.sort(a_i)
        s_j = np.sort(a_j)
        for lower_tail in (True, False):
            if lower_tail:
                p_i = np.searchsorted(s_i, thresholds, side="right") / trials
                p_j = np.searchsorted(s_j, thresholds, side="right") / trials
            else:
                p_i = 1.0 - np.searchsorted(s_i, thresholds, side="left") / trials
                p_j = 1.0 - np.searchsorted(s_j, thresholds, side="left") / trials
            viol = (p_i - slack(p_i)) - e_eps * (p_j + slack(p_j)) - params.delta
            worst = max(worst, float(viol.max()))
    return worst


def oracle_train_meta_classifier(features, labels, halvings=None):
    """The meta-classifier of one (n, m) feature matrix, fitted as
    `train_meta_classifier` once did, alone: (weights, bias, means, scales).

    When `halvings` is a list, each Newton step appends how many times
    backtracking halved it (30 when it found no descent and the fit stopped),
    so its length is the number of steps taken. A step accepted at an
    unchanged loss is the fit's last."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    means = x.mean(axis=0)
    scales = x.std(axis=0)
    scales = np.where(scales > 0.0, scales, 1.0)
    z = (x - means) / scales

    def sigmoid(s):
        return 1.0 / (1.0 + np.exp(-np.clip(s, -35.0, 35.0)))

    def logistic_loss(theta):
        scores = design @ theta
        signed = np.where(y > 0.5, -scores, scores)
        return float(np.logaddexp(0.0, signed).sum() + 0.5 * (penalty * theta**2).sum())

    n, m = z.shape
    design = np.column_stack([z, np.ones(n)])
    theta = np.zeros(m + 1)
    penalty = np.append(np.full(m, 1.0), 0.0)
    loss = logistic_loss(theta)
    for _ in range(500):
        p = sigmoid(design @ theta)
        grad = design.T @ (p - y) + penalty * theta
        if float(np.linalg.norm(grad)) <= 1e-6:
            break
        w = np.clip(p * (1.0 - p), 1e-12, None)
        hessian = (design * w[:, None]).T @ design + np.diag(penalty) + 1e-12 * np.eye(m + 1)
        step = np.linalg.solve(hessian, grad)
        factor = 1.0
        flat = False
        for halved in range(30):
            candidate = theta - factor * step
            new_loss = logistic_loss(candidate)
            if new_loss <= loss:
                theta, loss, flat = candidate, new_loss, new_loss == loss
                break
            factor *= 0.5
        else:
            halved = 30
        if halvings is not None:
            halvings.append(halved)
        if halved == 30 or flat:
            break
    return theta[:m].copy(), float(theta[m]), means, scales
