"""Walktrap community detection and Newman modularity.

Direction is discarded: both run on the undirected projection of the
interaction network, read with its weak components from the network's cached
integer view (:attr:`InteractionNetwork.view`).  Walktrap measures distances
between nodes through t-step random-walk transition probabilities and
agglomerates adjacent communities with the Ward-style merge that minimizes
the increase in squared walk distances, read from a dense matrix of the
merge costs of adjacent communities.  Disconnected inputs are processed per
weak component, giving a forest of dendrograms; the best partition is the
modularity-maximal cut, scanned per tree (modularity is additive over
components), which counts the links between communities in a dense matrix.

Merge-cost ties break by smallest leaf index, which is smallest member node id
since leaves are sorted, so runs are reproducible.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from .errors import SvcnetError, UsageError
from .netbuild import InteractionNetwork, per_block

# Largest weak component Walktrap takes at the default walk length.  It holds
# two dense float64 n x n matrices at a time, 16 n^2 bytes (some 400 MB at this
# limit): at the default t = 4, and any power of two, the walk power keeps one
# factor and its product (:func:`_walk_matrix`), and the merges the walk and
# cost matrices, beside one block of gathered rows of at most
# ``netbuild.KERNEL_BYTES``.  Other t keep a third matrix in the walk power,
# 24 n^2 bytes, so :func:`check_walktrap_limit` takes the components within the
# same bytes, up to 4082 nodes.  The best cut holds its link counts, 4 n^2 bytes.
WALKTRAP_MAX_NODES = 5000


@dataclass(frozen=True)
class DendroTree:
    """Merge tree for one weak component; leaves are sorted node ids.

    Merges reference local community indices: leaf i is index i, the merge at
    position p creates community ``len(leaves) + p``.  Heights are the running
    total of Ward merge costs, hence non-decreasing.
    """

    leaves: tuple[str, ...]
    merges: tuple[tuple[int, int, float], ...]


@dataclass(frozen=True)
class Dendrogram:
    trees: tuple[DendroTree, ...]

    @property
    def n_merges(self) -> int:
        return sum(len(t.merges) for t in self.trees)


@dataclass(frozen=True)
class Partition:
    """Total assignment of node ids to dense community ids 0..k-1."""

    assignment: dict[str, int]
    community_count: int

    def communities(self) -> list[tuple[str, ...]]:
        groups: dict[int, list[str]] = {}
        for node in sorted(self.assignment):
            groups.setdefault(self.assignment[node], []).append(node)
        return [tuple(groups[c]) for c in range(self.community_count)]


@dataclass(frozen=True)
class ModularityScore:
    q: float


def _pairs_within(net: InteractionNetwork,
                  blocks: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per block of a partition of the node indices, the undirected pairs with
    both ends in the block, as positions within it, in pair order."""
    group = np.empty(net.n_nodes, dtype=np.int64)
    local = np.empty(net.n_nodes, dtype=np.int64)
    for g, block in enumerate(blocks):
        group[block] = g
        local[block] = np.arange(len(block))
    a, b = net.view.pairs.T
    inside = group[a] == group[b]
    a, b = a[inside], b[inside]
    order = np.argsort(group[a], kind="stable")
    a, b = a[order], b[order]
    bounds = np.searchsorted(group[a], np.arange(len(blocks) + 1))
    return [(local[a[lo:hi]], local[b[lo:hi]]) for lo, hi in zip(bounds[:-1], bounds[1:])]


# ---------------------------------------------------------------------------
# Walktrap
# ---------------------------------------------------------------------------


def walktrap(net: InteractionNetwork, walk_length: int = 4) -> Dendrogram:
    """Build the Walktrap merge forest with t-step walk distances."""
    if walk_length <= 0:
        raise UsageError("walk length must be >= 1")
    if not net.nodes:
        raise UsageError("walktrap needs a non-empty network")
    check_walktrap_limit(net, walk_length)
    view = net.view
    # One tree per weak component, in label order, i.e. by smallest member id.
    _, sizes = np.unique(view.component, return_counts=True)
    blocks = np.split(np.argsort(view.component, kind="stable"), np.cumsum(sizes)[:-1])
    trees = [
        _walktrap_component(tuple(net.ids[i] for i in block.tolist()), a, b, walk_length)
        for block, (a, b) in zip(blocks, _pairs_within(net, blocks))
    ]
    return Dendrogram(trees=tuple(trees))


def check_walktrap_limit(net: InteractionNetwork, walk_length: int = 4) -> None:
    """Refuse ``net`` if Walktrap at ``walk_length`` would hold more bytes for
    its largest weak component, which is the giant's size, than it holds at the
    default for :data:`WALKTRAP_MAX_NODES` nodes: 16 bytes x n^2 when the walk
    length is a power of two and 24 otherwise (:func:`_walk_matrix`)."""
    import math

    n_nodes = int(np.bincount(net.view.component).max()) if net.n_nodes else 0
    per_pair = 16 if walk_length & (walk_length - 1) == 0 else 24
    limit = math.isqrt(16 * WALKTRAP_MAX_NODES**2 // per_pair)
    if n_nodes > limit:
        raise UsageError(
            f"walktrap takes components of at most {limit} nodes at walk length "
            f"{walk_length} (it holds up to {per_pair} bytes x n^2); this one has {n_nodes}"
        )


def _walk_matrix(a: np.ndarray, b: np.ndarray, deg: np.ndarray, t: int) -> np.ndarray:
    """P^t for the transition matrix P of the undirected pairs ``a``/``b``.

    The products are ``np.linalg.matrix_power``'s, in its order (binary
    decomposition from the lowest bit, but ``(P P) P`` at t = 3), so every
    entry has its bits.  Each factor is dropped once no later product reads
    it, so when t is a power of two no more than two matrices are live.
    """
    n = len(deg)
    z = np.zeros((n, n), dtype=np.float64)
    z[a, b] = 1.0 / deg[a]
    z[b, a] = 1.0 / deg[b]
    if t == 3:
        return (z @ z) @ z
    result = None
    while True:
        t, bit = divmod(t, 2)
        if bit:
            result = z if result is None else result @ z
        if t == 0:
            return result
        z = z @ z


def _walktrap_component(
    leaves: tuple[str, ...], a: np.ndarray, b: np.ndarray, t: int
) -> DendroTree:
    """Merge tree of one component; ``a``/``b`` are its pairs' local ends.

    A live community keeps the walk row of its smallest leaf, so row order is
    the tie-break order.  Among live rows, ``cost`` holds the merge cost of
    each adjacent pair (``inf`` elsewhere) and ``rowmin`` each row's least
    cost, so the next merge is the first least row minimum with its first
    least partner: the order of a heap of ``(cost, first leaf, first leaf)``.
    """
    n = len(leaves)
    if n == 1:
        return DendroTree(leaves=leaves, merges=())

    deg = np.bincount(np.concatenate([a, b]), minlength=n)
    walk = _walk_matrix(a, b, deg, t)
    inv_deg = 1.0 / deg

    # Per row: the community's size and local id (leaves 0..n-1, then n+i).
    size = np.ones(n, dtype=np.int64)
    ids = list(range(n))

    # Rows gathered at once from the walk or cost matrix: a hub's costs and
    # rescans hold one block of them, within the kernels' byte budget, beside
    # the two matrices.
    block = per_block(8 * n)

    def costs(row: int, others: np.ndarray) -> np.ndarray:
        sums = np.empty(len(others))
        for lo in range(0, len(others), block):
            diff = walk[others[lo:lo + block]]
            diff -= walk[row]
            diff *= diff
            diff *= inv_deg
            sums[lo:lo + block] = diff.sum(axis=1)
        s, s_other = size[row], size[others]
        return s * s_other / (s + s_other) * sums / n

    # Each leaf's costs to its higher neighbours; the pairs come sorted, a < b.
    cost = np.full((n, n), np.inf)
    starts = np.searchsorted(a, np.arange(n + 1)).tolist()
    for i, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
        if lo < hi:
            cost[i, b[lo:hi]] = cost[b[lo:hi], i] = costs(i, b[lo:hi])
    rowmin = cost.min(axis=1)

    merges: list[tuple[int, int, float]] = []
    sigma = 0.0
    for new in range(n, 2 * n - 1):
        r1 = int(rowmin.argmin())
        r2 = int(cost[r1].argmin())
        sigma += float(cost[r1, r2])
        merges.append((ids[r1], ids[r2], sigma))

        # The merged community's neighbours, and each one's least cost to r1
        # or r2.
        nearest = np.minimum(cost[r1], cost[r2])
        nearest[r1] = nearest[r2] = np.inf
        others = (nearest < np.inf).nonzero()[0]

        # r1's row becomes the merged community's; r2's is never read again.
        s1, s2 = size[r1], size[r2]
        row = walk[r1]
        row *= s1
        row += s2 * walk[r2]
        row /= s1 + s2
        size[r1] = s1 + s2
        ids[r1] = new
        cost[:, r2] = rowmin[r2] = np.inf

        merged = costs(r1, others)
        cost[r1, others] = cost[others, r1] = merged
        rowmin[r1] = merged.min(initial=np.inf)
        # A neighbour whose least cost was to r1 or r2, and is not now to the
        # merged community, rescans its row.
        best = np.minimum(rowmin[others], merged)
        rowmin[others] = best
        rescan = others[best == nearest[others]]
        for lo in range(0, len(rescan), block):
            rows = rescan[lo:lo + block]
            rowmin[rows] = cost[rows].min(axis=1)
    return DendroTree(leaves=leaves, merges=tuple(merges))


# ---------------------------------------------------------------------------
# Modularity
# ---------------------------------------------------------------------------


def modularity(net: InteractionNetwork, partition: Partition) -> ModularityScore:
    """Newman modularity of a total partition on the undirected projection."""
    node_set = set(net.nodes)
    assigned = set(partition.assignment)
    if assigned != node_set:
        missing = sorted(node_set - assigned)[:3]
        extra = sorted(assigned - node_set)[:3]
        raise SvcnetError(
            f"partition does not match network (missing={missing}, extra={extra})"
        )
    view = net.view
    m = len(view.pairs)
    if m == 0:
        return ModularityScore(0.0)

    # Community ids renumbered 0..k-1 in sorted order.
    labels, community = np.unique(
        [partition.assignment[node] for node in net.ids], return_inverse=True
    )
    ca, cb = community[view.pairs.T]
    internal = np.bincount(ca[ca == cb], minlength=len(labels))
    ends = np.bincount(np.concatenate((ca, cb)), minlength=len(labels)) / (2 * m)
    return ModularityScore(float((internal / m - ends * ends).sum()))


def best_partition(
    dendrogram: Dendrogram, net: InteractionNetwork
) -> tuple[Partition, ModularityScore]:
    """Scan every dendrogram cut and return the modularity-maximal partition.

    Ties prefer fewer communities.  Cuts are chosen per tree; since
    communities never span components, per-tree maximization is exactly the
    maximum over all combined cuts.
    """
    view = net.view
    if sorted(leaf for tree in dendrogram.trees for leaf in tree.leaves) != list(net.ids):
        raise SvcnetError("dendrogram does not cover the network's nodes")
    m = len(view.pairs)
    groups: list[list[str]] = []
    if m == 0:
        groups = [[n] for n in net.ids]
        q_total = 0.0
    else:
        deg = view.und_deg.tolist()
        q_total = sum(-((d / (2 * m)) ** 2) for d in deg)
        index = {node: i for i, node in enumerate(net.ids)}
        blocks = [np.fromiter(map(index.get, tree.leaves), np.int64) for tree in dendrogram.trees]
        for tree, block, (a, b) in zip(dendrogram.trees, blocks, _pairs_within(net, blocks)):
            chosen, q_gain = _best_tree_cut(tree, a, b, [deg[i] for i in block.tolist()], m)
            q_total += q_gain
            groups.extend(chosen)

    groups.sort(key=lambda g: g[0])
    assignment = {node: cid for cid, group in enumerate(groups) for node in group}
    part = Partition(assignment=assignment, community_count=len(groups))
    return part, ModularityScore(q_total)


def _best_tree_cut(
    tree: DendroTree, a: np.ndarray, b: np.ndarray, deg: list[int], m: int
) -> tuple[list[list[str]], float]:
    """Best cut of one tree; ``a``/``b`` are its pairs' leaf positions and
    ``deg`` its leaves' undirected degrees.  ``links`` counts the links between
    live communities, a merged one in its first part's row, ``row[c]``; no other
    entry is read, so none is reset."""
    n = len(tree.leaves)
    links = np.zeros((n, n), dtype=np.int32)  # any entry, live or dead, is <= m < 2^31
    links[a, b] = links[b, a] = 1
    row = list(range(n))
    sum_deg = list(deg)

    gains = [0.0]
    q = 0.0
    for c1, c2, _ in tree.merges:
        r1, r2 = row[c1], row[c2]
        between = int(links[r1, r2])
        links[r1] += links[r2]
        links[:, r1] = links[r1]
        row.append(r1)
        q += between / m - 2.0 * (sum_deg[c1] / (2 * m)) * (sum_deg[c2] / (2 * m))
        gains.append(q)
        sum_deg.append(sum_deg[c1] + sum_deg[c2])

    best_t = max(range(len(gains)), key=lambda i: (gains[i], i))

    members: dict[int, list[str]] = {i: [leaf] for i, leaf in enumerate(tree.leaves)}
    for pos, (c1, c2, _) in enumerate(tree.merges[:best_t]):
        members[n + pos] = members.pop(c1) + members.pop(c2)
    return [sorted(g) for g in members.values()], gains[best_t]


# ---------------------------------------------------------------------------
# Domain overlap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainOverlap:
    available: bool
    contingency: tuple[tuple[int, str, int], ...]  # (community, domain, count)
    purity: float | None


def domain_overlap(partition: Partition, domains: dict[str, str | None]) -> DomainOverlap:
    """Contingency of communities against thematic domains, plus purity.

    ``domains`` maps each ``op_id`` to its domain, as
    :meth:`ServiceCollection.domain_of_operation` gives it.  Unlabeled
    operations count under the pseudo-domain ``(none)``; if nothing is
    labeled the overlap is reported unavailable.
    """
    if all(domains.get(node) is None for node in partition.assignment):
        return DomainOverlap(available=False, contingency=(), purity=None)

    counts = Counter((community, domains.get(node) or "(none)")
                     for node, community in partition.assignment.items())
    table = tuple((community, domain, counts[community, domain])
                  for community, domain in sorted(counts))
    best = sum(max(count for _, _, count in rows)
               for _, rows in groupby(table, key=itemgetter(0)))
    return DomainOverlap(available=True, contingency=table,
                         purity=best / len(partition.assignment))


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def partition_to_csv(partition: Partition) -> str:
    """``node_id,community_id`` rows in id order, one per line.  An id that
    holds a comma, a double quote, a line feed or a carriage return is quoted
    and its quotes doubled, as ``csv.reader`` reads it.  (``csv.writer``
    quotes a lone carriage return or not depending on its line terminator.)"""

    def field(node: str) -> str:
        if any(c in node for c in ',"\n\r'):
            return '"' + node.replace('"', '""') + '"'
        return node

    rows = (f"{field(node)},{partition.assignment[node]}\n"
            for node in sorted(partition.assignment))
    return "node_id,community_id\n" + "".join(rows)


def dendrogram_to_json(dendrogram: Dendrogram) -> str:
    doc = {
        "trees": [
            {
                "leaves": list(tree.leaves),
                "merges": [[a, b, height] for a, b, height in tree.merges],
            }
            for tree in dendrogram.trees
        ]
    }
    return json.dumps(doc, indent=2) + "\n"
