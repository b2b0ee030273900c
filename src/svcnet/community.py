"""Walktrap community detection and Newman modularity.

Direction is discarded: both run on the undirected projection of the
interaction network, read with its weak components from the network's cached
integer view (:attr:`InteractionNetwork.view`).  Walktrap measures distances
between nodes through t-step random-walk transition probabilities and
agglomerates adjacent communities with the Ward-style merge that minimizes
the increase in squared walk distances.  Disconnected inputs are processed
per weak component, giving a forest of dendrograms; the best partition is the
modularity-maximal cut, scanned per tree (modularity is additive over
components).  Both count the links between communities in one shared table.

Merge-cost ties break by smallest leaf index, which is smallest member node id
since leaves are sorted, so runs are reproducible.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass

import numpy as np

from .errors import SvcnetError, UsageError
from .netbuild import InteractionNetwork

# Largest weak component Walktrap takes.  Its dense float64 transition and
# walk matrices and the ``matrix_power`` temporaries hold about 3 x 8 n^2
# bytes: some 600 MB at this limit.
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
    view = net.view
    # One tree per weak component, in label order, i.e. by smallest member id.
    _, sizes = np.unique(view.component, return_counts=True)
    blocks = np.split(np.argsort(view.component, kind="stable"), np.cumsum(sizes)[:-1])
    trees = [
        _walktrap_component(tuple(net.ids[i] for i in block.tolist()), a, b, walk_length)
        for block, (a, b) in zip(blocks, _pairs_within(net, blocks))
    ]
    return Dendrogram(trees=tuple(trees))


def _walktrap_component(
    leaves: tuple[str, ...], a: np.ndarray, b: np.ndarray, t: int
) -> DendroTree:
    """Merge tree of one component; ``a``/``b`` are its pairs' local ends."""
    n = len(leaves)
    if n > WALKTRAP_MAX_NODES:
        raise UsageError(
            f"walktrap takes components of at most {WALKTRAP_MAX_NODES} nodes "
            f"(its dense walk matrices need about 24 bytes x n^2); this one has {n}"
        )
    if n == 1:
        return DendroTree(leaves=leaves, merges=())

    deg = np.bincount(np.concatenate([a, b]), minlength=n)
    trans = np.zeros((n, n), dtype=np.float64)
    trans[a, b] = 1.0 / deg[a]
    trans[b, a] = 1.0 / deg[b]
    walk = np.linalg.matrix_power(trans, t)
    del trans
    inv_deg = 1.0 / deg

    # Community state by local id (leaves 0..n-1, then n+i); prob's keys are live.
    size = [1] * n
    first = list(range(n))
    prob: dict[int, np.ndarray] = {i: walk[i] for i in range(n)}
    links = _link_table(n, a, b)

    def heap_entry(c1: int, c2: int) -> tuple:
        if first[c2] < first[c1]:
            c1, c2 = c2, c1
        diff = prob[c1] - prob[c2]
        s1, s2 = size[c1], size[c2]
        cost = (s1 * s2 / (s1 + s2)) * float((diff * diff * inv_deg).sum()) / n
        return (cost, first[c1], first[c2], c1, c2)

    # Entries are unique and totally ordered, so the pops do not depend on the
    # order of the pushes.
    heap = [heap_entry(i, j) for i, j in zip(a.tolist(), b.tolist())]
    heapq.heapify(heap)

    merges: list[tuple[int, int, float]] = []
    sigma = 0.0
    while len(merges) < n - 1:
        cost, _, _, c1, c2 = heapq.heappop(heap)
        if c1 not in prob or c2 not in prob:
            continue
        new = n + len(merges)
        sigma += cost
        merges.append((c1, c2, sigma))

        s1, s2 = size[c1], size[c2]
        prob[new] = (s1 * prob.pop(c1) + s2 * prob.pop(c2)) / (s1 + s2)
        size.append(s1 + s2)
        first.append(min(first[c1], first[c2]))
        _merge_links(links, c1, c2, new)
        for other in links[new]:
            heapq.heappush(heap, heap_entry(new, other))
    return DendroTree(leaves=leaves, merges=tuple(merges))


def _link_table(n: int, a: np.ndarray, b: np.ndarray) -> dict[int, dict[int, int]]:
    """Links between the communities of a tree's leaves 0..n-1, as
    ``{community: {neighbour: links}}``; ``a``/``b`` are the pairs' ends."""
    table: dict[int, dict[int, int]] = {i: {} for i in range(n)}
    for i, j in zip(a.tolist(), b.tolist()):
        table[i][j] = table[j][i] = 1
    return table


def _merge_links(table: dict[int, dict[int, int]], c1: int, c2: int, new: int) -> int:
    """Merge communities ``c1`` and ``c2`` of ``table`` into ``new``; return
    the number of links between them."""
    between = table[c1].get(c2, 0)
    merged: dict[int, int] = {}
    for source in (c1, c2):
        for other, count in table.pop(source).items():
            if other in (c1, c2):
                continue
            merged[other] = merged.get(other, 0) + count
            peer = table[other]
            del peer[source]
            peer[new] = peer.get(new, 0) + count
    table[new] = merged
    return between


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
    internal = np.bincount(ca[ca == cb], minlength=len(labels)).tolist()
    endpoint = np.bincount(np.concatenate((ca, cb)), minlength=len(labels)).tolist()
    q = 0.0
    for e_c, d_c in zip(internal, endpoint):
        if d_c:  # a community without links adds no term
            a_c = d_c / (2 * m)
            q += e_c / m - a_c * a_c
    return ModularityScore(q)


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
    ``deg`` its leaves' undirected degrees."""
    n = len(tree.leaves)
    links = _link_table(n, a, b)
    sum_deg = list(deg)

    gains = [0.0]
    q = 0.0
    for pos, (c1, c2, _) in enumerate(tree.merges):
        between = _merge_links(links, c1, c2, n + pos)
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
    labeled = {
        node: domains.get(node) for node in partition.assignment
    }
    if not any(v is not None for v in labeled.values()):
        return DomainOverlap(available=False, contingency=(), purity=None)

    counts: dict[tuple[int, str], int] = {}
    for node in sorted(partition.assignment):
        key = (partition.assignment[node], labeled[node] or "(none)")
        counts[key] = counts.get(key, 0) + 1

    best_per_community: dict[int, int] = {}
    for (community, _), count in counts.items():
        best_per_community[community] = max(best_per_community.get(community, 0), count)
    total = len(partition.assignment)
    purity = sum(best_per_community.values()) / total if total else None

    table = tuple(
        (community, domain, counts[(community, domain)])
        for community, domain in sorted(counts)
    )
    return DomainOverlap(available=True, contingency=table, purity=purity)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def partition_to_csv(partition: Partition) -> str:
    lines = ["node_id,community_id"]
    for node in sorted(partition.assignment):
        lines.append(f"{node},{partition.assignment[node]}")
    return "\n".join(lines) + "\n"


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
