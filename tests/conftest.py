"""Shared fixtures: analytic graphs, the worked three-operation example, and
independent oracles (Floyd-Warshall distances, naive pairwise network build,
brute-force triangle and modularity counters, a power-law sampler on scipy's
Hurwitz zeta, a heap-driven Walktrap), and a text-mutation strategy for
fuzzing the readers."""

from __future__ import annotations

import heapq
import re

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.special import zeta as scipy_zeta

from svcnet.community import DendroTree
from svcnet.corpus import (
    OperationDesc,
    ParameterDesc,
    ServiceCollection,
    ServiceDesc,
)
from svcnet.matcher import MatcherKind, match_params
from svcnet.netbuild import BuildOptions, InteractionNetwork


def params(*names: str) -> frozenset[ParameterDesc]:
    return frozenset(ParameterDesc(name=n) for n in names)


def make_net(edges, nodes=None, kind=None) -> InteractionNetwork:
    edge_set = frozenset(tuple(e) for e in edges)
    node_set = set(nodes or ())
    for a, b in edge_set:
        node_set.update((a, b))
    return InteractionNetwork(nodes=tuple(sorted(node_set)), edges=edge_set, kind=kind)


def undirected(pairs) -> InteractionNetwork:
    """Undirected test graph stored with one directed edge per pair."""
    return make_net({(min(a, b), max(a, b)) for a, b in pairs})


@pytest.fixture
def fig1_collection() -> ServiceCollection:
    """The worked example: op1 outputs {c,d,e}, op2 needs {c,d} and outputs
    {e,f}, op3 needs {a,f,g}; unlisted sets are empty."""
    ops = (
        OperationDesc("figure1", "op1", inputs=params(), outputs=params("c", "d", "e")),
        OperationDesc("figure1", "op2", inputs=params("c", "d"), outputs=params("e", "f")),
        OperationDesc("figure1", "op3", inputs=params("a", "f", "g"), outputs=params()),
    )
    return ServiceCollection(services=(ServiceDesc("figure1", None, ops),))


@pytest.fixture
def two_triangle_bridge() -> InteractionNetwork:
    """Two triangles {0,1,2} and {3,4,5} joined by the bridge 2-3."""
    return undirected(
        [("t0", "t1"), ("t1", "t2"), ("t0", "t2"),
         ("t3", "t4"), ("t4", "t5"), ("t3", "t5"),
         ("t2", "t3")]
    )


@pytest.fixture
def k4() -> InteractionNetwork:
    nodes = [f"k{i}" for i in range(4)]
    return undirected([(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]])


@pytest.fixture
def star5() -> InteractionNetwork:
    return undirected([("hub", f"s{i}") for i in range(5)])


@pytest.fixture
def path3() -> InteractionNetwork:
    return make_net([("p1", "p2"), ("p2", "p3")])


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def floyd_warshall(net: InteractionNetwork) -> np.ndarray:
    """All-pairs shortest directed distances by min-plus iteration."""
    nodes = sorted(net.nodes)
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for src, dst in net.edges:
        dist[index[src], index[dst]] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


def naive_build(coll, kind: MatcherKind, onto=None, opts=BuildOptions()):
    """The defining double loop over ordered operation pairs."""
    ops = sorted(coll.operations(), key=lambda op: op.op_id)
    edges = set()
    for i in ops:
        for j in ops:
            if i.op_id == j.op_id:
                continue
            if not j.inputs:
                if opts.zero_input_targets:
                    edges.add((i.op_id, j.op_id))
                continue
            if all(
                any(
                    match_params(kind, q, p, onto, reflexive=opts.reflexive_subsumption)
                    for q in i.outputs
                )
                for p in j.inputs
            ):
                edges.add((i.op_id, j.op_id))
    return frozenset(edges)


def count_triangles_and_triples(net: InteractionNetwork) -> tuple[int, int]:
    """Brute-force triangle/connected-triple counts on the undirected graph."""
    nodes = sorted(net.nodes)
    adj = {n: set() for n in nodes}
    for a, b in net.edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    triangles = 0
    triples = 0
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            for w in nodes:
                if w <= v:
                    continue
                trio = [(u, v), (u, w), (v, w)]
                present = sum(1 for a, b in trio if b in adj[a])
                if present == 3:
                    triangles += 1
    for u in nodes:
        d = len(adj[u])
        triples += d * (d - 1) // 2
    return triangles, triples


def modularity_by_counting(net: InteractionNetwork, groups: list[set[str]]) -> float:
    """Direct edge-fraction evaluation of Q on the undirected projection."""
    edges = {tuple(sorted(e)) for e in net.edges}
    m = len(edges)
    q = 0.0
    for group in groups:
        internal = sum(1 for a, b in edges if a in group and b in group)
        ends = sum(1 for a, b in edges for x in (a, b) if x in group)
        q += internal / m - (ends / (2 * m)) ** 2
    return q


def oracle_power_law_sample(alpha: float, xmin: int, size: int, seed: int) -> np.ndarray:
    """Inverse-CDF sampler on scipy's Hurwitz zeta (independent of svcnet).

    Finds the smallest integer x with CDF(x) >= u by vectorized doubling plus
    bisection on the survival function.
    """
    rng = np.random.default_rng(seed)
    u = rng.random(size)
    target = (1.0 - u) * scipy_zeta(alpha, xmin)  # smallest x with zeta(alpha, x+1) <= target
    hi = np.full(size, 2 * xmin, dtype=np.int64)
    while True:
        bad = scipy_zeta(alpha, hi + 1) > target
        if not bad.any():
            break
        hi[bad] *= 2
    lo = np.full(size, xmin, dtype=np.int64)
    while (lo < hi).any():
        mid = (lo + hi) // 2
        ok = scipy_zeta(alpha, mid + 1) <= target
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid + 1)
    return lo


def reference_walktrap_component(
    leaves: tuple[str, ...], a: np.ndarray, b: np.ndarray, t: int
) -> DendroTree:
    """Walktrap merge tree of one component from a heap of merge costs, one
    entry per adjacent pair, popped in ``(cost, first leaf, first leaf)``
    order; stale entries of merged communities are skipped.

    Same signature and operation order as ``community._walktrap_component``,
    so the two agree bit for bit.
    """
    n = len(leaves)
    if n == 1:
        return DendroTree(leaves=leaves, merges=())
    deg = np.bincount(np.concatenate([a, b]), minlength=n)
    trans = np.zeros((n, n), dtype=np.float64)
    trans[a, b] = 1.0 / deg[a]
    trans[b, a] = 1.0 / deg[b]
    walk = np.linalg.matrix_power(trans, t)
    inv_deg = 1.0 / deg

    size = [1] * n
    first = list(range(n))
    prob = {i: walk[i] for i in range(n)}
    neighbours: dict[int, set[int]] = {i: set() for i in range(n)}
    for i, j in zip(a.tolist(), b.tolist()):
        neighbours[i].add(j)
        neighbours[j].add(i)

    def heap_entry(c1: int, c2: int) -> tuple:
        if first[c2] < first[c1]:
            c1, c2 = c2, c1
        diff = prob[c1] - prob[c2]
        s1, s2 = size[c1], size[c2]
        cost = (s1 * s2 / (s1 + s2)) * float((diff * diff * inv_deg).sum()) / n
        return (cost, first[c1], first[c2], c1, c2)

    heap = [heap_entry(i, j) for i, j in zip(a.tolist(), b.tolist())]
    heapq.heapify(heap)
    merges = []
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
        neighbours[new] = (neighbours.pop(c1) | neighbours.pop(c2)) - {c1, c2}
        for other in neighbours[new]:
            neighbours[other] -= {c1, c2}
            neighbours[other].add(new)
            heapq.heappush(heap, heap_entry(new, other))
    return DendroTree(leaves=leaves, merges=tuple(merges))


# ---------------------------------------------------------------------------
# Reader fuzzing
# ---------------------------------------------------------------------------

# Lone surrogates are left out: a strict UTF-8 file read cannot produce them.
TEXT_SPLICES = st.sampled_from([
    "", "<", ">", "/>", "&", ";", '"', "=", ":", "#", "\t", "\n", "\r", "\u2028", "\x00",
    "&amp;", "&#13;", "&#0;", "&undefined;", "<!--", "-->", "<![CDATA[x]]>", "é",
    '<!DOCTYPE x [<!ENTITY e "&#60;">]>', "&e;",
]) | st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)


@st.composite
def mutated_text(draw, seeds: list[str]) -> str:
    """One of ``seeds`` with lines deleted or repeated, attribute values
    swapped for others of the same document, short spans overwritten and
    maybe a truncated tail."""
    lines = draw(st.sampled_from(seeds)).split("\n")
    for _ in range(draw(st.integers(0, min(3, len(lines) - 1)))):
        i = draw(st.integers(0, len(lines) - 1))
        if draw(st.booleans()):
            del lines[i]
        else:
            lines.insert(i, lines[i])
    text = "\n".join(lines)
    spans = [m.span(1) for m in re.finditer(r'="([^"]*)"', text)]
    values = st.sampled_from(sorted({text[a:b] for a, b in spans} | {"", "#x", "bogus"}))
    for i in sorted(draw(st.sets(st.integers(0, len(spans) - 1), max_size=3)) if spans else (),
                    reverse=True):
        start, end = spans[i]
        text = text[:start] + draw(values) + text[end:]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = min(len(text), i + draw(st.integers(0, 8)))
        text = text[:i] + draw(TEXT_SPLICES) + text[j:]
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text
