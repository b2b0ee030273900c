"""Shared fixtures: analytic graphs, the worked three-operation example, and
independent oracles (Floyd-Warshall distances, naive pairwise network build,
brute-force triangle and modularity counters, a power-law sampler on scipy's
Hurwitz zeta, the eager power-law sampling table, its exact tail search and
the zeta tail formula, a heap-driven Walktrap and a link-table best cut, the
generator's breadth-first concept tree, the WSDL parse that resolves every
reference where it is used), and a text-mutation strategy for fuzzing the
readers."""

from __future__ import annotations

import heapq
import io
import re
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.special import zeta as scipy_zeta

from svcnet import corpus, plfit
from svcnet.community import DendroTree
from svcnet.corpus import (
    SAWSDL_NS,
    SAWSDL_NS_OLD,
    WSDL_NS,
    XSD_NS,
    CorpusError,
    OperationDesc,
    ParameterDesc,
    ParsedDescription,
    ServiceCollection,
    ServiceDesc,
)
from svcnet.errors import DegenerateInputError, UsageError
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


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


def reference_power_law_table(alpha: float, xmin: int) -> tuple[np.ndarray, float]:
    """The eager sampling table: every entry of the CDF from xmin up to a
    1e-9 survival (at most 2^21 entries) in one cumulative sum, and
    zeta(alpha, xmin)."""
    if alpha <= 1.0:
        raise UsageError("alpha must exceed 1")
    if xmin < 1:
        raise UsageError("xmin must be >= 1")
    z_xmin = plfit.hurwitz_zeta(alpha, float(xmin))
    length = 1024
    while plfit.hurwitz_zeta(alpha, float(xmin + length)) / z_xmin > 1e-9 and length < 1 << 21:
        length *= 2
    cdf = np.arange(xmin, xmin + length, dtype=np.float64)
    np.power(cdf, -alpha, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf /= z_xmin
    return cdf, z_xmin


def reference_draw(
    cdf: np.ndarray, z_xmin: float, alpha: float, xmin: int, size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Inverse-CDF draws on an eager table; past its end, the exact search."""
    u = rng.random(size)
    idx = np.searchsorted(cdf, u, side="left")
    out = xmin + idx
    for pos in np.flatnonzero(idx >= cdf.size):
        out[pos] = reference_tail_quantile(alpha, xmin, float(u[pos]), z_xmin)
    return out.astype(np.int64)


def reference_tail_quantile(alpha: float, xmin: int, u: float, z_xmin: float) -> int:
    """Smallest x with zeta(alpha, x+1)/zeta(alpha, xmin) <= 1-u, by doubling
    and a hand-written bisection; a quantile of 2^63 or more raises
    :class:`DegenerateInputError`."""
    target = (1.0 - u) * z_xmin
    draw_max = int(np.iinfo(np.int64).max)
    hi = max(2 * xmin, 2)
    while plfit.hurwitz_zeta(alpha, float(hi + 1)) > target:
        if hi >= draw_max:
            raise DegenerateInputError(f"alpha={alpha!r} draws values of 2^63 or more")
        hi = min(2 * hi, draw_max)
    lo = xmin
    while lo < hi:
        mid = (lo + hi) // 2
        if plfit.hurwitz_zeta(alpha, float(mid + 1)) <= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def reference_zeta_tail(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The Euler-Maclaurin tail of the Hurwitz zeta with every Bernoulli
    correction's numerator written out in full."""
    xs = x ** (-s)
    total = xs * x / (s - 1.0)
    total += xs / 2.0
    total += xs * s / (12.0 * x)
    total -= xs * s * (s + 1) * (s + 2) / (720.0 * x**3)
    total += xs * s * (s + 1) * (s + 2) * (s + 3) * (s + 4) / (30240.0 * x**5)
    total -= (
        xs * s * (s + 1) * (s + 2) * (s + 3) * (s + 4) * (s + 5) * (s + 6)
        / (1209600.0 * x**7)
    )
    return total


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


def reference_best_tree_cut(
    tree: DendroTree, a: np.ndarray, b: np.ndarray, deg: list[int], m: int
) -> tuple[list[list[str]], float]:
    """Best cut of one tree from a link table ``{community: {neighbour:
    links}}``, rebuilt under a new community id at every merge.

    Same signature and operation order as ``community._best_tree_cut``, so
    the two give the same groups and bit for bit the same gain.
    """
    n = len(tree.leaves)
    table: dict[int, dict[int, int]] = {i: {} for i in range(n)}
    for i, j in zip(a.tolist(), b.tolist()):
        table[i][j] = table[j][i] = 1
    sum_deg = list(deg)

    gains = [0.0]
    q = 0.0
    for pos, (c1, c2, _) in enumerate(tree.merges):
        new = n + pos
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
        q += between / m - 2.0 * (sum_deg[c1] / (2 * m)) * (sum_deg[c2] / (2 * m))
        gains.append(q)
        sum_deg.append(sum_deg[c1] + sum_deg[c2])

    best_t = max(range(len(gains)), key=lambda i: (gains[i], i))

    members: dict[int, list[str]] = {i: [leaf] for i, leaf in enumerate(tree.leaves)}
    for pos, (c1, c2, _) in enumerate(tree.merges[:best_t]):
        members[n + pos] = members.pop(c1) + members.pop(c2)
    return [sorted(g) for g in members.values()], gains[best_t]


# ---------------------------------------------------------------------------
# Reference generator concept tree
# ---------------------------------------------------------------------------


def reference_concept_tree(domain: str, spec) -> tuple[tuple[str, ...], list[tuple[str, str]]]:
    """``gen._concept_tree`` before concepts were listed by index: a
    breadth-first fill of a balanced tree, level by level up to
    ``spec.hierarchy_depth``, with child-to-parent edges."""
    base = f"http://svcnet.test/onto/{domain}#c"
    concepts = [f"{base}0"]
    edges: list[tuple[str, str]] = []
    frontier = [0]
    level = 0
    while len(concepts) < spec.concept_pool_size and level < spec.hierarchy_depth:
        level += 1
        next_frontier: list[int] = []
        for parent in frontier:
            for _ in range(spec.branching):
                if len(concepts) >= spec.concept_pool_size:
                    break
                child = len(concepts)
                concepts.append(f"{base}{child}")
                edges.append((f"{base}{child}", f"{base}{parent}"))
                next_frontier.append(child)
        frontier = next_frontier
    return tuple(concepts), edges


# ---------------------------------------------------------------------------
# Reference WSDL parse
# ---------------------------------------------------------------------------


def reference_parse_description(data: bytes, source: str = "<document>") -> ParsedDescription:
    """``corpus.parse_description`` before the pull parser, the QName memo and
    the shared parameters: one ``iterparse`` pass, then every QName split and
    every parameter built again wherever it is used.  It gives the same
    warnings, in the same order, and equal parameters."""
    # The tree drops the prefixes that QName attribute values use, so the
    # same pass collects them; a prefix bound twice keeps its first binding.
    # An unknown or multi-byte encoding named in the XML declaration raises
    # LookupError or ValueError rather than ParseError.
    nsmap: dict[str, str] = {}
    events = ET.iterparse(io.BytesIO(data), events=("start-ns",))
    try:
        for _, (prefix, uri) in events:
            nsmap.setdefault(prefix, uri)
    except (ET.ParseError, LookupError, ValueError) as exc:
        raise CorpusError(f"{source}: malformed XML: {exc}") from exc
    return _reference_describe(events.root, nsmap, source)


def _reference_describe(root: ET.Element, nsmap: dict[str, str], source: str) -> ParsedDescription:
    """The services of one parsed document; ``nsmap`` maps its prefixes to URIs."""
    if root.tag != f"{{{WSDL_NS}}}definitions":
        raise CorpusError(f"{source}: not a WSDL 1.1 document (root {root.tag})")

    warnings: list[str] = []
    doc = _ReferenceDocumentIndex(root, nsmap, source, warnings)

    service_name = doc.service_name()
    ops: list[OperationDesc] = []
    seen_ops: set[str] = set()
    for pt in root.findall(f"{{{WSDL_NS}}}portType"):
        for op_el in pt.findall(f"{{{WSDL_NS}}}operation"):
            op_name = op_el.get("name")
            if not op_name:
                warnings.append(f"{source}: unnamed operation skipped")
                continue
            if op_name in seen_ops:
                warnings.append(f"{source}: duplicate operation {op_name!r} kept once")
                continue
            seen_ops.add(op_name)
            inputs = doc.message_params(op_el.find(f"{{{WSDL_NS}}}input"), op_name)
            outputs = doc.message_params(op_el.find(f"{{{WSDL_NS}}}output"), op_name)
            if not inputs and not outputs:
                warnings.append(
                    f"{source}: operation {op_name!r} has neither inputs nor outputs"
                )
            ops.append(
                OperationDesc(
                    service=service_name,
                    name=op_name,
                    inputs=frozenset(inputs),
                    outputs=frozenset(outputs),
                )
            )

    svc = ServiceDesc(name=service_name, domain=None, operations=tuple(ops))
    return ParsedDescription(services=(svc,), warnings=tuple(warnings))


def _reference_model_reference(el: ET.Element, source: str, warnings: list[str]) -> str | None:
    raw = el.get(f"{{{SAWSDL_NS}}}modelReference")
    if raw is None:
        raw = el.get(f"{{{SAWSDL_NS_OLD}}}modelReference")
    if raw is None:
        return None
    iris = raw.split()
    if not iris:
        return None
    if len(iris) > 1:
        warnings.append(
            f"{source}: modelReference lists {len(iris)} IRIs; keeping the first ({iris[0]})"
        )
    if not corpus._is_absolute_iri(iris[0]):
        warnings.append(f"{source}: modelReference {iris[0]!r} is not an absolute IRI; dropped")
        return None
    return iris[0]


class _ReferenceDocumentIndex:
    """Schema, message and service lookups local to one WSDL document.

    The schema tables hold the parsed ``xsd:element``, ``xsd:complexType``
    and ``xsd:simpleType`` declarations themselves, keyed by (target
    namespace, name) and, first declaration wins, by name alone.
    """

    def __init__(self, root: ET.Element, nsmap: dict[str, str], source: str,
                 warnings: list[str]) -> None:
        self.root = root
        self.nsmap = nsmap
        self.source = source
        self.warnings = warnings
        self.elements: dict[tuple[str, str], ET.Element] = {}
        self.elements_by_name: dict[str, ET.Element] = {}
        self.types: dict[tuple[str, str], ET.Element] = {}
        self.types_by_name: dict[str, ET.Element] = {}
        # Every scanned declaration and wrapper child -> its modelReference.
        self.concepts: dict[ET.Element, str | None] = {}
        # Each element (None without an inline complexType) and complexType
        # -> its wrapper children.
        self.children: dict[ET.Element, list[ET.Element] | None] = {}
        self.messages: dict[str, list[ET.Element]] = {}  # name -> its <part>s
        self._scan_schemas()
        self._scan_messages()

    # -- scanning ----------------------------------------------------------

    def _scan_schemas(self) -> None:
        types_el = self.root.find(f"{{{WSDL_NS}}}types")
        if types_el is None:
            return
        tables = (
            ("element", self.elements, self.elements_by_name),
            ("complexType", self.types, self.types_by_name),
            ("simpleType", self.types, self.types_by_name),
        )
        for schema in types_el.iter(f"{{{XSD_NS}}}schema"):
            tns = schema.get("targetNamespace", "")
            for tag, table, by_name in tables:
                for decl in schema.findall(f"{{{XSD_NS}}}{tag}"):
                    name = decl.get("name")
                    if not name:
                        continue
                    self.concepts[decl] = _reference_model_reference(decl, self.source,
                                                                     self.warnings)
                    if tag == "element":
                        inline = decl.find(f"{{{XSD_NS}}}complexType")
                        self.children[decl] = None if inline is None else self._wrapped(inline)
                    elif tag == "complexType":
                        self.children[decl] = self._wrapped(decl)
                    table[(tns, name)] = decl
                    by_name.setdefault(name, decl)

    def _wrapped(self, ct: ET.Element) -> list[ET.Element]:
        """The child elements of a complexType's sequence, all and choice, in
        that order; each one's concept is recorded as it is listed."""
        children: list[ET.Element] = []
        for group_tag in ("sequence", "all", "choice"):
            group = ct.find(f"{{{XSD_NS}}}{group_tag}")
            if group is not None:
                children.extend(group.findall(f"{{{XSD_NS}}}element"))
        for child in children:
            self.concepts[child] = _reference_model_reference(child, self.source, self.warnings)
        return children

    def _scan_messages(self) -> None:
        for msg in self.root.findall(f"{{{WSDL_NS}}}message"):
            name = msg.get("name")
            if not name:
                continue
            self.messages.setdefault(name, msg.findall(f"{{{WSDL_NS}}}part"))

    # -- lookups -----------------------------------------------------------

    def service_name(self) -> str:
        services = self.root.findall(f"{{{WSDL_NS}}}service")
        if services:
            if len(services) > 1:
                self.warnings.append(
                    f"{self.source}: multiple service elements; using the first"
                )
            name = services[0].get("name")
            if name:
                return name
        name = self.root.get("name")
        if name:
            return name
        stem = Path(self.source).stem
        return stem or "service"

    def _split_qname(self, raw: str) -> tuple[str | None, str]:
        if ":" in raw:
            prefix, local = raw.split(":", 1)
            return self.nsmap.get(prefix), local
        return self.nsmap.get(""), raw

    def _find(self, table: dict[tuple[str, str], ET.Element],
              by_name: dict[str, ET.Element], raw: str) -> ET.Element | None:
        ns, local = self._split_qname(raw)
        if ns is not None and (ns, local) in table:
            return table[(ns, local)]
        return by_name.get(local)

    def _named_type(self, raw: str | None) -> ET.Element | None:
        """The declared type ``raw`` names; a built-in XSD type has none."""
        if raw is None or self._split_qname(raw)[0] == XSD_NS:
            return None
        return self._find(self.types, self.types_by_name, raw)

    def _param(self, name: str, type_raw: str | None, concept: str | None) -> ParameterDesc:
        """A leaf parameter; without a concept of its own it takes its named type's."""
        if concept is None:
            decl = self._named_type(type_raw)
            concept = None if decl is None else self.concepts[decl]
        return ParameterDesc(name=name, xsd_type=type_raw, concept=concept)

    def _leaf(self, el: ET.Element) -> ParameterDesc:
        return self._param(el.get("name"), el.get("type"), self.concepts[el])

    def _unresolved(self, what: str, raw: str) -> ParameterDesc:
        """A reference to no declared element: a bare parameter named by its local part."""
        _, local = self._split_qname(raw)
        if not local:
            raise CorpusError(f"{self.source}: {what} {raw!r} has no local name")
        self.warnings.append(
            f"{self.source}: {what} {raw!r}; parameter kept without type or concept"
        )
        return ParameterDesc(name=local)

    # -- flattening --------------------------------------------------------

    def message_params(self, io_el: ET.Element | None, op_name: str) -> list[ParameterDesc]:
        if io_el is None:
            return []
        msg_raw = io_el.get("message")
        if not msg_raw:
            self.warnings.append(f"{self.source}: {op_name}: input/output without message")
            return []
        _, msg_local = self._split_qname(msg_raw)
        parts = self.messages.get(msg_local)
        if parts is None:
            self.warnings.append(f"{self.source}: {op_name}: unknown message {msg_raw!r}")
            return []
        params: list[ParameterDesc] = []
        for part in parts:
            params.extend(self._part_params(part, op_name))
        return _reference_dedupe_params(params)

    def _part_params(self, part: ET.Element, op_name: str) -> list[ParameterDesc]:
        element_raw = part.get("element")
        if element_raw:
            el = self._find(self.elements, self.elements_by_name, element_raw)
            if el is None:
                return [self._unresolved(f"{op_name}: unresolved element", element_raw)]
            return self._element_params(el)
        name = part.get("name")
        type_raw = part.get("type")
        if type_raw:
            return [self._param(name or "part", type_raw, None)]
        if name:
            self.warnings.append(
                f"{self.source}: {op_name}: part {name!r} has neither element nor type"
            )
            return [ParameterDesc(name=name)]
        return []

    def _element_params(self, el: ET.Element) -> list[ParameterDesc]:
        children = self.children[el]
        if children is None:
            children = self.children.get(self._named_type(el.get("type")))
        if not children:
            return [self._leaf(el)]
        # Complex wrapper: each top-level child element is one parameter.
        params = []
        for child in children:
            ref = child.get("ref")
            if ref:
                target = self._find(self.elements, self.elements_by_name, ref)
                if target is None:
                    params.append(self._unresolved("unresolved element ref", ref))
                else:
                    params.append(self._leaf(target))
            elif child.get("name"):
                params.append(self._leaf(child))
        return params


def _reference_dedupe_params(params: list[ParameterDesc]) -> list[ParameterDesc]:
    seen: set[tuple[str, str | None]] = set()
    out: list[ParameterDesc] = []
    for p in params:
        key = (p.name, p.concept)
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


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
