"""Interaction-network construction and serialization.

An interaction network is a simple directed graph over operation ids.  A link
is drawn from operation i to operation j iff, for every input parameter of j,
a matching output parameter exists in i's outputs, i.e. i can supply all the
information j requires.  Candidate producers are generated through an inverted
index keyed by name or concept (expanded along the hierarchy for plug-in and
subsume), which is equivalent to the naive double loop over operation pairs.
A network is built, trimmed and exported as its sorted integer links.  Building,
reading and exporting one needs no numpy: the links are int64 buffers, and
numpy is imported by the functions that compute with them.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, islice
from typing import TYPE_CHECKING

from .corpus import ServiceCollection
from .errors import SvcnetError, UsageError
from .matcher import MatcherKind
from .ontology import Ontology, sniff_xml

if TYPE_CHECKING:
    import numpy as np

GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"

EXPORT_FORMATS = ("graphml", "dot", "edgelist")

# Exports are rendered this many lines at a time, so that writing one holds a
# few hundred kilobytes of text whatever the network's size.
EXPORT_CHUNK_LINES = 4096


@dataclass(frozen=True)
class BuildOptions:
    """Switches for the under-specified edge cases, recorded into reports in field order.

    ``zero_input_targets=False`` denies incoming links to operations whose
    input set is empty: the vacuous forall would otherwise make them universal
    authorities without any actual data flow.  ``reflexive_subsumption``
    selects the inclusive plug-in/subsume variants.
    """

    zero_input_targets: bool = False
    reflexive_subsumption: bool = False


def component_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Weak-component label of each of ``n`` nodes joined by the links a[k]-b[k]:
    the smallest node index in its component.

    Min-label propagation with pointer jumping: each round hooks the larger
    root of every still-split link onto the smaller one, then flattens the
    label forest, so every round removes at least one root.
    """
    import numpy as np

    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        if np.array_equal(la, lb):
            return label
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        up = label[label]
        while not np.array_equal(up, label):
            label, up = up, up[up]


@dataclass(frozen=True)
class NetworkView:
    """Arrays derived from a network's links, built on first use.

    ``pairs`` holds the undirected simple projection as rows (i, j), i < j, in
    row order.  ``component`` is the weak-component label of each node (its
    smallest member index).  The arrays are shared, so they are made read-only.
    """

    pairs: np.ndarray
    in_deg: np.ndarray
    out_deg: np.ndarray
    und_deg: np.ndarray
    component: np.ndarray

    def __post_init__(self) -> None:
        for value in vars(self).values():
            value.flags.writeable = False

    @property
    def total_deg(self) -> np.ndarray:
        return self.in_deg + self.out_deg


class InteractionNetwork:
    """Simple digraph: nodes are operation ids, link (i, j) means i can feed j.

    Node i is ``ids[i]``; ids are sorted, so index order is id order.  Link k
    is ``src[k] -> dst[k]``, in (src, dst) order, which is also the order of
    the id pairs.  The links are kept as int64 buffers, stdlib ``array('q')``
    or numpy; ``src`` and ``dst`` are read-only numpy views of them, made on
    first use.  The constructor indexes outside ids and id pairs and refuses
    duplicate ids, self-loops and links to undeclared nodes with ``ValueError``.
    """

    # __new__ rather than __init__: checked input and trusted links both end
    # in _from_links, the one place that stores a network
    def __new__(cls, nodes: Iterable[str] = (), edges: Iterable[tuple[str, str]] = (),
                kind: MatcherKind | None = None, options: BuildOptions = BuildOptions()):
        ids = tuple(sorted(nodes))
        index = {node: i for i, node in enumerate(ids)}
        if len(index) != len(ids):
            duplicate = next(a for a, b in zip(ids, ids[1:]) if a == b)
            raise ValueError(f"duplicate node id {duplicate!r}")
        n = len(ids)
        keys = set()
        for src, dst in edges:
            if src == dst:
                raise ValueError(f"self-loop on {src!r}")
            if src not in index or dst not in index:
                raise ValueError(f"edge endpoint not a node: ({src!r}, {dst!r})")
            keys.add(index[src] * n + index[dst])
        keys = sorted(keys)
        return cls._from_links(ids, array("q", [k // n for k in keys]),
                               array("q", [k % n for k in keys]), kind, options)

    @classmethod
    def _from_links(cls, ids, src, dst, kind, options) -> InteractionNetwork:
        """Trusted constructor: sorted unique ids, links sorted by (src, dst) in
        two int64 buffers, which the network keeps and never writes."""
        net = object.__new__(cls)
        net.ids, net._src, net._dst, net.kind, net.options = ids, src, dst, kind, options
        return net

    def __eq__(self, other: object) -> bool:
        import numpy as np

        return (isinstance(other, InteractionNetwork)
                and (self.ids, self.kind, self.options) == (other.ids, other.kind, other.options)
                and np.array_equal(self.src, other.src) and np.array_equal(self.dst, other.dst))

    @cached_property
    def src(self) -> np.ndarray:
        return _int64_view(self._src)

    @cached_property
    def dst(self) -> np.ndarray:
        return _int64_view(self._dst)

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.ids

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        """The links as id pairs, built on each call."""
        ids = self.ids
        return frozenset((ids[s], ids[d]) for s, d in _links(self))

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        return len(self._src)

    @cached_property
    def view(self) -> NetworkView:
        """The arrays every metric reads, derived from the links on first use."""
        import numpy as np

        n = len(self.ids)
        keys = np.unique(np.minimum(self.src, self.dst) * n + np.maximum(self.src, self.dst))
        pairs = np.stack(np.divmod(keys, n), axis=1)
        return NetworkView(
            pairs=pairs,
            in_deg=np.bincount(self.dst, minlength=n),
            out_deg=np.bincount(self.src, minlength=n),
            und_deg=np.bincount(pairs.ravel(), minlength=n),
            component=component_labels(n, pairs[:, 0], pairs[:, 1]),
        )

    def keep_components(self, keep: np.ndarray) -> InteractionNetwork:
        """Subnetwork on the nodes where ``keep`` is true (whole weak components);
        renumbering keeps index order, so the kept links stay sorted."""
        if keep.all():
            return self
        renumber = keep.cumsum() - 1
        links = keep[self.src] & keep[self.dst]
        return InteractionNetwork._from_links(
            tuple(compress(self.ids, keep.tolist())), renumber[self.src[links]],
            renumber[self.dst[links]], self.kind, self.options)


def _int64_view(links) -> np.ndarray:
    """A read-only int64 ndarray on the buffer ``links``."""
    import numpy as np

    view = np.asarray(links, dtype=np.int64).view()
    view.flags.writeable = False
    return view


def build_network(
    coll: ServiceCollection,
    kind: MatcherKind,
    onto: Ontology | None = None,
    opts: BuildOptions = BuildOptions(),
) -> InteractionNetwork:
    """Extract the interaction network of ``coll`` under one matching function.

    Result is identical to testing every ordered operation pair with
    ``match_params``; the inverted index only prunes candidate producers.
    """
    if kind in (MatcherKind.PLUGIN, MatcherKind.SUBSUME) and onto is None:
        raise UsageError(f"{kind.value} matching requires an ontology")

    ops = sorted(coll.operations(), key=lambda op: op.op_id)
    ids = tuple(op.op_id for op in ops)
    if len(set(ids)) != len(ids):
        duplicate = next(a for a, b in zip(ids, ids[1:]) if a == b)
        raise SvcnetError(f"duplicate operation id {duplicate!r} in the collection")

    producers: dict[str, set[int]] = {}
    for i, op in enumerate(ops):
        for q in op.outputs:
            key = q.name if kind is MatcherKind.EQUAL else q.concept
            if key is not None:
                producers.setdefault(key, set()).add(i)

    def producers_of(key: str | None) -> set[int]:
        """The operations with an output that matches an input of this key."""
        if key is None:
            return set()
        if kind in (MatcherKind.EQUAL, MatcherKind.EXACT):
            return producers.get(key, set())
        keys = (onto.descendants if kind is MatcherKind.PLUGIN else onto.ancestors)(key)
        if opts.reflexive_subsumption:
            keys = keys | {key}
        return set().union(*(producers.get(k, ()) for k in keys))

    # An input matches by its name under equal, by its concept otherwise, so
    # each key's producers are gathered once.  Targets are walked in index
    # order, so each source's bucket of targets comes out sorted.
    candidates: dict[str | None, set[int]] = {}
    targets: list[list[int]] = [[] for _ in ops]
    for j, op in enumerate(ops):
        feeders = set(range(len(ops))) if not op.inputs and opts.zero_input_targets else None
        for p in op.inputs:
            key = p.name if kind is MatcherKind.EQUAL else p.concept
            cand = candidates.get(key)
            if cand is None:
                cand = candidates[key] = producers_of(key)
            # copy: the candidate sets are shared, and feeders is mutated below
            feeders = set(cand) if feeders is None else feeders & cand
            if not feeders:
                break
        if feeders:
            feeders.discard(j)
            for i in feeders:
                targets[i].append(j)

    # The buckets in source order are the links in (src, dst) order.
    src, dst = array("q"), array("q")
    for i, bucket in enumerate(targets):
        src.extend(array("q", [i]) * len(bucket))
        dst.fromlist(bucket)
    return InteractionNetwork._from_links(ids, src, dst, kind, opts)


def trim_isolates(net: InteractionNetwork) -> tuple[InteractionNetwork, float]:
    """Drop the nodes with no link (undirected degree 0 in the network's view);
    return the trimmed network and the removed fraction of the original nodes."""
    trimmed = net.keep_components(net.view.und_deg > 0)
    return trimmed, (net.n_nodes - trimmed.n_nodes) / (net.n_nodes or 1)


# ---------------------------------------------------------------------------
# Serialization: GraphML, DOT, edge list (all deterministic)
# ---------------------------------------------------------------------------


def export_chunks(
    net: InteractionNetwork,
    format: str,
    domains: dict[str, str | None] | None = None,
) -> Iterator[str]:
    """Render the network as pieces of :data:`EXPORT_CHUNK_LINES` lines each, so
    a writer holds one piece at a time; nodes and links come in id order, so
    output is stable.

    Only GraphML preserves isolated nodes, the matcher kind, the build options
    and (optionally) per-node domain labels; the edge list is just sorted
    ``src<TAB>dst`` lines.  An unknown format, and an edge list that
    :func:`read_edgelist` could not read back, raise here, before any piece.
    """
    if format == "graphml":
        lines = _graphml_lines(net, domains)
    elif format == "dot":
        lines = _dot_lines(net)
    elif format == "edgelist":
        _check_edgelist(net)
        ids = net.ids
        lines = (f"{ids[s]}\t{ids[d]}\n" for s, d in _links(net))
    else:
        raise UsageError(f"unknown export format {format!r} (expected one of: "
                         + ", ".join(EXPORT_FORMATS) + ")")
    return _chunked(lines)


def export_network(
    net: InteractionNetwork,
    format: str,
    domains: dict[str, str | None] | None = None,
) -> str:
    """The text of :func:`export_chunks` as one string."""
    return "".join(export_chunks(net, format, domains))


def _chunked(lines: Iterable[str]) -> Iterator[str]:
    """``lines`` joined :data:`EXPORT_CHUNK_LINES` at a time."""
    lines = iter(lines)
    while chunk := "".join(islice(lines, EXPORT_CHUNK_LINES)):
        yield chunk


def _links(net: InteractionNetwork) -> Iterator[tuple[int, int]]:
    """The links as (src, dst) index pairs, taken from the buffers a chunk at a time."""
    src, dst = memoryview(net._src), memoryview(net._dst)
    for k in range(0, len(src), EXPORT_CHUNK_LINES):
        yield from zip(src[k:k + EXPORT_CHUNK_LINES].tolist(),
                       dst[k:k + EXPORT_CHUNK_LINES].tolist())


def _check_edgelist(net: InteractionNetwork) -> None:
    """Refuse the first link whose ``src<TAB>dst`` line :func:`read_edgelist`
    could not read back (a tab or line break in an id, an empty id, a line it
    would skip as blank or as a comment), or, as the first line, one that would
    be read as GraphML or lose a leading byte-order mark."""
    ids = net.ids
    for k, (s, d) in enumerate(_links(net)):
        src, dst = ids[s], ids[d]
        line = f"{src}\t{dst}"
        if (line.splitlines() != [line] or line.split("\t") != [src, dst] or not (src and dst)
                or not line.strip() or line.lstrip().startswith("#")
                or k == 0 and (line.startswith("\ufeff") or sniff_xml(line) is not None)):
            raise SvcnetError(f"link ({src!r}, {dst!r}) cannot be written as an edge-list "
                              "line; export GraphML instead")


# Line breaks and tabs in an attribute value would be read back as spaces.
_ATTRIBUTE_ENTITIES = {"\n": "&#10;", "\r": "&#13;", "\t": "&#9;"}


def escape(text: str, entities: dict[str, str] | None = None) -> str:
    """``text`` with ``&``, ``<`` and ``>`` escaped, then each key of
    ``entities`` replaced by its value, as ``xml.sax.saxutils.escape`` does."""
    text = text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    for key, value in (entities or {}).items():
        text = text.replace(key, value)
    return text


def quoteattr(text: str) -> str:
    """``text`` escaped and quoted as an attribute value, as
    ``xml.sax.saxutils.quoteattr`` does: in double quotes, or in single quotes
    when it holds a double quote but no single one."""
    text = escape(text, _ATTRIBUTE_ENTITIES)
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def _graphml_lines(net: InteractionNetwork,
                   domains: dict[str, str | None] | None) -> Iterator[str]:
    yield from (
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<graphml xmlns="{GRAPHML_NS}">\n',
        '  <key id="kind" for="graph" attr.name="kind" attr.type="string"/>\n',
        '  <key id="zit" for="graph" attr.name="zero_input_targets" attr.type="boolean"/>\n',
        '  <key id="rs" for="graph" attr.name="reflexive_subsumption" attr.type="boolean"/>\n',
        '  <key id="domain" for="node" attr.name="domain" attr.type="string"/>\n',
        '  <graph id="interactions" edgedefault="directed">\n',
        f'    <data key="kind">{escape(net.kind.value if net.kind else "")}</data>\n',
        f'    <data key="zit">{str(net.options.zero_input_targets).lower()}</data>\n',
        f'    <data key="rs">{str(net.options.reflexive_subsumption).lower()}</data>\n',
    )
    quoted = [quoteattr(node) for node in net.ids]
    for node, q in zip(net.ids, quoted):
        domain = domains.get(node) if domains else None
        if domain is None:
            yield f"    <node id={q}/>\n"
        else:
            # XML end-of-line handling would read a raw carriage return as \n.
            text = escape(domain, {"\r": "&#13;"})
            yield f'    <node id={q}><data key="domain">{text}</data></node>\n'
    yield from (f"    <edge source={quoted[s]} target={quoted[d]}/>\n" for s, d in _links(net))
    yield "  </graph>\n"
    yield "</graphml>\n"


def _dot_lines(net: InteractionNetwork) -> Iterator[str]:
    def q(name: str) -> str:
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'

    yield "digraph interactions {\n"
    yield (
        "  graph [kind=%s, zero_input_targets=%s, reflexive_subsumption=%s];\n"
        % (
            q(net.kind.value if net.kind else ""),
            q(str(net.options.zero_input_targets).lower()),
            q(str(net.options.reflexive_subsumption).lower()),
        )
    )
    quoted = [q(node) for node in net.ids]
    yield from (f"  {node};\n" for node in quoted)
    yield from (f"  {quoted[s]} -> {quoted[d]};\n" for s, d in _links(net))
    yield "}\n"


def read_graphml(text: str) -> tuple[InteractionNetwork, dict[str, str] | None]:
    """Parse a GraphML document written by :func:`export_network`.

    Returns the network plus the per-node domain labels when present.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise SvcnetError(f"malformed GraphML: {exc}") from exc

    graph = root.find(f"{{{GRAPHML_NS}}}graph")
    if graph is None:
        raise SvcnetError("GraphML document has no <graph> element")

    key_names = {
        el.get("id"): el.get("attr.name")
        for el in root.findall(f"{{{GRAPHML_NS}}}key")
    }
    graph_attrs: dict[str, str] = {}
    for data in graph.findall(f"{{{GRAPHML_NS}}}data"):
        name = key_names.get(data.get("key", ""), data.get("key"))
        if name:
            graph_attrs[name] = data.text or ""

    nodes: list[str] = []
    domains: dict[str, str] = {}
    for node in graph.findall(f"{{{GRAPHML_NS}}}node"):
        node_id = node.get("id")
        if node_id is None:
            raise SvcnetError("GraphML node without id")
        nodes.append(node_id)
        for data in node.findall(f"{{{GRAPHML_NS}}}data"):
            if key_names.get(data.get("key", "")) == "domain" and data.text:
                domains[node_id] = data.text

    edges = []
    for edge in graph.findall(f"{{{GRAPHML_NS}}}edge"):
        src, dst = edge.get("source"), edge.get("target")
        if src is None or dst is None:
            raise SvcnetError("GraphML edge without source/target")
        edges.append((src, dst))

    kind_value = graph_attrs.get("kind", "")
    opts = BuildOptions(
        zero_input_targets=graph_attrs.get("zero_input_targets") == "true",
        reflexive_subsumption=graph_attrs.get("reflexive_subsumption") == "true",
    )
    try:
        kind = MatcherKind(kind_value) if kind_value else None
        net = InteractionNetwork(nodes=nodes, edges=edges, kind=kind, options=opts)
    except ValueError as exc:  # unknown kind, duplicate id, self-loop, undeclared endpoint
        raise SvcnetError(f"invalid GraphML network: {exc}") from None
    return net, (domains or None)


def read_edgelist(text: str) -> InteractionNetwork:
    """Parse sorted ``src<TAB>dst`` lines; nodes are the endpoint union."""
    edges = []
    nodes = set()
    for lineno, line in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise SvcnetError(f"edge list line {lineno}: expected src<TAB>dst, got {line!r}")
        src, dst = fields
        nodes.update((src, dst))
        if src != dst:
            edges.append((src, dst))
    return InteractionNetwork(nodes=nodes, edges=edges)
