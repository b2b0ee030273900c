import dataclasses
import tracemalloc
from xml.sax import saxutils

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_net, mutated_text, naive_build, params
from svcnet.corpus import OperationDesc, ServiceCollection, ServiceDesc
from svcnet.errors import SvcnetError, UsageError
from svcnet.gen import GenSpec, generate
from svcnet.matcher import ALL_KINDS, MatcherKind
from svcnet import netbuild
from svcnet.cli import _write_output
from svcnet.netbuild import (
    EXPORT_CHUNK_LINES,
    EXPORT_FORMATS,
    BuildOptions,
    InteractionNetwork,
    build_network,
    escape,
    export_chunks,
    export_network,
    quoteattr,
    read_edgelist,
    read_graphml,
    trim_isolates,
)
from svcnet.ontology import Ontology, sniff_xml


def test_fig1_equal_network(fig1_collection):
    net = build_network(fig1_collection, MatcherKind.EQUAL)
    assert net.edges == {("figure1::op1", "figure1::op2")}
    assert len(net.nodes) == 3


def test_zero_input_operations_get_no_incoming_edges_by_default(fig1_collection):
    net = build_network(fig1_collection, MatcherKind.EQUAL)
    assert all(dst != "figure1::op1" for _, dst in net.edges)


def test_zero_input_targets_flag_makes_them_universal_sinks(fig1_collection):
    opts = BuildOptions(zero_input_targets=True)
    net = build_network(fig1_collection, MatcherKind.EQUAL, opts=opts)
    incoming = {src for src, dst in net.edges if dst == "figure1::op1"}
    assert incoming == {"figure1::op2", "figure1::op3"}


def test_no_self_loops(fig1_collection):
    net = build_network(fig1_collection, MatcherKind.EQUAL)
    assert all(src != dst for src, dst in net.edges)


def test_enlarging_outputs_never_removes_edges():
    def coll_with_outputs(names):
        ops = (
            OperationDesc("s", "producer", inputs=params(), outputs=params(*names)),
            OperationDesc("s", "consumer", inputs=params("a", "b"), outputs=params("z")),
        )
        return ServiceCollection(services=(ServiceDesc("s", None, ops),))

    small = build_network(coll_with_outputs(["a", "b"]), MatcherKind.EQUAL)
    large = build_network(coll_with_outputs(["a", "b", "c", "d"]), MatcherKind.EQUAL)
    assert small.edges <= large.edges
    assert ("s::producer", "s::consumer") in small.edges


def test_semantic_kind_without_ontology_is_usage_error(fig1_collection):
    with pytest.raises(UsageError):
        build_network(fig1_collection, MatcherKind.PLUGIN)


def test_node_count_identical_across_kinds():
    coll, onto, _ = generate(GenSpec(n_services=8, seed=3))
    nets = [build_network(coll, kind, onto) for kind in ALL_KINDS]
    counts = {len(net.nodes) for net in nets}
    assert counts == {len(coll.operations())}


def naive_network(coll, kind, onto, opts) -> InteractionNetwork:
    """The double loop's links as a network: the constructor sorts them, so
    equality also checks the built network's link order."""
    ids = [op.op_id for op in coll.operations()]
    return InteractionNetwork(nodes=ids, edges=naive_build(coll, kind, onto, opts),
                              kind=kind, options=opts)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("reflexive", [False, True])
def test_index_build_equals_naive_double_loop(kind, reflexive):
    coll, onto, _ = generate(
        GenSpec(
            n_services=10,
            ops_per_service=2,
            n_domains=2,
            name_pool_size=12,
            concept_pool_size=8,
            hierarchy_depth=3,
            branching=2,
            annotation_rate=0.7,
            cross_domain_rate=0.2,
            seed=11,
        )
    )
    opts = BuildOptions(reflexive_subsumption=reflexive)
    assert build_network(coll, kind, onto, opts) == naive_network(coll, kind, onto, opts)


def test_index_build_equals_naive_with_zero_input_targets():
    spec = GenSpec(n_services=6, inputs_per_op=(0, 2), seed=5)
    coll, onto, _ = generate(spec)
    opts = BuildOptions(zero_input_targets=True)
    for kind in ALL_KINDS:
        assert build_network(coll, kind, onto, opts) == naive_network(coll, kind, onto, opts)


def test_plugin_subsume_converse_on_single_parameter_operations():
    """With single-parameter operations, swapping every operation's inputs and
    outputs turns each plug-in edge (i, j) into the subsume edge (j, i)."""
    coll, onto, _ = generate(
        GenSpec(
            n_services=12,
            ops_per_service=2,
            inputs_per_op=(1, 1),
            outputs_per_op=(1, 1),
            hierarchy_depth=3,
            branching=2,
            concept_pool_size=15,
            seed=9,
        )
    )
    swapped = ServiceCollection(
        services=tuple(
            dataclasses.replace(
                svc,
                operations=tuple(
                    dataclasses.replace(op, inputs=op.outputs, outputs=op.inputs)
                    for op in svc.operations
                ),
            )
            for svc in coll.services
        )
    )
    plugin = build_network(coll, MatcherKind.PLUGIN, onto)
    subsume_swapped = build_network(swapped, MatcherKind.SUBSUME, onto)
    assert {(j, i) for i, j in plugin.edges} == subsume_swapped.edges


# ---------------------------------------------------------------------------
# Trimming
# ---------------------------------------------------------------------------


def test_trim_isolates_fraction():
    net = make_net(
        [("a", "b"), ("b", "c")],
        nodes=[f"iso{i}" for i in range(4)] + list("abcdef"),
    )
    assert len(net.nodes) == 10
    trimmed, fraction = trim_isolates(net)
    assert len(trimmed.nodes) == 3
    assert fraction == pytest.approx(0.7)
    assert trimmed.edges == net.edges


def test_trim_without_isolates_is_identity():
    net = make_net([("a", "b")])
    trimmed, fraction = trim_isolates(net)
    assert trimmed == net
    assert fraction == 0.0


def test_trim_empty_network():
    net = InteractionNetwork(nodes=(), edges=frozenset())
    trimmed, fraction = trim_isolates(net)
    assert trimmed.nodes == () and fraction == 0.0


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_edgelist_of_single_edge_network():
    net = make_net([("a", "b")])
    assert export_network(net, "edgelist") == "a\tb\n"


def test_exports_are_deterministic(fig1_collection):
    net = build_network(fig1_collection, MatcherKind.EQUAL)
    for fmt in ("graphml", "dot", "edgelist"):
        assert export_network(net, fmt) == export_network(net, fmt)


def test_unknown_format_is_usage_error():
    with pytest.raises(UsageError):
        export_network(make_net([("a", "b")]), "gexf")


def test_graphml_round_trip_preserves_everything(fig1_collection):
    opts = BuildOptions(zero_input_targets=True, reflexive_subsumption=True)
    net = build_network(fig1_collection, MatcherKind.SUBSUME, onto=Ontology.empty(), opts=opts)
    domains = {node: "travel" for node in net.nodes}
    text = export_network(net, "graphml", domains=domains)
    again, read_domains = read_graphml(text)
    assert again == net
    assert read_domains == domains


def test_graphml_domain_keeps_its_carriage_returns():
    domains = {"a": "x\ry", "b": "\r\n\t"}
    text = export_network(make_net([("a", "b")]), "graphml", domains=domains)
    assert read_graphml(text)[1] == domains


def test_graphml_round_trip_of_an_id_with_both_quote_characters():
    net = make_net([("it's \"quoted\"", "plain")])
    text = export_network(net, "graphml")
    assert '<node id="it\'s &quot;quoted&quot;"/>' in text
    assert read_graphml(text) == (net, None)


@pytest.mark.parametrize("node", ["\x00", "a\x01", "\x1f", "x\ufffe", "\uffff"])
def test_graphml_export_refuses_an_id_xml_cannot_carry(node):
    with pytest.raises(SvcnetError, match="node id .* XML cannot carry"):
        export_chunks(make_net([("a", "b")], nodes=[node]), "graphml")


def test_graphml_export_refuses_a_domain_label_xml_cannot_carry():
    net = make_net([("a", "b")])
    with pytest.raises(SvcnetError, match="domain label 'x\\\\x0by'"):
        export_chunks(net, "graphml", {"a": "ok", "b": "x\x0by"})
    # A label of a node the network does not hold is not written, so not read.
    assert read_graphml(export_network(net, "graphml", {"a": "ok", "z": "\x0b"})) == (
        net, {"a": "ok"})


def test_not_xml_char_matches_exactly_the_code_points_outside_xml_char():
    # XML 1.0 (Fifth Edition), production [2]: Char ::= #x9 | #xA | #xD |
    # [#x20-#xD7FF] | [#xE000-#xFFFD] | [#x10000-#x10FFFF].
    def xml_char(cp: int) -> bool:
        return (cp in (0x9, 0xA, 0xD) or 0x20 <= cp <= 0xD7FF or 0xE000 <= cp <= 0xFFFD
                or 0x10000 <= cp <= 0x10FFFF)

    every = "".join(map(chr, range(0x110000)))
    matched = [m.start() for m in netbuild._NOT_XML_CHAR.finditer(every)]
    assert matched == [cp for cp in range(0x110000) if not xml_char(cp)]


def _not_xml_char(c: str) -> bool:
    return (ord(c) < 0x20 and c not in "\t\n\r") or 0xD800 <= ord(c) <= 0xDFFF \
        or c in "\ufffe\uffff"


EDGELIST_IDS = st.text(st.sampled_from("\x00\x01\x08\x0b\x1f\x7f\x85\ufffe\uffff <&\"'#ab")
                       | st.characters(), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(EDGELIST_IDS, EDGELIST_IDS), min_size=1, max_size=4))
def test_an_edge_list_exports_to_graphml_that_reads_back_or_is_refused(pairs):
    try:
        net = read_edgelist("".join(f"{a}\t{b}\n" for a, b in pairs))
    except SvcnetError:
        return
    try:
        text = export_network(net, "graphml")
    except SvcnetError:
        assert any(_not_xml_char(c) for node in net.nodes for c in node)
        return
    assert read_graphml(text) == (net, None)


XML_TEXT = st.text(st.sampled_from("&<>\"'\n\r\t ;#xé")
                   | st.characters(blacklist_categories=("Cs",)), max_size=12)


@given(XML_TEXT, st.dictionaries(st.text("\r\"'ab&", min_size=1, max_size=2),
                                 st.text("&#;13x", max_size=5), max_size=3))
def test_escape_writes_the_bytes_of_saxutils(text, entities):
    assert escape(text, entities) == saxutils.escape(text, entities)
    assert escape(text) == saxutils.escape(text)


@given(XML_TEXT)
def test_quoteattr_writes_the_bytes_of_saxutils(text):
    assert quoteattr(text) == saxutils.quoteattr(text)


def test_graphml_keeps_isolated_nodes():
    net = make_net([("a", "b")], nodes=["a", "b", "lonely"])
    again, _ = read_graphml(export_network(net, "graphml"))
    assert set(again.nodes) == {"a", "b", "lonely"}


def test_edgelist_round_trip_loses_only_metadata(fig1_collection):
    net = build_network(fig1_collection, MatcherKind.EQUAL)
    trimmed, _ = trim_isolates(net)
    again = read_edgelist(export_network(net, "edgelist"))
    assert again.edges == net.edges
    assert set(again.nodes) == {n for e in net.edges for n in e}
    assert again.kind is None


@pytest.mark.parametrize(
    "edge",
    [("a\tx", "b"), ("a", "b\nc"), ("a", "b\r"), ("a", "b\u2028"), ("", "b"), ("#a", "b"),
     (" #a", "b"), (" ", "\u3000"), ("\ufeffa", "b"), ("<a", "b"), (" <a", "b")],
)
def test_edgelist_export_refuses_links_it_cannot_read_back(edge):
    with pytest.raises(SvcnetError, match="edge-list"):
        export_network(make_net([edge]), "edgelist")


def test_edgelist_export_reads_back_unusual_ids():
    net = make_net([("a#", "#b"), (" a", "b "), ("é", "a b")])
    assert read_edgelist(export_network(net, "edgelist")).edges == net.edges


def test_edgelist_export_refuses_an_unsafe_id_only_where_it_is_linked():
    net = make_net([("a", "b")], nodes=["#lonely"])
    assert export_network(net, "edgelist") == "a\tb\n"
    with pytest.raises(SvcnetError, match="'#lonely', 'b'"):
        export_chunks(make_net([("a", "b"), ("#lonely", "b")]), "edgelist")


def test_export_chunks_hold_a_fixed_number_of_lines():
    n = 70
    net = make_net([(f"n{i:02}", f"n{j:02}") for i in range(n) for j in range(n) if i != j])
    for fmt in ("graphml", "dot", "edgelist"):
        chunks = list(export_chunks(net, fmt))
        assert len(chunks) > 1
        assert all(chunk.count("\n") == EXPORT_CHUNK_LINES for chunk in chunks[:-1])
        assert 0 < chunks[-1].count("\n") <= EXPORT_CHUNK_LINES
        assert all(chunk.endswith("\n") for chunk in chunks)


def test_graphml_export_is_written_in_bounded_memory(tmp_path):
    # 120,000 links over 1,200 nodes: the export is 10.4 MB of text, which the
    # writer must never hold whole (streamed, it peaks at about 1.6 MiB).
    n, per_node = 1_200, 100
    rng = np.random.default_rng(0)
    dst = np.concatenate([np.sort(rng.choice(np.delete(np.arange(n), i), per_node,
                                             replace=False)) for i in range(n)])
    ids = tuple(f"service{i // 3:04}::operation{i:05}" for i in range(n))
    net = InteractionNetwork._from_links(ids, np.repeat(np.arange(n), per_node), dst,
                                         MatcherKind.SUBSUME, BuildOptions())
    domains = {node: f"domain{i % 8}" for i, node in enumerate(ids)}
    out = tmp_path / "network.graphml"
    tracemalloc.start()
    try:
        _write_output(export_chunks(net, "graphml", domains), str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size >= 5_000_000
    assert peak < 4 * 2**20
    assert out.read_text(encoding="utf-8") == export_network(net, "graphml", domains)


def test_dot_output_shape():
    net = make_net([("a", "b")], nodes=["a", "b", "c"], kind=MatcherKind.EQUAL)
    text = export_network(net, "dot")
    assert text.startswith("digraph")
    assert '"a" -> "b";' in text
    assert '"c";' in text


def test_bad_edgelist_line_rejected():
    with pytest.raises(Exception, match="line 1"):
        read_edgelist("justonefield\n")


# ---------------------------------------------------------------------------
# Construction invariants
# ---------------------------------------------------------------------------


def test_network_rejects_self_loop():
    with pytest.raises(ValueError):
        InteractionNetwork(nodes=("a",), edges=frozenset({("a", "a")}))


def test_network_rejects_dangling_edges():
    with pytest.raises(ValueError):
        InteractionNetwork(nodes=("a",), edges=frozenset({("a", "b")}))


def test_network_rejects_duplicate_node_ids():
    with pytest.raises(ValueError, match="duplicate node id 'a'"):
        InteractionNetwork(nodes=("a", "a", "b"), edges={("a", "b")})


def test_network_is_its_sorted_integer_links():
    net = InteractionNetwork(nodes=["c", "b", "a"],
                             edges=[("c", "a"), ("a", "c"), ("a", "b"), ("a", "b")])
    assert net.nodes == net.ids == ("a", "b", "c")
    assert net.src.tolist() == [0, 0, 2] and net.dst.tolist() == [1, 2, 0]
    assert net.n_edges == 3 and net.edges == {("a", "b"), ("a", "c"), ("c", "a")}
    assert not net.src.flags.writeable and not net.dst.flags.writeable
    assert net == InteractionNetwork(nodes=("a", "b", "c"), edges=net.edges)
    assert net != InteractionNetwork(nodes=("a", "b", "c"), edges={("a", "b")})
    assert net != InteractionNetwork(nodes=("a", "b", "c"), edges=net.edges,
                                     kind=MatcherKind.EQUAL)


def test_extract_path_leaves_derived_arrays_unbuilt(fig1_collection):
    net = build_network(fig1_collection, MatcherKind.EQUAL)
    for fmt in ("graphml", "dot", "edgelist"):
        export_network(net, fmt)
    # where functools.cached_property keeps them: the exports read the link
    # buffers, and build no numpy array
    assert not {"view", "src", "dst"} & set(vars(net))


def test_links_read_as_read_only_int64_arrays_whatever_their_buffer():
    coll, onto, _ = generate(GenSpec(n_services=10, annotation_rate=0.8, seed=4))
    built = build_network(coll, MatcherKind.SUBSUME, onto)
    assert built.n_edges > 10
    checked = InteractionNetwork(nodes=built.ids, edges=built.edges, kind=built.kind)
    from_numpy = InteractionNetwork._from_links(built.ids, np.array(built.src),
                                                np.array(built.dst), built.kind, BuildOptions())
    for net in (built, checked, from_numpy):
        for links in (net.src, net.dst):
            assert isinstance(links, np.ndarray) and links.dtype == np.int64
            assert not links.flags.writeable
        assert net.src is net.src and net.dst is net.dst  # made once
    assert built == checked == from_numpy
    domains = coll.domain_of_operation()
    for fmt in EXPORT_FORMATS:
        assert (export_network(built, fmt, domains) == export_network(checked, fmt, domains)
                == export_network(from_numpy, fmt, domains))
    trimmed, _ = trim_isolates(built)  # its links are numpy arrays
    rebuilt = InteractionNetwork(nodes=trimmed.ids, edges=trimmed.edges, kind=built.kind)
    assert trimmed == rebuilt
    assert export_network(trimmed, "graphml") == export_network(rebuilt, "graphml")


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(ALL_KINDS),
       st.booleans(), st.booleans())
def test_build_links_come_in_the_lexsort_order_of_the_naive_pairs(seed, kind, zit, reflexive):
    coll, onto, _ = generate(GenSpec(n_services=6, inputs_per_op=(0, 2),
                                     annotation_rate=0.7, seed=seed))
    opts = BuildOptions(zero_input_targets=zit, reflexive_subsumption=reflexive)
    net = build_network(coll, kind, onto, opts)
    index = {node: i for i, node in enumerate(net.ids)}
    pairs = np.array([(index[a], index[b]) for a, b in naive_build(coll, kind, onto, opts)],
                     dtype=np.int64).reshape(-1, 2)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    assert net.src.tolist() == pairs[order, 0].tolist()
    assert net.dst.tolist() == pairs[order, 1].tolist()


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_generated_networks_respect_invariants(seed):
    coll, onto, _ = generate(GenSpec(n_services=5, seed=seed, annotation_rate=0.5))
    for kind in ALL_KINDS:
        net = build_network(coll, kind, onto)
        node_set = set(net.nodes)
        assert all(src != dst for src, dst in net.edges)
        assert all(src in node_set and dst in node_set for src, dst in net.edges)


# ---------------------------------------------------------------------------
# Fuzzing: a malformed network file is an SvcnetError, never a traceback
# ---------------------------------------------------------------------------

FUZZ_NET = InteractionNetwork(
    nodes=["a.op", "b.op", "c op", "lonely", "é"],
    edges=[("a.op", "b.op"), ("b.op", "c op"), ("a.op", "c op"), ("c op", "é")],
    kind=MatcherKind.PLUGIN,
    options=BuildOptions(zero_input_targets=True),
)
GRAPHML_SEEDS = [
    export_network(FUZZ_NET, "graphml", domains={"a.op": "travel", "c op": "a & b"}),
    export_network(make_net([("x", "y")]), "graphml"),
]
EDGELIST_SEED = "# src<TAB>dst\n\nlonely\tlonely\n" + export_network(FUZZ_NET, "edgelist")


@settings(max_examples=200, deadline=None)
@given(mutated_text(GRAPHML_SEEDS))
def test_mutated_graphml_reads_or_raises_an_svcnet_error(text):
    try:
        net, domains = read_graphml(text)
    except SvcnetError:
        return
    assert set(domains or ()) <= set(net.nodes)
    assert read_graphml(export_network(net, "graphml")) == (net, None)


@settings(max_examples=200, deadline=None)
@given(mutated_text([EDGELIST_SEED]))
def test_mutated_edgelist_reads_or_raises_an_svcnet_error(text):
    try:
        net = read_edgelist(text)
    except SvcnetError:
        return
    # The links are written sorted; a first line that the CLI loader would read
    # as GraphML or strip a byte-order mark from is refused.
    first = "\t".join(min(net.edges, default=("a", "b")))
    if first.startswith("\ufeff") or sniff_xml(first) is not None:
        with pytest.raises(SvcnetError, match="edge-list"):
            export_network(net, "edgelist")
        return
    assert read_edgelist(export_network(net, "edgelist")).edges == net.edges
