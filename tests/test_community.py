import hashlib
import itertools
import json

import numpy as np
import pytest

from conftest import (
    make_net,
    modularity_by_counting,
    reference_best_tree_cut,
    reference_walktrap_component,
    undirected,
)
from svcnet import community
from svcnet.community import (
    Dendrogram,
    DendroTree,
    Partition,
    best_partition,
    dendrogram_to_json,
    domain_overlap,
    modularity,
    partition_to_csv,
    walktrap,
)
from svcnet.errors import SvcnetError, UsageError
from svcnet.gen import planted_partition
from svcnet.netbuild import InteractionNetwork


def two_cliques(k: int) -> InteractionNetwork:
    pairs = set()
    for grp in ("a", "b"):
        for i in range(k):
            for j in range(i + 1, k):
                pairs.add((f"{grp}{i}", f"{grp}{j}"))
    pairs.add(("a0", "b0"))
    return undirected(pairs)


# ---------------------------------------------------------------------------
# Walktrap
# ---------------------------------------------------------------------------


def test_two_k5_cliques_best_cut_is_the_cliques():
    net = two_cliques(5)
    dend = walktrap(net)
    part, score = best_partition(dend, net)
    groups = {frozenset(c) for c in part.communities()}
    assert groups == {
        frozenset(f"a{i}" for i in range(5)),
        frozenset(f"b{i}" for i in range(5)),
    }
    # brute-force modularity maximization over all bipartitions agrees
    nodes = sorted(net.nodes)
    best_q = -1.0
    for mask in range(1, 2 ** (len(nodes) - 1)):
        left = {nodes[i] for i in range(len(nodes)) if mask >> i & 1} | {nodes[-1]}
        right = set(nodes) - left
        if right:
            best_q = max(best_q, modularity_by_counting(net, [left, right]))
    assert score.q == pytest.approx(best_q, abs=1e-9)


def test_single_edge_graph_has_one_merge():
    net = make_net([("a", "b")])
    dend = walktrap(net)
    assert dend.n_merges == 1
    assert len(dend.trees) == 1


def test_two_node_path_best_cut_is_single_community():
    net = make_net([("a", "b")])
    part, score = best_partition(walktrap(net), net)
    assert part.community_count == 1
    assert score.q == pytest.approx(0.0)  # 0 beats the -1/2 of two singletons


def test_walktrap_is_deterministic(two_triangle_bridge):
    a = walktrap(two_triangle_bridge)
    b = walktrap(two_triangle_bridge)
    assert a == b
    pa, qa = best_partition(a, two_triangle_bridge)
    pb, qb = best_partition(b, two_triangle_bridge)
    assert pa == pb and qa == qb


def test_walktrap_usage_errors(two_triangle_bridge):
    with pytest.raises(UsageError):
        walktrap(two_triangle_bridge, walk_length=0)
    with pytest.raises(UsageError):
        walktrap(InteractionNetwork(nodes=(), edges=frozenset()))


def test_walktrap_refuses_a_component_above_the_node_limit(two_triangle_bridge, monkeypatch):
    def no_walk(*args):
        raise AssertionError("the walk matrix was built before the size check")

    monkeypatch.setattr(community, "WALKTRAP_MAX_NODES", 5)
    monkeypatch.setattr(np.linalg, "matrix_power", no_walk)
    with pytest.raises(UsageError, match=r"at most 5 nodes.*this one has 6"):
        walktrap(two_triangle_bridge)


def test_walktrap_refuses_an_over_limit_component_before_building_any_tree(monkeypatch):
    def no_tree(*args):
        raise AssertionError("a tree was built before the size check")

    monkeypatch.setattr(community, "WALKTRAP_MAX_NODES", 5)
    monkeypatch.setattr(community, "_walktrap_component", no_tree)
    monkeypatch.setattr(np.linalg, "matrix_power", no_tree)
    # The 4-node component comes first in label order.
    net = undirected([(f"a{i}", f"a{i + 1}") for i in range(3)]
                     + [(f"b{i}", f"b{i + 1}") for i in range(6)])
    with pytest.raises(UsageError, match=r"at most 5 nodes.*this one has 7"):
        walktrap(net)


def test_walktrap_node_limit_is_per_component(monkeypatch):
    # Two 3-node components: 6 nodes in all, each tree at the limit.
    monkeypatch.setattr(community, "WALKTRAP_MAX_NODES", 3)
    net = undirected([("a0", "a1"), ("a1", "a2"), ("b0", "b1"), ("b1", "b2")])
    assert [len(tree.merges) for tree in walktrap(net).trees] == [2, 2]


def test_connected_graph_has_n_minus_1_merges(k4):
    dend = walktrap(k4)
    assert len(dend.trees) == 1
    assert dend.n_merges == 3


def test_disconnected_graph_gives_a_forest():
    net = make_net([("a", "b"), ("b", "c"), ("x", "y")], nodes=["lone"])
    dend = walktrap(net)
    assert len(dend.trees) == 3  # {a,b,c}, {x,y}, {lone}
    assert dend.n_merges == (3 - 1) + (2 - 1) + 0
    part, _ = best_partition(dend, net)
    assert part.community_count >= 3  # communities never span components


def test_heights_are_non_decreasing(two_triangle_bridge):
    for net in (two_triangle_bridge, two_cliques(4)):
        for tree in walktrap(net).trees:
            heights = [h for _, _, h in tree.merges]
            assert all(b >= a for a, b in zip(heights, heights[1:]))


def test_planted_two_block_recovery_sample():
    recovered = 0
    for seed in range(10):
        net, blocks = planted_partition(2, 20, 0.5, 0.02, seed=seed)
        part, _ = best_partition(walktrap(net), net)
        found = {frozenset(c) for c in part.communities()}
        wanted = {
            frozenset(n for n, b in blocks.items() if b == k) for k in (0, 1)
        }
        recovered += found == wanted
    assert recovered >= 9


# dendrogram_to_json(walktrap(net)) of graphs whose merge costs tie exactly, so
# the tie-break by smallest member decides most merges; recorded while ties
# still compared member id strings and pushes came in sorted order
TIED_DENDROGRAMS = {
    "ring12": (lambda: undirected([(f"r{i}", f"r{(i + 1) % 12}") for i in range(12)]),
               "dc3dc035abc1ad0096f1aa9fab9b46a91d27f5dd76b66fb36f4aa4bc47adbb97"),
    "k6": (lambda: undirected([(f"k{i}", f"k{j}") for i in range(6) for j in range(i + 1, 6)]),
           "0e1c050226467d3771b75b1bf2dbab6ea9201649428839e84e335112af408249"),
    "star9": (lambda: undirected([("hub", f"s{i}") for i in range(8)]),
              "682b8c8dba0f84d6c4d1ef8aeed76199fd8153a7713168324dd1187ea18276ae"),
    "grid4x4": (lambda: undirected([(f"g{r}{c}", f"g{r}{c + 1}") for r in range(4) for c in range(3)]
                                   + [(f"g{r}{c}", f"g{r + 1}{c}") for r in range(3) for c in range(4)]),
                "b3d90f3591a2a548ae31417d55b1cffd3f0e152907e33562aa41101630dd4512"),
    "two-triangles-and-an-edge": (
        lambda: undirected([("a0", "a1"), ("a1", "a2"), ("a0", "a2"),
                            ("b0", "b1"), ("b1", "b2"), ("b0", "b2"), ("c0", "c1")]),
        "7dd4f5abe809c7e1f8f733038287a7d090c04f0641ef4ddabe3fb1fcc50506e8"),
}


@pytest.mark.parametrize("name", sorted(TIED_DENDROGRAMS))
def test_tied_merge_costs_dendrogram_digests(name):
    make, digest = TIED_DENDROGRAMS[name]
    text = dendrogram_to_json(walktrap(make()))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def random_network(seed: int) -> InteractionNetwork:
    """A directed graph on 2..120 nodes, often disconnected: random density,
    reciprocal links and isolated nodes, ids in an order unrelated to the
    links."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 121))
    ids = [f"v{k:03d}" for k in rng.permutation(n)]
    m = int(rng.integers(1, 3 * n + 1))
    src, dst = rng.integers(0, n, size=(2, m))
    edges = {(ids[i], ids[j]) for i, j in zip(src.tolist(), dst.tolist()) if i != j}
    return make_net(edges, nodes=ids)


def cycle(k: int) -> list[tuple[str, str]]:
    return [(f"c{i:02d}", f"c{(i + 1) % k:02d}") for i in range(k)]


def clique(k: int) -> list[tuple[str, str]]:
    return [(f"q{i:02d}", f"q{j:02d}") for i in range(k) for j in range(i + 1, k)]


def star(k: int) -> list[tuple[str, str]]:
    return [("hub", f"s{i:02d}") for i in range(k)]


def grid(rows: int, cols: int) -> list[tuple[str, str]]:
    cell = [[f"g{i:02d}{j:02d}" for j in range(cols)] for i in range(rows)]
    return ([(cell[i][j], cell[i][j + 1]) for i in range(rows) for j in range(cols - 1)]
            + [(cell[i][j], cell[i + 1][j]) for i in range(rows - 1) for j in range(cols)])


def bipartite(p: int, q: int) -> list[tuple[str, str]]:
    return [(f"l{i:02d}", f"r{j:02d}") for i in range(p) for j in range(q)]


# Regular graphs, where many merge costs tie exactly.
TIE_GRAPHS = {
    "cycle3": cycle(3), "cycle8": cycle(8), "cycle31": cycle(31),
    "clique2": clique(2), "clique7": clique(7), "clique16": clique(16),
    "star1": star(1), "star6": star(6), "star40": star(40),
    "grid1x5": grid(1, 5), "grid3x3": grid(3, 3), "grid5x8": grid(5, 8),
    "bipartite1x4": bipartite(1, 4), "bipartite3x3": bipartite(3, 3),
    "bipartite4x9": bipartite(4, 9),
}


def assert_matches_heap_reference(net: InteractionNetwork, monkeypatch) -> None:
    """Walktrap's dendrogram, and the best cut's partition and modularity,
    equal those of the heap Walktrap and the link-table cut."""
    for t in (1, 2, 4):
        dend = walktrap(net, t)
        part, score = best_partition(dend, net)
        with monkeypatch.context() as patch:
            patch.setattr(community, "_walktrap_component", reference_walktrap_component)
            patch.setattr(community, "_best_tree_cut", reference_best_tree_cut)
            want = walktrap(net, t)
            want_part, want_score = best_partition(want, net)
        assert dendrogram_to_json(dend) == dendrogram_to_json(want), f"walk length {t}"
        assert part.assignment == want_part.assignment, f"walk length {t}"
        assert repr(score.q) == repr(want_score.q), f"walk length {t}"


@pytest.mark.parametrize("first_seed", range(0, 150, 30))
def test_walktrap_matches_the_heap_reference_on_random_graphs(first_seed, monkeypatch):
    for seed in range(first_seed, first_seed + 30):
        assert_matches_heap_reference(random_network(seed), monkeypatch)


@pytest.mark.parametrize("name", sorted(TIE_GRAPHS))
def test_walktrap_matches_the_heap_reference_on_tied_graphs(name, monkeypatch):
    assert_matches_heap_reference(undirected(TIE_GRAPHS[name]), monkeypatch)


# ---------------------------------------------------------------------------
# Modularity
# ---------------------------------------------------------------------------


def single_community(net: InteractionNetwork) -> Partition:
    return Partition(assignment={n: 0 for n in net.nodes}, community_count=1)


def test_single_community_modularity_is_zero(two_triangle_bridge, k4):
    assert modularity(two_triangle_bridge, single_community(two_triangle_bridge)).q == 0.0
    assert modularity(k4, single_community(k4)).q == 0.0


def test_edgeless_network_modularity_is_zero():
    net = InteractionNetwork(nodes=["a", "b", "c"])
    part = Partition(assignment={"a": 0, "b": 1, "c": 1}, community_count=2)
    assert modularity(net, part).q == 0.0


def test_two_triangle_bridge_clique_partition(two_triangle_bridge):
    part = Partition(
        assignment={"t0": 0, "t1": 0, "t2": 0, "t3": 1, "t4": 1, "t5": 1},
        community_count=2,
    )
    score = modularity(two_triangle_bridge, part)
    assert score.q == pytest.approx(5 / 14, abs=1e-12)
    oracle = modularity_by_counting(
        two_triangle_bridge, [{"t0", "t1", "t2"}, {"t3", "t4", "t5"}]
    )
    assert score.q == pytest.approx(oracle, abs=1e-12)


def test_two_disjoint_triangles_modularity():
    net = undirected([("a0", "a1"), ("a1", "a2"), ("a0", "a2"),
                      ("b0", "b1"), ("b1", "b2"), ("b0", "b2")])
    part = Partition(
        assignment={n: 0 if n.startswith("a") else 1 for n in net.nodes},
        community_count=2,
    )
    assert modularity(net, part).q == pytest.approx(0.5, abs=1e-12)


def test_partial_partition_is_an_error(k4):
    bad = Partition(assignment={"k0": 0}, community_count=1)
    with pytest.raises(SvcnetError):
        modularity(k4, bad)


def test_modularity_is_at_most_one():
    nets = [two_cliques(4), undirected([("a", "b"), ("c", "d")])]
    for net in nets:
        part, score = best_partition(walktrap(net), net)
        assert score.q <= 1.0
        assert modularity(net, part).q == pytest.approx(score.q, abs=1e-9)


# ---------------------------------------------------------------------------
# Best partition
# ---------------------------------------------------------------------------


def test_complete_graph_best_cut_is_one_community():
    nodes = [f"k{i}" for i in range(6)]
    net = undirected([(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]])
    part, score = best_partition(walktrap(net), net)
    assert part.community_count == 1
    assert score.q == pytest.approx(0.0)


def test_best_partition_beats_trivial_cuts(two_triangle_bridge):
    net = two_triangle_bridge
    dend = walktrap(net)
    part, score = best_partition(dend, net)
    singletons = Partition(
        assignment={n: i for i, n in enumerate(sorted(net.nodes))},
        community_count=len(net.nodes),
    )
    assert score.q >= modularity(net, singletons).q
    assert score.q >= modularity(net, single_community(net)).q
    assert score.q == pytest.approx(5 / 14, abs=1e-9)
    assert part.community_count == 2


def test_best_partition_score_matches_direct_modularity(two_triangle_bridge):
    part, score = best_partition(walktrap(two_triangle_bridge), two_triangle_bridge)
    assert modularity(two_triangle_bridge, part).q == pytest.approx(score.q, abs=1e-9)


def test_partition_ids_are_dense_and_ordered(two_triangle_bridge):
    part, _ = best_partition(walktrap(two_triangle_bridge), two_triangle_bridge)
    assert sorted(set(part.assignment.values())) == list(range(part.community_count))
    # community 0 contains the smallest node id
    smallest = min(part.assignment)
    assert part.assignment[smallest] == 0


def test_edgeless_network_best_partition_is_singletons():
    net = InteractionNetwork(nodes=("a", "b", "c"), edges=frozenset())
    part, score = best_partition(walktrap(net), net)
    assert part.community_count == 3
    assert score.q == 0.0


def tree_cuts(tree: DendroTree) -> list[list[frozenset[str]]]:
    """The communities of every cut of one tree, after 0..len(merges) merges."""
    n = len(tree.leaves)
    members = {i: frozenset([leaf]) for i, leaf in enumerate(tree.leaves)}
    cuts = [list(members.values())]
    for pos, (c1, c2, _) in enumerate(tree.merges):
        members[n + pos] = members.pop(c1) | members.pop(c2)
        cuts.append(list(members.values()))
    return cuts


def partition_of(groups) -> Partition:
    return Partition(assignment={node: c for c, group in enumerate(groups) for node in group},
                     community_count=len(groups))


HAND_MADE = {
    # fewer than n - 1 merges: {t0, t1, t2}, {t3, t4} and {t5} never merge
    "partial": [(("t0", "t1", "t2", "t3", "t4", "t5"),
                 ((0, 1, 0.1), (6, 2, 0.2), (3, 4, 0.3)))],
    # a forest whose trees split a triangle; one tree never merges
    "forest": [(("t0", "t1", "t2", "t3"), ((2, 3, 0.1), (0, 4, 0.2), (1, 5, 0.3))),
               (("t4",), ()),
               (("t5",), ())],
    "two-trees": [(("t0", "t1", "t3"), ((0, 2, 0.5), (1, 3, 0.6))),
                  (("t2", "t4", "t5"), ((1, 2, 0.1), (0, 3, 0.2)))],
    # orders Walktrap would not choose: the bridge first, or unlinked pairs
    "bridge-first": [(("t0", "t1", "t2", "t3", "t4", "t5"),
                      ((2, 3, 0.0), (0, 1, 0.0), (4, 5, 0.0), (7, 6, 0.0), (9, 8, 0.0)))],
    "unlinked-pairs": [(("t0", "t1", "t2", "t3", "t4", "t5"),
                        ((0, 5, 0.0), (2, 3, 0.0), (1, 4, 0.0), (6, 7, 0.0), (9, 8, 0.0)))],
}


@pytest.mark.parametrize("name", sorted(HAND_MADE))
def test_best_partition_of_hand_made_dendrogram(name, two_triangle_bridge):
    net = two_triangle_bridge
    dend = Dendrogram(trees=tuple(DendroTree(leaves, merges) for leaves, merges in HAND_MADE[name]))
    part, score = best_partition(dend, net)

    combos = [[g for cut in combo for g in cut]
              for combo in itertools.product(*map(tree_cuts, dend.trees))]
    best = max(modularity(net, partition_of(groups)).q for groups in combos)
    assert score.q == pytest.approx(best, abs=1e-12)
    assert modularity(net, part).q == pytest.approx(score.q, abs=1e-12)
    assert any(set(part.communities()) == set(map(tuple, map(sorted, groups)))
               for groups in combos)


def test_best_partition_refuses_a_dendrogram_that_does_not_cover_the_network(
        two_triangle_bridge):
    dend = Dendrogram(trees=(DendroTree(("t0", "t1", "t2", "t3", "t4"), ()),))
    with pytest.raises(SvcnetError, match="does not cover the network's nodes"):
        best_partition(dend, two_triangle_bridge)


# ---------------------------------------------------------------------------
# Domain overlap
# ---------------------------------------------------------------------------


def test_purity_one_when_communities_equal_domains():
    part = Partition(assignment={"a": 0, "b": 0, "c": 1, "d": 1}, community_count=2)
    domains = {"a": "travel", "b": "travel", "c": "food", "d": "food"}
    overlap = domain_overlap(part, domains)
    assert overlap.available and overlap.purity == pytest.approx(1.0)


def test_purity_half_for_one_community_two_equal_domains():
    part = Partition(assignment={"a": 0, "b": 0, "c": 0, "d": 0}, community_count=1)
    domains = {"a": "x", "b": "x", "c": "y", "d": "y"}
    overlap = domain_overlap(part, domains)
    assert overlap.purity == pytest.approx(0.5)


def test_overlap_unavailable_without_labels():
    part = Partition(assignment={"a": 0}, community_count=1)
    overlap = domain_overlap(part, {"a": None})
    assert not overlap.available and overlap.purity is None


def test_contingency_counts():
    part = Partition(assignment={"a": 0, "b": 0, "c": 1}, community_count=2)
    domains = {"a": "x", "b": "y", "c": "x"}
    overlap = domain_overlap(part, domains)
    assert overlap.contingency == ((0, "x", 1), (0, "y", 1), (1, "x", 1))


def test_domain_aligned_collection_has_high_purity():
    from svcnet.gen import GenSpec, generate
    from svcnet.matcher import MatcherKind
    from svcnet.metrics import giant_component
    from svcnet.netbuild import build_network, trim_isolates

    coll, onto, truth = generate(
        GenSpec(n_services=24, ops_per_service=3, n_domains=3,
                name_pool_size=15, concept_pool_size=12, annotation_rate=1.0,
                cross_domain_rate=0.0, seed=31)
    )
    net = build_network(coll, MatcherKind.EXACT, onto)
    giant = giant_component(trim_isolates(net)[0])
    part, _ = best_partition(walktrap(giant), giant)
    overlap = domain_overlap(part, truth.domain_of_operation)
    assert overlap.available
    assert overlap.purity > 0.8


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def test_partition_csv_format():
    part = Partition(assignment={"b": 1, "a": 0}, community_count=2)
    assert partition_to_csv(part) == "node_id,community_id\na,0\nb,1\n"


def test_dendrogram_json_format(k4):
    doc = json.loads(dendrogram_to_json(walktrap(k4)))
    assert len(doc["trees"]) == 1
    tree = doc["trees"][0]
    assert len(tree["merges"]) == 3
    assert sorted(tree["leaves"]) == tree["leaves"]
    for a, b, height in tree["merges"]:
        assert isinstance(a, int) and isinstance(b, int)
        assert height >= 0.0
