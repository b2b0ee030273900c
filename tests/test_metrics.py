import math
from collections import deque

import numpy as np
import pytest

from conftest import (
    count_triangles_and_triples,
    floyd_warshall,
    make_net,
    undirected,
)
from svcnet.errors import UsageError
from svcnet.metrics import (
    _distance_totals,
    degree_report,
    distance_report,
    er_baseline,
    giant_component,
    total_degrees,
    transitivity,
    weak_components,
)
from svcnet.netbuild import InteractionNetwork


def random_digraph(n: int, density: float, seed: int) -> InteractionNetwork:
    rng = np.random.default_rng(seed)
    nodes = [f"v{i:03d}" for i in range(n)]
    edges = set()
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                edges.add((nodes[i], nodes[j]))
    return make_net(edges, nodes=nodes)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def test_directed_path_distances(path3):
    report = distance_report(path3)
    assert report.average_distance == pytest.approx(4 / 3)
    assert report.diameter == 2
    assert report.reachable_ordered_pairs == 3
    assert report.unreachable_ordered_pairs == 3


@pytest.mark.parametrize("n", [3, 5, 8])
def test_directed_cycle_distances(n):
    nodes = [f"c{i}" for i in range(n)]
    net = make_net([(nodes[i], nodes[(i + 1) % n]) for i in range(n)])
    report = distance_report(net)
    assert report.average_distance == pytest.approx(n / 2)
    assert report.diameter == n - 1
    assert report.reachable_ordered_pairs == n * (n - 1)


def test_distances_match_floyd_warshall_oracle():
    for seed, n, density in [(0, 40, 0.05), (1, 60, 0.02), (2, 50, 0.15)]:
        net = random_digraph(n, density, seed)
        oracle = floyd_warshall(net)
        off = ~np.eye(n, dtype=bool)
        finite = np.isfinite(oracle) & off
        report = distance_report(net)
        assert report.reachable_ordered_pairs == int(finite.sum())
        if finite.any():
            assert report.average_distance == pytest.approx(float(oracle[finite].mean()))
            assert report.diameter == int(oracle[finite].max())
        else:
            assert report.average_distance is None


def test_no_reachable_pair_gives_undefined_markers():
    net = InteractionNetwork(nodes=("a", "b"), edges=frozenset())
    report = distance_report(net)
    assert report.average_distance is None
    assert report.diameter is None
    assert report.reachable_ordered_pairs == 0
    assert report.unreachable_ordered_pairs == 2


def test_empty_network_distance_report():
    report = distance_report(InteractionNetwork(nodes=(), edges=frozenset()))
    assert report.average_distance is None and report.diameter is None


def naive_distance_totals(n: int, src, dst) -> tuple[int, int, int]:
    """Reachable ordered pairs, distance sum and diameter by one BFS per source."""
    out = [[] for _ in range(n)]
    for u, v in zip(src, dst):
        out[u].append(v)
    pairs = total = diameter = 0
    for s in range(n):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in out[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        pairs += len(dist) - 1
        total += sum(dist.values())
        diameter = max(diameter, max(dist.values()))
    return pairs, total, diameter


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
def test_distance_kernel_matches_per_source_bfs_across_word_sizes(n):
    # A directed cycle plus random chords: sources and targets fill whole
    # 64-bit words, partial last words and exactly one word.
    rng = np.random.default_rng(n)
    chords = 2 * n
    src = np.concatenate((np.arange(n), rng.integers(0, n, chords)))
    dst = np.concatenate(((np.arange(n) + 1) % n, rng.integers(0, n, chords)))
    assert _distance_totals(n, src, dst) == naive_distance_totals(n, src.tolist(), dst.tolist())


@pytest.mark.parametrize("n", [0, 1, 64, 130])
def test_distance_kernel_on_an_edgeless_graph(n):
    empty = np.zeros(0, dtype=np.int64)
    assert _distance_totals(n, empty, empty) == (0, 0, 0)


@pytest.mark.parametrize("seed", range(12))
def test_distance_kernel_matches_per_source_bfs_on_random_digraphs(seed):
    # Links are drawn with replacement, so some repeat and some are
    # self-loops; neither may change the totals.
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 200))
    m = int(rng.integers(0, 4 * n))
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    if m:
        src[0] = dst[0]
        src, dst = np.concatenate((src, src[:m // 3])), np.concatenate((dst, dst[:m // 3]))
    assert _distance_totals(n, src, dst) == naive_distance_totals(n, src.tolist(), dst.tolist())


# ---------------------------------------------------------------------------
# Transitivity
# ---------------------------------------------------------------------------


def test_transitivity_fixtures(k4, star5, two_triangle_bridge):
    assert transitivity(k4) == pytest.approx(1.0)
    assert transitivity(star5) == 0.0
    assert transitivity(two_triangle_bridge) == pytest.approx(0.6, abs=1e-12)


def test_transitivity_matches_brute_force_counts():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        nodes = [f"n{i}" for i in range(14)]
        pairs = {
            (a, b)
            for i, a in enumerate(nodes)
            for b in nodes[i + 1:]
            if rng.random() < 0.3
        }
        net = undirected(pairs)
        triangles, triples = count_triangles_and_triples(net)
        expected = 3 * triangles / triples if triples else 0.0
        value = transitivity(net)
        assert value == pytest.approx(expected)
        assert 0.0 <= value <= 1.0
        if triples:
            assert (value == 1.0) == (3 * triangles == triples)


def _word_straddling_graphs():
    """Undirected graphs on 130 nodes whose triangles and neighbour rows cross
    the 64-bit word boundaries at nodes 63/64 and 127/128."""
    ids = [f"v{i:03d}" for i in range(130)]
    fixed = [(62, 63), (63, 64), (62, 64), (63, 65), (64, 65), (0, 64), (64, 128),
             (0, 128), (127, 128), (126, 127), (126, 128), (1, 129), (65, 129)]
    yield undirected({(ids[a], ids[b]) for a, b in fixed})
    for seed in range(3):
        rng = np.random.default_rng(seed)
        yield undirected({
            (ids[a], ids[b])
            for a in range(130) for b in range(a + 1, 130)
            if rng.random() < 0.08 or (abs(a - 64) < 3 and abs(b - 64) < 6)
        })


@pytest.mark.parametrize("net", list(_word_straddling_graphs()))
def test_transitivity_counts_triangles_across_word_boundaries(net):
    triangles, triples = count_triangles_and_triples(net)
    assert triangles > 0
    assert transitivity(net) == 3 * triangles / triples


def test_transitivity_collapses_direction():
    # Reciprocal pair plus a chain: direction must not create triangles.
    net = make_net([("a", "b"), ("b", "a"), ("b", "c")])
    assert transitivity(net) == 0.0


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------


def test_component_fractions():
    net = make_net([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("x", "y")])
    report = weak_components(net)
    assert report.component_sizes == (5, 2)
    assert report.giant_node_fraction == pytest.approx(5 / 7)
    assert report.giant_link_fraction == pytest.approx(4 / 5)


def test_fully_connected_digraph_is_one_component():
    nodes = ["a", "b", "c"]
    net = make_net([(x, y) for x in nodes for y in nodes if x != y])
    report = weak_components(net)
    assert report.component_sizes == (3,)
    assert report.giant_node_fraction == 1.0
    assert report.giant_link_fraction == 1.0


def test_weak_components_ignore_direction():
    net = make_net([("a", "b"), ("c", "b")])
    assert weak_components(net).component_sizes == (3,)


def test_giant_component_is_induced_subgraph():
    net = make_net([("a", "b"), ("b", "c"), ("a", "c"), ("x", "y")])
    giant = giant_component(net)
    assert set(giant.nodes) == {"a", "b", "c"}
    assert giant.edges == {("a", "b"), ("b", "c"), ("a", "c")}


def test_giant_tie_break_is_lexicographic():
    net = make_net([("m", "n"), ("a", "b")])
    giant = giant_component(net)
    assert set(giant.nodes) == {"a", "b"}


def test_empty_network_component_report():
    report = weak_components(InteractionNetwork(nodes=(), edges=frozenset()))
    assert report.component_sizes == ()


# ---------------------------------------------------------------------------
# Degrees
# ---------------------------------------------------------------------------


def test_single_edge_degrees():
    net = make_net([("a", "b")])
    report = degree_report(net, 5)
    assert dict(report.out_histogram) == {0: 1, 1: 1}
    assert dict(report.in_histogram) == {0: 1, 1: 1}
    assert report.hubs[0] == ("a", 1)
    assert report.authorities[0] == ("b", 1)


def test_empty_network_degree_report():
    report = degree_report(InteractionNetwork(nodes=(), edges=frozenset()), 3)
    assert report.in_histogram == ()
    assert report.hubs == ()


def test_degree_handshake_identity():
    for seed in range(4):
        net = random_digraph(30, 0.1, seed)
        report = degree_report(net, 0)
        sum_in = sum(d * c for d, c in report.in_histogram)
        sum_out = sum(d * c for d, c in report.out_histogram)
        assert sum_in == sum_out == net.n_edges
        assert sum(c for _, c in report.total_histogram) == net.n_nodes


def test_hub_ranking_breaks_ties_by_id():
    net = make_net([("b", "x"), ("a", "y")])
    report = degree_report(net, 2)
    assert report.hubs == (("a", 1), ("b", 1))


def test_total_degrees_order():
    net = make_net([("a", "b"), ("b", "c")])
    assert total_degrees(net) == [1, 2, 1]


# ---------------------------------------------------------------------------
# ER baseline
# ---------------------------------------------------------------------------


def test_er_closed_form():
    report = er_baseline(1000, 5000, samples=1, seed=0)
    assert report.er_estimate == pytest.approx(math.log(1000) / math.log(10), abs=1e-9)


def test_er_complete_graph_sampled_distance_is_one():
    report = er_baseline(4, 6, samples=5, seed=3)
    assert report.er_sampled_mean == 1.0
    assert report.er_sampled_stddev == 0.0


def test_er_closed_form_undefined_for_sparse_graphs():
    report = er_baseline(10, 5, samples=1, seed=0)  # mean degree 1
    assert report.er_estimate is None


def test_er_without_links_has_no_sampled_distance():
    report = er_baseline(5, 0, samples=3, seed=0, observed_average=2.0)
    assert (report.er_nodes, report.er_links, report.samples) == (5, 0, 3)
    assert report.er_estimate is None
    assert report.er_sampled_mean is None and report.er_sampled_stddev is None
    assert report.ratio_observed_to_sampled is None


def test_er_is_deterministic_per_seed():
    a = er_baseline(50, 120, samples=4, seed=9, observed_average=2.0)
    b = er_baseline(50, 120, samples=4, seed=9, observed_average=2.0)
    assert a == b
    c = er_baseline(50, 120, samples=4, seed=10)
    assert c.er_sampled_mean != a.er_sampled_mean or c.seed != a.seed


def test_er_ratio_uses_observed_average():
    report = er_baseline(30, 60, samples=2, seed=1, observed_average=3.0)
    assert report.ratio_observed_to_sampled == pytest.approx(3.0 / report.er_sampled_mean)


def test_er_parameter_validation():
    with pytest.raises(UsageError):
        er_baseline(4, 7, samples=1, seed=0)  # m > C(4,2)
    with pytest.raises(UsageError):
        er_baseline(4, 2, samples=0, seed=0)
    with pytest.raises(UsageError):
        er_baseline(0, 0, samples=1, seed=0)
