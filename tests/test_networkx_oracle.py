"""networkx as a second, independent oracle for the graph metrics.

Random digraphs with isolated nodes and many small components exercise the
component order, the giant, directed distances, transitivity and the
modularity of the chosen Walktrap cut.
"""

from __future__ import annotations

import numpy as np
import pytest

from svcnet.community import best_partition, modularity, walktrap
from svcnet.metrics import distance_report, giant_component, transitivity, weak_components
from svcnet.netbuild import InteractionNetwork

nx = pytest.importorskip("networkx")


def random_digraph(n: int, density: float, isolated: int, seed: int) -> InteractionNetwork:
    rng = np.random.default_rng(seed)
    nodes = [f"n{rng.integers(10**6):06d}-{i}" for i in range(n + isolated)]
    linked = nodes[:n]
    edges = {
        (a, b) for a in linked for b in linked if a != b and rng.random() < density
    }
    return InteractionNetwork(nodes=tuple(sorted(nodes)), edges=frozenset(edges))


def as_networkx(net: InteractionNetwork):
    graph = nx.DiGraph()
    graph.add_nodes_from(net.nodes)
    graph.add_edges_from(net.edges)
    return graph


CASES = [
    pytest.param(n, density, isolated, seed, id=f"n{n}-p{density}-iso{isolated}-s{seed}")
    for seed in range(3)
    for n, density, isolated in [(40, 0.015, 6), (60, 0.01, 10), (30, 0.06, 3), (25, 0.2, 0)]
] + [pytest.param(20, 0.02, 2, 1, id="tied-giants")]  # two largest components of 3


@pytest.mark.parametrize("n, density, isolated, seed", CASES)
def test_components_and_giant_match_networkx(n, density, isolated, seed):
    net = random_digraph(n, density, isolated, seed)
    comps = sorted(nx.weakly_connected_components(as_networkx(net)),
                   key=lambda c: (-len(c), min(c)))
    report = weak_components(net)
    assert report.component_sizes == tuple(len(c) for c in comps)
    assert set(giant_component(net).nodes) == comps[0]
    assert report.giant_node_fraction == len(comps[0]) / len(net.nodes)


@pytest.mark.parametrize("n, density, isolated, seed", CASES)
def test_giant_metrics_match_networkx(n, density, isolated, seed):
    giant = giant_component(random_digraph(n, density, isolated, seed))
    graph = as_networkx(giant)
    lengths = [
        d for src, row in nx.all_pairs_shortest_path_length(graph)
        for dst, d in row.items() if src != dst
    ]
    dist = distance_report(giant)
    assert dist.reachable_ordered_pairs == len(lengths)
    if lengths:
        assert dist.average_distance == pytest.approx(sum(lengths) / len(lengths), rel=1e-12)
        assert dist.diameter == max(lengths)

    undirected = graph.to_undirected()
    assert transitivity(giant) == pytest.approx(nx.transitivity(undirected), abs=1e-12)

    part, score = best_partition(walktrap(giant), giant)
    if undirected.number_of_edges():
        expected = nx.community.modularity(undirected, part.communities())
        assert score.q == pytest.approx(expected, abs=1e-12)
        assert modularity(giant, part).q == pytest.approx(expected, abs=1e-12)
