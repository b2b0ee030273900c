"""networkx as a second, independent oracle for the graph metrics.

Random digraphs with isolated nodes and many small components exercise the
component order, the giant, directed distances, transitivity and the
modularity of the chosen Walktrap cut.  The Erdos-Renyi baseline is rebuilt
sample by sample from its documented random streams.  Random concept DAGs
check the ontology closure, and a planted back edge the cycle it refuses.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcnet.community import best_partition, modularity, walktrap
from svcnet.metrics import (
    distance_report,
    er_baseline,
    giant_component,
    transitivity,
    weak_components,
)
from svcnet.netbuild import InteractionNetwork
from svcnet.ontology import OntologyError, make_ontology

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


@pytest.mark.parametrize(
    "n, m, seed",
    # m=2 on 30 nodes: every sample's giant is a single link of 2 nodes.
    [(30, 2, 4), (40, 12, 0), (60, 45, 1), (120, 300, 2), (200, 160, 7), (300, 299, 3)],
)
def test_er_baseline_matches_networkx(n, m, seed):
    samples = 10
    rows, cols = np.triu_indices(n, k=1)  # reference decoder of the sampled pair indices
    averages = []
    for s in range(samples):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, s])))
        picks = rng.choice(n * (n - 1) // 2, size=m, replace=False)
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(zip(rows[picks].tolist(), cols[picks].tolist()))
        # The first largest component: ties go to the smallest member.
        giant = max(nx.connected_components(graph), key=lambda c: (len(c), -min(c)))
        if len(giant) >= 2:
            averages.append(nx.average_shortest_path_length(graph.subgraph(giant)))
    report = er_baseline(n, m, samples=samples, seed=seed)
    assert report.er_sampled_mean == float(np.mean(averages))
    assert report.er_sampled_stddev == float(np.std(averages))


# ---------------------------------------------------------------------------
# Ontology closure
# ---------------------------------------------------------------------------


@st.composite
def concept_dag(draw, min_edges: int = 0) -> list[tuple[str, str]]:
    """(child, parent) edges of a random DAG of up to 40 concepts whose names
    sort in an order unrelated to the hierarchy."""
    n = draw(st.integers(min_value=2, max_value=40))
    names = [f"http://t/#c{label:02d}" for label in draw(st.permutations(range(n)))]
    pair = st.integers(0, n - 2).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(i + 1, n - 1)))
    pairs = draw(st.lists(pair, min_size=min_edges, max_size=3 * n, unique=True))
    return [(names[i], names[j]) for i, j in pairs]


def concept_graph(edges: list[tuple[str, str]]):
    graph = nx.DiGraph()
    graph.add_edges_from(edges)  # child -> parent
    return graph


@settings(max_examples=100, deadline=None)
@given(concept_dag())
def test_ontology_closure_matches_networkx(edges):
    graph = concept_graph(edges)
    onto = make_ontology(edges)
    assert onto.concepts == frozenset(graph.nodes)
    for concept in graph.nodes:
        assert onto.ancestors(concept) == nx.descendants(graph, concept)
        assert onto.descendants(concept) == nx.ancestors(graph, concept)


@settings(max_examples=100, deadline=None)
@given(concept_dag(min_edges=1), st.data())
def test_ontology_cycle_error_names_a_cycle_of_the_input(edges, data):
    graph = concept_graph(edges)
    # Plant one back edge: the concept itself or one of its ancestors becomes
    # a subclass of the concept.
    concept = data.draw(st.sampled_from(sorted(graph.nodes)))
    above = data.draw(st.sampled_from(sorted(nx.descendants(graph, concept) | {concept})))
    cyclic = edges + [(above, concept)]
    with pytest.raises(OntologyError) as exc:
        make_ontology(cyclic)
    prefix = "subclass cycle: "
    message = str(exc.value)
    assert message.startswith(prefix)
    cycle = message.removeprefix(prefix).split(" -> ")
    assert len(cycle) >= 2 and cycle[0] == cycle[-1]
    assert set(zip(cycle, cycle[1:])) <= set(cyclic)
