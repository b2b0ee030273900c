import pytest

from conftest import reference_concept_tree
from svcnet.corpus import collection_stats, load_collection
from svcnet.gen import GenError, GenSpec, generate, planted_partition, write_collection_tree
from svcnet.matcher import ALL_KINDS, MatcherKind
from svcnet.netbuild import build_network
from svcnet.ontology import load_ontology


def test_same_spec_and_seed_is_identical():
    spec = GenSpec(n_services=12, annotation_rate=0.6, cross_domain_rate=0.3, seed=4)
    a_coll, a_onto, a_truth = generate(spec)
    b_coll, b_onto, b_truth = generate(spec)
    assert a_coll == b_coll
    assert a_onto == b_onto
    assert a_truth == b_truth


def test_different_seeds_differ():
    a, _, _ = generate(GenSpec(seed=1))
    b, _, _ = generate(GenSpec(seed=2))
    assert a != b


def test_disjoint_domains_under_exact_matching():
    spec = GenSpec(n_services=14, n_domains=2, cross_domain_rate=0.0, seed=8)
    coll, onto, truth = generate(spec)
    net = build_network(coll, MatcherKind.EXACT, onto)
    for src, dst in net.edges:
        assert truth.domain_of_operation[src] == truth.domain_of_operation[dst]


def test_unannotated_collection_has_empty_semantic_networks():
    coll, onto, _ = generate(GenSpec(n_services=10, annotation_rate=0.0, seed=2))
    for kind in (MatcherKind.EXACT, MatcherKind.PLUGIN, MatcherKind.SUBSUME):
        assert build_network(coll, kind, onto).edges == frozenset()
    assert build_network(coll, MatcherKind.EQUAL, onto).edges


def test_full_annotation_gives_nonempty_hierarchy_networks():
    spec = GenSpec(
        n_services=20,
        ops_per_service=3,
        annotation_rate=1.0,
        hierarchy_depth=3,
        branching=2,
        concept_pool_size=15,
        name_pool_size=20,
        seed=6,
    )
    coll, onto, _ = generate(spec)
    assert build_network(coll, MatcherKind.PLUGIN, onto).edges
    assert build_network(coll, MatcherKind.SUBSUME, onto).edges


def test_pool_too_small_is_an_error():
    with pytest.raises(GenError, match="name pool"):
        GenSpec(name_pool_size=2, inputs_per_op=(1, 5)).validate()
    with pytest.raises(GenError, match="capacity"):
        GenSpec(concept_pool_size=100, hierarchy_depth=1, branching=2).validate()
    with pytest.raises(GenError, match="annotation_rate"):
        GenSpec(annotation_rate=1.5).validate()


@pytest.mark.parametrize("seed", [2, 7, 17])
def test_an_operation_may_draw_its_whole_name_pool(seed):
    # Each input set takes all 500 names of the pool; drawing with
    # replacement until an unused name comes up always finds one.
    spec = GenSpec(n_services=1, ops_per_service=1, n_domains=1, name_pool_size=500,
                   inputs_per_op=(500, 500), outputs_per_op=(1, 1), seed=seed)
    coll, _, _ = generate(spec)
    (op,) = coll.operations()
    assert len({p.name for p in op.inputs}) == 500


@pytest.mark.parametrize("depth, branching, pool", [
    (3, 3, 20),   # below the capacity of 40
    (3, 3, 40),   # at it
    (3, 3, 39),   # one short
    (2, 5, 31),   # at it, wide
    (4, 1, 5),    # a chain at its capacity
    (4, 1, 3),    # a chain below it
    (3, 3, 1),    # a single concept
])
def test_concept_tree_equals_breadth_first_fill(depth, branching, pool):
    spec = GenSpec(n_domains=2, hierarchy_depth=depth, branching=branching,
                   concept_pool_size=pool, n_services=4)
    _, onto, truth = generate(spec)
    edges = set()
    for dom, domain_pool in truth.pools.items():
        concepts, dom_edges = reference_concept_tree(dom, spec)
        assert domain_pool.concepts == concepts
        edges.update(dom_edges)
    assert onto.subclass_edges == edges


def test_generated_ontology_is_acyclic_and_loadable(tmp_path):
    coll, onto, _ = generate(GenSpec(n_services=4, seed=0))
    write_collection_tree(coll, onto, tmp_path)
    loaded = load_ontology(tmp_path / "ontology.tsv")  # cycle check runs on load
    assert loaded.subclass_edges == onto.subclass_edges
    assert loaded.ancestors_of == onto.ancestors_of


def test_written_tree_reloads_to_identical_collection(tmp_path):
    spec = GenSpec(n_services=9, n_domains=3, annotation_rate=0.8,
                   cross_domain_rate=0.1, seed=13)
    coll, onto, _ = generate(spec)
    write_collection_tree(coll, onto, tmp_path)
    loaded = load_collection(tmp_path)
    assert loaded == coll


def test_written_tree_round_trips_coverage(tmp_path):
    coll, onto, _ = generate(GenSpec(n_services=6, annotation_rate=1.0, seed=1))
    write_collection_tree(coll, onto, tmp_path)
    stats = collection_stats(load_collection(tmp_path))
    assert stats.annotation_coverage == 1.0


def test_manifest_carries_domains(tmp_path):
    coll, onto, _ = generate(GenSpec(n_services=5, n_domains=2, seed=3))
    write_collection_tree(coll, onto, tmp_path)
    loaded = load_collection(tmp_path)
    assert {svc.domain for svc in loaded.services} == {"d0", "d1"}


@pytest.mark.parametrize("name", ["other.wsdl", "OTHER.WSDL", "x.SaWsdl"])
def test_writing_refuses_any_description_it_would_not_write(tmp_path, name):
    (tmp_path / name).write_text("stale\n")
    coll, onto, _ = generate(GenSpec(n_services=2, seed=0))
    with pytest.raises(GenError, match=name):
        write_collection_tree(coll, onto, tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_networks_from_written_tree_match_in_memory_build(tmp_path):
    spec = GenSpec(n_services=8, annotation_rate=0.9, seed=17)
    coll, onto, _ = generate(spec)
    write_collection_tree(coll, onto, tmp_path)
    loaded = load_collection(tmp_path)
    loaded_onto = load_ontology(tmp_path / "ontology.tsv")
    for kind in ALL_KINDS:
        assert build_network(loaded, kind, loaded_onto).edges == build_network(
            coll, kind, onto
        ).edges


# ---------------------------------------------------------------------------
# Planted-partition graphs
# ---------------------------------------------------------------------------


def test_planted_partition_shape_and_determinism():
    a, blocks_a = planted_partition(2, 20, 0.5, 0.02, seed=1)
    b, blocks_b = planted_partition(2, 20, 0.5, 0.02, seed=1)
    assert a == b and blocks_a == blocks_b
    assert len(a.nodes) == 40
    assert set(blocks_a.values()) == {0, 1}
    # stored undirected: one directed edge per pair, low id -> high id
    assert all(src < dst for src, dst in a.edges)


def test_planted_partition_respects_probabilities():
    net, blocks = planted_partition(2, 30, 1.0, 0.0, seed=0)
    for src, dst in net.edges:
        assert blocks[src] == blocks[dst]
    assert len(net.edges) == 2 * (30 * 29 // 2)


def test_planted_partition_validation():
    with pytest.raises(GenError):
        planted_partition(0, 5, 0.5, 0.1)
    with pytest.raises(GenError):
        planted_partition(2, 5, 1.5, 0.1)
