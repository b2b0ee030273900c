import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutated_text
from svcnet.errors import SvcnetError
from svcnet.ontology import (
    Ontology,
    OntologyError,
    is_strict_subclass,
    load_ontology,
    make_ontology,
    parse_ontology,
)

A, B, C = "http://x/#A", "http://x/#B", "http://x/#C"


def test_closure_is_transitive():
    onto = make_ontology([(A, B), (B, C)])
    assert onto.is_strict_subclass(A, C)
    assert onto.ancestors(A) == {B, C}
    assert onto.descendants(C) == {A, B}


def test_strictness_and_direction():
    onto = make_ontology([(A, B), (B, C)])
    assert not onto.is_strict_subclass(A, A)
    assert not onto.is_strict_subclass(C, A)
    assert is_strict_subclass(A, C, onto)
    assert not is_strict_subclass(C, A, onto)


def test_unknown_concepts_are_isolated():
    onto = make_ontology([(A, B)])
    assert not onto.is_strict_subclass("http://elsewhere/#Z", A)
    assert onto.ancestors("http://elsewhere/#Z") == frozenset()


def test_cycle_error_names_a_cycle():
    with pytest.raises(OntologyError, match="cycle"):
        make_ontology([(A, B), (B, A)])
    with pytest.raises(OntologyError, match="->"):
        make_ontology([(A, A)])


def test_empty_source_gives_empty_ontology(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    onto = load_ontology(path)
    assert onto.concepts == frozenset()


def test_edge_list_parsing(tmp_path):
    path = tmp_path / "onto.tsv"
    path.write_text(f"# comment\n{A}\t{B}\n\n{B}\t{C}\n")
    onto = load_ontology(path)
    assert onto.is_strict_subclass(A, C)


def test_edge_list_rejects_malformed_line():
    with pytest.raises(OntologyError, match=r":1: expected one child"):
        parse_ontology("not-a-pair\n")


RDF_DOC = f"""<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#">
  <owl:Class rdf:about="{A}">
    <rdfs:subClassOf rdf:resource="{B}"/>
  </owl:Class>
  <owl:Class rdf:about="{B}">
    <rdfs:subClassOf>
      <owl:Class rdf:about="{C}"/>
    </rdfs:subClassOf>
    <owl:equivalentClass rdf:resource="{A}"/>
  </owl:Class>
</rdf:RDF>
"""


def test_owl_rdfxml_subset():
    onto = parse_ontology(RDF_DOC)
    assert (A, B) in onto.subclass_edges
    assert (B, C) in onto.subclass_edges
    assert onto.is_strict_subclass(A, C)
    assert any("equivalentClass" in w for w in onto.warnings)


def test_owl_rdf_id_resolves_against_base():
    doc = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xml:base="http://base.example/onto">
  <owl:Class rdf:ID="Sub"><rdfs:subClassOf rdf:resource="#Super"/></owl:Class>
</rdf:RDF>
"""
    onto = parse_ontology(doc)
    assert ("http://base.example/onto#Sub", "http://base.example/onto#Super") in onto.subclass_edges


@pytest.mark.parametrize("subject, target", [
    ('rdf:about=""', f'rdf:resource="{B}"'),
    ('rdf:ID=""', f'rdf:resource="{B}"'),
    (f'rdf:about="{A}"', 'rdf:resource=""'),
], ids=["empty-about", "empty-id", "empty-resource"])
def test_owl_subclass_axiom_with_an_empty_iri_is_dropped(subject, target):
    doc = f"""<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#">
  <owl:Class {subject}><rdfs:subClassOf {target}/></owl:Class>
  <owl:Class rdf:about="{B}"><rdfs:subClassOf rdf:resource="{C}"/></owl:Class>
</rdf:RDF>
"""
    onto = parse_ontology(doc)
    assert onto.subclass_edges == {(B, C)}
    assert len(onto.warnings) == 1 and "empty IRI ignored" in onto.warnings[0]


FUNCTIONAL_DOC = f"""<?xml version="1.0"?>
<Ontology xmlns="http://www.w3.org/2002/07/owl#">
  <SubClassOf><Class IRI="{A}"/><Class IRI="{B}"/></SubClassOf>
  <EquivalentClasses><Class IRI="{A}"/><Class IRI="{C}"/></EquivalentClasses>
</Ontology>
"""


def test_owl_functional_xml_subset():
    onto = parse_ontology(FUNCTIONAL_DOC)
    assert onto.subclass_edges == {(A, B)}
    assert any("EquivalentClasses" in w for w in onto.warnings)


def test_sniffing_picks_format():
    assert parse_ontology(f"{A}\t{B}\n").subclass_edges == {(A, B)}
    assert parse_ontology(RDF_DOC).is_strict_subclass(A, C)


# ---------------------------------------------------------------------------
# Properties against a brute-force reachability oracle
# ---------------------------------------------------------------------------


def bfs_reachable(edges: list[tuple[int, int]], start: int) -> set[int]:
    out: dict[int, set[int]] = {}
    for child, parent in edges:
        out.setdefault(child, set()).add(parent)
    seen: set[int] = set()
    stack = [start]
    while stack:
        node = stack.pop()
        for nxt in out.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


@st.composite
def dag_edges(draw):
    n = draw(st.integers(min_value=2, max_value=100))
    n_edges = draw(st.integers(min_value=0, max_value=min(200, n * 3)))
    edges = set()
    for _ in range(n_edges):
        child = draw(st.integers(min_value=0, max_value=n - 2))
        parent = draw(st.integers(min_value=child + 1, max_value=n - 1))
        edges.add((child, parent))  # child < parent keeps it acyclic
    return sorted(edges)


def iri(i: int) -> str:
    return f"http://t/#{i}"


@settings(max_examples=60, deadline=None)
@given(dag_edges())
def test_closure_matches_bfs_reachability(edges):
    onto = make_ontology([(iri(c), iri(p)) for c, p in edges])
    nodes = {x for e in edges for x in e}
    for node in nodes:
        expected = {iri(x) for x in bfs_reachable(edges, node)}
        assert onto.ancestors(iri(node)) == expected


@settings(max_examples=60, deadline=None)
@given(dag_edges())
def test_antisymmetry_and_transitivity(edges):
    onto = make_ontology([(iri(c), iri(p)) for c, p in edges])
    nodes = sorted({x for e in edges for x in e})
    for a in nodes:
        for b in onto.ancestors(iri(a)):
            assert not onto.is_strict_subclass(b, iri(a))
            for c in onto.ancestors(b):
                assert onto.is_strict_subclass(iri(a), c)


def test_ontology_empty_constructor():
    onto = Ontology.empty()
    assert not onto.is_strict_subclass(A, B)


# ---------------------------------------------------------------------------
# Fuzzing: malformed input is an OntologyError, never a traceback
# ---------------------------------------------------------------------------

ONTOLOGY_SEEDS = [
    f"# child<TAB>parent\n{A}\t{B}\n\n{B}\t{C}\n{C}\thttp://x/#D\n",
    RDF_DOC,
    RDF_DOC.replace("<rdf:RDF ", '<rdf:RDF xml:base="http://x/" ').replace(
        f'rdf:about="{A}"', 'rdf:ID="A"'),
    FUNCTIONAL_DOC,
]


@settings(max_examples=200, deadline=None)
@given(mutated_text(ONTOLOGY_SEEDS))
def test_mutated_ontology_parses_or_raises_an_ontology_error(text):
    try:
        onto = parse_ontology(text, "fuzz.owl")
    except SvcnetError:
        return
    for child, parent in onto.subclass_edges:
        assert onto.is_strict_subclass(child, parent)
