"""Concept hierarchy storage and strict-subsumption queries.

The hierarchy is a DAG of subclass edges between named concepts, loaded from
either a tab-separated edge list (one ``child<TAB>parent`` IRI pair per line)
or a small OWL-XML subset that reads only subClassOf axioms between named
classes.  The transitive closure is precomputed at load time: collections are
small and subsumption queries sit inside the quadratic network build.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

from .errors import SvcnetError

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XML_BASE = "{http://www.w3.org/XML/1998/namespace}base"

_EMPTY: frozenset[str] = frozenset()


class OntologyError(SvcnetError):
    """Unreadable ontology source or a cyclic subclass relation."""


@dataclass(frozen=True)
class Ontology:
    """Immutable concept DAG with its precomputed transitive closure.

    ``ancestors_of[c]`` holds every strict ancestor of ``c`` (``c`` itself is
    never included); ``descendants_of`` is the inverse view.  Concepts that
    appear in queries but not in the hierarchy are treated as isolated.
    """

    concepts: frozenset[str]
    subclass_edges: frozenset[tuple[str, str]]
    ancestors_of: dict[str, frozenset[str]] = field(default_factory=dict)
    descendants_of: dict[str, frozenset[str]] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def ancestors(self, concept: str) -> frozenset[str]:
        return self.ancestors_of.get(concept, _EMPTY)

    def descendants(self, concept: str) -> frozenset[str]:
        return self.descendants_of.get(concept, _EMPTY)

    def is_strict_subclass(self, child: str, parent: str) -> bool:
        return parent in self.ancestors_of.get(child, _EMPTY)

    @classmethod
    def empty(cls) -> "Ontology":
        return cls(frozenset(), frozenset())


def is_strict_subclass(c1: str, c2: str, onto: Ontology) -> bool:
    """True iff ``c1 != c2`` and ``c1`` is below ``c2`` in the closure."""
    return onto.is_strict_subclass(c1, c2)


def make_ontology(
    edges: list[tuple[str, str]] | set[tuple[str, str]] | frozenset[tuple[str, str]],
    warnings: list[str] | tuple[str, ...] = (),
) -> Ontology:
    """Build an :class:`Ontology` from (child, parent) pairs.

    Raises :class:`OntologyError` naming one cycle, child to parent, if the
    relation is not a DAG.  The closure is computed by propagating ancestor
    sets in ``graphlib``'s topological order, so it is exactly the transitive
    closure of the edges.  Concepts and parents go in sorted, so the order and
    the cycle named do not depend on the string hash seed.
    """
    edge_set = frozenset(edges)
    parents: dict[str, list[str]] = {c: [] for c in sorted({c for e in edge_set for c in e})}
    for child, parent in sorted(edge_set):
        parents[child].append(parent)

    try:
        order = list(TopologicalSorter(parents).static_order())
    except CycleError as exc:
        # graphlib lists the cycle parent to child, its first node repeated last.
        raise OntologyError("subclass cycle: " + " -> ".join(reversed(exc.args[1]))) from exc
    ancestors: dict[str, frozenset[str]] = {}
    for node in order:
        acc = set(parents[node])
        for p in parents[node]:
            acc.update(ancestors[p])
        ancestors[node] = frozenset(acc)

    descendants: dict[str, set[str]] = {c: set() for c in parents}
    for child, ancs in ancestors.items():
        for anc in ancs:
            descendants[anc].add(child)

    return Ontology(
        concepts=frozenset(parents),
        subclass_edges=edge_set,
        ancestors_of={c: a for c, a in ancestors.items() if a},
        descendants_of={c: frozenset(d) for c, d in descendants.items() if d},
        warnings=tuple(warnings),
    )


def load_ontology(source: str | Path) -> Ontology:
    """Load an ontology from a file path, sniffing edge-list TSV vs OWL-XML."""
    path = Path(source)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise OntologyError(f"cannot read ontology {path}: {exc}") from exc
    return parse_ontology(text, str(path))


def sniff_xml(text: str) -> str | None:
    """``text`` from its first ``<`` when only byte-order marks and whitespace
    come before it, else None: whether an ontology or a network file is XML."""
    stripped = text.lstrip("\ufeff \t\r\n")
    return stripped if stripped.startswith("<") else None


def parse_ontology(text: str, source: str = "<ontology>") -> Ontology:
    if (xml := sniff_xml(text)) is not None:
        edges, warnings = _parse_owl_xml(xml, source)
    else:
        edges, warnings = _parse_edge_list(text.removeprefix("\ufeff"), source)
    return make_ontology(edges, warnings)


def _parse_edge_list(text: str, source: str) -> tuple[list[tuple[str, str]], list[str]]:
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("\t") if f.strip()]
        if len(fields) != 2:
            raise OntologyError(
                f"{source}:{lineno}: expected one child<TAB>parent pair, got {raw!r}"
            )
        edges.append((fields[0], fields[1]))
    return edges, []


def _parse_owl_xml(text: str, source: str) -> tuple[list[tuple[str, str]], list[str]]:
    """Read subClassOf axioms between named classes; everything else is skipped.

    Understands both RDF/XML (``rdfs:subClassOf`` nested under a subject that
    carries ``rdf:about``/``rdf:ID``) and the OWL/XML functional serialization
    (``SubClassOf`` with two named ``Class`` children).  ``equivalentClass``
    axioms are ignored with a warning: concept equivalence is IRI identity.
    So is a ``subClassOf`` whose subject or superclass IRI is empty.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise OntologyError(f"{source}: malformed XML: {exc}") from exc

    base = root.get(XML_BASE, "")
    edges: list[tuple[str, str]] = []
    warnings: list[str] = []

    def resolve(ref: str) -> str:
        if ref.startswith("#"):
            if base:
                return base + ref
            warnings.append(f"relative concept reference {ref!r} kept as-is (no xml:base)")
        return ref

    def subject_iri(el: ET.Element) -> str | None:
        about = el.get(f"{{{RDF_NS}}}about")
        if about is not None:
            return resolve(about)
        ident = el.get(f"{{{RDF_NS}}}ID")
        if ident is not None:
            return resolve("#" + ident) if ident else ""
        return None

    for el in root.iter():
        tag = el.tag
        if tag == f"{{{OWL_NS}}}SubClassOf":
            named = [c.get("IRI") for c in el if c.tag == f"{{{OWL_NS}}}Class" and c.get("IRI")]
            if len(named) >= 2:
                edges.append((resolve(named[0]), resolve(named[1])))
            else:
                warnings.append("SubClassOf axiom without two named classes ignored")
            continue
        if tag == f"{{{OWL_NS}}}EquivalentClasses":
            warnings.append("EquivalentClasses axiom ignored (equivalence is IRI identity)")
            continue
        subject = subject_iri(el)
        if subject is None:
            continue
        for child in el:
            if child.tag == f"{{{RDFS_NS}}}subClassOf":
                target = child.get(f"{{{RDF_NS}}}resource")
                if target is None:
                    nested = [subject_iri(c) for c in child]
                    nested = [n for n in nested if n]
                    if not nested:
                        warnings.append(
                            f"anonymous superclass of <{subject}> ignored (named classes only)"
                        )
                        continue
                    target = nested[0]
                else:
                    target = resolve(target)
                if not subject or not target:
                    warnings.append(
                        f"subClassOf axiom <{subject}> -> <{target}> with an empty IRI ignored"
                    )
                    continue
                edges.append((subject, target))
            elif child.tag == f"{{{OWL_NS}}}equivalentClass":
                warnings.append(
                    f"equivalentClass axiom on <{subject}> ignored (equivalence is IRI identity)"
                )
    return edges, warnings
