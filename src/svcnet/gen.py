"""Synthetic service collections with planted ground truth.

Each thematic domain gets its own balanced concept tree and disjoint name
pool, so community/domain purity has an exact ground truth and exact matching
can never cross domains unless ``cross_domain_rate`` lets parameters draw
from another domain's pool.  Every pool name is bound 1:1 to a concept (and
to an annotated-or-not coin flip), which keeps the written WSDL files
injective: the same element name always carries the same annotation, and a
written tree reloads to an identical collection.

Also provides planted-partition benchmark graphs for community-detection
tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import (
    _WSDL_SUFFIXES,
    MANIFEST_NAME,
    OperationDesc,
    ParameterDesc,
    ServiceCollection,
    ServiceDesc,
)
from .errors import UsageError
from .netbuild import InteractionNetwork, quoteattr
from .ontology import Ontology, make_ontology


class GenError(UsageError):
    """Invalid generator specification."""


@dataclass(frozen=True)
class GenSpec:
    """Knobs for the synthetic collection; fully deterministic per seed.

    ``name_pool_size`` and ``concept_pool_size`` are per-domain sub-pool
    sizes.  Each domain's concepts form a ``branching``-ary tree numbered
    breadth-first: concept i's parent is concept (i - 1) // branching, so
    pools smaller than the full tree keep the shallow levels.
    ``hierarchy_depth`` only bounds the pool, through :meth:`validate`.
    """

    n_services: int = 30
    ops_per_service: int = 3
    n_domains: int = 3
    name_pool_size: int = 40
    concept_pool_size: int = 40
    hierarchy_depth: int = 3
    branching: int = 3
    inputs_per_op: tuple[int, int] = (1, 3)
    outputs_per_op: tuple[int, int] = (1, 3)
    annotation_rate: float = 1.0
    cross_domain_rate: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        for name in ("n_services", "ops_per_service", "n_domains", "name_pool_size",
                     "concept_pool_size", "hierarchy_depth", "branching"):
            if getattr(self, name) < 1:
                raise GenError(f"{name} must be >= 1")
        if self.seed < 0:
            raise GenError("seed must be >= 0")
        for name in ("annotation_rate", "cross_domain_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise GenError(f"{name} must be in [0, 1]")
        for name in ("inputs_per_op", "outputs_per_op"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise GenError(f"{name} must be a (lo, hi) range with 0 <= lo <= hi")
            if hi > self.name_pool_size:
                raise GenError(
                    f"{name} upper bound {hi} exceeds the per-domain name pool "
                    f"({self.name_pool_size}); parameters are drawn without replacement"
                )
        capacity = _tree_capacity(self.hierarchy_depth, self.branching)
        if self.concept_pool_size > capacity:
            raise GenError(
                f"concept_pool_size {self.concept_pool_size} exceeds the "
                f"hierarchy capacity {capacity} (depth {self.hierarchy_depth}, "
                f"branching {self.branching})"
            )


def _tree_capacity(depth: int, branching: int) -> int:
    return sum(branching**level for level in range(depth + 1))


@dataclass(frozen=True)
class DomainPool:
    names: tuple[str, ...]
    concepts: tuple[str, ...]
    annotated: tuple[bool, ...]          # per name
    concept_of_name: tuple[str, ...]     # per name, 1:1 binding


@dataclass(frozen=True)
class GenGroundTruth:
    domain_of_operation: dict[str, str]
    pools: dict[str, DomainPool]


def generate(spec: GenSpec) -> tuple[ServiceCollection, Ontology, GenGroundTruth]:
    """Build the collection, its ontology and the planted ground truth."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    domains = [f"d{i}" for i in range(spec.n_domains)]

    edges: list[tuple[str, str]] = []
    pools: dict[str, DomainPool] = {}
    for dom in domains:
        base = f"http://svcnet.test/onto/{dom}#c"
        concepts = tuple(f"{base}{i}" for i in range(spec.concept_pool_size))
        edges.extend((concepts[i], concepts[(i - 1) // spec.branching])
                     for i in range(1, spec.concept_pool_size))
        names = tuple(f"{dom}_p{i:03d}" for i in range(spec.name_pool_size))
        annotated = tuple(bool(rng.random() < spec.annotation_rate) for _ in names)
        concept_of_name = tuple(
            concepts[i % spec.concept_pool_size] for i in range(spec.name_pool_size)
        )
        pools[dom] = DomainPool(names, concepts, annotated, concept_of_name)

    services: list[ServiceDesc] = []
    domain_of_op: dict[str, str] = {}
    for s in range(spec.n_services):
        dom = domains[s % spec.n_domains]
        svc_name = f"svc{s:03d}"
        ops = []
        for o in range(spec.ops_per_service):
            op_name = f"op{o}"
            inputs = _draw_params(dom, domains, pools, spec.inputs_per_op, spec, rng)
            outputs = _draw_params(dom, domains, pools, spec.outputs_per_op, spec, rng)
            op = OperationDesc(
                service=svc_name,
                name=op_name,
                inputs=frozenset(inputs),
                outputs=frozenset(outputs),
            )
            ops.append(op)
            domain_of_op[op.op_id] = dom
        services.append(ServiceDesc(name=svc_name, domain=dom, operations=tuple(ops)))

    collection = ServiceCollection(services=tuple(services), warnings=())
    ontology = make_ontology(edges)
    truth = GenGroundTruth(domain_of_operation=domain_of_op, pools=pools)
    return collection, ontology, truth


def _draw_params(
    dom: str,
    domains: list[str],
    pools: dict[str, DomainPool],
    count_range: tuple[int, int],
    spec: GenSpec,
    rng: np.random.Generator,
) -> list[ParameterDesc]:
    lo, hi = count_range
    n = int(rng.integers(lo, hi + 1))
    params: list[ParameterDesc] = []
    used: set[str] = set()
    for _ in range(n):
        source = dom
        if spec.cross_domain_rate and rng.random() < spec.cross_domain_rate:
            source = domains[int(rng.integers(0, len(domains)))]
        pool = pools[source]
        # validate() keeps n within every pool, so an unused name comes up.
        idx = int(rng.integers(0, len(pool.names)))
        while pool.names[idx] in used:
            idx = int(rng.integers(0, len(pool.names)))
        name = pool.names[idx]
        used.add(name)
        concept = pool.concept_of_name[idx] if pool.annotated[idx] else None
        params.append(ParameterDesc(name=name, xsd_type="xsd:string", concept=concept))
    return params


# ---------------------------------------------------------------------------
# File tree output (consumable by corpus.load_collection)
# ---------------------------------------------------------------------------


def write_collection_tree(
    coll: ServiceCollection, onto: Ontology, out_dir: str | Path
) -> Path:
    """Write one SAWSDL-annotated WSDL per service, plus the ontology edge
    list and the domain manifest.

    A directory that holds a ``.wsdl``/``.sawsdl`` file this collection would
    not write is refused before anything is written: loaded with the new
    files, the stale one would join the collection.  Rewriting the same
    collection is allowed.
    """
    out = Path(out_dir)
    names = {f"{svc.name}.wsdl" for svc in coll.services}
    if out.is_dir():
        stale = sorted(p.name for p in out.iterdir()
                       if p.suffix.lower() in _WSDL_SUFFIXES and p.name not in names)
        if stale:
            raise GenError(f"{out} holds descriptions of another collection "
                           f"({', '.join(stale[:3])}); write to an empty directory")
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict[str, str] = {}
    for svc in coll.services:
        fname = f"{svc.name}.wsdl"
        (out / fname).write_text(_service_to_wsdl(svc), encoding="utf-8")
        if svc.domain is not None:
            manifest[fname] = svc.domain
    (out / "ontology.tsv").write_text(
        "".join(f"{child}\t{parent}\n" for child, parent in sorted(onto.subclass_edges)),
        encoding="utf-8",
    )
    (out / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out


def _service_to_wsdl(svc: ServiceDesc) -> str:
    tns = f"http://svcnet.test/gen/{svc.name}"

    elements: dict[str, ParameterDesc] = {}
    for op in svc.operations:
        for p in sorted(op.inputs | op.outputs, key=lambda p: p.name):
            known = elements.get(p.name)
            if known is None:
                elements[p.name] = p
            elif known != p:
                raise GenError(
                    f"{svc.name}: parameter name {p.name!r} bound to conflicting "
                    "annotations; cannot serialize"
                )

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<wsdl:definitions name={quoteattr(svc.name)} targetNamespace={quoteattr(tns)}',
        '    xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"',
        '    xmlns:xsd="http://www.w3.org/2001/XMLSchema"',
        f'    xmlns:tns={quoteattr(tns)}',
        '    xmlns:sawsdl="http://www.w3.org/ns/sawsdl">',
        "  <wsdl:types>",
        f'    <xsd:schema targetNamespace={quoteattr(tns)}>',
    ]
    for name in sorted(elements):
        p = elements[name]
        attrs = f"name={quoteattr(name)} type={quoteattr(p.xsd_type or 'xsd:string')}"
        if p.concept is not None:
            attrs += f" sawsdl:modelReference={quoteattr(p.concept)}"
        lines.append(f"      <xsd:element {attrs}/>")
    lines.append("    </xsd:schema>")
    lines.append("  </wsdl:types>")

    def message(op_name: str, kind: str, params: frozenset[ParameterDesc]) -> None:
        lines.append(f"  <wsdl:message name={quoteattr(op_name + kind)}>")
        for p in sorted(params, key=lambda p: p.name):
            lines.append(
                f"    <wsdl:part name={quoteattr(p.name)} element={quoteattr('tns:' + p.name)}/>"
            )
        lines.append("  </wsdl:message>")

    for op in svc.operations:
        if op.inputs:
            message(op.name, "Request", op.inputs)
        if op.outputs:
            message(op.name, "Response", op.outputs)

    lines.append(f"  <wsdl:portType name={quoteattr(svc.name + 'PortType')}>")
    for op in svc.operations:
        lines.append(f"    <wsdl:operation name={quoteattr(op.name)}>")
        if op.inputs:
            lines.append(f"      <wsdl:input message={quoteattr('tns:' + op.name + 'Request')}/>")
        if op.outputs:
            lines.append(
                f"      <wsdl:output message={quoteattr('tns:' + op.name + 'Response')}/>"
            )
        lines.append("    </wsdl:operation>")
    lines.append("  </wsdl:portType>")
    lines.append(f"  <wsdl:service name={quoteattr(svc.name)}/>")
    lines.append("</wsdl:definitions>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Planted-partition benchmark graphs
# ---------------------------------------------------------------------------


def planted_partition(
    n_blocks: int,
    block_size: int,
    p_in: float,
    p_out: float,
    seed: int = 0,
) -> tuple[InteractionNetwork, dict[str, int]]:
    """Undirected planted-partition graph (each edge stored once, low->high).

    Returns the network and the planted block of every node.
    """
    if n_blocks < 1 or block_size < 1:
        raise GenError("n_blocks and block_size must be >= 1")
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise GenError("p_in and p_out must be probabilities")
    rng = np.random.default_rng(seed)
    n = n_blocks * block_size
    width = len(str(n - 1))
    nodes = tuple(f"n{i:0{width}d}" for i in range(n))
    blocks = {nodes[i]: i // block_size for i in range(n)}
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = p_in if blocks[nodes[i]] == blocks[nodes[j]] else p_out
            if rng.random() < p:
                edges.append((nodes[i], nodes[j]))
    net = InteractionNetwork(nodes=nodes, edges=edges)
    return net, blocks
