"""WSDL 1.1 / SAWSDL parsing into an in-memory service collection.

A service interface is a set of operations, each with a set of input and a set
of output parameters.  Parameters are flat named items: every top-level
message part becomes one parameter, or, when a part references an element
whose type is a complex wrapper, each top-level child element of the wrapper
does.  There is no deeper schema recursion.  A ``sawsdl:modelReference`` on
the element (or on the named type it references) populates the parameter's
concept IRI.

Each document is fed to one ``XMLParser``, whose ``TreeBuilder`` target also
keeps the namespace prefixes that QName attribute values such as
``element="tns:Req"`` refer to.  Not ``iterparse``: on CPython 3.11 every
call defines a new iterator class, which is cyclic garbage, and loading 1500
documents spent three times as long in the garbage collector.  The schema
lookups hold the tree's own declaration elements; each one's concept and
wrapper children are read once.  Equal parameters are one shared object.
"""

from __future__ import annotations

import functools
import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass, replace
from pathlib import Path
from urllib.parse import urlsplit

from .errors import SvcnetError, UsageError

WSDL_NS = "http://schemas.xmlsoap.org/wsdl/"
XSD_NS = "http://www.w3.org/2001/XMLSchema"
SAWSDL_NS = "http://www.w3.org/ns/sawsdl"
SAWSDL_NS_OLD = "http://www.w3.org/2002/ws/sawsdl/spec/sawsdl#"

COLLECTION_SCHEMA = "svcnet-collection/1"
MANIFEST_NAME = "manifest.json"
_WSDL_SUFFIXES = (".wsdl", ".sawsdl")


class CorpusError(SvcnetError):
    """Unrecoverable problem with a description document."""


# Concept IRIs repeat across a collection, and each is checked when it is
# read and again when its parameter is built.
@functools.lru_cache(maxsize=4096)
def _is_absolute_iri(text: str) -> bool:
    if text.split() != [text]:  # whitespace anywhere, or empty
        return False
    try:
        return bool(urlsplit(text).scheme)
    except ValueError:
        return False


@dataclass(frozen=True)
class ParameterDesc:
    """One flat operation parameter: a name, an optional XSD type QName and
    an optional ontology concept IRI."""

    name: str
    xsd_type: str | None = None
    concept: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("parameter name must be non-empty")
        if self.concept is not None and not _is_absolute_iri(self.concept):
            raise ValueError(f"concept must be an absolute IRI, got {self.concept!r}")


# A parameter recurs across the operations and documents of a collection, so
# the parser shares one object per value.  Each value is validated when it is
# first built; a value that fails raises and is not cached.
@functools.lru_cache(maxsize=4096)
def _parameter(name: str, xsd_type: str | None, concept: str | None) -> ParameterDesc:
    return ParameterDesc(name, xsd_type, concept)


@dataclass(frozen=True)
class OperationDesc:
    """One service operation with its input and output parameter sets."""

    service: str
    name: str
    inputs: frozenset[ParameterDesc]
    outputs: frozenset[ParameterDesc]

    def __post_init__(self) -> None:
        for side, params in (("input", self.inputs), ("output", self.outputs)):
            keys = {(p.name, p.concept) for p in params}
            if len(keys) != len(params):
                raise ValueError(
                    f"duplicate (name, concept) pair in {side}s of {self.service}::{self.name}"
                )

    @property
    def op_id(self) -> str:
        return f"{self.service}::{self.name}"


@dataclass(frozen=True)
class ServiceDesc:
    name: str
    domain: str | None
    operations: tuple[OperationDesc, ...]


@dataclass(frozen=True)
class ServiceCollection:
    services: tuple[ServiceDesc, ...]
    warnings: tuple[str, ...] = ()

    def iter_operations(self):
        for svc in self.services:
            for op in svc.operations:
                yield svc, op

    def operations(self) -> tuple[OperationDesc, ...]:
        return tuple(op for _, op in self.iter_operations())

    def domain_of_operation(self) -> dict[str, str | None]:
        return {op.op_id: svc.domain for svc, op in self.iter_operations()}


@dataclass(frozen=True)
class CollectionStats:
    """Field order is the report's key order: the CLI renders ``asdict`` of this."""

    services: int
    operations: int
    parameters: int
    annotated_parameters: int
    annotation_coverage: float


def collection_stats(coll: ServiceCollection) -> CollectionStats:
    """Counts plus the fraction of parameters that carry a concept IRI."""
    n_params = 0
    n_annotated = 0
    n_ops = 0
    for _, op in coll.iter_operations():
        n_ops += 1
        for p in list(op.inputs) + list(op.outputs):
            n_params += 1
            if p.concept is not None:
                n_annotated += 1
    coverage = n_annotated / n_params if n_params else 0.0
    return CollectionStats(len(coll.services), n_ops, n_params, n_annotated, coverage)


# ---------------------------------------------------------------------------
# WSDL parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParsedDescription:
    """One parsed document: its services and any non-fatal warnings."""

    services: tuple[ServiceDesc, ...]
    warnings: tuple[str, ...]


def parse_description(data: bytes, source: str = "<document>") -> ParsedDescription:
    """Parse one WSDL 1.1 document (optionally SAWSDL-annotated).

    Produces one operation entry per portType operation, with message parts
    flattened into parameter sets.  Malformed XML raises :class:`CorpusError`
    with the parser's location; structural oddities become warnings.
    """
    # An unknown or multi-byte encoding named in the XML declaration raises
    # LookupError or ValueError rather than ParseError.
    builder = _PrefixTreeBuilder()
    parser = ET.XMLParser(target=builder)
    try:
        parser.feed(data)
        root = parser.close()
    except (ET.ParseError, LookupError, ValueError) as exc:
        raise CorpusError(f"{source}: malformed XML: {exc}") from exc
    return _describe(root, builder.nsmap, source)


class _PrefixTreeBuilder(ET.TreeBuilder):
    """A tree builder that also keeps the prefixes the tree drops, which QName
    attribute values use; a prefix bound twice keeps its first binding."""

    def __init__(self) -> None:
        super().__init__()
        self.nsmap: dict[str, str] = {}

    def start_ns(self, prefix: str, uri: str) -> None:
        self.nsmap.setdefault(prefix, uri)


def _describe(root: ET.Element, nsmap: dict[str, str], source: str) -> ParsedDescription:
    """The services of one parsed document; ``nsmap`` maps its prefixes to URIs."""
    if root.tag != f"{{{WSDL_NS}}}definitions":
        raise CorpusError(f"{source}: not a WSDL 1.1 document (root {root.tag})")

    warnings: list[str] = []
    doc = _DocumentIndex(root, nsmap, source, warnings)

    service_name = doc.service_name()
    ops: list[OperationDesc] = []
    seen_ops: set[str] = set()
    for pt in root.findall(f"{{{WSDL_NS}}}portType"):
        for op_el in pt.findall(f"{{{WSDL_NS}}}operation"):
            op_name = op_el.get("name")
            if not op_name:
                warnings.append(f"{source}: unnamed operation skipped")
                continue
            if op_name in seen_ops:
                warnings.append(f"{source}: duplicate operation {op_name!r} kept once")
                continue
            seen_ops.add(op_name)
            inputs = doc.message_params(op_el.find(f"{{{WSDL_NS}}}input"), op_name)
            outputs = doc.message_params(op_el.find(f"{{{WSDL_NS}}}output"), op_name)
            if not inputs and not outputs:
                warnings.append(
                    f"{source}: operation {op_name!r} has neither inputs nor outputs"
                )
            ops.append(
                OperationDesc(service=service_name, name=op_name, inputs=inputs, outputs=outputs)
            )

    svc = ServiceDesc(name=service_name, domain=None, operations=tuple(ops))
    return ParsedDescription(services=(svc,), warnings=tuple(warnings))


def _model_reference(el: ET.Element, source: str, warnings: list[str]) -> str | None:
    raw = el.get(f"{{{SAWSDL_NS}}}modelReference")
    if raw is None:
        raw = el.get(f"{{{SAWSDL_NS_OLD}}}modelReference")
    if raw is None:
        return None
    iris = raw.split()
    if not iris:
        return None
    if len(iris) > 1:
        warnings.append(
            f"{source}: modelReference lists {len(iris)} IRIs; keeping the first ({iris[0]})"
        )
    if not _is_absolute_iri(iris[0]):
        warnings.append(f"{source}: modelReference {iris[0]!r} is not an absolute IRI; dropped")
        return None
    return iris[0]


class _DocumentIndex:
    """Schema, message and service lookups local to one WSDL document.

    The schema tables hold the parsed ``xsd:element``, ``xsd:complexType``
    and ``xsd:simpleType`` declarations themselves, keyed by (target
    namespace, name) and, first declaration wins, by name alone.
    """

    def __init__(self, root: ET.Element, nsmap: dict[str, str], source: str,
                 warnings: list[str]) -> None:
        self.root = root
        self.nsmap = nsmap
        self.source = source
        self.warnings = warnings
        self.elements: dict[tuple[str, str], ET.Element] = {}
        self.elements_by_name: dict[str, ET.Element] = {}
        self.types: dict[tuple[str, str], ET.Element] = {}
        self.types_by_name: dict[str, ET.Element] = {}
        # Every scanned declaration and wrapper child -> its modelReference.
        self.concepts: dict[ET.Element, str | None] = {}
        # Each element (None without an inline complexType) and complexType
        # -> its wrapper children.
        self.children: dict[ET.Element, list[ET.Element] | None] = {}
        self.messages: dict[str, list[ET.Element]] = {}  # name -> its <part>s
        self._scan_schemas()
        self._scan_messages()

    # -- scanning ----------------------------------------------------------

    def _scan_schemas(self) -> None:
        types_el = self.root.find(f"{{{WSDL_NS}}}types")
        if types_el is None:
            return
        tables = (
            ("element", self.elements, self.elements_by_name),
            ("complexType", self.types, self.types_by_name),
            ("simpleType", self.types, self.types_by_name),
        )
        for schema in types_el.iter(f"{{{XSD_NS}}}schema"):
            tns = schema.get("targetNamespace", "")
            for tag, table, by_name in tables:
                for decl in schema.findall(f"{{{XSD_NS}}}{tag}"):
                    name = decl.get("name")
                    if not name:
                        continue
                    self.concepts[decl] = _model_reference(decl, self.source, self.warnings)
                    if tag == "element":
                        inline = decl.find(f"{{{XSD_NS}}}complexType")
                        self.children[decl] = None if inline is None else self._wrapped(inline)
                    elif tag == "complexType":
                        self.children[decl] = self._wrapped(decl)
                    table[(tns, name)] = decl
                    by_name.setdefault(name, decl)

    def _wrapped(self, ct: ET.Element) -> list[ET.Element]:
        """The child elements of a complexType's sequence, all and choice, in
        that order; each one's concept is recorded as it is listed."""
        children: list[ET.Element] = []
        for group_tag in ("sequence", "all", "choice"):
            group = ct.find(f"{{{XSD_NS}}}{group_tag}")
            if group is not None:
                children.extend(group.findall(f"{{{XSD_NS}}}element"))
        for child in children:
            self.concepts[child] = _model_reference(child, self.source, self.warnings)
        return children

    def _scan_messages(self) -> None:
        for msg in self.root.findall(f"{{{WSDL_NS}}}message"):
            name = msg.get("name")
            if not name:
                continue
            self.messages.setdefault(name, msg.findall(f"{{{WSDL_NS}}}part"))

    # -- lookups -----------------------------------------------------------

    def service_name(self) -> str:
        services = self.root.findall(f"{{{WSDL_NS}}}service")
        if services:
            if len(services) > 1:
                self.warnings.append(
                    f"{self.source}: multiple service elements; using the first"
                )
            name = services[0].get("name")
            if name:
                return name
        name = self.root.get("name")
        if name:
            return name
        stem = Path(self.source).stem
        return stem or "service"

    def _split_qname(self, raw: str) -> tuple[str | None, str]:
        prefix, colon, local = raw.partition(":")
        return (self.nsmap.get(prefix), local) if colon else (self.nsmap.get(""), raw)

    def _find(self, table: dict[tuple[str, str], ET.Element],
              by_name: dict[str, ET.Element], raw: str) -> ET.Element | None:
        ns, local = self._split_qname(raw)
        if ns is not None and (ns, local) in table:
            return table[(ns, local)]
        return by_name.get(local)

    def _named_type(self, raw: str | None) -> ET.Element | None:
        """The declared type ``raw`` names; a built-in XSD type has none."""
        if raw is None or self._split_qname(raw)[0] == XSD_NS:
            return None
        return self._find(self.types, self.types_by_name, raw)

    def _param(self, name: str, type_raw: str | None, concept: str | None) -> ParameterDesc:
        """A leaf parameter; without a concept of its own it takes its named type's."""
        if concept is None:
            decl = self._named_type(type_raw)
            concept = None if decl is None else self.concepts[decl]
        return _parameter(name, type_raw, concept)

    def _leaf(self, el: ET.Element) -> ParameterDesc:
        return self._param(el.get("name"), el.get("type"), self.concepts[el])

    def _unresolved(self, what: str, raw: str) -> ParameterDesc:
        """A reference to no declared element: a bare parameter named by its local part."""
        _, local = self._split_qname(raw)
        if not local:
            raise CorpusError(f"{self.source}: {what} {raw!r} has no local name")
        self.warnings.append(
            f"{self.source}: {what} {raw!r}; parameter kept without type or concept"
        )
        return _parameter(local, None, None)

    # -- flattening --------------------------------------------------------

    def message_params(self, io_el: ET.Element | None,
                       op_name: str) -> frozenset[ParameterDesc]:
        """The parameters of a message's parts; of those with the same name and
        concept, the first is kept."""
        if io_el is None:
            return frozenset()
        msg_raw = io_el.get("message")
        if not msg_raw:
            self.warnings.append(f"{self.source}: {op_name}: input/output without message")
            return frozenset()
        _, msg_local = self._split_qname(msg_raw)
        parts = self.messages.get(msg_local)
        if parts is None:
            self.warnings.append(f"{self.source}: {op_name}: unknown message {msg_raw!r}")
            return frozenset()
        first: dict[tuple[str, str | None], ParameterDesc] = {}
        for part in parts:
            for p in self._part_params(part, op_name):
                first.setdefault((p.name, p.concept), p)
        return frozenset(first.values())

    def _part_params(self, part: ET.Element, op_name: str) -> list[ParameterDesc]:
        element_raw = part.get("element")
        if element_raw:
            el = self._find(self.elements, self.elements_by_name, element_raw)
            if el is None:
                return [self._unresolved(f"{op_name}: unresolved element", element_raw)]
            return self._element_params(el)
        name = part.get("name")
        type_raw = part.get("type")
        if type_raw:
            return [self._param(name or "part", type_raw, None)]
        if name:
            self.warnings.append(
                f"{self.source}: {op_name}: part {name!r} has neither element nor type"
            )
            return [_parameter(name, None, None)]
        return []

    def _element_params(self, el: ET.Element) -> list[ParameterDesc]:
        children = self.children[el]
        if children is None:
            children = self.children.get(self._named_type(el.get("type")))
        if not children:
            return [self._leaf(el)]
        # Complex wrapper: each top-level child element is one parameter.
        params = []
        for child in children:
            ref = child.get("ref")
            if ref:
                target = self._find(self.elements, self.elements_by_name, ref)
                if target is None:
                    params.append(self._unresolved("unresolved element ref", ref))
                else:
                    params.append(self._leaf(target))
            elif child.get("name"):
                params.append(self._leaf(child))
        return params


# ---------------------------------------------------------------------------
# Collection loading
# ---------------------------------------------------------------------------


def load_collection(directory: str | Path) -> ServiceCollection:
    """Parse every ``.wsdl``/``.sawsdl`` file under ``directory``.

    Per-file failures become collection warnings, not aborts.  An optional
    ``manifest.json`` (flat mapping of file name to domain label) assigns the
    free-form domain used for community/domain overlap reporting.
    """
    dirpath = Path(directory)
    if not dirpath.is_dir():
        raise UsageError(f"no such directory: {dirpath}")
    files = sorted((p for p in dirpath.iterdir() if p.suffix.lower() in _WSDL_SUFFIXES),
                   key=lambda p: p.name)
    if not files:
        raise UsageError(f"no descriptions found in {dirpath}")

    warnings: list[str] = []
    domains = _load_manifest(dirpath, warnings)

    services: list[ServiceDesc] = []
    seen_names: set[str] = set()
    for path in files:
        try:
            parsed = parse_description(path.read_bytes(), str(path))
        except (CorpusError, OSError) as exc:
            warnings.append(str(exc))
            continue
        warnings.extend(parsed.warnings)
        domain = domains.get(path.name)
        for svc in parsed.services:
            name = svc.name
            suffix = 2
            while name in seen_names:
                name = f"{svc.name}~{suffix}"
                suffix += 1
            if name != svc.name:
                warnings.append(
                    f"{path}: duplicate service name {svc.name!r} renamed to {name!r}"
                )
            seen_names.add(name)
            ops = svc.operations
            if name != svc.name:
                ops = tuple(replace(op, service=name) for op in ops)
            services.append(ServiceDesc(name=name, domain=domain, operations=ops))

    return ServiceCollection(services=tuple(services), warnings=tuple(warnings))


def _load_manifest(dirpath: Path, warnings: list[str]) -> dict[str, str]:
    manifest = dirpath / MANIFEST_NAME
    if not manifest.is_file():
        return {}
    try:
        data = json.loads(manifest.read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        warnings.append(f"{manifest}: unreadable manifest ignored: {exc}")
        return {}
    if not isinstance(data, dict):
        warnings.append(f"{manifest}: manifest must be a JSON object; ignored")
        return {}
    domains = {}
    for name, domain in data.items():
        if isinstance(domain, str):
            domains[name] = domain
        else:
            warnings.append(f"{manifest}: domain of {name!r} is not a string; ignored")
    return domains


# ---------------------------------------------------------------------------
# JSON dump (stable round-trip format)
# ---------------------------------------------------------------------------


def collection_to_json(coll: ServiceCollection) -> str:
    """Serialize to the documented collection dump (stable key order)."""

    def param_obj(p: ParameterDesc) -> dict:
        return {"name": p.name, "xsd_type": p.xsd_type, "concept": p.concept}

    def param_key(p: ParameterDesc) -> tuple:
        return (p.name, p.concept or "", p.xsd_type or "")

    doc = {
        "schema": COLLECTION_SCHEMA,
        "services": [
            {
                "name": svc.name,
                "domain": svc.domain,
                "operations": [
                    {
                        "name": op.name,
                        "inputs": [param_obj(p) for p in sorted(op.inputs, key=param_key)],
                        "outputs": [param_obj(p) for p in sorted(op.outputs, key=param_key)],
                    }
                    for op in svc.operations
                ],
            }
            for svc in coll.services
        ],
        "warnings": list(coll.warnings),
    }
    return json.dumps(doc, indent=2) + "\n"


def collection_from_json(text: str) -> ServiceCollection:
    """Read a collection dump; a malformed one raises :class:`CorpusError`."""

    def params(objs: list[dict]) -> frozenset[ParameterDesc]:
        return frozenset(
            ParameterDesc(name=o["name"], xsd_type=o.get("xsd_type"), concept=o.get("concept"))
            for o in objs
        )

    try:
        doc = json.loads(text)
        if doc.get("schema") != COLLECTION_SCHEMA:
            raise CorpusError(f"unsupported collection schema: {doc.get('schema')!r}")
        services = tuple(
            ServiceDesc(
                name=s["name"],
                domain=s.get("domain"),
                operations=tuple(
                    OperationDesc(
                        service=s["name"],
                        name=o["name"],
                        inputs=params(o.get("inputs", [])),
                        outputs=params(o.get("outputs", [])),
                    )
                    for o in s.get("operations", [])
                ),
            )
            for s in doc.get("services", [])
        )
        return ServiceCollection(services=services, warnings=tuple(doc.get("warnings", [])))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CorpusError(f"invalid collection dump: {type(exc).__name__}: {exc}") from exc
