"""Command-line pipeline: extract, analyze, compare, gen, export.

Reports are canonical JSON with a fixed key order, floats rendered to six
significant digits, and no timestamps, so identical inputs and seed produce
byte-identical output.
The comparison report is the four-matcher property matrix over the giant
components: nodes, links, average distance, diameter, transitivity,
communities, modularity, plus the power-law fit and the random-graph
distance baseline per network.

``extract`` and ``export`` load neither numpy nor the analysis modules
(metrics, community, plfit, gen): each command imports those where it runs them.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from collections.abc import Iterable
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .corpus import ServiceCollection, collection_stats, load_collection
from .errors import DegenerateInputError, SvcnetError, UsageError
from .matcher import ALL_KINDS, MatcherKind
from .netbuild import (
    BuildOptions,
    EXPORT_FORMATS,
    InteractionNetwork,
    build_network,
    export_chunks,
    read_edgelist,
    read_graphml,
    trim_isolates,
)
from .ontology import Ontology, load_ontology, sniff_xml

REPORT_SCHEMA = "svcnet-report/1"
COMPARE_SCHEMA = "svcnet-compare/1"
ER_SAMPLES = 10
TOP_K = 10

_KIND_INDEX = {kind: i for i, kind in enumerate(ALL_KINDS)}

# Choices this tool makes where the source descriptions are ambiguous; echoed
# into every report so results are auditable.
CONVENTIONS = {
    "parameter_flattening": "top-level message parts; wrapper children when a part "
    "references an element with a complex-type wrapper",
    "ontology_axioms": "named-class subClassOf only",
    "components": "weak connectivity",
    "average_distance": "mean over reachable ordered pairs; unreachable pairs "
    "excluded and counted",
    "er_links": "undirected projection edge count",
    "power_law_degrees": "total degrees of the giant component",
}


def _derived_seed(*parts: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def _round6(value):
    if isinstance(value, bool) or not isinstance(value, float):
        return value
    if value != value or value in (float("inf"), float("-inf")):
        return None
    return float(f"{value:.6g}")


def _canonical(obj):
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return _round6(obj)


def render_report(report: dict) -> str:
    return json.dumps(_canonical(report), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Per-network analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisParams:
    seed: int
    walk_length: int
    plfit_boot: int
    full: bool = False

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise UsageError("--seed must be >= 0")
        if self.walk_length < 1:
            raise UsageError("--walk-length must be >= 1")
        if self.plfit_boot < 0:
            raise UsageError("--plfit-boot must be >= 0")


def _metric_block(net: InteractionNetwork, params: AnalysisParams, kind_index: int,
                  domains: dict[str, str | None] | None) -> dict:
    from .community import best_partition, domain_overlap, walktrap
    from .metrics import degree_report, distance_report, er_baseline, transitivity

    dist = distance_report(net)
    block = {
        "nodes": net.n_nodes,
        "links": net.n_edges,
        **asdict(dist),
        "transitivity": transitivity(net),
        "degrees": asdict(degree_report(net, TOP_K)),
    }

    if net.n_nodes == 0:
        block["communities"] = {"count": None, "modularity": None}
    else:
        dend = walktrap(net, params.walk_length)
        part, score = best_partition(dend, net)
        block["communities"] = {"count": part.community_count, "modularity": score.q}
        overlap = domain_overlap(part, domains) if domains is not None else None
        if overlap is not None and overlap.available:
            block["domain_overlap"] = {
                "purity": overlap.purity,
                "contingency": [
                    {"community": c, "domain": d, "count": n}
                    for c, d, n in overlap.contingency
                ],
            }

    block["power_law"] = _power_law_block(net, params, kind_index)

    und_m = len(net.view.pairs)
    if und_m >= 1:
        block["small_world"] = asdict(er_baseline(
            n=net.n_nodes,
            m=und_m,
            samples=ER_SAMPLES,
            seed=_derived_seed(params.seed, kind_index, 1),
            observed_average=dist.average_distance,
        ))
    else:
        block["small_world"] = None
    return block


def _power_law_block(net: InteractionNetwork, params: AnalysisParams, kind_index: int) -> dict:
    from .metrics import total_degrees
    from .plfit import fit_with_gof

    degrees = total_degrees(net)
    try:
        fit = fit_with_gof(
            degrees,
            n_boot=params.plfit_boot,
            seed=_derived_seed(params.seed, kind_index, 2),
        )
    except (DegenerateInputError, UsageError) as exc:
        return {"available": False, "reason": str(exc)}
    return {"available": True, **asdict(fit)}


def analyze_network(
    net: InteractionNetwork,
    params: AnalysisParams,
    domains: dict[str, str | None] | None = None,
) -> dict:
    """Trim isolates, take the giant component, compute the full metric suite;
    callers run :func:`~svcnet.community.check_walktrap_limit` on ``net`` first."""
    from .metrics import giant_component, weak_components

    kind_index = _KIND_INDEX.get(net.kind, 0)
    trimmed, iso_fraction = trim_isolates(net)
    components = weak_components(trimmed)
    giant = giant_component(trimmed)

    section = {
        "kind": net.kind.value if net.kind else None,
        "nodes_total": net.n_nodes,
        "links_total": net.n_edges,
        "isolated_fraction": iso_fraction,
        "component_count": len(components.component_sizes),
        **asdict(components),
        "giant": _metric_block(giant, params, kind_index, domains),
    }
    if params.full:
        section["full_network"] = _metric_block(net, params, kind_index, domains)
    return section


def _report(schema: str, opts: BuildOptions, params: AnalysisParams, **sections) -> dict:
    """A report: header, options and conventions, then ``sections`` in order."""
    return {
        "schema": schema,
        "tool_version": __version__,
        "seed": params.seed,
        "options": {
            **asdict(opts),
            "walk_length": params.walk_length,
            "plfit_boot": params.plfit_boot,
            "er_samples": ER_SAMPLES,
        },
        "conventions": CONVENTIONS,
        **sections,
    }


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def compare_collection(
    coll: ServiceCollection,
    onto: Ontology | None,
    opts: BuildOptions,
    params: AnalysisParams,
) -> dict:
    """Build and check all four networks, then analyze them one after another."""
    from .community import check_walktrap_limit

    domains = coll.domain_of_operation()
    effective_onto = onto if onto is not None else Ontology.empty()
    built = [build_network(coll, kind, effective_onto, opts) for kind in ALL_KINDS]
    for net in built:
        check_walktrap_limit(net)
    networks = {kind.value: analyze_network(net, params, domains)
                for kind, net in zip(ALL_KINDS, built)}
    return _report(
        COMPARE_SCHEMA, opts, params,
        collection={**asdict(collection_stats(coll)), "warnings": len(coll.warnings)},
        networks=networks,
        comparison=_comparison_block(networks),
    )


def _comparison_block(networks: dict[str, dict]) -> dict:
    empty = [k for k, sec in networks.items() if sec["giant"]["nodes"] == 0]

    def argmin(metric: str) -> list[str]:
        values = {
            k: sec["giant"][metric]
            for k, sec in networks.items()
            if sec["giant"][metric] is not None
        }
        if not values:
            return []
        best = min(values.values())
        return [k for k in networks if values.get(k) == best]

    modularity_values = {
        k: sec["giant"]["communities"]["modularity"]
        for k, sec in networks.items()
        if sec["giant"]["communities"]["modularity"] is not None
    }
    ranking = sorted(modularity_values, key=lambda k: (-modularity_values[k], k))
    return {
        "empty_networks": empty,
        "smallest_diameter": argmin("diameter"),
        "smallest_average_distance": argmin("average_distance"),
        "modularity_ranking": ranking,
    }


def report_to_csv(report: dict) -> str:
    """Table-shaped projection of a comparison report (one column per kind)."""
    networks = report.get("networks")
    if not networks:
        raise UsageError("CSV projection needs a comparison report")
    kinds = list(networks)
    rows = [
        ("nodes", lambda s: s["giant"]["nodes"]),
        ("links", lambda s: s["giant"]["links"]),
        ("isolated_fraction", lambda s: s["isolated_fraction"]),
        ("components", lambda s: s["component_count"]),
        ("average_distance", lambda s: s["giant"]["average_distance"]),
        ("diameter", lambda s: s["giant"]["diameter"]),
        ("transitivity", lambda s: s["giant"]["transitivity"]),
        ("communities", lambda s: s["giant"]["communities"]["count"]),
        ("modularity", lambda s: s["giant"]["communities"]["modularity"]),
    ]
    lines = ["property," + ",".join(kinds)]
    for label, getter in rows:
        cells = []
        for kind in kinds:
            value = _round6(getter(networks[kind]))
            cells.append("" if value is None else str(value))
        lines.append(f"{label}," + ",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Input loading helpers
# ---------------------------------------------------------------------------


def _load_collection_arg(path) -> ServiceCollection:
    coll = load_collection(path)
    for warning in coll.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return coll


def _load_ontology_arg(path) -> Ontology | None:
    if not path:
        return None
    onto = load_ontology(path)
    for warning in onto.warnings:
        print(f"warning: {path}: {warning}", file=sys.stderr)
    return onto


def _load_network_file(path: Path) -> tuple[InteractionNetwork, dict[str, str] | None]:
    """GraphML or an edge list, as :func:`~svcnet.ontology.sniff_xml` tells."""
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if (xml := sniff_xml(text)) is not None:
        return read_graphml(xml)
    return read_edgelist(text), None


def _analysis_params(args, full: bool = False) -> AnalysisParams:
    return AnalysisParams(seed=args.seed, walk_length=args.walk_length,
                          plfit_boot=args.plfit_boot, full=full)


def _build_options(args) -> BuildOptions:
    return BuildOptions(zero_input_targets=args.zero_input_targets,
                        reflexive_subsumption=args.reflexive_subsumption)


def _build_from_flags(args, collection) -> tuple[InteractionNetwork, dict[str, str | None]]:
    """The network of ``collection`` under ``--matcher`` and the build flags, and
    its operations' domains.  The ontology is loaded and the flags checked
    before the collection is read."""
    kind = MatcherKind.from_name(args.matcher)
    onto = _load_ontology_arg(args.ontology)
    if kind in (MatcherKind.PLUGIN, MatcherKind.SUBSUME) and onto is None:
        raise UsageError(f"--matcher {kind.value} requires --ontology")
    if kind is MatcherKind.EXACT and onto is None:
        print(
            "warning: exact matching without --ontology compares concept IRIs "
            "by identity only",
            file=sys.stderr,
        )
    coll = _load_collection_arg(collection)
    return build_network(coll, kind, onto, _build_options(args)), coll.domain_of_operation()


def _write_output(chunks: Iterable[str], output: str | None) -> None:
    """Write each chunk as UTF-8 as it comes, to the file ``output`` or to
    stdout, so both get the same bytes whatever the locale.  A stdout that is a
    text stream with no byte buffer (``redirect_stdout(io.StringIO())``) gets
    the chunks as text."""
    if not output and getattr(sys.stdout, "buffer", None) is None:
        sys.stdout.writelines(chunks)
        return
    if not output:
        sys.stdout.flush()
    with open(output, "wb") if output else nullcontext(sys.stdout.buffer) as out:
        for chunk in chunks:
            out.write(chunk.encode("utf-8"))
        out.flush()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_extract(args) -> int:
    net, domains = _build_from_flags(args, args.collection)
    _write_output(export_chunks(net, args.format, domains), args.output)
    return 0


def cmd_analyze(args) -> int:
    from .community import check_walktrap_limit

    params = _analysis_params(args, full=args.full)
    target = Path(args.path)
    if target.is_dir():
        if not args.matcher:
            raise UsageError("analyzing a collection directory requires --matcher")
        net, domains = _build_from_flags(args, target)
    else:
        if not target.exists():
            raise UsageError(f"no such file or directory: {target}")
        flags = [f"--{dest.replace('_', '-')}" for dest in
                 ("matcher", "ontology", "zero_input_targets", "reflexive_subsumption")
                 if getattr(args, dest)]
        if flags:
            raise UsageError(f"{', '.join(flags)} apply to a collection directory, "
                             f"not to the network file {target}")
        net, domains = _load_network_file(target)

    check_walktrap_limit(net)
    report = _report(REPORT_SCHEMA, net.options, params,
                     network=analyze_network(net, params, domains))
    _write_output([render_report(report)], args.output)
    return 0


def cmd_compare(args) -> int:
    params = _analysis_params(args)
    coll = _load_collection_arg(args.collection)
    onto = _load_ontology_arg(args.ontology)
    if onto is None:
        print(
            "warning: no --ontology; plug-in and subsume networks can only be empty",
            file=sys.stderr,
        )
    report = compare_collection(coll, onto, _build_options(args), params)
    _write_output([render_report(report)], args.output)
    if args.csv:
        _write_output([report_to_csv(report)], args.csv)
    return 0


def cmd_gen(args) -> int:
    from .gen import GenSpec, generate, write_collection_tree

    spec = GenSpec(
        n_services=args.services,
        ops_per_service=args.ops_per_service,
        n_domains=args.domains,
        name_pool_size=args.name_pool,
        concept_pool_size=args.concept_pool,
        hierarchy_depth=args.depth,
        branching=args.branching,
        inputs_per_op=(args.min_inputs, args.max_inputs),
        outputs_per_op=(args.min_outputs, args.max_outputs),
        annotation_rate=args.annotation_rate,
        cross_domain_rate=args.cross_domain_rate,
        seed=args.seed,
    )
    coll, onto, _ = generate(spec)
    out = write_collection_tree(coll, onto, args.out_dir)
    stats = collection_stats(coll)
    print(
        f"wrote {stats.services} services ({stats.operations} operations, "
        f"{stats.parameters} parameters, coverage {stats.annotation_coverage:.2f}) to {out}"
    )
    return 0


def cmd_export(args) -> int:
    net, domains = _load_network_file(Path(args.network))
    _write_output(export_chunks(net, args.format, domains), args.output)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svcnet",
        description="Extract and analyze web-service interaction networks.",
    )
    parser.add_argument("--version", action="version", version=f"svcnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_build_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--ontology", help="concept hierarchy (edge-list TSV or OWL-XML)")
        p.add_argument(
            "--zero-input-targets",
            action="store_true",
            help="allow incoming links to operations with no inputs",
        )
        p.add_argument(
            "--reflexive-subsumption",
            action="store_true",
            help="use inclusive plug-in/subsume (concept identity matches)",
        )

    def add_analysis_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="base RNG seed (recorded)")
        p.add_argument("--walk-length", type=int, default=4, help="random-walk length")
        p.add_argument(
            "--plfit-boot",
            type=int,
            default=1000,
            help="bootstrap replicates for the power-law p-value (0 skips it)",
        )

    p_extract = sub.add_parser("extract", help="build one interaction network")
    p_extract.add_argument("collection", help="directory of WSDL/SAWSDL files")
    p_extract.add_argument(
        "--matcher", required=True, help="equal | exact | plugin | subsume"
    )
    add_build_flags(p_extract)
    p_extract.add_argument("--format", default="graphml", choices=EXPORT_FORMATS)
    p_extract.add_argument("-o", "--output", help="output file (default stdout)")
    p_extract.set_defaults(func=cmd_extract)

    p_analyze = sub.add_parser("analyze", help="metric report for one network")
    p_analyze.add_argument("path", help="network file or collection directory")
    p_analyze.add_argument("--matcher", help="required when PATH is a directory")
    add_build_flags(p_analyze)
    p_analyze.add_argument(
        "--full", action="store_true", help="also report whole-network metrics"
    )
    add_analysis_flags(p_analyze)
    p_analyze.add_argument("-o", "--output", help="output file (default stdout)")
    p_analyze.set_defaults(func=cmd_analyze)

    p_compare = sub.add_parser("compare", help="four-matcher comparison report")
    p_compare.add_argument("collection", help="directory of WSDL/SAWSDL files")
    add_build_flags(p_compare)
    add_analysis_flags(p_compare)
    p_compare.add_argument("-o", "--output", help="output file (default stdout)")
    p_compare.add_argument("--csv", help="also write the table projection as CSV")
    p_compare.set_defaults(func=cmd_compare)

    p_gen = sub.add_parser("gen", help="write a synthetic collection")
    p_gen.add_argument("out_dir", help="output directory")
    p_gen.add_argument("--services", type=int, default=30)
    p_gen.add_argument("--ops-per-service", type=int, default=3)
    p_gen.add_argument("--domains", type=int, default=3)
    p_gen.add_argument("--name-pool", type=int, default=40)
    p_gen.add_argument("--concept-pool", type=int, default=40)
    p_gen.add_argument("--depth", type=int, default=3)
    p_gen.add_argument("--branching", type=int, default=3)
    p_gen.add_argument("--min-inputs", type=int, default=1)
    p_gen.add_argument("--max-inputs", type=int, default=3)
    p_gen.add_argument("--min-outputs", type=int, default=1)
    p_gen.add_argument("--max-outputs", type=int, default=3)
    p_gen.add_argument("--annotation-rate", type=float, default=1.0)
    p_gen.add_argument("--cross-domain-rate", type=float, default=0.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_gen)

    p_export = sub.add_parser("export", help="convert a network file between formats")
    p_export.add_argument("network", help="network file (GraphML or edge list)")
    p_export.add_argument("--format", required=True, choices=EXPORT_FORMATS)
    p_export.add_argument("-o", "--output", help="output file (default stdout)")
    p_export.set_defaults(func=cmd_export)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a Python warning as one ``warning:`` line, like the CLI's own."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except SvcnetError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            # Input files report their own read errors where they are opened, so
            # what reaches here is an output that could not be written.
            print(f"error: cannot write {exc.filename or 'output'}: {exc.strerror}",
                  file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
