"""Traced in-process run: the workload's pipeline with every layer call timed.

The pipeline repeats what the CLI command does, serially, by calling the
public functions of each ``svcnet`` module from here.  Each call is a span
(name, start, end, parent); a layer's self time is its span's duration minus
its children's.  Counters are taken at the same calls.  Spans stay in memory
and are written when the run ends.

Every repeat checks its results against the CLI output of the same workload,
so the trace measures the work the timed runs do: nodes, links, diameter,
transitivity, modularity, alpha and xmin per network, plus the bootstrap
p-value and the ER sampled mean, which the traced calls draw from the CLI's
derived seeds; or the exported bytes for extract.  The in-process ``gen``
must write the same tree as the CLI's set-up.  ``cli.render_report`` is
timed on the CLI's own report and checks nothing.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from svcnet.cli import ER_SAMPLES, TOP_K, build_parser, render_report
from svcnet.community import best_partition, domain_overlap, walktrap
from svcnet.corpus import collection_stats, load_collection
from svcnet.errors import DegenerateInputError, UsageError
from svcnet.gen import GenSpec, generate, write_collection_tree
from svcnet.matcher import ALL_KINDS, MatcherKind
from svcnet.metrics import (
    degree_report,
    distance_report,
    er_baseline,
    giant_component,
    total_degrees,
    transitivity,
    weak_components,
)
from svcnet.netbuild import BuildOptions, build_network, export_network, read_graphml, trim_isolates
from svcnet.ontology import load_ontology
from svcnet.plfit import fit_power_law, gof_pvalue

from workloads import CORPUS, OUTPUT, Workload

SELF_TIMED = (
    "corpus.load_collection", "ontology.load_ontology", "netbuild.build_network",
    "netbuild.trim_isolates", "netbuild.export_network", "netbuild.read_graphml",
    "metrics.weak_components", "metrics.giant_component", "metrics.distance_report",
    "metrics.transitivity", "metrics.degree_report", "metrics.er_baseline",
    "community.walktrap", "community.best_partition", "community.domain_overlap",
    "plfit.fit_power_law", "plfit.gof_pvalue", "cli.render_report",
    "gen.generate", "gen.write_collection_tree",
)
COUNTERS = (
    "corpus.files", "corpus.bytes_read", "corpus.operations", "corpus.parameters",
    "corpus.warnings", "ontology.concepts", "ontology.subclass_edges",
    *(f"netbuild.links.{kind.value}" for kind in ALL_KINDS), "netbuild.export_bytes",
    "metrics.giant_nodes", "metrics.giant_links", "metrics.distance_report.bfs_levels",
    "metrics.distance_report.computed_bytes", "metrics.transitivity.computed_bytes",
    "metrics.er_baseline.samples", "metrics.er_baseline.computed_bytes",
    "community.walktrap.merges", "community.walktrap.trees", "community.communities",
    "plfit.candidates", "plfit.replicates", "plfit.degenerate", "cli.report_bytes",
)
ROOT_SPAN = "run"
# A dense n x n float64 matrix: the distance matrix, the transitivity path
# counts, and each ER sample's distance matrix.  Computed from n, not measured.
_DENSE_BYTES = 8


class Tracer:
    """Spans and counters of one repeat, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def self_times(self) -> dict[str, float]:
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return totals

    def duration(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)


def derived_seed(*parts: int) -> int:
    """The CLI's per-(seed, network, stream) seed derivation."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def round6(value):
    """A float as the CLI's JSON report writes it: six significant digits,
    non-finite values as null."""
    if not isinstance(value, float):
        return value
    return float(f"{value:.6g}") if np.isfinite(value) else None


def gen_spec(args) -> GenSpec:
    """The GenSpec ``svcnet gen`` builds from these parsed arguments."""
    return GenSpec(
        n_services=args.services, ops_per_service=args.ops_per_service,
        n_domains=args.domains, name_pool_size=args.name_pool,
        concept_pool_size=args.concept_pool, hierarchy_depth=args.depth,
        branching=args.branching, inputs_per_op=(args.min_inputs, args.max_inputs),
        outputs_per_op=(args.min_outputs, args.max_outputs),
        annotation_rate=args.annotation_rate, cross_domain_rate=args.cross_domain_rate,
        seed=args.seed,
    )


def tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def analyze(tr: Tracer, net, args, domains) -> dict:
    """The CLI's per-network analysis, one traced call per layer function."""
    kind_index = ALL_KINDS.index(net.kind) if net.kind in ALL_KINDS else 0
    tr.count(f"netbuild.links.{net.kind.value}", net.n_edges)
    trimmed, _ = tr.call("netbuild.trim_isolates", trim_isolates, net)
    tr.call("metrics.weak_components", weak_components, trimmed)
    giant = tr.call("metrics.giant_component", giant_component, trimmed)
    n = giant.n_nodes
    tr.count("metrics.giant_nodes", n)
    tr.count("metrics.giant_links", giant.n_edges)

    dist = tr.call("metrics.distance_report", distance_report, giant)
    # One boolean matrix product per BFS level: the diameter plus the last,
    # empty level.
    tr.count("metrics.distance_report.bfs_levels", (dist.diameter or 0) + 1 if n else 0)
    tr.count("metrics.distance_report.computed_bytes", _DENSE_BYTES * n * n)
    trans = tr.call("metrics.transitivity", transitivity, giant)
    tr.count("metrics.transitivity.computed_bytes", _DENSE_BYTES * n * n)
    tr.call("metrics.degree_report", degree_report, giant, TOP_K)

    modularity = None
    if n:
        dend = tr.call("community.walktrap", walktrap, giant, args.walk_length)
        tr.count("community.walktrap.merges", dend.n_merges)
        tr.count("community.walktrap.trees", len(dend.trees))
        part, score = tr.call("community.best_partition", best_partition, dend, giant)
        tr.count("community.communities", part.community_count)
        modularity = score.q
        if domains is not None:
            tr.call("community.domain_overlap", domain_overlap, part, domains)

    degrees = total_degrees(giant)
    fit = p_value = None
    try:
        fit = tr.call("plfit.fit_power_law", fit_power_law, degrees)
        tr.count("plfit.candidates", len({d for d in degrees if d > 0}) - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # coarse n_boot notice
            p_value = tr.call("plfit.gof_pvalue", gof_pvalue, fit, degrees,
                              n_boot=args.plfit_boot,
                              seed=derived_seed(args.seed, kind_index, 2))
        tr.count("plfit.replicates", args.plfit_boot)
    except (DegenerateInputError, UsageError):
        tr.count("plfit.degenerate")

    er = None
    und_m = len({tuple(sorted(e)) for e in giant.edges})
    if n >= 2 and und_m >= 1:
        er = tr.call("metrics.er_baseline", er_baseline, n=n, m=und_m, samples=ER_SAMPLES,
                     seed=derived_seed(args.seed, kind_index, 1),
                     observed_average=dist.average_distance)
        tr.count("metrics.er_baseline.samples", ER_SAMPLES)
        tr.count("metrics.er_baseline.computed_bytes", ER_SAMPLES * _DENSE_BYTES * n * n)

    return {
        "nodes": n, "links": giant.n_edges, "diameter": dist.diameter,
        "transitivity": round6(trans), "modularity": round6(modularity),
        "alpha": round6(fit.alpha) if fit else None, "xmin": fit.xmin if fit else None,
        "p_value": round6(p_value),
        "er_sampled_mean": round6(er.er_sampled_mean) if er else None,
    }


def cli_values(giant: dict) -> dict:
    power_law = giant["power_law"]
    available = power_law.get("available")
    small_world = giant["small_world"]
    return {
        "nodes": giant["nodes"], "links": giant["links"], "diameter": giant["diameter"],
        "transitivity": giant["transitivity"], "modularity": giant["communities"]["modularity"],
        "alpha": power_law["alpha"] if available else None,
        "xmin": power_law["xmin"] if available else None,
        "p_value": power_law["p_value"] if available else None,
        "er_sampled_mean": small_world["er_sampled_mean"] if small_world else None,
    }


def load_inputs(tr: Tracer, args, work: Path):
    collection_dir = work / args.collection
    coll = tr.call("corpus.load_collection", load_collection, collection_dir)
    files = [p for p in collection_dir.iterdir() if p.suffix.lower() in (".wsdl", ".sawsdl")]
    manifest = collection_dir / "manifest.json"
    tr.count("corpus.files", len(files))
    tr.count("corpus.bytes_read", sum(p.stat().st_size for p in files)
             + (manifest.stat().st_size if manifest.is_file() else 0))
    stats = collection_stats(coll)
    tr.count("corpus.operations", stats.operations)
    tr.count("corpus.parameters", stats.parameters)
    tr.count("corpus.warnings", len(coll.warnings))
    onto = tr.call("ontology.load_ontology", load_ontology, work / args.ontology)
    tr.count("ontology.concepts", len(onto.concepts))
    tr.count("ontology.subclass_edges", len(onto.subclass_edges))
    opts = BuildOptions(zero_input_targets=args.zero_input_targets,
                        reflexive_subsumption=args.reflexive_subsumption)
    return coll, onto, opts


def pipeline(tr: Tracer, args, work: Path, cli_text: str) -> list[str]:
    """Run the command's work in-process; return mismatches against the CLI."""
    if args.command == "extract":
        coll, onto, opts = load_inputs(tr, args, work)
        net = tr.call("netbuild.build_network", build_network, coll,
                      MatcherKind.from_name(args.matcher), onto, opts)
        tr.count(f"netbuild.links.{net.kind.value}", net.n_edges)
        text = tr.call("netbuild.export_network", export_network, net, args.format,
                       domains=coll.domain_of_operation())
        (work / "trace-out.txt").write_text(text, encoding="utf-8")
        tr.count("netbuild.export_bytes", len(text.encode("utf-8")))
        return [] if text == cli_text else ["exported network differs from the CLI output"]

    report = json.loads(cli_text)
    if args.command == "compare":
        coll, onto, opts = load_inputs(tr, args, work)
        domains = coll.domain_of_operation()
        ours = {}
        for kind in ALL_KINDS:
            net = tr.call("netbuild.build_network", build_network, coll, kind, onto, opts)
            ours[kind.value] = analyze(tr, net, args, domains)
        theirs = {k: cli_values(sec["giant"]) for k, sec in report["networks"].items()}
    else:
        text = (work / args.path).read_text(encoding="utf-8")
        net, domains = tr.call("netbuild.read_graphml", read_graphml, text)
        ours = {net.kind.value: analyze(tr, net, args, domains)}
        theirs = {net.kind.value: cli_values(report["network"]["giant"])}

    # Times the renderer on the CLI's report; the comparison below is the check.
    rendered = tr.call("cli.render_report", render_report, report)
    (work / "trace-out.txt").write_text(rendered, encoding="utf-8")
    tr.count("cli.report_bytes", len(rendered.encode("utf-8")))
    return [f"{kind}: in-process {ours[kind]} != CLI {theirs.get(kind)}"
            for kind in ours if ours[kind] != theirs.get(kind)]


def traced_run(workload: Workload, seed: int, seconds: float, work: Path,
               reference_ok: bool) -> dict:
    parser = build_parser()
    args = parser.parse_args(workload.cli_args(seed))
    spec = gen_spec(parser.parse_args(workload.gen_cli_args(seed)))
    cli_text = (work / OUTPUT).read_text(encoding="utf-8")
    setup_tree = tree_digest(work / CORPUS)

    repeats: list[dict] = []
    failed = 0 if reference_ok else 1
    epoch = time.perf_counter()
    while True:
        tr = Tracer()
        started = time.perf_counter()
        coll, onto, _ = tr.call("gen.generate", generate, spec)
        gen_dir = work / "trace-gen"
        tr.call("gen.write_collection_tree", write_collection_tree, coll, onto, gen_dir)
        problems = [] if tree_digest(gen_dir) == setup_tree else [
            "in-process gen wrote a different tree than the CLI set-up"]
        with tr.span(ROOT_SPAN):
            problems += pipeline(tr, args, work, cli_text)
        for problem in problems:
            print(f"trace cross-check: {problem}", flush=True)
        failed += bool(problems)
        repeats.append({"tracer": tr, "seconds": time.perf_counter() - started})
        elapsed = time.perf_counter() - epoch
        if elapsed + statistics.median(r["seconds"] for r in repeats) > seconds:
            break

    per_repeat = [layer_metrics(r["tracer"]) for r in repeats]
    metrics = {name: {"value": statistics.median(m[name][0] for m in per_repeat),
                      "unit": per_repeat[0][name][1]}
               for name in per_repeat[0]}
    trace = {
        "workload": workload.name, "seed": seed,
        "repeats": [
            {"spans": [{"name": n, "start": s - epoch, "end": e - epoch, "parent": p}
                       for n, s, e, p in r["tracer"].spans],
             "counters": dict(r["tracer"].counters)}
            for r in repeats
        ],
    }
    return {
        "correct": failed == 0,
        "attempted": len(repeats) + 1,
        "failed": failed,
        "metrics": metrics,
        "trace": trace,
    }


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one repeat; layers that did not run read 0."""
    self_times = tr.self_times()
    out = {f"{name}.self_s": (self_times.get(name, 0.0), "s") for name in SELF_TIMED}
    out.update({name: (tr.counters.get(name, 0.0), counter_unit(name)) for name in COUNTERS})
    replicates = tr.counters.get("plfit.replicates", 0.0)
    gof = self_times.get("plfit.gof_pvalue", 0.0)
    out["plfit.s_per_replicate"] = (gof / replicates if replicates else 0.0, "s")
    out["trace.total_s"] = (tr.duration(ROOT_SPAN), "s")
    return out


def counter_unit(counter: str) -> str:
    return "bytes" if "bytes" in counter else "count"
