import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import svcnet
from svcnet.cli import main, report_to_csv
from svcnet.gen import GenSpec, generate, write_collection_tree
from svcnet.ontology import parse_ontology
from test_golden import COMPARE_BOOT_SHA256, EXPORT_SHA256

FIG1_WSDL = """<?xml version="1.0" encoding="UTF-8"?>
<wsdl:definitions name="figure1" targetNamespace="http://ex.org/fig1"
    xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:tns="http://ex.org/fig1">
  <wsdl:types>
    <xsd:schema targetNamespace="http://ex.org/fig1">
      <xsd:element name="a" type="xsd:string"/>
      <xsd:element name="c" type="xsd:string"/>
      <xsd:element name="d" type="xsd:string"/>
      <xsd:element name="e" type="xsd:string"/>
      <xsd:element name="f" type="xsd:string"/>
      <xsd:element name="g" type="xsd:string"/>
    </xsd:schema>
  </wsdl:types>
  <wsdl:message name="op1Response">
    <wsdl:part name="c" element="tns:c"/>
    <wsdl:part name="d" element="tns:d"/>
    <wsdl:part name="e" element="tns:e"/>
  </wsdl:message>
  <wsdl:message name="op2Request">
    <wsdl:part name="c" element="tns:c"/>
    <wsdl:part name="d" element="tns:d"/>
  </wsdl:message>
  <wsdl:message name="op2Response">
    <wsdl:part name="e" element="tns:e"/>
    <wsdl:part name="f" element="tns:f"/>
  </wsdl:message>
  <wsdl:message name="op3Request">
    <wsdl:part name="a" element="tns:a"/>
    <wsdl:part name="f" element="tns:f"/>
    <wsdl:part name="g" element="tns:g"/>
  </wsdl:message>
  <wsdl:portType name="figure1PortType">
    <wsdl:operation name="op1">
      <wsdl:output message="tns:op1Response"/>
    </wsdl:operation>
    <wsdl:operation name="op2">
      <wsdl:input message="tns:op2Request"/>
      <wsdl:output message="tns:op2Response"/>
    </wsdl:operation>
    <wsdl:operation name="op3">
      <wsdl:input message="tns:op3Request"/>
    </wsdl:operation>
  </wsdl:portType>
  <wsdl:service name="figure1"/>
</wsdl:definitions>
"""


@pytest.fixture
def fig1_dir(tmp_path):
    d = tmp_path / "fig1"
    d.mkdir()
    (d / "figure1.wsdl").write_text(FIG1_WSDL)
    return d


@pytest.fixture
def gen_dir(tmp_path):
    coll, onto, _ = generate(
        GenSpec(n_services=15, ops_per_service=2, annotation_rate=1.0,
                hierarchy_depth=3, branching=2, concept_pool_size=15,
                name_pool_size=20, seed=23)
    )
    out = tmp_path / "gen"
    write_collection_tree(coll, onto, out)
    return out


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------


def test_extract_fig1_edgelist(capsys, fig1_dir):
    code, out, _ = run(capsys, "extract", str(fig1_dir), "--matcher", "equal",
                       "--format", "edgelist")
    assert code == 0
    assert out == "figure1::op1\tfigure1::op2\n"


def test_extract_exact_without_ontology_proceeds_with_warning(capsys, fig1_dir):
    code, _, err = run(capsys, "extract", str(fig1_dir), "--matcher", "exact",
                       "--format", "edgelist")
    assert code == 0
    assert "warning" in err


def test_extract_plugin_without_ontology_is_usage_error(capsys, fig1_dir):
    code, _, err = run(capsys, "extract", str(fig1_dir), "--matcher", "plugin")
    assert code == 2
    assert "ontology" in err


def test_extract_nonexistent_directory(capsys, tmp_path):
    code, _, err = run(capsys, "extract", str(tmp_path / "missing"), "--matcher", "equal")
    assert code == 2
    assert "no such directory" in err


def test_extract_writes_output_file(capsys, fig1_dir, tmp_path):
    out_file = tmp_path / "net.graphml"
    code, _, _ = run(capsys, "extract", str(fig1_dir), "--matcher", "equal",
                     "-o", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith("<?xml")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_edgelist_path(capsys, tmp_path):
    net_file = tmp_path / "path.edgelist"
    net_file.write_text("n1\tn2\nn2\tn3\n")
    code, out, _ = run(capsys, "analyze", str(net_file), "--plfit-boot", "0")
    assert code == 0
    report = json.loads(out)
    giant = report["network"]["giant"]
    # reports carry 6 significant digits
    assert giant["average_distance"] == pytest.approx(4 / 3, abs=1e-5)
    assert giant["diameter"] == 2


def test_analyze_two_triangle_bridge(capsys, tmp_path):
    edges = ["t0\tt1", "t1\tt2", "t0\tt2", "t3\tt4", "t4\tt5", "t3\tt5", "t2\tt3"]
    net_file = tmp_path / "bridge.edgelist"
    net_file.write_text("\n".join(edges) + "\n")
    code, out, _ = run(capsys, "analyze", str(net_file), "--plfit-boot", "0")
    assert code == 0
    giant = json.loads(out)["network"]["giant"]
    assert giant["transitivity"] == pytest.approx(0.6, abs=1e-6)
    assert giant["communities"]["modularity"] >= 0.357142
    assert giant["communities"]["count"] == 2


def test_power_law_too_close_to_one_is_reported_unavailable(capsys, tmp_path, monkeypatch):
    # Desk-size degree samples fit alpha of 1.25 or more, so the fit is
    # moved to an exponent whose bootstrap draws pass int64.
    from dataclasses import replace

    from svcnet import plfit

    fit = plfit.fit_power_law
    monkeypatch.setattr(plfit, "fit_power_law", lambda s: replace(fit(s), alpha=1.05))
    edges = [f"hub\tn{i}" for i in range(12)] + ["n0\tn1", "n1\tn2", "n2\tn3"]
    net_file = tmp_path / "star.edgelist"
    net_file.write_text("\n".join(edges) + "\n")
    code, out, err = run(capsys, "analyze", str(net_file), "--plfit-boot", "100")
    assert code == 0 and "Traceback" not in err
    power_law = json.loads(out)["network"]["giant"]["power_law"]
    assert power_law["available"] is False
    assert "alpha=1.05" in power_law["reason"]


def test_analyze_directory_requires_matcher(capsys, fig1_dir):
    code, _, err = run(capsys, "analyze", str(fig1_dir), "--plfit-boot", "0")
    assert code == 2
    assert "--matcher" in err


def test_analyze_graphml_round_trip_matches_directory_analysis(capsys, fig1_dir, tmp_path):
    net_file = tmp_path / "net.graphml"
    code, _, _ = run(capsys, "extract", str(fig1_dir), "--matcher", "equal",
                     "-o", str(net_file))
    assert code == 0
    code, from_file, _ = run(capsys, "analyze", str(net_file),
                             "--plfit-boot", "0", "--seed", "5")
    assert code == 0
    code, from_dir, _ = run(capsys, "analyze", str(fig1_dir), "--matcher", "equal",
                            "--plfit-boot", "0", "--seed", "5")
    assert code == 0
    assert json.loads(from_file)["network"] == json.loads(from_dir)["network"]


@pytest.mark.parametrize(
    "flags",
    [
        ("--matcher", "plugin"),
        ("--ontology", "nope.tsv"),
        ("--zero-input-targets",),
        ("--reflexive-subsumption",),
        ("--matcher", "plugin", "--ontology", "nope.tsv"),
    ],
    ids=["matcher", "ontology", "zero-input-targets", "reflexive-subsumption", "two"],
)
def test_analyze_network_file_refuses_build_flags(capsys, tmp_path, flags):
    net_file = tmp_path / "net.txt"
    net_file.write_text("a\tb\n")
    code, out, err = run(capsys, "analyze", str(net_file), *flags, "--plfit-boot", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert all(flag in err for flag in flags if flag.startswith("--"))


@pytest.mark.parametrize(
    "name, named_for_its_format",
    [("net.xml", "net.edgelist"), ("net.txt", "net.graphml")],
    ids=["edgelist-as-xml", "graphml-as-txt"],
)
def test_network_file_format_comes_from_its_content(capsys, tmp_path, name,
                                                   named_for_its_format):
    text = BOM_GRAPHML if named_for_its_format == "net.graphml" else "a\tb\nb\tc\n"
    reports = []
    for filename in (name, named_for_its_format):
        (tmp_path / filename).write_text(text)
        code, out, err = run(capsys, "analyze", str(tmp_path / filename), "--plfit-boot", "0")
        assert code == 0, err
        reports.append(out)
    assert reports[0] == reports[1]


def test_analyze_empty_network_reports_undefined_markers(capsys, tmp_path):
    coll, onto, _ = generate(GenSpec(n_services=4, annotation_rate=0.0, seed=1))
    src = write_collection_tree(coll, onto, tmp_path / "noann")
    net_file = tmp_path / "empty.graphml"
    code, _, _ = run(capsys, "extract", str(src), "--matcher", "exact",
                     "-o", str(net_file))
    assert code == 0
    code, out, _ = run(capsys, "analyze", str(net_file), "--plfit-boot", "0")
    assert code == 0
    giant = json.loads(out)["network"]["giant"]
    assert giant["nodes"] == 0
    assert giant["average_distance"] is None
    assert giant["diameter"] is None


def test_analyze_same_inputs_and_seed_is_byte_identical(capsys, fig1_dir):
    args = ("analyze", str(fig1_dir), "--matcher", "equal", "--seed", "4",
            "--plfit-boot", "0")
    code, first, _ = run(capsys, *args)
    assert code == 0
    code, second, _ = run(capsys, *args)
    assert code == 0
    assert first == second


def test_analyze_full_adds_whole_network_block(capsys, fig1_dir):
    code, out, _ = run(capsys, "analyze", str(fig1_dir), "--matcher", "equal",
                       "--plfit-boot", "0", "--full")
    assert code == 0
    report = json.loads(out)
    assert "full_network" in report["network"]
    assert report["network"]["full_network"]["nodes"] == 3


def test_analyze_walk_length_validation(capsys, fig1_dir):
    code, _, err = run(capsys, "analyze", str(fig1_dir), "--matcher", "equal",
                       "--walk-length", "0")
    assert code == 2


def test_analyze_negative_seed_is_usage_error(capsys, fig1_dir):
    code, _, err = run(capsys, "analyze", str(fig1_dir), "--matcher", "equal",
                       "--seed", "-3")
    assert code == 2
    assert "--seed" in err


def test_analyze_negative_plfit_boot_is_usage_error(capsys, fig1_dir):
    code, out, err = run(capsys, "analyze", str(fig1_dir), "--matcher", "equal",
                         "--plfit-boot", "-1")
    assert (code, out) == (2, "")
    assert "--plfit-boot" in err


def test_analyze_missing_path(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", str(tmp_path / "nothing.graphml"))
    assert code == 2


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_fully_annotated_collection(capsys, gen_dir):
    code, out, _ = run(capsys, "compare", str(gen_dir), "--ontology",
                       str(gen_dir / "ontology.tsv"), "--plfit-boot", "0",
                       "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert list(report["networks"]) == ["equal", "exact", "plugin", "subsume"]
    for section in report["networks"].values():
        assert section["giant"]["nodes"] > 0
        assert section["giant"]["communities"]["modularity"] is not None
    assert report["comparison"]["smallest_diameter"]


def test_compare_unannotated_collection_flags_semantic_networks(capsys, tmp_path):
    coll, onto, _ = generate(GenSpec(n_services=10, annotation_rate=0.0, seed=5))
    src = tmp_path / "noann"
    write_collection_tree(coll, onto, src)
    code, out, _ = run(capsys, "compare", str(src), "--plfit-boot", "0")
    assert code == 0
    report = json.loads(out)
    assert set(report["comparison"]["empty_networks"]) == {"exact", "plugin", "subsume"}
    assert report["networks"]["equal"]["giant"]["nodes"] > 0


def test_compare_equals_extract_plus_analyze(capsys, gen_dir, tmp_path):
    onto_arg = str(gen_dir / "ontology.tsv")
    code, compare_out, _ = run(capsys, "compare", str(gen_dir), "--ontology", onto_arg,
                               "--plfit-boot", "40", "--seed", "11")
    assert code == 0
    compare_report = json.loads(compare_out)
    for kind in ("equal", "exact", "plugin", "subsume"):
        net_file = tmp_path / f"{kind}.graphml"
        code, _, _ = run(capsys, "extract", str(gen_dir), "--matcher", kind,
                         "--ontology", onto_arg, "-o", str(net_file))
        assert code == 0
        code, analyze_out, _ = run(capsys, "analyze", str(net_file),
                                   "--plfit-boot", "40", "--seed", "11")
        assert code == 0
        assert json.loads(analyze_out)["network"] == compare_report["networks"][kind]


def test_compare_deterministic_across_thread_caps(capsys, gen_dir, monkeypatch):
    args = ("compare", str(gen_dir), "--ontology", str(gen_dir / "ontology.tsv"),
            "--plfit-boot", "30", "--seed", "7")
    monkeypatch.setenv("SVCNET_THREADS", "1")
    code, first, _ = run(capsys, *args)
    assert code == 0
    monkeypatch.setenv("SVCNET_THREADS", "4")
    code, second, _ = run(capsys, *args)
    assert code == 0
    assert first == second


def test_compare_csv_projection(capsys, gen_dir, tmp_path):
    csv_path = tmp_path / "table.csv"
    code, out, _ = run(capsys, "compare", str(gen_dir), "--ontology",
                       str(gen_dir / "ontology.tsv"), "--plfit-boot", "0",
                       "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "property,equal,exact,plugin,subsume"
    assert any(line.startswith("modularity,") for line in lines)
    assert report_to_csv(json.loads(out)) == csv_path.read_text()


def test_csv_projection_refuses_an_analysis_report(capsys, fig1_dir):
    code, out, err = run(capsys, "analyze", str(fig1_dir), "--matcher", "equal",
                         "--plfit-boot", "0")
    assert code == 0, err
    with pytest.raises(svcnet.UsageError, match="needs a comparison report"):
        report_to_csv(json.loads(out))


def test_compare_with_every_giant_empty_has_no_smallest_distances(capsys, tmp_path):
    # One operation: no network has a link, so no giant has a distance.
    coll, onto, _ = generate(GenSpec(n_services=1, ops_per_service=1, seed=2))
    src = write_collection_tree(coll, onto, tmp_path / "one-op")
    code, out, err = run(capsys, "compare", str(src), "--ontology", str(src / "ontology.tsv"),
                         "--plfit-boot", "0")
    assert code == 0, err
    comparison = json.loads(out)["comparison"]
    assert comparison["empty_networks"] == ["equal", "exact", "plugin", "subsume"]
    assert comparison["smallest_diameter"] == comparison["smallest_average_distance"] == []


def test_component_above_the_walktrap_limit_is_usage_error(capsys, gen_dir, monkeypatch):
    from svcnet import community

    monkeypatch.setattr(community, "WALKTRAP_MAX_NODES", 3)
    code, out, err = run(capsys, "analyze", str(gen_dir), "--matcher", "equal",
                         "--plfit-boot", "0")
    assert code == 2
    assert out == ""
    assert "at most 3 nodes" in err


def no_metrics(*args):
    raise AssertionError("a metric ran before the walktrap limit was checked")


@pytest.mark.parametrize("argv", [("analyze", "{gen}", "--matcher", "plugin"),
                                  ("analyze", "{gen}", "--matcher", "plugin", "--full"),
                                  ("compare", "{gen}")])
def test_walktrap_limit_is_checked_before_any_metric(capsys, gen_dir, monkeypatch, argv):
    # gen_dir's equal and exact giants have 9 nodes, its plugin and subsume
    # giants 10: compare refuses before it analyzes equal.
    from svcnet import community, metrics

    monkeypatch.setattr(community, "WALKTRAP_MAX_NODES", 9)
    monkeypatch.setattr(metrics, "distance_report", no_metrics)
    code, out, err = run(capsys, *(arg.format(gen=gen_dir) for arg in argv),
                         "--ontology", str(gen_dir / "ontology.tsv"), "--plfit-boot", "0")
    assert code == 2
    assert out == ""
    assert "at most 9 nodes" in err and "this one has 10" in err


def test_compare_without_ontology_warns(capsys, gen_dir):
    code, out, err = run(capsys, "compare", str(gen_dir), "--plfit-boot", "0")
    assert code == 0
    assert "ontology" in err.lower()
    report = json.loads(out)
    # annotated collection without a hierarchy: identity matching still works
    assert report["networks"]["exact"]["giant"]["nodes"] > 0
    assert "plugin" in report["comparison"]["empty_networks"]


# What the ``svcnet`` console script runs: its entry point, ``svcnet.cli:main``.
CONSOLE_SCRIPT = [sys.executable, "-c", "import sys; from svcnet.cli import main; sys.exit(main())"]


def run_process(argv: list[str], cwd=None, *, text: bool = True,
                **env_vars: str) -> subprocess.CompletedProcess:
    """Run ``argv`` as a process that imports this checkout's svcnet, with
    ``env_vars`` added to its environment; ``text=False`` keeps its output bytes."""
    env = dict(os.environ, **env_vars)
    src = str(Path(svcnet.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(argv, capture_output=True, text=text, env=env, cwd=cwd, check=False)


def test_library_warnings_print_as_warning_lines(gen_dir):
    # Run as a process so stderr is what a user sees, not pytest's capture.
    proc = run_process(CONSOLE_SCRIPT + ["compare", str(gen_dir), "--ontology",
                                         str(gen_dir / "ontology.tsv"), "--plfit-boot", "20"])
    assert proc.returncode == 0
    lines = proc.stderr.splitlines()
    assert lines.count(
        "warning: n_boot=20 gives a coarse p-value resolution (>= 100 recommended)"
    ) == 1
    assert all(line.startswith("warning: ") for line in lines)
    assert "UserWarning" not in proc.stderr and "plfit.py" not in proc.stderr


def test_python_dash_m_matches_the_console_script(tmp_path):
    commands = (["gen", "corpus", "--seed", "0"],
                ["compare", "corpus", "--ontology", "corpus/ontology.tsv", "--plfit-boot", "0"])
    module = [sys.executable, "-m", "svcnet"]
    results = {}
    for name, launcher in (("script", CONSOLE_SCRIPT), ("module", module)):
        (tmp_path / name).mkdir()
        procs = [run_process(launcher + argv, cwd=tmp_path / name) for argv in commands]
        results[name] = [(proc.returncode, proc.stdout, proc.stderr) for proc in procs]
    assert results["module"] == results["script"]
    (gen_code, _, _), (compare_code, report, _) = results["module"]
    assert gen_code == compare_code == 0
    assert json.loads(report)["schema"] == "svcnet-compare/1"


def test_outputs_do_not_depend_on_the_string_hash_seed(tmp_path):
    # Equal parameters are shared objects and each match key's producers a
    # shared set; neither may let set order reach a written file.
    commands = (
        ["gen", "corpus", "--seed", "0"],
        ["extract", "corpus", "--matcher", "subsume", "--ontology", "corpus/ontology.tsv",
         "--format", "graphml", "-o", "network.graphml"],
        ["compare", "corpus", "--ontology", "corpus/ontology.tsv", "--plfit-boot", "0",
         "-o", "report.json"],
    )
    written = {}
    for hash_seed in ("0", "1"):
        cwd = tmp_path / hash_seed
        cwd.mkdir()
        for argv in commands:
            proc = run_process(CONSOLE_SCRIPT + argv, cwd=cwd, PYTHONHASHSEED=hash_seed)
            assert proc.returncode == 0, proc.stderr
        written[hash_seed] = [(cwd / name).read_bytes()
                              for name in ("network.graphml", "report.json")]
    assert written["0"] == written["1"]


def _numpy_avx512_targets() -> str:
    """numpy's AVX512 dispatch targets, whose names differ between numpy 2.0
    and later releases, as ``NPY_DISABLE_CPU_FEATURES`` takes them."""
    from numpy._core._multiarray_umath import __cpu_dispatch__

    return " ".join(t for t in __cpu_dispatch__ if "AVX512" in t or t == "X86_V4")


# Environment settings that change the bits numpy and OpenBLAS compute with:
# OpenBLAS's kernel, and numpy's AVX512 loops (its float64 power among them).
KERNEL_SETTINGS = {
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "sandybridge-no-avx512": {"OPENBLAS_CORETYPE": "Sandybridge",
                              "NPY_DISABLE_CPU_FEATURES": _numpy_avx512_targets()},
}


@pytest.fixture(scope="module")
def kernel_corpus(tmp_path_factory):
    """The golden corpus, its subsume network as GraphML, and the bytes of that
    network's bootstrap analysis under the default kernel and dispatch."""
    cwd = tmp_path_factory.mktemp("kernels")
    commands = (
        ["gen", "corpus", "--seed", "0"],
        ["extract", "corpus", "--matcher", "subsume", "--ontology", "corpus/ontology.tsv",
         "--format", "graphml", "-o", "subsume.graphml"],
        ["analyze", "subsume.graphml", "--plfit-boot", "20", "-o", "analysis.json"],
    )
    for argv in commands:
        proc = run_process(CONSOLE_SCRIPT + argv, cwd=cwd)
        assert proc.returncode == 0, proc.stderr
    return cwd, (cwd / "analysis.json").read_bytes()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the kernel and dispatch names are x86-64's")
@pytest.mark.parametrize("setting", sorted(KERNEL_SETTINGS))
def test_reports_do_not_depend_on_the_blas_kernel_or_numpy_dispatch(kernel_corpus, setting):
    # The reports are pinned across kernels; Walktrap's merge heights are not
    # (their last bits follow the BLAS kernel), and no report shows them.
    cwd, default_analysis = kernel_corpus
    env = KERNEL_SETTINGS[setting]
    commands = (
        ["compare", "corpus", "--ontology", "corpus/ontology.tsv", "--plfit-boot", "100",
         "--seed", "0", "-o", f"compare-{setting}.json"],
        ["analyze", "subsume.graphml", "--plfit-boot", "20", "-o", f"analysis-{setting}.json"],
    )
    for argv in commands:
        proc = run_process(CONSOLE_SCRIPT + argv, cwd=cwd, **env)
        assert proc.returncode == 0, proc.stderr
    report = (cwd / f"compare-{setting}.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == COMPARE_BOOT_SHA256
    assert (cwd / f"analysis-{setting}.json").read_bytes() == default_analysis


def test_cli_import_leaves_out_xml_sax_and_urllib_request():
    # xml.sax.saxutils pulls in urllib.request, http.client and email.
    code = "import sys, svcnet.cli; print([m for m in ('xml.sax', 'urllib.request') " \
           "if m in sys.modules])"
    proc = run_process([sys.executable, "-c", code])
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


# What ``extract`` and ``export`` must not load.
ANALYSIS_MODULES = ("numpy", "svcnet.metrics", "svcnet.community", "svcnet.plfit", "svcnet.gen")


@pytest.mark.parametrize("launcher", [[sys.executable, "-m", "svcnet.cli"], CONSOLE_SCRIPT],
                         ids=["module", "script"])
def test_extract_and_export_load_neither_numpy_nor_the_analysis_layers(
        golden_corpus, tmp_path, launcher):
    # -X importtime lists on stderr each module the process imports, when it does.
    launcher = [launcher[0], "-X", "importtime", *launcher[1:]]
    extract = ["extract", str(golden_corpus), "--matcher", "subsume",
               "--ontology", str(golden_corpus / "ontology.tsv")]
    out = {fmt: tmp_path / f"subsume.{fmt}" for fmt in ("graphml", "edgelist", "dot")}
    for fmt, argv in (("graphml", extract + ["-o", str(out["graphml"])]),
                      ("edgelist", extract + ["--format", "edgelist", "-o", str(out["edgelist"])]),
                      ("dot", ["export", str(out["graphml"]), "--format", "dot",
                               "-o", str(out["dot"])])):
        proc = run_process(launcher + argv)
        assert proc.returncode == 0, proc.stderr
        loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}
        assert "svcnet.netbuild" in loaded
        assert [m for m in ANALYSIS_MODULES if m in loaded] == [], argv[0]
        assert hashlib.sha256(out[fmt].read_bytes()).hexdigest() == EXPORT_SHA256["subsume", fmt]


def test_svcnet_import_loads_no_submodule():
    code = "import sys, svcnet; print([m for m in sys.modules if m.startswith('svcnet.')])"
    proc = run_process([sys.executable, "-c", code])
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_every_public_name_resolves_on_first_access():
    code = ("import svcnet\n"
            "listed = set(dir(svcnet))\n"
            "names = {}\n"
            "exec('from svcnet import *', names)\n"
            "print(sorted(set(svcnet.__all__) - listed), sorted(set(svcnet.__all__) - set(names)),\n"
            "      svcnet.plfit.__name__)")
    proc = run_process([sys.executable, "-c", code])
    assert (proc.returncode, proc.stdout) == (0, "[] [] svcnet.plfit\n"), proc.stderr
    for name in svcnet.__all__:
        assert getattr(svcnet, name) is not None


def test_report_floats_carry_six_significant_digits(capsys, tmp_path):
    from svcnet.cli import render_report

    rendered = render_report({"x": 1.23456789, "y": [0.1000000001], "n": 3})
    doc = json.loads(rendered)
    assert doc["x"] == 1.23457
    assert doc["y"] == [0.1]
    assert doc["n"] == 3


def test_report_writes_undefined_floats_as_null():
    from svcnet.cli import render_report

    rendered = render_report({"nan": float("nan"), "inf": [float("inf"), -float("inf")]})
    assert json.loads(rendered) == {"nan": None, "inf": [None, None]}
    assert "NaN" not in rendered and "Infinity" not in rendered


# ---------------------------------------------------------------------------
# gen + export
# ---------------------------------------------------------------------------


def test_gen_writes_loadable_collection(capsys, tmp_path):
    out_dir = tmp_path / "cli-gen"
    code, out, _ = run(capsys, "gen", str(out_dir), "--services", "6", "--seed", "9")
    assert code == 0
    assert "wrote 6 services" in out
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "ontology.tsv").exists()
    code, out, _ = run(capsys, "extract", str(out_dir), "--matcher", "equal",
                       "--format", "edgelist")
    assert code == 0


def test_export_converts_graphml_to_dot(capsys, fig1_dir, tmp_path):
    net_file = tmp_path / "net.graphml"
    run(capsys, "extract", str(fig1_dir), "--matcher", "equal", "-o", str(net_file))
    code, out, _ = run(capsys, "export", str(net_file), "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    code, out2, _ = run(capsys, "export", str(net_file), "--format", "edgelist")
    assert code == 0
    assert out2 == "figure1::op1\tfigure1::op2\n"


def test_export_rejects_unknown_format(capsys, tmp_path):
    net_file = tmp_path / "x.edgelist"
    net_file.write_text("a\tb\n")
    with pytest.raises(SystemExit) as exc:
        main(["export", str(net_file), "--format", "gexf"])
    assert exc.value.code == 2


def _graphml(kind: str, body: str) -> str:
    return (
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
        '<key id="kind" for="graph" attr.name="kind" attr.type="string"/>'
        f'<graph edgedefault="directed"><data key="kind">{kind}</data>{body}</graph></graphml>'
    )


@pytest.mark.parametrize(
    "command, document",
    [
        ("analyze", _graphml("equal", '<node id="a"/><edge source="a" target="b"/>')),
        ("export", _graphml("bogus", '<node id="a"/><node id="b"/>')),
        ("analyze", _graphml("equal", '<node id="a"/><edge source="a" target="a"/>')),
        ("export", _graphml("equal", '<node id="a"/><node id="a"/>')),
        ("export", '<graphml xmlns="http://graphml.graphdrawing.org/xmlns"/>'),
        ("export", _graphml("equal", '<node/>')),
        ("export", _graphml("equal", '<node id="a"/><node id="b"/><edge source="a"/>')),
        ("export", _graphml("equal", '<node id="a"/><node id="b"/><edge target="b"/>')),
    ],
    ids=["undeclared-target", "bogus-kind", "self-loop", "duplicate-node", "no-graph",
         "node-without-id", "edge-without-target", "edge-without-source"],
)
def test_invalid_graphml_is_an_error_not_a_traceback(capsys, tmp_path, command, document):
    net_file = tmp_path / "bad.graphml"
    net_file.write_text(document)
    args = ["--plfit-boot", "0"] if command == "analyze" else ["--format", "edgelist"]
    code, out, err = run(capsys, command, str(net_file), *args)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_export_edgelist_refuses_an_id_it_cannot_read_back(capsys, tmp_path):
    net_file = tmp_path / "tab.graphml"
    net_file.write_text(
        _graphml("equal", '<node id="a&#9;x"/><node id="b"/><edge source="a&#9;x" target="b"/>')
    )
    code, out, err = run(capsys, "export", str(net_file), "--format", "edgelist")
    assert code == 1
    assert out == ""
    assert "'a\\tx'" in err
    code, out, _ = run(capsys, "export", str(net_file), "--format", "graphml")
    assert code == 0 and 'id="a&#9;x"' in out


def test_edgelist_lines_after_the_first_may_start_with_a_bracket_or_a_byte_order_mark(
        capsys, tmp_path):
    # Only the first line decides whether the loader reads GraphML, and only
    # the file's first character can be taken for a byte-order mark.
    net_file = tmp_path / "net.graphml"
    net_file.write_text(_graphml("equal", '<node id="0"/><node id="&lt;c"/><node id="\ufeffd"/>'
                                          '<edge source="0" target="&lt;c"/>'
                                          '<edge source="&lt;c" target="\ufeffd"/>'
                                          '<edge source="\ufeffd" target="0"/>'), encoding="utf-8")
    tsv = tmp_path / "net.tsv"
    assert run(capsys, "export", str(net_file), "--format", "edgelist", "-o", str(tsv))[0] == 0
    assert tsv.read_text(encoding="utf-8") == "0\t<c\n<c\t\ufeffd\n\ufeffd\t0\n"
    code, out, _ = run(capsys, "export", str(tsv), "--format", "edgelist")
    assert code == 0 and out == tsv.read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["extract", "compare"])
def test_operation_ids_that_two_services_share_are_an_error(capsys, tmp_path, command):
    # Service x::y with operation op1 and service x with operation y::op1 are
    # both x::y::op1.
    coll = tmp_path / "coll"
    coll.mkdir()
    (coll / "a.wsdl").write_text(FIG1_WSDL.replace('service name="figure1"', 'service name="x::y"'))
    (coll / "b.wsdl").write_text(FIG1_WSDL.replace('service name="figure1"', 'service name="x"')
                                 .replace('operation name="op1"', 'operation name="y::op1"'))
    args = ["--matcher", "equal"] if command == "extract" else ["--plfit-boot", "0"]
    code, out, err = run(capsys, command, str(coll), *args)
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == "error: duplicate operation id 'x::y::op1' in the collection"


@pytest.mark.parametrize("command", ["extract", "export"])
@pytest.mark.parametrize("existing", [b"an earlier file\n", None], ids=["existing", "missing"])
def test_refused_edgelist_export_leaves_the_output_file_as_it_was(capsys, fig1_dir, tmp_path,
                                                                 command, existing):
    # The refusal comes before the output is opened, so nothing is truncated.
    if command == "extract":
        wsdl = fig1_dir / "figure1.wsdl"
        wsdl.write_text(FIG1_WSDL.replace('<wsdl:service name="figure1"/>',
                                          '<wsdl:service name="#figure1"/>'))
        argv = ["extract", str(fig1_dir), "--matcher", "equal"]
    else:
        net_file = tmp_path / "tab.graphml"
        net_file.write_text(_graphml("equal", '<node id="a&#9;x"/><node id="b"/>'
                                              '<edge source="a&#9;x" target="b"/>'))
        argv = ["export", str(net_file)]
    out_file = tmp_path / "out.tsv"
    if existing is not None:
        out_file.write_bytes(existing)
    code, out, err = run(capsys, *argv, "--format", "edgelist", "-o", str(out_file))
    assert code == 1
    assert out == "" and "cannot be written as an edge-list line" in err
    if existing is None:
        assert not out_file.exists()
    else:
        assert out_file.read_bytes() == existing


@pytest.fixture(scope="module")
def golden_corpus(tmp_path_factory):
    """The default ``svcnet gen --seed 0`` corpus of ``test_golden.py``."""
    out = tmp_path_factory.mktemp("golden") / "corpus"
    assert main(["gen", str(out), "--seed", "0"]) == 0
    return out


@pytest.mark.parametrize("fmt", ["graphml", "dot", "edgelist"])
def test_extract_writes_the_golden_export_bytes_to_a_file_and_to_stdout(
        capsysbinary, golden_corpus, tmp_path, fmt):
    for kind in ("equal", "exact", "plugin", "subsume"):
        argv = ["extract", str(golden_corpus), "--matcher", kind,
                "--ontology", str(golden_corpus / "ontology.tsv"), "--format", fmt]
        out_file = tmp_path / f"{kind}.{fmt}"
        assert main(argv + ["-o", str(out_file)]) == 0
        assert main(argv) == 0
        written = out_file.read_bytes()
        assert hashlib.sha256(written).hexdigest() == EXPORT_SHA256[kind, fmt]
        assert capsysbinary.readouterr().out == written


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_stdout_gets_the_utf8_bytes_of_the_output_file(tmp_path, encoding):
    # The id is not ASCII; stdout's own encoding must neither refuse it nor
    # write it in anything but the UTF-8 the GraphML declares.
    net_file = tmp_path / "net.tsv"
    net_file.write_text("café::op\tb::op\n", encoding="utf-8")
    out_file = tmp_path / "out.graphml"
    argv = CONSOLE_SCRIPT + ["export", str(net_file), "--format", "graphml"]
    to_stdout = run_process(argv, text=False, PYTHONIOENCODING=encoding)
    to_file = run_process(argv + ["-o", str(out_file)], text=False, PYTHONIOENCODING=encoding)
    assert to_stdout.returncode == to_file.returncode == 0, to_stdout.stderr
    assert to_stdout.stdout == out_file.read_bytes()
    assert 'id="café::op"'.encode("utf-8") in to_stdout.stdout


@pytest.mark.parametrize("command", ["export", "analyze"])
def test_a_text_stdout_without_a_byte_buffer_gets_the_text(tmp_path, command):
    # main() is a library entry point too: a caller may swap stdout for a text
    # stream that has no .buffer.
    net_file = tmp_path / "net.tsv"
    net_file.write_text("café::op\tb::op\n", encoding="utf-8")
    out_file = tmp_path / "out"
    argv = [command, str(net_file)] + (["--plfit-boot", "0"] if command == "analyze"
                                       else ["--format", "graphml"])
    assert main(argv + ["-o", str(out_file)]) == 0
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert main(argv) == 0
    assert stdout.getvalue() == out_file.read_text(encoding="utf-8")


NOT_UTF8 = b"\xff\xfe"


@pytest.mark.parametrize(
    "argv, expected_code",
    [
        (("analyze", "{bin}", "--plfit-boot", "0"), 2),
        (("export", "{bin}", "--format", "edgelist"), 2),
        (("compare", "{coll}", "--ontology", "{bin}", "--plfit-boot", "0"), 1),
    ],
    ids=["analyze", "export", "compare-ontology"],
)
def test_non_utf8_input_is_an_error_not_a_traceback(capsys, fig1_dir, tmp_path, argv,
                                                     expected_code):
    bin_file = tmp_path / "bin.txt"
    bin_file.write_bytes(NOT_UTF8)
    args = [a.format(bin=bin_file, coll=fig1_dir) for a in argv]
    code, out, err = run(capsys, *args)
    assert code == expected_code
    assert out == ""
    assert err.splitlines()[-1].startswith("error: ") and "Traceback" not in err


def test_non_utf8_manifest_is_a_collection_warning(capsys, fig1_dir):
    (fig1_dir / "manifest.json").write_bytes(NOT_UTF8)
    code, out, err = run(capsys, "extract", str(fig1_dir), "--matcher", "equal",
                         "--format", "edgelist")
    assert code == 0
    assert out == "figure1::op1\tfigure1::op2\n"
    warnings = [line for line in err.splitlines() if line.startswith("warning: ")]
    assert len(warnings) == 1 and "unreadable manifest ignored" in warnings[0]



@pytest.mark.parametrize(
    "argv",
    [
        ("compare", "{coll}", "--plfit-boot", "0"),
        ("analyze", "{coll}", "--matcher", "equal", "--plfit-boot", "0"),
    ],
    ids=["compare", "analyze-directory"],
)
def test_collection_warnings_are_printed(capsys, fig1_dir, argv):
    args = [a.format(coll=fig1_dir) for a in argv]
    code, clean, _ = run(capsys, *args)
    assert code == 0
    (fig1_dir / "manifest.json").write_bytes(NOT_UTF8)
    code, out, err = run(capsys, *args)
    assert code == 0
    assert any(line.startswith("warning: ") and "unreadable manifest ignored" in line
               for line in err.splitlines())
    # the ignored manifest leaves the report as it was, but for the count
    expected = json.loads(clean)
    if "collection" in expected:
        expected["collection"]["warnings"] = 1
    assert json.loads(out) == expected

@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "{net}", "--plfit-boot", "0", "-o", "{missing}/r.json"),
        ("compare", "{coll}", "--plfit-boot", "0", "-o", "{tmp}/c.json",
         "--csv", "{missing}/t.csv"),
        ("gen", "{file}/x", "--services", "3"),
    ],
    ids=["analyze-output", "compare-csv", "gen-under-a-file"],
)
def test_unwritable_output_is_an_error_not_a_traceback(capsys, fig1_dir, tmp_path, argv):
    net_file = tmp_path / "net.edgelist"
    net_file.write_text("a\tb\n")
    (tmp_path / "file").write_text("")
    args = [a.format(net=net_file, coll=fig1_dir, tmp=tmp_path, file=tmp_path / "file",
                     missing=tmp_path / "missing" / "dir") for a in argv]
    code, out, err = run(capsys, *args)
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1].startswith("error: cannot write ") and "Traceback" not in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "svcnet" in capsys.readouterr().out


def owl_from_tsv(tsv: Path, extra: str = "") -> str:
    """The subclass edges of an edge-list ontology as RDF/XML, plus ``extra``."""
    classes = "".join(
        f'<owl:Class rdf:about="{child}"><rdfs:subClassOf rdf:resource="{parent}"/></owl:Class>\n'
        for child, parent in (line.split("\t") for line in tsv.read_text().splitlines())
    )
    return ('<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
            ' xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"'
            ' xmlns:owl="http://www.w3.org/2002/07/owl#">\n' + classes + extra + "</rdf:RDF>\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("compare", "{coll}", "--ontology", "{onto}", "--plfit-boot", "0"),
        ("extract", "{coll}", "--matcher", "subsume", "--ontology", "{onto}"),
        ("analyze", "{coll}", "--matcher", "plugin", "--ontology", "{onto}", "--plfit-boot", "0"),
    ],
    ids=["compare", "extract", "analyze-directory"],
)
def test_ontology_warnings_are_printed(capsys, gen_dir, tmp_path, argv):
    plain = tmp_path / "plain.owl"
    plain.write_text(owl_from_tsv(gen_dir / "ontology.tsv"))
    equivalent = tmp_path / "equivalent.owl"
    equivalent.write_text(owl_from_tsv(
        gen_dir / "ontology.tsv",
        '<owl:Class rdf:about="http://ex.org/onto#A">'
        '<owl:equivalentClass rdf:resource="http://ex.org/onto#B"/></owl:Class>\n',
    ))
    outs = {}
    for onto in (plain, equivalent):
        code, outs[onto], err = run(capsys, *[a.format(coll=gen_dir, onto=onto) for a in argv])
        assert code == 0
        warnings = [line for line in err.splitlines() if "equivalentClass" in line]
        if onto is plain:
            assert warnings == []
        else:
            assert warnings == [
                f"warning: {equivalent}: equivalentClass axiom on <http://ex.org/onto#A> "
                "ignored (equivalence is IRI identity)"
            ]
    assert outs[plain] == outs[equivalent]


BOM_GRAPHML = """<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <graph id="g" edgedefault="directed">
    <node id="a"/><node id="b"/><edge source="a" target="b"/>
  </graph>
</graphml>
"""


def _export_edgelist(capsys, path: Path):
    code, out, err = run(capsys, "export", str(path), "--format", "edgelist")
    assert code == 0, err
    return out


def _ontology_edges(capsys, path: Path):
    return svcnet.load_ontology(path).subclass_edges


def _collection_domains(capsys, path: Path):
    (path.parent / "figure1.wsdl").write_text(FIG1_WSDL)
    coll = svcnet.load_collection(path.parent)
    return [svc.domain for svc in coll.services], coll.warnings


@pytest.mark.parametrize(
    "name, text, read",
    [
        ("onto.tsv", "http://x/#A\thttp://x/#B\n", _ontology_edges),
        ("net.edgelist", "a\tb\nb\tc\n", _export_edgelist),
        ("net.txt", BOM_GRAPHML, _export_edgelist),
        ("manifest.json", '{"figure1.wsdl": "travel"}', _collection_domains),
    ],
    ids=["ontology-tsv", "edgelist", "graphml-without-suffix", "manifest"],
)
def test_byte_order_mark_is_not_part_of_the_input(capsys, tmp_path, name, text, read):
    results = []
    for encoding in ("utf-8", "utf-8-sig"):  # the second writes a BOM
        path = tmp_path / encoding / name
        path.parent.mkdir()
        path.write_text(text, encoding=encoding)
        assert path.read_bytes().startswith(b"\xef\xbb\xbf") == (encoding == "utf-8-sig")
        results.append(read(capsys, path))
    assert results[0] and results[0] == results[1]


@pytest.mark.parametrize(
    "parse, text",
    [
        (lambda text: parse_ontology(text).concepts, "http://x/#A\thttp://x/#B\n"),
        (lambda text: svcnet.read_edgelist(text).nodes, "a\tb\n"),
    ],
    ids=["parse_ontology", "read_edgelist"],
)
def test_text_readers_drop_a_leading_byte_order_mark(parse, text):
    assert parse("\ufeff" + text) == parse(text)


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "{graphml}", "--plfit-boot", "0"),
        ("export", "{graphml}", "--format", "graphml"),
        ("extract", "{coll}", "--matcher", "subsume", "--ontology", "{owl}"),
    ],
    ids=["analyze-graphml", "export-graphml", "extract-owl-ontology"],
)
def test_whitespace_before_the_xml_declaration_is_not_part_of_the_input(
        capsys, gen_dir, tmp_path, argv):
    # Network files and ontologies share one sniff, and their parser reads
    # from the first "<".
    graphml = tmp_path / "net.graphml"
    code, _, err = run(capsys, "extract", str(gen_dir), "--matcher", "subsume",
                       "--ontology", str(gen_dir / "ontology.tsv"), "-o", str(graphml))
    assert code == 0, err
    owl = '<?xml version="1.0" encoding="UTF-8"?>\n' + owl_from_tsv(gen_dir / "ontology.tsv")
    outputs = []
    for lead in ("", "\n"):
        inputs = tmp_path / f"lead{len(lead)}"
        inputs.mkdir()
        (inputs / "net.graphml").write_text(lead + graphml.read_text(encoding="utf-8"),
                                            encoding="utf-8")
        (inputs / "onto.owl").write_text(lead + owl, encoding="utf-8")
        code, out, err = run(capsys, *[a.format(coll=gen_dir, graphml=inputs / "net.graphml",
                                                owl=inputs / "onto.owl") for a in argv])
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] and outputs[0] == outputs[1]
