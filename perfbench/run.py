#!/usr/bin/env python3
"""svcnet benchmark: closed-loop CLI runs, or one traced in-process run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload graph-large --seed 3 --seconds 20 --trace 0

``--trace 0`` runs the workload's CLI command as a child process, one client
in a closed loop, for ``--seconds``.  Between invocations it sets the
workload up again (``svcnet gen``, plus ``svcnet extract`` for
analyze-plugin) in cold child processes, for about SETUP_SHARE of the
invocations' time, so the set-up samples are spread over the run as the
invocations are.  It reports the medians of wall time, CPU time
(``os.wait4``) and peak RSS per invocation, and of set-up time.  ``--trace 1`` sets
up once, runs the CLI command once as the reference, then repeats the same
pipeline in-process with every layer call timed (see ``traced.py``) and
reports per-layer self times and counters.

Every invocation's output is hashed.  A run fails when it exits non-zero,
times out, or its sha256 differs from the reference digest recorded in
``references.json`` for this seed (or, for other seeds, from the first
invocation of the run).  The last line of stdout is the JSON result; the
per-invocation samples and the trace spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from workloads import CORPUS, NETWORK, OUTPUT, WORKLOADS, Workload, EXTRACT_PLUGIN_ARGS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORK_ROOT = BENCH_DIR / ".work"
REFERENCES = BENCH_DIR / "references.json"

# After each invocation, set-ups run until they have taken this share of the
# invocations' time, and at least once.
SETUP_SHARE = 0.3
MIN_INVOCATIONS = 3
INVOCATION_TIMEOUT_S = 40.0


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, failed set-up)."""


def pinned_env() -> dict[str, str]:
    """Thread caps for every child: the compare pool at nproc, BLAS serial.

    Unpinned, OpenBLAS threads make CPU exceed wall even with one svcnet
    thread; the svcnet default cap of 4 would oversubscribe two cores.
    """
    return {
        "SVCNET_THREADS": str(len(os.sched_getaffinity(0))),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
    }


def child_env() -> dict[str, str]:
    env = dict(os.environ, **pinned_env())
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment_record() -> dict:
    import numpy as np

    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **pinned_env(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        record["blas"] = "unknown"
    return record


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int | None  # None: killed at the timeout
    digest: str | None = None
    ok: bool = False


def run_cli(args: list[str], cwd: Path, timeout: float = INVOCATION_TIMEOUT_S) -> Invocation:
    """Spawn ``svcnet`` and wait for it; resource figures come from wait4."""
    timed_out = threading.Event()
    with open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "svcnet.cli", *args],
            cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )

        def kill() -> None:
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=None if timed_out.is_set() else proc.returncode,
    )


def stderr_tail(cwd: Path) -> str:
    text = (cwd / "stderr.txt").read_text(encoding="utf-8", errors="replace")
    return text.strip().splitlines()[-1] if text.strip() else "(no stderr)"


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def setup_once(workload: Workload, seed: int, work: Path) -> float:
    """Write the workload's inputs in cold child processes; return the wall time."""
    shutil.rmtree(work / CORPUS, ignore_errors=True)
    (work / NETWORK).unlink(missing_ok=True)
    steps = [workload.gen_cli_args(seed)]
    if workload.extract_plugin:
        steps.append(list(EXTRACT_PLUGIN_ARGS))
    total = 0.0
    for args in steps:
        inv = run_cli(args, work)
        if inv.exit_code != 0:
            raise BenchError(f"set-up step `svcnet {' '.join(args)}` failed "
                             f"(exit {inv.exit_code}): {stderr_tail(work)}")
        total += inv.wall_s
    return total


def reference_digest(workload: Workload, seed: int) -> str | None:
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    return refs["digests"].get(workload.name, {}).get(str(seed))


def invoke_checked(workload: Workload, seed: int, work: Path, expected: str | None) -> Invocation:
    """One timed invocation; ``ok`` when it exits 0 and its digest is right."""
    out = work / OUTPUT
    out.unlink(missing_ok=True)
    inv = run_cli(workload.cli_args(seed), work)
    if inv.exit_code == 0 and out.is_file():
        inv.digest = sha256_of(out)
        inv.ok = expected is None or inv.digest == expected
    return inv


def validate_output(workload: Workload, seed: int, path: Path) -> list[str]:
    """Structural checks of one output that the digest gate cannot make for
    seeds without a recorded reference."""
    text = path.read_text(encoding="utf-8")
    command = workload.command[0]
    if command == "extract":
        if not text.startswith("<?xml") or not text.rstrip().endswith("</graphml>"):
            return ["extract output is not a complete GraphML document"]
        nodes = text.count("<node ")
        return [] if nodes > 0 else ["extract output has no nodes"]
    report = json.loads(text)
    problems = []
    if report.get("seed") != seed:
        problems.append(f"report seed {report.get('seed')} != {seed}")
    if report["options"]["plfit_boot"] != workload.plfit_boot:
        problems.append("report plfit_boot differs from the command line")
    sections = report["networks"] if command == "compare" else {"plugin": report["network"]}
    expected_kinds = ["equal", "exact", "plugin", "subsume"] if command == "compare" else ["plugin"]
    if list(sections) != expected_kinds:
        problems.append(f"report networks {list(sections)} != {expected_kinds}")
    for kind, section in sections.items():
        giant = section["giant"]
        if not 0 < giant["nodes"] <= section["nodes_total"]:
            problems.append(f"{kind}: giant nodes {giant['nodes']} out of range")
        if giant["links"] < giant["nodes"] - 1:
            problems.append(f"{kind}: giant has fewer links than a tree")
    return problems


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of p50/p90/p95/p99 that has at least ten samples beyond it."""
    n = len(values)
    for p in (99.0, 95.0, 90.0, 50.0):
        if n * (1 - p / 100) >= 10:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            return p, cuts[int(p) - 1]
    return None


def timed_loop(workload: Workload, seed: int, seconds: float,
               work: Path) -> tuple[list[Invocation], list[float]]:
    """Invocations and set-ups, interleaved, for ``seconds``.

    Each set-up rewrites the inputs the next invocation reads.  No cycle of
    an invocation and its set-ups starts that, at the medians so far, would
    end after ``seconds``.
    """
    expected = reference_digest(workload, seed)
    invocations: list[Invocation] = []
    start = time.perf_counter()
    setups = [setup_once(workload, seed, work)]
    while True:
        inv = invoke_checked(workload, seed, work, expected)
        if expected is None and inv.digest is not None:
            expected = inv.digest  # every later run of this seed must match
        invocations.append(inv)
        if not inv.ok:
            print(f"failed invocation: exit {inv.exit_code}, digest {inv.digest}: "
                  f"{stderr_tail(work)}", file=sys.stderr)
        invoked = sum(i.wall_s for i in invocations)
        setups.append(setup_once(workload, seed, work))
        while sum(setups) < SETUP_SHARE * invoked:
            setups.append(setup_once(workload, seed, work))
        elapsed = time.perf_counter() - start
        cycle = (statistics.median(i.wall_s for i in invocations)
                 + sum(setups) / len(invocations))
        if len(invocations) >= MIN_INVOCATIONS and elapsed + cycle > seconds:
            return invocations, setups


def summarize(name: str, values: list[float], unit: str) -> str:
    line = f"  {name}: median {statistics.median(values):.4f} {unit}, n={len(values)}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f", quartiles {q1:.4f}..{q3:.4f}"
    tail = tail_percentile(values)
    if tail is not None:
        line += f", p{tail[0]:g} {tail[1]:.4f}"
    return line


def timed_run(workload: Workload, seed: int, seconds: float, work: Path, env: dict) -> dict:
    invocations, setup_samples = timed_loop(workload, seed, seconds, work)
    problems = validate_output(workload, seed, work / OUTPUT) if invocations[-1].ok else []
    for problem in problems:
        print(f"invalid output: {problem}", file=sys.stderr)

    failed = sum(1 for i in invocations if not i.ok)
    measured = [i for i in invocations if i.ok] or invocations
    series = {
        "wall_s": ([i.wall_s for i in measured], "s"),
        "cpu_s": ([i.cpu_s for i in measured], "s"),
        "peak_rss_mb": ([i.peak_rss_mb for i in measured], "MB"),
        "setup_s": (setup_samples, "s"),
    }
    detail = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "env": env,
        "setup_s": setup_samples, "invocations": [asdict(i) for i in invocations],
        "failed_fraction": failed / len(invocations), "problems": problems,
    }
    (OUT_DIR / f"{workload.name}-seed{seed}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    print(f"{workload.name} seed {seed}: {len(invocations)} invocations, "
          f"{failed} failed (failed_fraction {failed / len(invocations):.4f})")
    for name, (values, unit) in series.items():
        print(summarize(name, values, unit))
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {name: {"value": statistics.median(values), "unit": unit}
                    for name, (values, unit) in series.items()},
    }


def traced_run(workload: Workload, seed: int, seconds: float, work: Path, env: dict) -> dict:
    sys.path.insert(0, str(SRC))
    import traced

    setup_once(workload, seed, work)
    reference = invoke_checked(workload, seed, work, reference_digest(workload, seed))
    if reference.digest is None:
        raise BenchError(f"reference invocation failed (exit {reference.exit_code}): "
                         f"{stderr_tail(work)}")
    if not reference.ok:
        print(f"reference invocation: digest {reference.digest} is not the recorded one",
              file=sys.stderr)
    result = traced.traced_run(workload, seed, seconds, work, reference_ok=reference.ok)
    spans_path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    spans_path.write_text(json.dumps(dict(result.pop("trace"), env=env)) + "\n",
                          encoding="utf-8")
    print(f"{workload.name} seed {seed}: traced {result['attempted'] - 1} repeats, "
          f"{result['failed']} failed; spans in {spans_path.relative_to(ROOT)}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "svcnet" / "cli.py").is_file():
        print(f"error: no svcnet sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(pinned_env())  # before numpy is imported in this process
    workload = WORKLOADS[args.workload]
    env = environment_record()

    work = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    OUT_DIR.mkdir(exist_ok=True)
    try:
        run = traced_run if args.trace else timed_run
        result = run(workload, args.seed, args.seconds, work, env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("env:", json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
