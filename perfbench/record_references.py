#!/usr/bin/env python3
"""Record the reference sha256 of every workload's output for the default
seed and one held-out seed, into ``references.json``.

Run it, from the root of a checkout, only on a commit whose reports are
known to be right: later runs of those seeds fail on any other digest.

    python3 perfbench/record_references.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from workloads import WORKLOADS

SEEDS = (0, 104729)


def main() -> int:
    if not (run.SRC / "svcnet" / "cli.py").is_file():
        print(f"error: no svcnet sources under {run.SRC}", file=sys.stderr)
        return 2
    digests: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS.values():
        for seed in SEEDS:
            work = run.WORK_ROOT / f"record-{workload.name}-{seed}-{os.getpid()}"
            work.mkdir(parents=True)
            try:
                run.setup_once(workload, seed, work)
                first, second = (run.invoke_checked(workload, seed, work, None)
                                 for _ in range(2))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if first.digest is None or first.digest != second.digest:
                print(f"error: {workload.name} seed {seed} is not reproducible",
                      file=sys.stderr)
                return 1
            digests.setdefault(workload.name, {})[str(seed)] = first.digest
            print(f"{workload.name} seed {seed}: {first.digest}")
    run.REFERENCES.write_text(
        json.dumps({"seeds": list(SEEDS), "digests": digests}, indent=2) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
