"""The four benchmark workloads: how each builds its inputs and what it runs.

Every workload is a closed loop of one ``svcnet`` CLI invocation at a time on
inputs that ``svcnet gen`` writes.  Paths are relative to the run's work
directory, which is also the children's working directory, so no output
depends on where the checkout lives.

The CLI arguments are scaled so that one invocation takes 2-5 s on a 2-core
machine and a 30 s run holds four or more of them.

The workloads that analyze a corpus pin it to ``gen --seed 0`` and pass the
benchmark seed to the analysis, where it drives the bootstrap and ER sample
streams.  Their cost follows the corpus more than the streams: the fitted
exponent sets the bootstrap's sampling-table size, and the giants' sizes set
the dense kernels' cost.  Over ten generated corpora one boot-small
invocation took 2.3-3.7 s and peaked at 50-140 MB, and the spread of the
per-run medians of analyze-plugin fell from 0.19 to 0.07 once its corpus was
pinned.  extract-large has no analysis seed, so its corpus follows the
benchmark seed; its link count moves by about 3% between seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

CORPUS = "corpus"
ONTOLOGY = f"{CORPUS}/ontology.tsv"
NETWORK = "plugin.graphml"
OUTPUT = "out.txt"

# A 200-service corpus with six planted domains and 10% cross-domain links:
# giants of 499-566 nodes, large enough that the dense n x n kernels and
# Walktrap dominate, small enough for several compares per run.
_GRAPH_CORPUS = ("--services", "200", "--domains", "6", "--cross-domain-rate", "0.1")


@dataclass(frozen=True)
class Workload:
    name: str
    gen_args: tuple[str, ...]
    # None: the corpus follows the workload seed.  A number pins the corpus
    # and leaves the seed to the analysis only.
    gen_seed: int | None
    extract_plugin: bool  # set-up also writes NETWORK with `svcnet extract`
    command: tuple[str, ...]  # CLI arguments; "{seed}" is replaced

    @property
    def plfit_boot(self) -> int | None:
        """The command's ``--plfit-boot``, None when it has none."""
        if "--plfit-boot" not in self.command:
            return None
        return int(self.command[self.command.index("--plfit-boot") + 1])

    def cli_args(self, seed: int) -> list[str]:
        return [arg.replace("{seed}", str(seed)) for arg in self.command]

    def gen_cli_args(self, seed: int) -> list[str]:
        gen_seed = seed if self.gen_seed is None else self.gen_seed
        return ["gen", CORPUS, *self.gen_args, "--seed", str(gen_seed)]


EXTRACT_PLUGIN_ARGS = (
    "extract", CORPUS, "--matcher", "plugin", "--ontology", ONTOLOGY, "-o", NETWORK,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="boot-small",
            gen_args=(),
            gen_seed=0,
            extract_plugin=False,
            command=("compare", CORPUS, "--ontology", ONTOLOGY, "--plfit-boot", "20",
                     "--seed", "{seed}", "-o", OUTPUT),
        ),
        Workload(
            name="graph-large",
            gen_args=_GRAPH_CORPUS,
            gen_seed=0,
            extract_plugin=False,
            command=("compare", CORPUS, "--ontology", ONTOLOGY, "--plfit-boot", "0",
                     "--seed", "{seed}", "-o", OUTPUT),
        ),
        Workload(
            name="analyze-plugin",
            gen_args=_GRAPH_CORPUS,
            gen_seed=0,
            extract_plugin=True,
            command=("analyze", NETWORK, "--plfit-boot", "40", "--seed", "{seed}",
                     "-o", OUTPUT),
        ),
        Workload(
            name="extract-large",
            gen_args=("--services", "1500", "--domains", "8", "--cross-domain-rate", "0.1"),
            gen_seed=None,
            extract_plugin=False,
            command=("extract", CORPUS, "--matcher", "subsume", "--ontology", ONTOLOGY,
                     "--format", "graphml", "-o", OUTPUT),
        ),
    )
}
