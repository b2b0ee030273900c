"""Golden digests of the default corpus's reports.

The digests were recorded before the metric modules moved onto the shared
integer view of a network and must not drift: a refactor of the graph code
keeps every report byte-identical and every Walktrap merge sequence and
height bit-identical.  A deliberate change to a report (a new field, a
version bump) updates them here.
"""

from __future__ import annotations

import hashlib

import pytest

from svcnet.cli import main
from svcnet.community import dendrogram_to_json, walktrap
from svcnet.corpus import load_collection
from svcnet.matcher import ALL_KINDS
from svcnet.metrics import giant_component
from svcnet.netbuild import build_network, trim_isolates
from svcnet.ontology import load_ontology

# svcnet compare CORPUS --ontology CORPUS/ontology.tsv --plfit-boot 0 --seed 0
COMPARE_SHA256 = "9f97c51b71b11f103e019c16432157e0f07b66837537ff564ea75e8daa9ed219"

# dendrogram_to_json(walktrap(giant)) per network of the same corpus
DENDROGRAM_SHA256 = {
    "equal": "a27fc738c7a4169e4765cfbc7dc06fe05820b5b2e98a840f7ec0421e2c44eb9e",
    "exact": "a27fc738c7a4169e4765cfbc7dc06fe05820b5b2e98a840f7ec0421e2c44eb9e",
    "plugin": "8578b82939a554854c01b67ed62821a5c840cb7c82e95a722a31c2abf6a91d4f",
    "subsume": "a13efb4d8106d37007a8fdcf50b0c6adf84c060a025e21c91e3f5a3840cb9c0b",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The default ``svcnet gen --seed 0`` corpus."""
    out = tmp_path_factory.mktemp("golden") / "corpus"
    assert main(["gen", str(out), "--seed", "0"]) == 0
    return out


def test_compare_report_digest(corpus, tmp_path):
    report = tmp_path / "report.json"
    code = main(["compare", str(corpus), "--ontology", str(corpus / "ontology.tsv"),
                 "--plfit-boot", "0", "--seed", "0", "-o", str(report)])
    assert code == 0
    assert sha256(report.read_text(encoding="utf-8")) == COMPARE_SHA256


def test_giant_dendrogram_digests(corpus):
    coll = load_collection(corpus)
    onto = load_ontology(corpus / "ontology.tsv")
    digests = {}
    for kind in ALL_KINDS:
        giant = giant_component(trim_isolates(build_network(coll, kind, onto))[0])
        digests[kind.value] = sha256(dendrogram_to_json(walktrap(giant)))
    assert digests == DENDROGRAM_SHA256
