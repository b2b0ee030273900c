"""Golden digests of the default corpus's reports and exports.

The report and dendrogram digests were recorded before the metric modules
moved onto the shared integer view of a network, the export digests before
networks stopped keeping their links as string pairs, and the bootstrap
report digest and p-values before the power-law bootstrap was batched.
They must not drift: a refactor keeps every report and export
byte-identical, every Walktrap merge sequence and height and every
bootstrap p-value bit-identical.  A deliberate change to a report (a new
field, a version bump) updates them here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from conftest import oracle_power_law_sample
from svcnet.cli import main
from svcnet.community import dendrogram_to_json, walktrap
from svcnet.corpus import load_collection
from svcnet.matcher import ALL_KINDS
from svcnet.metrics import giant_component
from svcnet.netbuild import build_network, export_network, trim_isolates
from svcnet.ontology import load_ontology
from svcnet.plfit import fit_power_law, gof_pvalue

# svcnet compare CORPUS --ontology CORPUS/ontology.tsv --plfit-boot 0 --seed 0
COMPARE_SHA256 = "9f97c51b71b11f103e019c16432157e0f07b66837537ff564ea75e8daa9ed219"

# the same with --plfit-boot 100; replicates of the equal and exact networks
# tie the observed KS distance, so one flipped bit in a refit changes a p-value
COMPARE_BOOT_SHA256 = "39ef873ac4ff4790481a052a1c4d7950fe1c3b48a13effb4d57125f99afcba92"

# dendrogram_to_json(walktrap(giant)) per network of the same corpus
DENDROGRAM_SHA256 = {
    "equal": "a27fc738c7a4169e4765cfbc7dc06fe05820b5b2e98a840f7ec0421e2c44eb9e",
    "exact": "a27fc738c7a4169e4765cfbc7dc06fe05820b5b2e98a840f7ec0421e2c44eb9e",
    "plugin": "8578b82939a554854c01b67ed62821a5c840cb7c82e95a722a31c2abf6a91d4f",
    "subsume": "a13efb4d8106d37007a8fdcf50b0c6adf84c060a025e21c91e3f5a3840cb9c0b",
}

# export_network(build_network(...), format) per network of the same corpus;
# the GraphML export carries the manifest's domain labels
EXPORT_SHA256 = {
    ("equal", "graphml"): "908b668eef6282e22ee78092de54ad8f049c597984739d00222074e25b757b19",
    ("equal", "dot"): "f67b9262de1446efe527cdba01f57c87522aae11f2ae2d713a83d4c36b80670b",
    ("equal", "edgelist"): "490217b9a27124a75a2f35f5d8e1eaf289f6c71c09bbd2aff2b4c994e8bd3f42",
    ("exact", "graphml"): "483da8a2c3dc165ac1ab19f800a6acdd6d669f2e7938208db82c6867a5fc6764",
    ("exact", "dot"): "1dba244846e935fa4733608ec367f47bbd393cb63bff236380bed7c49aaf6e15",
    ("exact", "edgelist"): "490217b9a27124a75a2f35f5d8e1eaf289f6c71c09bbd2aff2b4c994e8bd3f42",
    ("plugin", "graphml"): "198a42f8c5eb71d8e4b322452d991cdc1c5ce0bdc639bca7530c7ec6095c64db",
    ("plugin", "dot"): "48ea46208aa492b60e951d40c909a74dea834ad42d82e3a6fb91ee4782e02308",
    ("plugin", "edgelist"): "0f71cb1fef058f1bc18d3be21fd0debbea3356448c6284edf075ff4853ee1f60",
    ("subsume", "graphml"): "bfda20a8f610b331d26d12a06ffdd579285cbb8cbce7082a1b304fea8212228e",
    ("subsume", "dot"): "3c4b6cab0b73dbd81d00f24b6c90c0bee47322562b87c711f8b1b7317ead1ee3",
    ("subsume", "edgelist"): "811a8cf6fd5c7270a6c86243e2f847ebc681c3edc1d054b713cc23fb82c48ebc",
}

# fit_power_law(samples) as (alpha.hex(), ks.hex()), then gof_pvalue(fit,
# samples, n_boot, seed), per sample
GOF_CASES = {
    # the rejected geometric sample of tests/test_plfit.py
    "geometric": (lambda: np.random.default_rng(6).geometric(0.5, size=5000), 200, 0,
                  "0x1.17d452653fa26p+2", "0x1.5ff8a36bb06c0p-5", 0.0),
    "power-law": (lambda: oracle_power_law_sample(2.5, 1, 3000, seed=21), 200, 0,
                  "0x1.3d1bc633c8ea4p+1", "0x1.3094c6796bd80p-8", 0.555),
    "power-law-800": (lambda: oracle_power_law_sample(2.5, 1, 800, seed=4), 120, 9,
                      "0x1.356c6dbac42fap+1", "0x1.3072aa5725180p-7", 0.5583333333333333),
    # values past the zeta series cutoff of 100
    "hubs": (lambda: [1] * 40 + [2] * 15 + [3] * 8 + [5, 7, 9, 12, 40, 130, 260], 200, 4,
             "0x1.f965cb2a82780p+0", "0x1.48b3bca7a4080p-4", 0.015),
    # the fit's cutoff 99 is its tail's only value below the series cutoff
    "lone-tail-value": (lambda: np.concatenate([np.random.default_rng(5).integers(1, 4, 60),
                                                oracle_power_law_sample(3.0, 99, 80, seed=5)]),
                        100, 6, "0x1.6cbbf2d257aa6p+1", "0x1.50fe4472eacd0p-5", 0.9),
    # two distinct values: the fit and most replicates have a single candidate
    "two-values": (lambda: [1] * 7 + [2] * 3, 200, 3,
                   "0x1.64517f154a3f2p+1", "0x1.966908505bbd8p-4", 0.13),
    # most replicates are all-equal at first and are redrawn from their stream
    "tiny": (lambda: [1, 1, 1, 1, 2], 200, 1,
             "0x1.959bb1fa7d076p+1", "0x1.b5a6d59973810p-5", 0.855),
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


def test_compare_bootstrap_report_digest(corpus, tmp_path):
    report = tmp_path / "report.json"
    code = main(["compare", str(corpus), "--ontology", str(corpus / "ontology.tsv"),
                 "--plfit-boot", "100", "--seed", "0", "-o", str(report)])
    assert code == 0
    assert sha256(report.read_text(encoding="utf-8")) == COMPARE_BOOT_SHA256


@pytest.mark.parametrize("name", sorted(GOF_CASES))
def test_fits_and_gof_pvalues(name):
    make, n_boot, seed, alpha, ks, p_value = GOF_CASES[name]
    samples = make()
    fit = fit_power_law(samples)
    assert (fit.alpha.hex(), fit.ks.hex()) == (alpha, ks)
    assert gof_pvalue(fit, samples, n_boot=n_boot, seed=seed) == p_value


def test_giant_dendrogram_digests(corpus):
    coll = load_collection(corpus)
    onto = load_ontology(corpus / "ontology.tsv")
    digests = {}
    for kind in ALL_KINDS:
        giant = giant_component(trim_isolates(build_network(coll, kind, onto))[0])
        digests[kind.value] = sha256(dendrogram_to_json(walktrap(giant)))
    assert digests == DENDROGRAM_SHA256


def test_export_digests(corpus):
    coll = load_collection(corpus)
    onto = load_ontology(corpus / "ontology.tsv")
    domains = coll.domain_of_operation()
    digests = {}
    for kind in ALL_KINDS:
        net = build_network(coll, kind, onto)
        for fmt in ("graphml", "dot", "edgelist"):
            text = export_network(net, fmt, domains=domains if fmt == "graphml" else None)
            digests[kind.value, fmt] = sha256(text)
    assert digests == EXPORT_SHA256
