"""Interaction-network extraction and complex-network analysis for
web-service description collections.

The names below are re-exported from the submodules that define them, each
imported on first access (PEP 562), so ``import svcnet`` loads no submodule
and a command imports only the modules it runs.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "corpus": ("CollectionStats", "OperationDesc", "ParameterDesc", "ServiceCollection",
               "ServiceDesc", "collection_from_json", "collection_stats",
               "collection_to_json", "load_collection", "parse_description"),
    "community": ("Dendrogram", "DendroTree", "ModularityScore", "Partition",
                  "best_partition", "dendrogram_to_json", "domain_overlap", "modularity",
                  "partition_to_csv", "walktrap"),
    "errors": ("DegenerateInputError", "SvcnetError", "UsageError"),
    "gen": ("GenSpec", "generate", "planted_partition", "write_collection_tree"),
    "matcher": ("ALL_KINDS", "MatcherKind", "match_params"),
    "metrics": ("ComponentReport", "DegreeReport", "DistanceReport", "SmallWorldReport",
                "degree_report", "distance_report", "er_baseline", "giant_component",
                "transitivity", "weak_components"),
    "netbuild": ("BuildOptions", "InteractionNetwork", "build_network", "export_network",
                 "read_edgelist", "read_graphml", "trim_isolates"),
    "ontology": ("Ontology", "is_strict_subclass", "load_ontology", "make_ontology"),
    "plfit": ("PowerLawFit", "fit_power_law", "fit_with_gof", "gof_pvalue", "hurwitz_zeta"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:  # the submodules, as when this module imported them all
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
