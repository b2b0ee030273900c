"""Binary parameter-matching predicates.

Four matchers, one per extracted network: syntactic name equality plus the
three classic semantic operators over parameter concepts (exact, plug-in,
subsume).  Output is strictly boolean; there are no graded similarities.

Plug-in and subsume are strict by default (concept identity excluded), so the
three semantic matchers are pairwise disjoint at the parameter level.  Passing
``reflexive=True`` selects the classical inclusive variants instead.
"""

from __future__ import annotations

import enum

from .corpus import ParameterDesc
from .errors import UsageError
from .ontology import Ontology


class MatcherKind(enum.Enum):
    """The four matching functions, each tagging one extracted network."""

    EQUAL = "equal"
    EXACT = "exact"
    PLUGIN = "plugin"
    SUBSUME = "subsume"

    @classmethod
    def from_name(cls, name: str) -> "MatcherKind":
        try:
            return cls(name.lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise UsageError(f"unknown matcher {name!r} (expected one of: {valid})") from None


# Definition order is the reports' column order and each network's seed index
# (``cli._KIND_INDEX``).
ALL_KINDS: tuple[MatcherKind, ...] = tuple(MatcherKind)


def match_params(
    kind: MatcherKind,
    provided: ParameterDesc,
    required: ParameterDesc,
    onto: Ontology | None = None,
    reflexive: bool = False,
) -> bool:
    """Decide whether ``provided`` can stand in for ``required`` under ``kind``.

    EQUAL compares names byte-exactly and ignores types and concepts.  The
    semantic kinds compare concept IRIs and return False whenever either
    parameter is unannotated; EXACT needs no hierarchy (IRI identity), while
    PLUGIN and SUBSUME require an ontology and raise :class:`UsageError`
    without one.
    """
    if kind is MatcherKind.EQUAL:
        return provided.name == required.name

    if kind in (MatcherKind.PLUGIN, MatcherKind.SUBSUME) and onto is None:
        raise UsageError(f"{kind.value} matching requires an ontology")

    pc, rc = provided.concept, required.concept
    if pc is None or rc is None:
        return False

    if kind is MatcherKind.EXACT:
        return pc == rc
    if kind is MatcherKind.PLUGIN:
        # Provided concept strictly more specific than the required one.
        return onto.is_strict_subclass(pc, rc) or (reflexive and pc == rc)
    # SUBSUME: provided concept strictly more general than the required one.
    return onto.is_strict_subclass(rc, pc) or (reflexive and pc == rc)
