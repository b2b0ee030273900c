"""Structural network properties.

Components and the giant component, directed distances (average and
diameter), transitivity on the undirected simplification, degree statistics
with hub/authority rankings, and the Erdos-Renyi small-world baseline.

All of them read the network's integer links (``src``/``dst``) and its
cached view of derived arrays (:attr:`InteractionNetwork.view`).  Distances
come from a bit-parallel BFS run from up to 64 sources per uint64 word, one
bit per source in ``(n, words)`` bitsets; it counts the pairs each level
reaches and stores no distance matrix.  Triangles are popcounts of the common
neighbours of each link's ends, on packed ``(n, ceil(n/64))`` neighbour rows.
Both kernels run in blocks of source words or of links whose temporaries fit
one byte budget, :data:`~svcnet.netbuild.KERNEL_BYTES`.
Averages are taken over reachable ordered pairs only and the excluded count
is reported, so the convention is auditable.  Weak connectivity is used for
components throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .netbuild import InteractionNetwork, component_labels, per_block


@dataclass(frozen=True)
class ComponentReport:
    """Field order is the report's key order: the CLI renders ``asdict`` of this."""

    component_sizes: tuple[int, ...]
    giant_node_fraction: float
    giant_link_fraction: float


@dataclass(frozen=True)
class DistanceReport:
    """Field order is the report's key order: the CLI renders ``asdict`` of this."""

    average_distance: float | None
    diameter: int | None
    reachable_ordered_pairs: int
    unreachable_ordered_pairs: int


@dataclass(frozen=True)
class DegreeReport:
    """Field order is the report's key order: the CLI renders ``asdict`` of this."""

    in_histogram: tuple[tuple[int, int], ...]
    out_histogram: tuple[tuple[int, int], ...]
    total_histogram: tuple[tuple[int, int], ...]
    hubs: tuple[tuple[str, int], ...]
    authorities: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class SmallWorldReport:
    """Field order is the report's key order: the CLI renders ``asdict`` of this."""

    er_nodes: int
    er_links: int
    er_estimate: float | None
    er_sampled_mean: float | None
    er_sampled_stddev: float | None
    ratio_observed_to_sampled: float | None
    samples: int
    seed: int


# ---------------------------------------------------------------------------
# Distance kernel
# ---------------------------------------------------------------------------


def _set_bits(bits: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Set bit ``cols[k]`` of row ``rows[k]`` of the uint64 bitset ``bits``:
    row v's word ``j >> 6`` holds column j at bit ``j & 63``."""
    step = per_block(64)  # the indices, the words and the shifted bits
    for lo in range(0, len(rows), step):
        r, c = rows[lo:lo + step], cols[lo:lo + step]
        np.bitwise_or.at(bits, (r, c >> 6), np.uint64(1) << (c & 63).astype(np.uint64))


def _distance_totals(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[int, int, int]:
    """Reachable ordered pairs, the sum of their distances and the diameter
    of the digraph on nodes ``0..n-1`` with links ``src[k] -> dst[k]``.

    Multi-source BFS (Then et al., "The More the Merrier", PVLDB 8(4),
    2014), one bit per source: row v of ``seen`` holds the sources that have
    reached v, row v of ``frontier`` those that reached it at the last level.
    A level ORs the frontier rows of each node's in-link sources, masks off
    the seen bits and popcounts the rest, so one word operation advances 64
    searches.  Repeated links and self-loops add nothing.  Each level adds
    its newly reached pairs to the totals, so no distance matrix is stored.
    The sources run in blocks of words whose level gather, one word per link
    and per block word, fits the kernels' byte budget; the diameter is the
    deepest block's.
    """
    order = np.argsort(dst, kind="stable")
    tails = src[order]
    heads, starts = np.unique(dst[order], return_index=True)
    del order
    words = -(-n // 64)
    step = per_block(8 * (len(tails) + n))
    pairs = total = diameter = 0
    for w0 in range(0, words, step):
        sources = np.arange(64 * w0, min(n, 64 * (w0 + step)))
        seen = np.zeros((n, min(step, words - w0)), dtype=np.uint64)
        _set_bits(seen, sources, sources - 64 * w0)
        frontier = seen.copy()
        level = 0
        while True:
            reached = np.bitwise_or.reduceat(frontier[tails], starts, axis=0)
            reached &= ~seen[heads]
            count = int(np.bitwise_count(reached).sum())
            if count == 0:
                break
            level += 1
            pairs += count
            total += level * count
            seen[heads] |= reached
            frontier[...] = 0
            frontier[heads] = reached
        diameter = max(diameter, level)
    return pairs, total, diameter


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------


def weak_components(net: InteractionNetwork) -> ComponentReport:
    if not net.nodes:
        return ComponentReport((), 0.0, 0.0)
    # Sizes by label; the giant is the first largest, i.e. the one with the
    # lexicographically smallest member id.
    sizes = np.bincount(net.view.component)
    giant = sizes.argmax()
    giant_links = int((net.view.component[net.src] == giant).sum())
    link_fraction = giant_links / net.n_edges if net.n_edges else 0.0
    return ComponentReport(tuple(np.sort(sizes[sizes > 0])[::-1].tolist()),
                           int(sizes[giant]) / len(net.nodes), link_fraction)


def giant_component(net: InteractionNetwork) -> InteractionNetwork:
    """Induced subgraph on the largest weak component."""
    if not net.nodes:
        return net
    component = net.view.component
    return net.keep_components(component == np.bincount(component).argmax())


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def distance_report(net: InteractionNetwork) -> DistanceReport:
    """Average directed distance and diameter over reachable ordered pairs."""
    n = net.n_nodes
    reachable, total, diameter = _distance_totals(n, net.src, net.dst)
    unreachable = n * (n - 1) - reachable
    if reachable == 0:
        return DistanceReport(None, None, 0, unreachable)
    return DistanceReport(
        average_distance=total / reachable,
        diameter=diameter,
        reachable_ordered_pairs=reachable,
        unreachable_ordered_pairs=unreachable,
    )


# ---------------------------------------------------------------------------
# Transitivity
# ---------------------------------------------------------------------------


def transitivity(net: InteractionNetwork) -> float:
    """3 * triangles / connected triples on the undirected simplification."""
    view = net.view
    deg = view.und_deg
    triples = int((deg * (deg - 1) // 2).sum())
    if triples == 0:
        return 0.0
    a, b = view.pairs.T
    neighbours = np.zeros((len(deg), -(-len(deg) // 64)), dtype=np.uint64)
    _set_bits(neighbours, a, b)
    _set_bits(neighbours, b, a)
    # Each triangle closes a 2-path across each of its three links: a common
    # neighbour of the link's ends.  The links run in blocks whose two row
    # gathers fit the budget.
    step = per_block(16 * neighbours.shape[1])
    closed = 0
    for lo in range(0, len(a), step):
        common = neighbours[a[lo:lo + step]]
        common &= neighbours[b[lo:lo + step]]
        closed += int(np.bitwise_count(common).sum())
    return float(closed) / triples


# ---------------------------------------------------------------------------
# Degrees
# ---------------------------------------------------------------------------


def degree_report(net: InteractionNetwork, k: int = 10) -> DegreeReport:
    """Degree histograms plus the top-k hubs (out) and authorities (in)."""
    if k < 0:
        raise UsageError("k must be >= 0")
    view = net.view

    def histogram(deg: np.ndarray) -> tuple[tuple[int, int], ...]:
        values, counts = np.unique(deg, return_counts=True)
        return tuple(zip(values.tolist(), counts.tolist()))

    def top(deg: np.ndarray) -> tuple[tuple[str, int], ...]:
        ranked = np.argsort(-deg, kind="stable")[:k].tolist()
        return tuple((net.ids[i], int(deg[i])) for i in ranked)

    return DegreeReport(
        in_histogram=histogram(view.in_deg),
        out_histogram=histogram(view.out_deg),
        total_histogram=histogram(view.total_deg),
        hubs=top(view.out_deg),
        authorities=top(view.in_deg),
    )


def total_degrees(net: InteractionNetwork) -> list[int]:
    """Total degree per node, in node-id order (input to power-law fitting)."""
    return net.view.total_deg.tolist()


# ---------------------------------------------------------------------------
# Erdos-Renyi small-world baseline
# ---------------------------------------------------------------------------


def er_baseline(
    n: int,
    m: int,
    samples: int = 10,
    seed: int = 0,
    observed_average: float | None = None,
) -> SmallWorldReport:
    """Average distance in uniform undirected G(n, m) graphs of the same size.

    Every replicate draws m distinct edges uniformly, then measures the mean
    distance within its giant component.  The closed-form estimate
    ln(n)/ln(2m/n) is reported alongside and marked undefined when the mean
    degree 2m/n does not exceed 1.
    """
    if n < 1:
        raise UsageError("n must be >= 1")
    max_edges = n * (n - 1) // 2
    if not 0 <= m <= max_edges:
        raise UsageError(f"m must be in [0, {max_edges}] for n={n}")
    if samples < 1:
        raise UsageError("samples must be >= 1")

    mean_degree = 2 * m / n
    estimate = math.log(n) / math.log(mean_degree) if mean_degree > 1 else None

    # With m >= 1 every sample's giant holds a link; with m = 0 none does.
    sampled_mean = sampled_std = None
    if m:
        means = np.array([
            _er_sample_average_distance(
                n, m, np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, s]))))
            for s in range(samples)
        ])
        sampled_mean, sampled_std = float(means.mean()), float(means.std())

    ratio = None
    if observed_average is not None and sampled_mean:
        ratio = observed_average / sampled_mean

    return SmallWorldReport(
        er_nodes=n,
        er_links=m,
        er_estimate=estimate,
        er_sampled_mean=sampled_mean,
        er_sampled_stddev=sampled_std,
        ratio_observed_to_sampled=ratio,
        samples=samples,
        seed=seed,
    )


def _er_sample_average_distance(n: int, m: int, rng: np.random.Generator) -> float:
    picks = rng.choice(n * (n - 1) // 2, size=m, replace=False)
    # Decode linear indices of the strict upper triangle, row-major: row i
    # starts at i*(2n-i-1)/2.
    rows = np.arange(n - 1)
    starts = rows * (2 * n - rows - 1) // 2
    a = np.searchsorted(starts, picks, side="right") - 1
    b = picks - starts[a] + a + 1

    # The first largest component; labels are smallest member indices.
    labels = component_labels(n, a, b)
    in_giant = labels == np.bincount(labels).argmax()
    size = int(np.count_nonzero(in_giant))
    index = np.cumsum(in_giant) - 1
    kept = in_giant[a]
    a, b = index[a[kept]], index[b[kept]]
    pairs, total, _ = _distance_totals(size, np.concatenate((a, b)), np.concatenate((b, a)))
    return total / pairs
