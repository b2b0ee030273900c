"""Discrete power-law fitting with a semiparametric bootstrap goodness test.

Maximum-likelihood estimation of the exponent for every candidate lower
cutoff, with the cutoff chosen to minimize the Kolmogorov-Smirnov distance
between the empirical and fitted tail CDFs.  The discrete normalization is
the Hurwitz zeta function, computed here by a direct series with an
integral-plus-Bernoulli tail correction (relative error below 1e-10), rather
than the continuous approximation that biases the exponent on small-integer
data such as degrees.

The goodness-of-fit p-value follows the standard semiparametric bootstrap:
each replicate redraws the tail from the fitted model and the body uniformly
from the empirical values below the cutoff, refits, and the p-value is the
fraction of replicate KS distances at least as large as the observed one.
A p-value below 0.1 is reported as rejecting the power law.

The bootstrap works in batches.  One CDF table serves every replicate of a
``gof_pvalue`` call and grows as the draws need it: for an exponent near 2
its full length is 2^21 entries, but the draws rarely read past the first
few thousand.  Each replicate is still drawn from its own
``SeedSequence([seed, r])`` stream, and a chunk of replicates is refit at
once: one golden-section search over every candidate cutoff of the chunk,
and one flat Hurwitz-zeta evaluation for all of its KS distances.
``fit_power_law`` is the batch of one.

Batching keeps every bit of fitting one sample at a time, including the
order in which each zeta series of 100 terms is summed.  numpy sums the
terms of a single element pairwise but those of many elements term by
term, and the two sums differ in the last bits.  Bootstrap KS distances
do tie the observed one, so one flipped bit can change a p-value.  Every
element of a batched zeta call is therefore labelled with its group, the
zeta call it would be in if its sample were fit alone: a sample's
candidate cutoffs at one golden-section probe, or one candidate's tail
values.  ``_zeta`` sums a series pairwise exactly when its element is the
only one of its group below the series cutoff.
"""

from __future__ import annotations

import warnings as _warnings
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .errors import DegenerateInputError, UsageError

REJECTION_LEVEL = 0.1

_ALPHA_LO = 1.0 + 1e-6
_ALPHA_HI = 50.0
_GOLDEN = 0.6180339887498949
_GOLDEN_ITER = 64

# Direct-series length before switching to the tail expansion; large enough
# that the Bernoulli correction is past 1e-12 relative error for s <= 50.
_SERIES_CUTOFF = 100.0
_SERIES_TERMS = 100
_TERMS = np.arange(_SERIES_TERMS, dtype=np.float64)
# Series summed per block of elements: a block's terms are 100 x 4096 floats.
_SERIES_BLOCK = 4096


def hurwitz_zeta(s, a):
    """Hurwitz zeta for s > 1, a >= 1; scalars or broadcastable arrays."""
    s_arr = np.asarray(s, dtype=np.float64)
    a_arr = np.asarray(a, dtype=np.float64)
    if np.any(s_arr <= 1.0):
        raise ValueError("hurwitz_zeta requires s > 1")
    if np.any(a_arr < 1.0):
        raise ValueError("hurwitz_zeta requires a >= 1")
    s_b, a_b = np.broadcast_arrays(s_arr, a_arr)
    out = _zeta(s_b.reshape(-1), a_b.reshape(-1), np.zeros(a_b.size, np.intp)).reshape(s_b.shape)
    if out.shape == ():
        return float(out)
    return out


def _zeta(s: np.ndarray, a: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Hurwitz zeta of flat arrays; ``group`` labels each element's group.

    An element below the series cutoff has its 100 terms summed pairwise
    when it is the only one of its group below the cutoff, and term by term
    otherwise (see the module docstring); elements at or past the cutoff
    need no series.
    """
    out = np.empty(a.shape)
    small = a < _SERIES_CUTOFF
    if not small.all():
        out[~small] = _zeta_tail(s[~small], a[~small])
    pairwise = (np.bincount(group, weights=small) == 1)[group]
    series_at = np.flatnonzero(small)
    for start in range(0, series_at.size, _SERIES_BLOCK):
        idx = series_at[start:start + _SERIES_BLOCK]
        ss, aa = s[idx], a[idx]
        # numpy sums the columns of a 2-D array term by term, so the block gets
        # a spare column (of ones, so that its unused sum is finite): on its
        # own, one column is summed pairwise.
        terms = np.empty((_SERIES_TERMS, idx.size + 1))
        terms[:, -1] = 1.0
        np.add(aa, _TERMS[:, None], out=terms[:, :-1])
        np.power(terms[:, :-1], -ss, out=terms[:, :-1])
        series = terms.sum(axis=0)[:-1]
        lone = np.flatnonzero(pairwise[idx])
        if lone.size:
            series[lone] = np.ascontiguousarray(terms[:, lone].T).sum(axis=1)
        out[idx] = series + _zeta_tail(ss, aa + _SERIES_TERMS)
    return out


def _zeta_tail(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin tail: integral term plus Bernoulli corrections.

    Each correction's numerator xs * s * (s + 1) * ... extends the previous
    one, multiplied in the same left-to-right order as written out in full.
    """
    xs = x ** (-s)
    total = xs * x / (s - 1.0)
    total += xs / 2.0
    num = xs * s
    total += num / (12.0 * x)
    num *= s + 1
    num *= s + 2
    total -= num / (720.0 * x**3)
    num *= s + 3
    num *= s + 4
    total += num / (30240.0 * x**5)
    num *= s + 5
    num *= s + 6
    total -= num / (1209600.0 * x**7)
    return total


@dataclass(frozen=True)
class PowerLawFit:
    """Fit result; bootstrap fields stay None until the goodness test runs.
    Field order is the report's key order: the CLI renders ``asdict`` of this."""

    alpha: float
    xmin: int
    ks: float
    n_tail: int
    zeros_removed: int
    p_value: float | None = None
    rejected: bool | None = None
    n_boot: int | None = None
    seed: int | None = None


def _clean_samples(samples: Iterable[int]) -> tuple[np.ndarray, int]:
    """The positive samples sorted as int64, and the number of zeros.  Floats
    are taken when they are within 1e-8 of integers in int64's range (an
    absolute tolerance, so ``100000.5`` is refused); strings, complex numbers
    and integers beyond int64 are refused."""
    arr = np.asarray(list(samples))
    if arr.dtype.kind == "f":
        rounded = np.rint(arr)
        if not (np.all((rounded >= -2.0**63) & (rounded < 2.0**63))
                and np.allclose(arr, rounded, rtol=0.0)):
            raise UsageError("power-law fitting expects integer samples")
        arr = rounded
    elif arr.dtype.kind not in "biu" or arr.size and arr.max() > np.iinfo(np.int64).max:
        raise UsageError("power-law fitting expects integer samples")
    arr = arr.astype(np.int64, copy=False)
    if np.any(arr < 0):
        raise UsageError("power-law fitting expects non-negative samples")
    zeros = int((arr == 0).sum())
    return np.sort(arr[arr > 0]), zeros


def fit_power_law(samples: Iterable[int]) -> PowerLawFit:
    """Fit (alpha, xmin) to positive integer samples.

    Zeros are excluded (the power law is undefined at 0) and their count
    reported; fewer than two distinct positive values raise
    :class:`DegenerateInputError`.
    """
    data, zeros = _clean_samples(samples)
    values, counts = np.unique(data, return_counts=True)
    if values.size < 2:
        raise DegenerateInputError(
            "need at least 2 distinct positive values to fit a power law"
        )
    alpha, xmin, ks, n_tail = _fit_many([values], [counts])
    return PowerLawFit(
        alpha=float(alpha[0]),
        xmin=int(xmin[0]),
        ks=float(ks[0]),
        n_tail=int(n_tail[0]),
        zeros_removed=zeros,
    )


def _fit_many(
    values: list[np.ndarray], counts: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fit every sample at once; returns per sample (alpha, xmin, ks, n_tail).

    A sample is given by its sorted distinct values (at least two) and their
    counts.  Every value but a sample's largest is a candidate xmin: its
    exponent is the tail MLE and its KS distance compares the empirical and
    fitted CDFs over its tail values.  A sample's fit is its first candidate
    of least KS distance.
    """
    sizes = np.array([v.size for v in values])
    ends = np.cumsum(sizes)
    values = np.concatenate(values)
    counts = np.concatenate(counts)
    sample = np.repeat(np.arange(sizes.size), sizes)
    rank = np.arange(values.size) - (ends - sizes)[sample]

    # Per value: tail size and sum of log(x) over the tail, each accumulated
    # from the sample's largest value down, one sample per row.
    cum = np.cumsum(counts)
    tail_n = cum[ends - 1][sample] - cum + counts
    from_top = sizes[sample] - 1 - rank
    log_sum = np.zeros((sizes.size, sizes.max()))
    log_sum[sample, from_top] = counts * np.log(values)
    np.cumsum(log_sum, axis=1, out=log_sum)
    log_sum = log_sum[sample, from_top]

    # A candidate needs >= 2 distinct tail values for a finite MLE.  A
    # sample's candidates form one zeta group.
    cand = np.flatnonzero(from_top > 0)
    alphas = _mle_alphas(values[cand].astype(np.float64), tail_n[cand].astype(np.float64),
                         log_sum[cand], sample[cand])

    # KS distance per candidate over its tail values, flat and labelled by
    # candidate; a candidate's tail values form one zeta group.
    lengths = ends[sample[cand]] - cand
    first = np.cumsum(lengths) - lengths
    owner = np.repeat(np.arange(cand.size), lengths)
    at = np.arange(lengths.sum()) + (cand - first)[owner]
    v = values[at].astype(np.float64)
    s = alphas[owner]
    z = _zeta(s, v, owner)
    # zeta(alpha, v+1) = zeta(alpha, v) - v^-alpha, so the fitted CDF at v is:
    fitted = 1.0 - (z - v ** (-s)) / z[first][owner]
    empirical = (cum[at] - (cum[cand] - counts[cand])[owner]) / tail_n[cand][owner]
    ks = np.maximum.reduceat(np.abs(empirical - fitted), first)

    # First strict minimum per sample; a NaN distance never wins, and a
    # sample without a finite one keeps its last candidate.
    grid = np.full((sizes.size, sizes.max() - 1), np.inf)
    grid[sample[cand], rank[cand]] = np.where(np.isnan(ks), np.inf, ks)
    best = grid.argmin(axis=1)
    best_ks = grid[np.arange(sizes.size), best]
    best = np.where(best_ks < np.inf, best, sizes - 2)
    at_best = ends - sizes + best
    return alphas[at_best - np.arange(sizes.size)], values[at_best], best_ks, tail_n[at_best]


def _mle_alphas(
    xmins: np.ndarray, n_tails: np.ndarray, log_sums: np.ndarray, sample: np.ndarray
) -> np.ndarray:
    """Vector golden-section maximization of the tail log-likelihood.

    L(alpha) = -n ln zeta(alpha, xmin) - alpha * sum(ln x) is concave in
    alpha, so golden section converges to the global maximum.  ``sample``
    labels each candidate with its sample.  Each step evaluates both probes
    in one zeta call over the candidates listed twice, each probe's copy in
    groups of its own, so the bits are those of one call per sample and probe.
    """
    m = xmins.size
    xmins, n_tails, log_sums = (np.tile(arr, 2) for arr in (xmins, n_tails, log_sums))
    group = np.concatenate([2 * sample, 2 * sample + 1])
    lo = np.full(m, _ALPHA_LO)
    hi = np.full(m, _ALPHA_HI)
    for _ in range(_GOLDEN_ITER):
        span = (hi - lo) * _GOLDEN
        probes = np.concatenate([hi - span, lo + span])  # x1, then x2
        neg_ll = n_tails * np.log(_zeta(probes, xmins, group)) + probes * log_sums
        keep_low = neg_ll[:m] < neg_ll[m:]
        hi = np.where(keep_low, probes[m:], hi)
        lo = np.where(keep_low, lo, probes[:m])
    return (lo + hi) / 2.0


def log_likelihood(samples: Iterable[int], alpha: float, xmin: int) -> float:
    """Discrete power-law tail log-likelihood (samples below xmin ignored)."""
    data, _ = _clean_samples(samples)
    tail = data[data >= xmin]
    if tail.size == 0:
        raise DegenerateInputError("no samples at or above xmin")
    return float(-tail.size * np.log(hurwitz_zeta(alpha, float(xmin)))
                 - alpha * np.log(tail.astype(np.float64)).sum())


# ---------------------------------------------------------------------------
# Sampling from the fitted tail model
# ---------------------------------------------------------------------------

_TABLE_TAIL_EPS = 1e-9
_TABLE_MAX = 1 << 21
# Draws are int64; an exponent near 1 puts some quantiles past this.
_DRAW_MAX = int(np.iinfo(np.int64).max)


class _PowerLawTable:
    """Exact inverse-CDF draws from the discrete power law at (alpha, xmin).

    Quantiles inside a CDF table, computed only as far as the draws reach,
    are resolved by binary search; the rare draws beyond its full length fall
    back to an exact doubling-plus-bisection search on the survival function.
    A draw of 2^63 or more, which exponents up to about 1.15 produce, raises
    :class:`DegenerateInputError`.

    The full length is fixed up front: 1024 entries, doubled while the
    survival past the table is above 1e-9, up to 2^21.  The first 1024
    entries are computed at once; the computed part doubles when a draw
    falls above its last entry.  A new block starts from the running sum of
    the unscaled terms and is accumulated in order, so every entry has the
    bits of one cumulative sum over the full length.
    """

    def __init__(self, alpha: float, xmin: int) -> None:
        if alpha <= 1.0:
            raise UsageError("alpha must exceed 1")
        if xmin < 1:
            raise UsageError("xmin must be >= 1")
        self.alpha = alpha
        self.xmin = xmin
        self.z_xmin = hurwitz_zeta(alpha, float(xmin))
        length = 1024
        while (
            hurwitz_zeta(alpha, float(xmin + length)) / self.z_xmin > _TABLE_TAIL_EPS
            and length < _TABLE_MAX
        ):
            length *= 2
        self.length = length
        self.cdf = np.empty(0)
        self._sum = 0.0  # sum of the unscaled terms in ``cdf``
        self._grow(1024)

    def _grow(self, stop: int) -> None:
        block = np.arange(self.xmin + self.cdf.size, self.xmin + stop, dtype=np.float64)
        np.power(block, -self.alpha, out=block)
        block[0] += self._sum
        np.cumsum(block, out=block)
        self._sum = float(block[-1])
        block /= self.z_xmin
        self.cdf = np.concatenate([self.cdf, block])

    def draw(self, size: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(size)
        top = u.max(initial=0.0)
        while self.cdf[-1] < top and self.cdf.size < self.length:
            self._grow(min(2 * self.cdf.size, self.length))
        idx = np.searchsorted(self.cdf, u, side="left")
        out = self.xmin + idx
        for pos in np.flatnonzero(idx >= self.length):
            out[pos] = self._tail_quantile(float(u[pos]))
        return out.astype(np.int64)

    def _tail_quantile(self, u: float) -> int:
        """Smallest x with P(X <= x) >= u, i.e. zeta(alpha, x+1)/zeta(alpha, xmin) <= 1-u."""
        target = (1.0 - u) * self.z_xmin

        def past(x: int) -> bool:
            return hurwitz_zeta(self.alpha, float(x + 1)) <= target

        hi = 2 * self.xmin
        while not past(hi):
            if hi >= _DRAW_MAX:
                raise DegenerateInputError(
                    f"power law with alpha={float(self.alpha)!r} draws values of 2^63 or "
                    "more; cannot sample it (alpha is too close to 1)"
                )
            hi = min(2 * hi, _DRAW_MAX)
        return self.xmin + bisect_left(range(self.xmin, hi), True, key=past)


# ---------------------------------------------------------------------------
# Goodness of fit
# ---------------------------------------------------------------------------

# Replicates are refit in chunks of about this many (candidate, tail value)
# pairs, which bounds each flat KS array of a chunk at a few MB.
_CHUNK_PAIRS = 1 << 16


def gof_pvalue(
    fit: PowerLawFit,
    samples: Iterable[int],
    n_boot: int = 1000,
    seed: int = 0,
) -> float | None:
    """Semiparametric bootstrap p-value for ``fit`` against ``samples``.

    Replicate r uses its own RNG stream derived from (seed, r), so the
    chunking of replicates does not change the p-value.  ``n_boot=0`` skips
    the test entirely.
    """
    if n_boot < 0:
        raise UsageError("n_boot must be >= 0")
    if n_boot == 0:
        return None
    if n_boot < 100:
        _warnings.warn(
            f"n_boot={n_boot} gives a coarse p-value resolution (>= 100 recommended)",
            UserWarning,
            stacklevel=2,
        )

    data, _ = _clean_samples(samples)
    n = data.size
    body = data[data < fit.xmin]
    p_tail = fit.n_tail / n
    table = _PowerLawTable(fit.alpha, fit.xmin)

    exceed = 0
    values: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    pairs = 0
    for r in range(n_boot):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, r])))
        v, c = _replicate(fit, body, n, p_tail, table, rng)
        values.append(v)
        counts.append(c)
        pairs += v.size * (v.size + 1) // 2
        if pairs >= _CHUNK_PAIRS or r == n_boot - 1:
            exceed += int(np.count_nonzero(_fit_many(values, counts)[2] >= fit.ks))
            values, counts, pairs = [], [], 0
    return exceed / n_boot


def _replicate(
    fit: PowerLawFit, body: np.ndarray, n: int, p_tail: float,
    table: _PowerLawTable, rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values and counts of one replicate drawn from ``rng``."""
    for _ in range(100):
        from_tail = rng.random(n) < p_tail
        k = int(from_tail.sum())
        draws = np.empty(n, dtype=np.int64)
        if k:
            draws[:k] = table.draw(k, rng)
        if n - k:
            draws[k:] = body[rng.integers(0, body.size, n - k)]
        values, counts = np.unique(draws, return_counts=True)
        if values.size >= 2:
            return values, counts
        # all-equal replicate; redraw from the same stream
    raise DegenerateInputError("bootstrap replicates are persistently degenerate")


def fit_with_gof(
    samples: Iterable[int], n_boot: int = 1000, seed: int = 0
) -> PowerLawFit:
    """Fit, then attach the bootstrap p-value and the p < 0.1 rejection flag."""
    samples = list(samples)  # read twice below; an iterator would be spent
    fit = fit_power_law(samples)
    p = gof_pvalue(fit, samples, n_boot=n_boot, seed=seed)
    return replace(
        fit,
        p_value=p,
        rejected=(p < REJECTION_LEVEL) if p is not None else None,
        seed=seed,
        n_boot=n_boot,
    )
