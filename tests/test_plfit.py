import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import zeta as scipy_zeta

from conftest import (
    oracle_power_law_sample,
    reference_draw,
    reference_power_law_table,
    reference_tail_quantile,
    reference_zeta_tail,
)
from svcnet import plfit
from svcnet.errors import DegenerateInputError, UsageError
from svcnet.plfit import (
    PowerLawFit,
    fit_power_law,
    fit_with_gof,
    gof_pvalue,
    hurwitz_zeta,
    log_likelihood,
)


# ---------------------------------------------------------------------------
# Hurwitz zeta
# ---------------------------------------------------------------------------


def test_zeta_matches_scipy_over_grid():
    rng = np.random.default_rng(0)
    s = rng.uniform(1.001, 45.0, size=400)
    a = np.concatenate([rng.integers(1, 50, 200), rng.integers(50, 100000, 200)]).astype(float)
    mine = hurwitz_zeta(s, a)
    ref = scipy_zeta(s, a)
    assert np.all(np.abs(mine - ref) / ref < 1e-10)


def test_zeta_matches_mpmath_spot_values():
    for s, a in [(1.5, 1.0), (2.5, 1.0), (3.2, 7.5), (10.0, 2.25), (1.0001, 3.0)]:
        expected = float(mpmath.zeta(s, a))
        assert hurwitz_zeta(s, a) == pytest.approx(expected, rel=1e-10)


def test_zeta_frozen_constants():
    # Riemann zeta(2) = pi^2/6 and zeta(4) = pi^4/90 as Hurwitz with a=1.
    assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6, rel=1e-12)
    assert hurwitz_zeta(4.0, 1.0) == pytest.approx(math.pi**4 / 90, rel=1e-12)


def test_zeta_sums_each_series_as_a_direct_evaluation_does():
    # Reference: the 100 series terms of every element below the cutoff as
    # one (100, M) array summed over axis 0.  numpy sums a lone column
    # pairwise and many columns term by term; the last bits differ, and fits
    # must not depend on which way a batch groups its elements.
    rng = np.random.default_rng(3)
    k = np.arange(100.0)[:, None]
    for m in (1, 2, 3, 50):
        s = rng.uniform(1.01, 40.0, m)
        a = rng.integers(1, 100, m).astype(float) + rng.random(m)
        expected = ((a[None, :] + k) ** (-s[None, :])).sum(axis=0)
        expected += plfit._zeta_tail(s, a + 100.0)
        hubs = np.full(4, 150.0)
        got = hurwitz_zeta(np.concatenate([s, np.full(4, 2.5)]), np.concatenate([a, hubs]))
        assert got[:m].tolist() == expected.tolist()
        if m == 1:
            assert hurwitz_zeta(s[0], a[0]) == expected[0]


@pytest.mark.parametrize("series_block", [3, plfit._SERIES_BLOCK])
def test_zeta_of_a_labelled_batch_is_each_group_alone(monkeypatch, series_block):
    # A series is summed pairwise when its element is the only one of its
    # group below the cutoff, wherever the group's elements lie in the batch
    # and in its series blocks.
    monkeypatch.setattr(plfit, "_SERIES_BLOCK", series_block)
    rng = np.random.default_rng(29)
    below_cutoff = set()
    for _ in range(300):
        sizes = rng.integers(1, 6, int(rng.integers(1, 8)))
        group = rng.permutation(np.repeat(np.arange(sizes.size), sizes))
        s = rng.uniform(1.01, 40.0, group.size)
        a = np.where(rng.random(group.size) < 1 / 3, rng.uniform(100.0, 300.0, group.size),
                     rng.uniform(1.0, 100.0, group.size))
        got = plfit._zeta(s, a, group)
        for g in range(sizes.size):
            mine = group == g
            assert got[mine].tolist() == hurwitz_zeta(s[mine], a[mine]).tolist()
            below_cutoff.add(int(np.count_nonzero(a[mine] < 100.0)))
    assert {0, 1, 2} <= below_cutoff


def test_zeta_tail_has_the_bits_of_the_written_out_formula():
    # Each Bernoulli correction's numerator extends the previous one; it
    # must multiply in the order the full product is written.
    rng = np.random.default_rng(8)
    n = 100_000
    s = 50.0 - rng.uniform(0.0, 49.0, n)  # in (1, 50]
    x = np.where(rng.random(n) < 0.5, 10.0 ** rng.uniform(2.0, 7.0, n),
                 rng.integers(100, 10**7, n, endpoint=True).astype(np.float64))
    assert plfit._zeta_tail(s, x).tobytes() == reference_zeta_tail(s, x).tobytes()


def test_zeta_rejects_bad_domain():
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0, 2.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 0.5)


def test_zeta_broadcasts():
    out = hurwitz_zeta(np.array([2.0, 3.0]), np.array([[1.0], [2.0]]))
    assert out.shape == (2, 2)
    assert out[0, 0] == pytest.approx(math.pi**2 / 6, rel=1e-10)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def test_fit_recovers_planted_exponent():
    samples = oracle_power_law_sample(2.5, 1, 10_000, seed=7)
    fit = fit_power_law(samples)
    assert abs(fit.alpha - 2.5) <= 0.1
    assert fit.xmin <= 3
    assert 0.0 <= fit.ks <= 1.0
    assert fit.n_tail > 0


def test_fit_recovers_shifted_xmin():
    body = np.ones(2000, dtype=np.int64)  # mass below the cutoff
    tail = oracle_power_law_sample(2.8, 5, 4000, seed=3)
    fit = fit_power_law(np.concatenate([body, tail]))
    assert 4 <= fit.xmin <= 8
    assert abs(fit.alpha - 2.8) <= 0.25


def test_degenerate_inputs_are_rejected():
    with pytest.raises(DegenerateInputError):
        fit_power_law([7, 7, 7, 7])
    with pytest.raises(DegenerateInputError):
        fit_power_law([0, 0, 0])
    with pytest.raises(DegenerateInputError):
        fit_power_law([])


def test_invalid_inputs_are_usage_errors():
    with pytest.raises(UsageError):
        fit_power_law([-1, 2, 3])
    with pytest.raises(UsageError):
        fit_power_law([1.5, 2.5])


FIT_OF_1_TO_6 = PowerLawFit(alpha=1.5, xmin=1, ks=0.5, n_tail=6, zeros_removed=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 2.0**70, -2.0**70, 2.0**63,
                                 2**70, 2**63, "3", 1 + 0j, None, 100000.5, 5.4e6 + 0.5])
@pytest.mark.parametrize("call", [
    fit_power_law,
    lambda samples: gof_pvalue(FIT_OF_1_TO_6, samples, n_boot=100),
    lambda samples: log_likelihood(samples, 2.0, 1),
], ids=["fit_power_law", "gof_pvalue", "log_likelihood"])
def test_samples_that_are_not_int64_integers_are_refused_as_such(call, bad):
    with pytest.raises(UsageError, match="expects integer samples"):
        call([1, 2, 3, 4, 5, 6, bad])


def test_floats_within_an_absolute_tolerance_of_integers_are_integer_samples():
    assert fit_power_law([1, 1, 2, 3.0000000001, 100000.0]) == fit_power_law([1, 1, 2, 3, 100000])


def test_the_largest_int64_is_an_integer_sample():
    assert fit_power_law([1, 1, 2, 3, 2**63 - 1]).zeros_removed == 0
    assert math.isfinite(log_likelihood([1, 2, 2**63 - 1], 2.0, 1))


def test_zeros_are_removed_and_counted():
    samples = [0, 0, 1, 2, 3, 1, 1, 0, 2]
    fit = fit_power_law(samples)
    assert fit.zeros_removed == 3
    assert fit.xmin >= 1


def test_fit_is_permutation_invariant():
    rng = np.random.default_rng(5)
    samples = oracle_power_law_sample(2.2, 1, 3000, seed=5)
    shuffled = samples.copy()
    rng.shuffle(shuffled)
    assert fit_power_law(samples) == fit_power_law(shuffled)


def test_local_max_of_log_likelihood():
    for seed in (1, 2, 3):
        samples = oracle_power_law_sample(2.4, 1, 2000, seed=seed)
        fit = fit_power_law(samples)
        at = log_likelihood(samples, fit.alpha, fit.xmin)
        assert at >= log_likelihood(samples, fit.alpha + 0.01, fit.xmin)
        assert at >= log_likelihood(samples, fit.alpha - 0.01, fit.xmin)


def test_alpha_stays_above_one():
    fit = fit_power_law([1, 1, 1, 1, 2])
    assert fit.alpha > 1.0


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_sampler_matches_target_tail_probabilities():
    rng = np.random.default_rng(11)
    draws = plfit._PowerLawTable(2.5, 1).draw(200_000, rng)
    z1 = scipy_zeta(2.5, 1)
    for x in (2, 3, 5):
        expected = scipy_zeta(2.5, x) / z1
        observed = (draws >= x).mean()
        assert observed == pytest.approx(expected, abs=0.004)


def test_sampler_is_deterministic():
    a = plfit._PowerLawTable(2.0, 2).draw(50, np.random.default_rng(1))
    b = plfit._PowerLawTable(2.0, 2).draw(50, np.random.default_rng(1))
    assert np.array_equal(a, b)
    assert a.min() >= 2


def test_sampler_validates_parameters():
    rng = np.random.default_rng(0)
    with pytest.raises(UsageError):
        plfit._PowerLawTable(1.0, 1).draw(5, rng)
    with pytest.raises(UsageError):
        plfit._PowerLawTable(2.0, 0).draw(5, rng)


@pytest.mark.parametrize(
    "alpha, xmin, length, past_end",
    [
        (9.24, 11, 1024, 0),  # the table stops at its first 1024 entries
        (2.13, 3, 1 << 21, 0),  # the full table is 2^21 entries; draws read a few thousand
        (1.5, 1, 1 << 21, 3),  # draws past the full table take the exact search
    ],
)
def test_sampler_draws_as_the_eager_table(alpha, xmin, length, past_end):
    cdf, z_xmin = reference_power_law_table(alpha, xmin)
    assert cdf.size == length
    expected = reference_draw(cdf, z_xmin, alpha, xmin, 5000, np.random.default_rng(0))
    assert np.count_nonzero(expected >= xmin + length) == past_end
    got = plfit._PowerLawTable(alpha, xmin).draw(5000, np.random.default_rng(0))
    assert got.tolist() == expected.tolist()

    # As the bootstrap uses it: one table, many draws from one stream.
    table = plfit._PowerLawTable(alpha, xmin)
    assert (table.length, table.z_xmin) == (length, z_xmin)
    rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
    for size in (0, 1, 7, 300, 2000, 40):
        got = table.draw(size, rng)
        assert got.tolist() == reference_draw(cdf, z_xmin, alpha, xmin, size, ref_rng).tolist()
    assert table.cdf.tobytes() == cdf[:table.cdf.size].tobytes()
    while table.cdf.size < table.length:
        table._grow(min(2 * table.cdf.size, table.length))
    assert table.cdf.tobytes() == cdf.tobytes()


@pytest.mark.parametrize("alpha", [1.2, 1.5, 2.5, 9.24])
@pytest.mark.parametrize("xmin", [1, 3, 99])
def test_tail_quantile_matches_the_reference_search(alpha, xmin):
    table = plfit._PowerLawTable(alpha, xmin)
    # Besides fixed quantiles, draws past the full table where a double
    # below 1 reaches there.
    past_end = 1.0 - hurwitz_zeta(alpha, float(xmin + table.length)) / table.z_xmin
    us = [0.5, 0.999, 1 - 1e-9, 1 - 1e-12]
    us += [u for u in past_end + (1.0 - past_end) * np.random.default_rng(0).random(4)
           if past_end < u < 1.0]
    for u in us:
        try:
            expected = reference_tail_quantile(alpha, xmin, u, table.z_xmin)
        except DegenerateInputError:
            with pytest.raises(DegenerateInputError, match=f"alpha={alpha}"):
                table._tail_quantile(u)
        else:
            assert table._tail_quantile(u) == expected


@pytest.mark.parametrize("alpha", [1.01, 1.05, 1.15])
def test_sampler_refuses_draws_past_int64(alpha):
    with pytest.raises(DegenerateInputError, match=f"alpha={alpha}"):
        plfit._PowerLawTable(alpha, 1).draw(5000, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Goodness of fit
# ---------------------------------------------------------------------------


def test_gof_accepts_true_power_law():
    samples = oracle_power_law_sample(2.5, 1, 3000, seed=21)
    fit = fit_power_law(samples)
    p = gof_pvalue(fit, samples, n_boot=200, seed=0)
    assert p is not None and p >= 0.1


def test_gof_rejects_geometric_samples():
    # Frozen seeded instance, computed ahead: geometric(0.5) support is short,
    # so the KS-minimizing cutoff sometimes leaves a tail too small to reject;
    # this draw keeps a 605-sample tail and rejects at p = 0.0 for any
    # bootstrap seed.
    rng = np.random.default_rng(6)
    samples = rng.geometric(0.5, size=5000)
    fit = fit_with_gof(samples, n_boot=200, seed=0)
    assert fit.p_value is not None and fit.p_value < 0.1
    assert fit.rejected is True


def test_gof_skipped_when_n_boot_zero():
    samples = oracle_power_law_sample(2.5, 1, 500, seed=1)
    fit = fit_with_gof(samples, n_boot=0, seed=0)
    assert fit.p_value is None and fit.rejected is None
    assert fit.alpha > 1.0  # fit still reported


def test_small_n_boot_warns():
    samples = oracle_power_law_sample(2.5, 1, 500, seed=2)
    fit = fit_power_law(samples)
    with pytest.warns(UserWarning, match="resolution"):
        gof_pvalue(fit, samples, n_boot=20, seed=0)


def test_gof_refuses_a_fit_whose_draws_pass_int64():
    samples = [1, 1, 1, 2, 2, 3, 5, 8, 13]
    fit = PowerLawFit(alpha=1.05, xmin=1, ks=0.1, n_tail=len(samples), zeros_removed=0)
    with pytest.raises(DegenerateInputError, match="alpha=1.05"):
        gof_pvalue(fit, samples, n_boot=100, seed=0)


def test_gof_holds_no_full_sampling_table():
    # An exponent near 2 has a 2^21-entry (16 MiB) table, of which the
    # draws read a few thousand entries.
    d = plfit._PowerLawTable(2.1, 1).draw(150, np.random.default_rng(5))
    fit = fit_power_law(d)
    tracemalloc.start()
    try:
        gof_pvalue(fit, d, n_boot=100, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def test_fit_with_gof_reads_a_one_pass_iterable_once():
    xs = [1, 1, 1, 2, 2, 3, 5, 8, 13]
    assert fit_with_gof(iter(xs), n_boot=100) == fit_with_gof(xs, n_boot=100)


def test_gof_is_deterministic():
    samples = oracle_power_law_sample(2.5, 1, 800, seed=4)
    fit = fit_power_law(samples)
    assert gof_pvalue(fit, samples, n_boot=120, seed=9) == gof_pvalue(
        fit, samples, n_boot=120, seed=9
    )


def loop_fit(samples) -> tuple[tuple, tuple]:
    """Reference: the per-candidate fit on the public hurwitz_zeta, one
    sample at a time.  Returns the fit as (alpha, xmin, ks, n_tail) and every
    candidate as arrays (xmin, n_tail, log_sum, alpha)."""
    values, counts = np.unique(np.asarray(samples), return_counts=True)
    tail_n = counts[::-1].cumsum()[::-1].astype(np.float64)
    log_sum = (counts * np.log(values))[::-1].cumsum()[::-1]
    xmins = values[:-1].astype(np.float64)

    def neg_ll(alpha):
        return tail_n[:-1] * np.log(hurwitz_zeta(alpha, xmins)) + alpha * log_sum[:-1]

    lo = np.full(xmins.shape, 1.0 + 1e-6)
    hi = np.full(xmins.shape, 50.0)
    for _ in range(64):
        span = (hi - lo) * 0.6180339887498949
        x1, x2 = hi - span, lo + span
        keep_low = neg_ll(x1) < neg_ll(x2)
        hi = np.where(keep_low, x2, hi)
        lo = np.where(keep_low, lo, x1)
    alphas = (lo + hi) / 2.0

    best_ks, best = np.inf, -1
    for k in range(xmins.size):
        v = values[k:].astype(np.float64)
        z = hurwitz_zeta(alphas[k], v)
        fitted = 1.0 - (z - v ** (-alphas[k])) / z[0]
        ks = np.abs(counts[k:].cumsum() / counts[k:].sum() - fitted).max()
        if ks < best_ks:
            best_ks, best = ks, k
    fit = (alphas[best], values[best], best_ks, tail_n[best])
    return fit, (xmins, tail_n[:-1], log_sum[:-1], alphas)


def test_batched_refits_equal_the_loop_fit():
    # Replicate-like samples: two distinct values (one candidate), hubs at or
    # past the zeta series cutoff of 100 (tail-only terms, and candidates with
    # a single tail value below the cutoff), and plain power-law draws.
    rng = np.random.default_rng(17)
    samples = []
    for i in range(60):
        size = int(rng.integers(3, 60))
        if i % 3 == 0:
            low, high = sorted(rng.choice(np.arange(1, 160), size=2, replace=False))
            sample = np.where(rng.random(size) < 0.7, low, high)
            sample[:2] = low, high
        elif i % 3 == 1:
            sample = np.concatenate([oracle_power_law_sample(2.2, 1, size, seed=i),
                                     rng.integers(95, 400, int(rng.integers(1, 5)))])
        else:
            sample = oracle_power_law_sample(float(rng.uniform(1.8, 3.5)), 1, size + 10, seed=i)
        if np.unique(sample).size >= 2:
            samples.append(sample)
    tables = [np.unique(sample, return_counts=True) for sample in samples]
    assert any(values.size == 2 for values, _ in tables)
    assert any(values[-1] >= 100 for values, _ in tables)

    batched = plfit._fit_many([v for v, _ in tables], [c for _, c in tables])
    fits, candidates = zip(*(loop_fit(sample) for sample in samples))
    for i, sample in enumerate(samples):
        assert tuple(column[i] for column in batched) == fits[i]
        alone = fit_power_law(sample)
        assert (alone.alpha, alone.xmin, alone.ks, alone.n_tail) == fits[i]

    # Every candidate's exponent, not only the chosen one, from the batch's
    # candidates labelled by sample.
    xmins, n_tails, log_sums, alphas = (np.concatenate(column) for column in zip(*candidates))
    sample_of = np.repeat(np.arange(len(samples)), [c[0].size for c in candidates])
    assert plfit._mle_alphas(xmins, n_tails, log_sums, sample_of).tolist() == alphas.tolist()


@pytest.mark.parametrize("chunk_pairs", [1, 40, 700])
def test_chunk_boundaries_leave_the_pvalue_unchanged(monkeypatch, chunk_pairs):
    samples = [1, 1, 1, 1, 2, 2, 3, 5, 9, 14, 40, 130]
    fit = fit_power_law(samples)
    whole = gof_pvalue(fit, samples, n_boot=150, seed=2)
    monkeypatch.setattr(plfit, "_CHUNK_PAIRS", chunk_pairs)
    assert gof_pvalue(fit, samples, n_boot=150, seed=2) == whole
