from __future__ import annotations

import itertools
import random

import pytest

from ace.errors import ConfigError, InsufficientDataError, UndefinedEffectError
from ace.stats import (
    PairedSample,
    cohens_d,
    format_summary_table,
    sign_test_one_sided,
    summarize,
    wilcoxon_signed_rank,
)


def enumerate_signed_rank_p(diffs):
    """Oracle: walk every sign assignment of the nonzero differences and
    count how often min(W+, W-) is at most the observed one."""
    diffs = [d for d in diffs if d != 0]
    n = len(diffs)
    mags = [abs(d) for d in diffs]
    order = sorted(range(n), key=lambda i: mags[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and mags[order[j + 1]] == mags[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    total = n * (n + 1) / 2
    observed_plus = sum(r for d, r in zip(diffs, ranks) if d > 0)
    observed = min(observed_plus, total - observed_plus)
    hits = 0
    for signs in itertools.product((1, -1), repeat=n):
        w_plus = sum(r for s, r in zip(signs, ranks) if s > 0)
        if min(w_plus, total - w_plus) <= observed + 1e-12:
            hits += 1
    return hits / 2**n


def paired_from_diffs(diffs):
    return PairedSample(baseline=[0.0] * len(diffs), treatment=list(diffs))


# -- wilcoxon -------------------------------------------------------------------


def test_all_zero_differences_insufficient():
    with pytest.raises(InsufficientDataError):
        wilcoxon_signed_rank(PairedSample([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0]))


def test_too_few_pairs():
    with pytest.raises(InsufficientDataError):
        wilcoxon_signed_rank(paired_from_diffs([1, 2, 3, 4]))


def test_all_positive_six():
    stat, p = wilcoxon_signed_rank(paired_from_diffs([1, 2, 3, 4, 5, 6]))
    assert stat == 0
    assert p == pytest.approx(2 / 2**6, abs=1e-12)


def test_textbook_sample_matches_enumeration():
    diffs = [1.5, -0.5, 2.0, 0.25, -1.0, 3.0, 0.75, -2.5, 1.25, 0.1]
    stat, p = wilcoxon_signed_rank(paired_from_diffs(diffs))
    assert p == pytest.approx(enumerate_signed_rank_p(diffs), abs=1e-10)


def test_ties_get_average_ranks():
    diffs = [1.0, 1.0, -1.0, 2.0, 2.0, -2.0, 3.0]
    stat, p = wilcoxon_signed_rank(paired_from_diffs(diffs))
    assert p == pytest.approx(enumerate_signed_rank_p(diffs), abs=1e-10)


def test_exact_matches_enumeration_randomized(rng):
    for _ in range(200):
        n = rng.randint(5, 12)
        diffs = []
        while not any(diffs):
            diffs = [
                rng.choice([-1, 1]) * rng.choice([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
                for _ in range(n)
            ]
        stat, p = wilcoxon_signed_rank(paired_from_diffs(diffs))
        assert p == pytest.approx(enumerate_signed_rank_p(diffs), abs=1e-10)
        assert 0 < p <= 1


def test_sign_symmetry(rng):
    for _ in range(30):
        diffs = [rng.uniform(-3, 3) for _ in range(rng.randint(6, 14))]
        if not any(d != 0 for d in diffs):
            continue
        _, p_pos = wilcoxon_signed_rank(paired_from_diffs(diffs))
        _, p_neg = wilcoxon_signed_rank(paired_from_diffs([-d for d in diffs]))
        assert p_pos == pytest.approx(p_neg, abs=1e-12)


def test_normal_approximation_close_to_exact():
    rng = random.Random(17)
    diffs = [rng.uniform(-1, 3) for _ in range(26)]  # just above the exact cutoff
    stat, p_approx = wilcoxon_signed_rank(paired_from_diffs(diffs))

    import ace.stats as stats_module

    old = stats_module.EXACT_WILCOXON_MAX_N
    stats_module.EXACT_WILCOXON_MAX_N = 100
    try:
        _, p_exact = wilcoxon_signed_rank(paired_from_diffs(diffs))
    finally:
        stats_module.EXACT_WILCOXON_MAX_N = old
    assert p_approx == pytest.approx(p_exact, abs=0.01)


# -- effect size ------------------------------------------------------------------


def test_cohens_d_identical_distributions():
    sample = PairedSample([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
    assert cohens_d(sample) == 0.0


def test_cohens_d_unit_shift():
    base = [0.0, 1.0, 2.0, 3.0, 4.0]  # sd = sqrt(2.5)
    import statistics

    sd = statistics.stdev(base)
    sample = PairedSample(base, [b + sd for b in base])
    assert cohens_d(sample) == pytest.approx(1.0)


def test_cohens_d_half():
    baseline = [8.0, 9.0, 10.0, 11.0, 12.0]
    treatment = [9.0, 10.0, 11.0, 12.0, 13.0]
    # means 10 and 11, equal SDs; scale the shift for d = 0.5
    import statistics

    sd = statistics.stdev(baseline)
    treatment = [b + 0.5 * sd for b in baseline]
    assert cohens_d(PairedSample(baseline, treatment)) == pytest.approx(0.5)


def test_cohens_d_scale_invariance(rng):
    base = [rng.uniform(0, 10) for _ in range(12)]
    treat = [rng.uniform(0, 10) for _ in range(12)]
    d1 = cohens_d(PairedSample(base, treat))
    d2 = cohens_d(PairedSample([3.7 * b for b in base], [3.7 * t for t in treat]))
    assert d1 == pytest.approx(d2, rel=1e-9)


def test_cohens_d_zero_pooled_sd():
    with pytest.raises(UndefinedEffectError):
        cohens_d(PairedSample([2.0, 2.0, 2.0], [2.0, 2.0, 2.0]))


def test_paired_sample_validation():
    with pytest.raises(ConfigError):
        PairedSample([1.0], [1.0, 2.0])
    with pytest.raises(ConfigError):
        PairedSample([1.0, 2.0], [1.0, 2.0], keys=["a", "a"])


# -- sign test ----------------------------------------------------------------------


def test_sign_test_values():
    assert sign_test_one_sided(6, 0) == pytest.approx(1 / 64)
    assert sign_test_one_sided(5, 1) == pytest.approx(7 / 64)
    assert sign_test_one_sided(0, 0 + 6) == pytest.approx(1.0)
    with pytest.raises(InsufficientDataError):
        sign_test_one_sided(0, 0)


# -- summaries ------------------------------------------------------------------------


def record(arm="a", success=True, fitness=10.0, gen=5, eff=0.9, wall=0.5,
           created=2, surviving=1, effness=0.3, connectivity=0.0):
    return {
        "arm": arm,
        "connectivity": connectivity,
        "success": success,
        "best_fitness": fitness,
        "success_generation": gen if success else None,
        "path_efficiency": eff if success else None,
        "wall_clock_seconds": wall,
        "macros_created": created,
        "macros_surviving": surviving,
        "mean_macro_effectiveness": effness,
    }


def test_summarize_single_success():
    rows = summarize([record()], ["arm"])
    assert len(rows) == 1
    s = rows[0]
    assert s["success_rate"] == 1.0
    assert s["mean_best_fitness"] == 10.0
    assert s["mean_success_generation"] == 5
    assert s["mean_path_efficiency"] == 0.9


def test_summarize_mixed_group():
    rows = summarize(
        [record(gen=10), record(gen=20), record(success=False)], ["arm"]
    )
    s = rows[0]
    assert s["success_rate"] == pytest.approx(2 / 3)
    assert s["mean_success_generation"] == 15


def test_summarize_skips_null_success_only_values():
    # success-only means run over the successes whose value is not null
    bare = {**record(gen=7), "success_generation": None, "path_efficiency": None}
    rows = summarize([bare, record(gen=3, eff=0.5), record(success=False)], ["arm"])
    s = rows[0]
    assert (s["mean_success_generation"], s["mean_path_efficiency"]) == (3, 0.5)
    assert s["mean_best_fitness"] == 10.0  # over all three runs


def test_summary_table_renders():
    rows = summarize([record(), record(arm="b", success=False)], ["arm"])
    text = format_summary_table(rows, ["arm"])
    assert "succ%" in text.splitlines()[0]
    assert any("100.0" in line for line in text.splitlines())
    assert any(" - " in line or line.endswith("-") for line in text.splitlines())
