"""Statistics over benchmark records: paired significance tests, effect
sizes, and grouped summary tables."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, InsufficientDataError, UndefinedEffectError

# Largest sample for which the signed-rank null distribution is computed
# exactly; beyond this the normal approximation takes over.
EXACT_WILCOXON_MAX_N = 25


@dataclass
class PairedSample:
    baseline: list[float]
    treatment: list[float]
    keys: list | None = None

    def __post_init__(self):
        if len(self.baseline) != len(self.treatment):
            raise ConfigError(
                f"paired samples must have equal length, got "
                f"{len(self.baseline)} and {len(self.treatment)}"
            )
        if self.keys is not None:
            if len(self.keys) != len(self.baseline):
                raise ConfigError("pairing keys must match the sample length")
            if len(set(self.keys)) != len(self.keys):
                raise ConfigError("pairing keys must be unique")

    def differences(self) -> list[float]:
        return [t - b for b, t in zip(self.baseline, self.treatment)]


def _average_ranks(values: list[float]) -> list[float]:
    """Ranks of the values (1-based), ties sharing their average rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def wilcoxon_signed_rank(paired: PairedSample) -> tuple[float, float]:
    """Two-sided signed-rank test on paired differences.

    Zero differences are dropped; tied magnitudes get average ranks.  The
    statistic is min(W+, W-).  For n <= 25 the p-value is exact, computed
    from the full null distribution of the positive rank sum (doubled
    ranks stay integral under averaging, so a subset-sum count suffices);
    larger n uses the normal approximation with continuity and tie
    corrections.
    """
    diffs = [d for d in paired.differences() if d != 0]
    n = len(diffs)
    if n < 5:
        raise InsufficientDataError(
            f"need at least 5 nonzero paired differences, got {n}"
        )
    ranks = _average_ranks([abs(d) for d in diffs])
    w_plus = sum(r for d, r in zip(diffs, ranks) if d > 0)
    total = n * (n + 1) / 2
    w_minus = total - w_plus
    stat = min(w_plus, w_minus)

    if n <= EXACT_WILCOXON_MAX_N:
        doubled = [round(2 * r) for r in ranks]
        s2 = sum(doubled)
        counts = {0: 1}
        for r2 in doubled:
            nxt: dict[int, int] = {}
            for s, c in counts.items():
                nxt[s] = nxt.get(s, 0) + c
                nxt[s + r2] = nxt.get(s + r2, 0) + c
            counts = nxt
        w2 = round(2 * stat)
        hits = sum(c for s, c in counts.items() if s <= w2 or s >= s2 - w2)
        p = min(1.0, hits / 2**n)
        return stat, p

    seen: dict[float, int] = {}
    for d in diffs:
        seen[abs(d)] = seen.get(abs(d), 0) + 1
    tie_sizes = [c for c in seen.values() if c > 1]
    mean = n * (n + 1) / 4
    var = n * (n + 1) * (2 * n + 1) / 24 - sum(t**3 - t for t in tie_sizes) / 48
    z = (stat - mean + 0.5) / math.sqrt(var)
    return stat, min(1.0, 2 * _normal_cdf(z))


def cohens_d(paired: PairedSample) -> float:
    """Standardized mean difference with the two-group pooled SD."""
    import statistics

    b, t = paired.baseline, paired.treatment
    if len(b) < 2:
        raise UndefinedEffectError("need at least 2 pairs for an effect size")
    var_b = statistics.variance(b)
    var_t = statistics.variance(t)
    pooled = math.sqrt((var_b + var_t) / 2)
    if pooled == 0:
        raise UndefinedEffectError("zero pooled standard deviation")
    return (statistics.fmean(t) - statistics.fmean(b)) / pooled


def sign_test_one_sided(n_positive: int, n_negative: int) -> float:
    """P(X >= n_positive) for X ~ Binomial(n_positive + n_negative, 1/2)."""
    n = n_positive + n_negative
    if n == 0:
        raise InsufficientDataError("sign test needs at least one nonzero difference")
    return sum(math.comb(n, k) for k in range(n_positive, n + 1)) / 2**n


# The summary's columns after group, runs and succ%, one row each:
# (header, summary key, record field, format, success only).  A success-
# only field is averaged over the successful runs, its nulls skipped;
# every other field over all runs.  A mean over no values is None,
# printed "-".
COLUMNS = (
    ("fitness", "mean_best_fitness", "best_fitness", "{:.1f}", False),
    ("gen", "mean_success_generation", "success_generation", "{:.1f}", True),
    ("patheff", "mean_path_efficiency", "path_efficiency", "{:.3f}", True),
    ("macros", "mean_macros_created", "macros_created", "{:.1f}", False),
    ("surv", "mean_macros_surviving", "macros_surviving", "{:.1f}", False),
    ("eff", "mean_macro_effectiveness", "mean_macro_effectiveness", "{:.3f}", False),
    ("time_s", "mean_wall_clock_seconds", "wall_clock_seconds", "{:.2f}", False),
)

# The record fields summarize reads besides the group keys, with the type
# of their values; only a success-only field may be null.
RECORD_FIELDS = {
    "success": "bool",
    **{field: "float | None" if only else "float" for _, _, field, _, only in COLUMNS},
}


def summarize(rows: list[dict], keys: list[str]) -> list[dict]:
    """Aggregate run records per group of equal key values: the keys,
    runs, success_rate and the mean of each column's field."""
    import statistics

    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in keys), []).append(row)

    out = []
    for key in sorted(groups, key=lambda k: tuple(str(v) for v in k)):
        members = groups[key]
        successes = [r for r in members if r["success"]]
        summary = dict(zip(keys, key), runs=len(members), success_rate=len(successes) / len(members))
        for _, name, field, _, only in COLUMNS:
            if only:
                values = [r[field] for r in successes if r[field] is not None]
            else:
                values = [r[field] for r in members]
            summary[name] = statistics.fmean(values) if values else None
        out.append(summary)
    return out


def format_summary_table(summaries: list[dict], keys: list[str]) -> str:
    """Fixed-width text rendering of summarize() output."""
    table = [["group", "runs", "succ%", *(header for header, *_ in COLUMNS)]]
    for s in summaries:
        table.append([
            "/".join(str(s[k]) for k in keys),
            str(s["runs"]),
            f"{100 * s['success_rate']:.1f}",
            *("-" if s[name] is None else spec.format(s[name]) for _, name, _, spec, _ in COLUMNS),
        ])
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    lines = []
    for r, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
