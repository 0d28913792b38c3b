"""Statistics and metric formatting of the benchmark (pure functions).

Kept apart from run.py so the rules can be unit-tested on their own
(perfbench/tests/test_stats.py):

* a timing is reported as its median plus the highest percentile that
  still has at least ``MIN_BEYOND`` samples beyond it, with the sample
  count;
* a ratio is reported together with its base;
* metric names are restricted to ``[A-Za-z0-9_.-]``.
"""

import math
import re
import statistics

MIN_BEYOND = 10
# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_name(name):
    """Returns `name` if it is a valid metric name, else raises ValueError."""
    if not isinstance(name, str) or not NAME_RE.match(name):
        raise ValueError("invalid metric name: %r" % (name,))
    return name


def rank(n, p):
    """1-based nearest-rank index of percentile `p` among `n` samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError("percentile out of (0, 100]: %r" % (p,))
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def beyond(n, p):
    """Samples strictly beyond the nearest-rank `p` percentile of `n`."""
    return n - rank(n, p)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def highest_percentile(n, min_beyond=MIN_BEYOND):
    """The highest candidate percentile with at least `min_beyond` samples
    beyond it, or None when even the median has too few."""
    for p in TAIL_PERCENTILES:
        if beyond(n, p) >= min_beyond:
            return p
    return None


def median(values):
    if not values:
        raise ValueError("no samples")
    return statistics.median(values)


def tail(values, p):
    """The `p` percentile of `values`, refused when fewer than MIN_BEYOND
    samples lie beyond it (the tail would then be a handful of outliers)."""
    n = len(values)
    best = highest_percentile(n)
    if best is None or p > best:
        raise ValueError(
            "p%g needs >= %d samples beyond it; %d samples allow at most %s"
            % (p, MIN_BEYOND, n, "p%g" % best if best else "nothing"))
    return percentile(values, p)


class Metric:
    """One reported figure: value, unit and how many samples it rests on.
    A ratio also carries its numerator and base."""

    def __init__(self, name, value, unit, n, num=None, base=None):
        self.name = check_name(name)
        self.value = float(value)
        self.unit = unit
        self.n = int(n)
        self.num = num
        self.base = base

    @classmethod
    def ratio(cls, name, num, base, unit="ratio"):
        value = num / base if base else 0.0
        return cls(name, value, unit, 1, num=num, base=base)

    def text(self):
        """Human-readable line, e.g. ``events_per_s  1.2e+05 1/s  (n=12)``."""
        line = "%-36s %-14.6g %-6s" % (self.name, self.value, self.unit)
        if self.base is not None:
            return line + "  (%.17g / base %.17g)" % (self.num, self.base)
        return line + "  (n=%d)" % self.n

    def json(self):
        return {"value": self.value, "unit": self.unit}
