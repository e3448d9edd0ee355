"""Statistics and output format of the end-to-end benchmark.

Kept apart from run.py so that perfbench/test_stats.py can check them
without building anything.
"""

import json
import math
import re

# Metric names: a letter or digit, then letters, digits, '_', '.', '-'.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# Units: letters, digits, '_', '/', '%', '.', '-'.
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def check_metric_name(name):
    """Returns `name`, or raises ValueError if it breaks the charset."""
    if not isinstance(name, str) or not METRIC_NAME.match(name):
        raise ValueError("bad metric name: %r" % (name,))
    return name


def _rank(n, pct):
    """1-based nearest rank of the `pct` percentile among n samples. The
    rounding keeps 99.9% of 10000 at rank 9990 despite binary floats."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def samples_beyond(n, pct):
    """Samples strictly above the nearest-rank `pct` percentile of n."""
    return n - _rank(n, pct)


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError("percentile out of range: %r" % (pct,))
    return sorted(values)[_rank(len(values), pct) - 1]


def tail(values, pct):
    """The `pct` percentile, refusing one with fewer than MIN_BEYOND
    samples beyond it (such a tail is one or two outliers, not a
    percentile)."""
    beyond = samples_beyond(len(values), pct)
    if beyond < MIN_BEYOND:
        raise ValueError(
            "p%g of %d samples has %d beyond it, fewer than %d"
            % (pct, len(values), beyond, MIN_BEYOND))
    return percentile(values, pct)


def median(values):
    return percentile(values, 50)


def timing(values, tail_pct):
    """Median and fixed tail of one timing, with its sample count."""
    return {"p50": median(values), "tail": tail(values, tail_pct),
            "tail_pct": tail_pct, "samples": len(values),
            "beyond_tail": samples_beyond(len(values), tail_pct)}


def ratio(num, den):
    """A ratio that carries its base. A zero base gives value 0.0: the
    quantity was not exercised, which the base records."""
    num = float(num)
    den = float(den)
    return {"value": num / den if den else 0.0, "num": num, "den": den}


def span_summary(spans):
    """Per span name: count, total and self nanoseconds, and the total
    per operation id. A span's self time is its duration minus the part
    of it that its children cover."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    summary = {}
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        covered = 0
        cursor = start
        for child in sorted(children.get(span["id"], []),
                            key=lambda c: c["start_ns"]):
            lo = max(child["start_ns"], cursor)
            hi = min(child["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        entry = summary.setdefault(span["name"], {
            "count": 0, "total_ns": 0, "self_ns": 0, "by_op": {}})
        entry["count"] += 1
        entry["total_ns"] += end - start
        entry["self_ns"] += end - start - covered
        entry["by_op"][span["op"]] = (
            entry["by_op"].get(span["op"], 0) + end - start)
    return summary


def result_line(correct, attempted, failed, metrics):
    """The benchmark's last output line. `metrics` maps name ->
    (value, unit)."""
    if not isinstance(attempted, int) or attempted < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(failed, int) or not 0 <= failed <= attempted:
        raise ValueError("failed must be a whole number <= attempted")
    out = {}
    for name, (value, unit) in metrics.items():
        check_metric_name(name)
        if not UNIT.match(unit):
            raise ValueError("bad unit %r for %s" % (unit, name))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError("metric %s is not a finite number: %r"
                             % (name, value))
        out[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": bool(correct), "attempted": attempted,
                       "failed": failed, "metrics": out},
                      separators=(", ", ": "))


def parse_result_line(line):
    """Parses and validates a line produced by result_line."""
    data = json.loads(line)
    if not isinstance(data, dict) or tuple(sorted(data)) != tuple(
            sorted(RESULT_KEYS)):
        raise ValueError("result keys must be exactly %s" % (RESULT_KEYS,))
    if not isinstance(data["correct"], bool):
        raise ValueError("correct must be a boolean")
    metrics = {}
    for name, entry in data["metrics"].items():
        check_metric_name(name)
        if sorted(entry) != ["unit", "value"]:
            raise ValueError("metric %s must have exactly value and unit"
                             % name)
        metrics[name] = (entry["value"], entry["unit"])
    result_line(data["correct"], data["attempted"], data["failed"], metrics)
    return data
