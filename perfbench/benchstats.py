"""Statistics and contract checks shared by run.py and ab.py."""

import json
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them.

    With one value all three are that value.
    """
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def worse_by(base, change, better):
    """How much worse `change` is than `base`, as a share of `base`.

    Negative when `change` is better.
    """
    if base == 0:
        return 0.0 if change == 0 else float("inf")
    delta = (change - base) / abs(base)
    return delta if better == "lower" else -delta


def win_fraction(base, change, better):
    """Share of pairs (base[i], change[i]) the change wins.

    Ties count for neither side but stay in the denominator.
    """
    if len(base) != len(change):
        raise ValueError("pairs must have equal length")
    if not base:
        return 0.0
    wins = 0
    for b, c in zip(base, change):
        if (c < b) if better == "lower" else (c > b):
            wins += 1
    return wins / len(base)


def valid_name(name):
    return isinstance(name, str) and bool(NAME_RE.match(name))


def valid_unit(unit):
    return isinstance(unit, str) and bool(UNIT_RE.match(unit))


def check_benchmark(spec):
    """Returns a list of problems with a parsed BENCHMARK.json (empty = ok)."""
    problems = []
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != want:
        problems.append("keys must be exactly %s" % sorted(want))
        return problems
    cmd = spec["command"]
    if (not isinstance(cmd, list) or not 1 <= len(cmd) <= 32
            or not all(isinstance(a, str) and len(a) <= 200 for a in cmd)):
        problems.append("command: 1..32 strings of at most 200 characters")
    paths = spec["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        problems.append("paths: 1..16 directories")
    else:
        for p in paths:
            if (not isinstance(p, str) or not PATH_RE.match(p)
                    or p.startswith("/") or ".." in p.split("/")):
                problems.append("bad path %r" % (p,))
    rs = spec["run_seconds"]
    if not isinstance(rs, int) or isinstance(rs, bool) or not 1 <= rs <= 60:
        problems.append("run_seconds: a whole number in 1..60")
    names = []
    wl = spec["workloads"]
    if not isinstance(wl, list) or not 2 <= len(wl) <= 8:
        problems.append("workloads: 2..8 entries")
    else:
        for w in wl:
            if not isinstance(w, dict) or set(w) != {"name", "why"}:
                problems.append("workload entries have exactly name and why")
                continue
            names.append(w["name"])
            why = w["why"]
            if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
                problems.append("why of %r: one line of 1..200 characters"
                                % (w["name"],))
    for key, lo, hi, fields in (("end_to_end", 1, 16,
                                 {"name", "unit", "better", "bound"}),
                                ("per_layer", 1, 128,
                                 {"name", "unit", "better"})):
        ms = spec[key]
        if not isinstance(ms, list) or not lo <= len(ms) <= hi:
            problems.append("%s: %d..%d metrics" % (key, lo, hi))
            continue
        for m in ms:
            if not isinstance(m, dict) or set(m) != fields:
                problems.append("%s entries have exactly %s" % (key, sorted(fields)))
                continue
            names.append(m["name"])
            if not valid_unit(m["unit"]):
                problems.append("bad unit %r" % (m["unit"],))
            if m["better"] not in ("lower", "higher"):
                problems.append("better of %r must be lower or higher"
                                % (m["name"],))
            if key == "end_to_end":
                b = m["bound"]
                if (not isinstance(b, (int, float)) or isinstance(b, bool)
                        or not 0 < b <= 0.25):
                    problems.append("bound of %r must be in (0, 0.25]"
                                    % (m["name"],))
    for n in names:
        if not valid_name(n):
            problems.append("bad name %r" % (n,))
    if len(names) != len(set(names)):
        problems.append("names must be unique")
    e2e = {m.get("name"): m for m in spec["end_to_end"] if isinstance(m, dict)}
    setup = e2e.get("setup_s")
    if not setup or setup.get("unit") != "s" or setup.get("better") != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    elif any(m.get("bound", 0) > setup.get("bound", 0) for m in e2e.values()):
        problems.append("setup_s must have the largest bound")
    if len(json.dumps(spec)) > 64 * 1024:
        problems.append("file larger than 64 KiB")
    return problems
