#!/usr/bin/env python3
"""Says which records of a BENCH_*.json moved beyond their recorded spread.

    python3 scripts/bench_diff.py OLD.json NEW.json

Both files are bench_util outputs: {"bench", "env", "records": [...]}, each
record a flat object with a "name". A timing metric `<p>_seconds` has a
spread when the record also holds `<p>_iqr_seconds`, the interquartile range
of the same calls. For each record present in both files, each timing
metric whose spread is recorded on both sides is reported as

    moved           the medians differ by more than the two half-IQRs
                    together, i.e. the two quartile boxes, centred on their
                    medians, do not overlap;
    within spread   otherwise.

A record without a single `_iqr_seconds` field, on either side, is reported
as "no spread recorded": its change can be neither confirmed nor dismissed,
so it is never counted as a pass. Records in only one file are listed as
added or removed. The `env` blocks are printed side by side when they differ.

Report mode: the exit code is 0 whatever moved; 2 means the input could not
be read. Standard library only.
"""

import json
import sys

IQR_SUFFIX = "_iqr_seconds"
SECONDS_SUFFIX = "_seconds"


def load(path):
    with open(path) as f:
        doc = json.load(f)
    records = doc.get("records")
    if not isinstance(records, list):
        raise ValueError(f"{path}: no records list")
    by_name = {}
    for rec in records:
        if not isinstance(rec, dict) or "name" not in rec:
            raise ValueError(f"{path}: record without a name")
        by_name[rec["name"]] = rec
    return doc.get("env", {}), by_name


def timed_metrics(rec):
    """The `<p>_seconds` keys of a record that have an `<p>_iqr_seconds`."""
    return [key for key in rec
            if key.endswith(SECONDS_SUFFIX) and not key.endswith(IQR_SUFFIX)
            and key[:-len(SECONDS_SUFFIX)] + IQR_SUFFIX in rec]


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(old, new):
    """Returns (verdict, [(metric, old, new, verdict)]) for one record pair.

    verdict is "moved", "within spread" or "no spread recorded"."""
    keys = [k for k in timed_metrics(old) if k in timed_metrics(new)]
    rows = []
    for key in keys:
        iqr = key[:-len(SECONDS_SUFFIX)] + IQR_SUFFIX
        values = (old[key], new[key], old[iqr], new[iqr])
        if not all(is_number(v) for v in values):
            continue
        old_m, new_m, old_iqr, new_iqr = values
        moved = abs(new_m - old_m) > (old_iqr + new_iqr) / 2.0
        rows.append((key, old_m, new_m, "moved" if moved else "within spread"))
    if not rows:
        return "no spread recorded", rows
    verdict = ("moved" if any(r[3] == "moved" for r in rows)
               else "within spread")
    return verdict, rows


def diff(old_path, new_path, out=sys.stdout):
    """Prints the report; returns the verdict counts."""
    old_env, old = load(old_path)
    new_env, new = load(new_path)
    if old_env != new_env:
        print(f"env: {json.dumps(old_env)} -> {json.dumps(new_env)}", file=out)
    counts = {}
    for name in list(old) + [n for n in new if n not in old]:
        if name not in new:
            verdict, rows = "removed", []
        elif name not in old:
            verdict, rows = "added", []
        else:
            verdict, rows = compare(old[name], new[name])
        counts[verdict] = counts.get(verdict, 0) + 1
        print(f"{name}: {verdict}", file=out)
        for key, old_m, new_m, row_verdict in rows:
            change = (new_m - old_m) / old_m * 100.0 if old_m else float("inf")
            print(f"  {key} {old_m:.6g} -> {new_m:.6g} ({change:+.1f} %) "
                  f"{row_verdict}", file=out)
    summary = ", ".join(f"{n} {v}" for v, n in sorted(counts.items()))
    print(f"summary: {summary}", file=out)
    return counts


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    try:
        diff(argv[1], argv[2])
    except (OSError, ValueError) as err:
        print(f"bench_diff: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
