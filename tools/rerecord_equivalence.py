#!/usr/bin/env python3
"""Check that re-recorded JSON files moved only by the histogram format change.

    tools/rerecord_equivalence.py <parent-ref> [path ...]

For each path (default: every tracked `.json` file that differs from
<parent-ref>),
reads the parent's copy with `git show` and the working tree's copy, and
applies two edits to the parent's document:

  1. each histogram's `"buckets": [[index, count], ...]` is rewritten as the
     at-rest array: one count per bucket from the bucket of `min` to the
     bucket of `max`, zeros included (`[]` when `count` is 0);
  2. each `sum`, `sum_sq`, `min` or `max` of 2^53 or more is replaced by the
     working tree's digit string, which must be the canonical decimal of an
     integer that rounds to the parent's number.

The edited parent must then equal the working tree's document exactly: same
keys in the same order, same values. Prints one line per file and exits 1 if
any file differs in anything else, or is not JSON.
"""
import json
import subprocess
import sys

TWO_53 = 1 << 53
EXACT_KEYS = ("sum", "sum_sq", "min", "max")


def bucket_index(v):
    """`obs::metrics::bucket_index`: exact below 8, 8 sub-buckets per octave."""
    if v < 8:
        return v
    shift = v.bit_length() - 1 - 3
    return 8 + shift * 8 + ((v >> shift) & 7)


class Obj(list):
    """A JSON object as its `(key, value)` pairs, in document order."""


def load(text):
    return json.loads(text, object_pairs_hook=Obj)


def edit(old, new, stats):
    """`old` with the two edits applied, taking the exact integers from `new`."""
    if isinstance(old, Obj):
        fields = dict(old)
        theirs = dict(new) if isinstance(new, Obj) else {}
        histogram = "buckets" in fields and "count" in fields
        out = Obj()
        for key, value in old:
            if histogram and key == "buckets":
                value = dense(fields)
                stats["lists"] += 1
            elif histogram and key in EXACT_KEYS and value >= TWO_53:
                value = exact(value, theirs.get(key))
                stats["exact"] += 1
            else:
                value = edit(value, theirs.get(key), stats)
            out.append((key, value))
        return out
    if isinstance(old, list):
        items = new if isinstance(new, list) and len(new) == len(old) else [None] * len(old)
        return [edit(o, n, stats) for o, n in zip(old, items)]
    return old


def dense(fields):
    if fields["count"] == 0:
        return []
    first, last = bucket_index(fields["min"]), bucket_index(fields["max"])
    counts = [0] * (last - first + 1)
    for index, count in fields["buckets"]:
        counts[index - first] = count
    return counts


def exact(old, new):
    ok = (isinstance(new, str) and new.isdigit() and not new.startswith("0")
          and int(new) >= TWO_53 and float(int(new)) == float(old))
    if not ok:
        raise ValueError(f"{old!r} is not made exact: the new value is {new!r}")
    return new


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    ref, paths = sys.argv[1], sys.argv[2:]
    if not paths:
        paths = subprocess.run(["git", "diff", "--name-only", ref, "--", "*.json"],
                               check=True, capture_output=True, text=True).stdout.split()
    bad = 0
    for path in paths:
        try:
            old = load(subprocess.run(["git", "show", f"{ref}:{path}"], check=True,
                                      capture_output=True, text=True).stdout)
            with open(path) as f:
                new = load(f.read())
            stats = {"lists": 0, "exact": 0}
            same = edit(old, new, stats) == new
        except (ValueError, subprocess.CalledProcessError, OSError) as e:
            same, stats = False, {"lists": 0, "exact": 0, "error": str(e).strip()}
        bad += not same
        print(f"{'ok  ' if same else 'DIFF'} {path}: {stats['lists']} bucket lists made dense,"
              f" {stats['exact']} integers made exact" + (f" ({stats['error']})"
                                                          if "error" in stats else ""))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
