#!/usr/bin/env python3
"""Compare benchmark results measured under the same host stamp.

    python3 perfbench/compare.py BASE.json NEW.json [BASE2.json NEW2.json ...]

Each argument is a result file written by run.py to .bench_build/results/.
Files compare only when their stamps (host, build, thread and worker counts,
PDN3D_THREADS, PDN3D_HIER_TIER) agree in every field but the seed, and only
within one workload and trace mode; otherwise the script refuses (exit 2).
It prints each metric's value in both files and the change.
"""

import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    stamp = dict(doc["details"]["stamp"])
    stamp.pop("seed", None)
    key = (doc["details"]["workload"], doc["details"]["trace"])
    return key, stamp, doc["result"]["metrics"]


def main(paths):
    if len(paths) < 2 or len(paths) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    for base_path, new_path in zip(paths[::2], paths[1::2]):
        base_key, base_stamp, base = load(base_path)
        new_key, new_stamp, new = load(new_path)
        if base_key != new_key:
            print(f"refusing: {base_path} is {base_key}, {new_path} is {new_key}", file=sys.stderr)
            return 2
        if base_stamp != new_stamp:
            diff = {k: (base_stamp.get(k), new_stamp.get(k))
                    for k in sorted(set(base_stamp) | set(new_stamp))
                    if base_stamp.get(k) != new_stamp.get(k)}
            print(f"refusing: stamps differ: {diff}", file=sys.stderr)
            return 2
        print(f"{base_path} -> {new_path} ({base_key[0]}, trace {base_key[1]})")
        for name, m in base.items():
            b, n = m["value"], new.get(name, {}).get("value")
            change = f"{(n / b - 1) * 100:+.1f}%" if n is not None and b else "n/a"
            print(f"  {name:36s} {b:14.6g} {n if n is not None else float('nan'):14.6g}"
                  f" {m['unit']:6s} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
