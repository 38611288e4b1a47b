"""A workload's set-up: start the interpreter, import lefkit, write the input files.

The benchmark times this script several times per run and reports the
median as `setup_s`.

    python3 perfbench/setup_inputs.py WORKLOAD DIRECTORY
"""

from __future__ import annotations

import json
import os
import sys

# (k, weight): xk1(k) with the weight-`weight` orbit removed from its first block
INCONCLUSIVE_SEEDS = ((8, 0), (8, 1), (9, 2))
FULLNESS_K = 9


def fullness_seed_path(directory: str) -> str:
    return os.path.join(directory, f"xk1_{FULLNESS_K}.json")


def inconclusive_seed_path(directory: str, k: int, weight: int) -> str:
    return os.path.join(directory, f"xk1_{k}_without_weight_{weight}.json")


def write_inputs(lefkit, workload: str, directory: str):
    os.makedirs(directory, exist_ok=True)
    if workload == "fullness":
        with open(fullness_seed_path(directory), "w", encoding="utf-8") as fh:
            fh.write(lefkit.collection_to_json(lefkit.xk1(FULLNESS_K)))
    elif workload == "inconclusive":
        for k, weight in INCONCLUSIVE_SEEDS:
            first, second = lefkit.xk1(k).blocks
            points = [p for p in first.bundles() if sum(p) != weight]
            points += [lefkit.twist(p, 1) for p in second.bundles()]
            doc = {"k": k, "points": [lefkit.format_multidegree(p) for p in points]}
            with open(inconclusive_seed_path(directory, k, weight), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)


if __name__ == "__main__":
    import lefkit

    write_inputs(lefkit, sys.argv[1], sys.argv[2])
