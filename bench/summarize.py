"""Median, quartiles and spread of each metric over a set of runs.

    python3 bench/summarize.py bench/results/membership-*-trace0.json > summary.json

Reads the result files that run.py writes, groups them by workload and prints
one JSON object: per workload, the seeds and, per metric, the values, median,
first and third quartile (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median.
"""

import json
import statistics
import sys
from collections import defaultdict


def summarize(paths) -> dict:
    runs = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        runs[doc["info"]["workload"]].append(doc)
    out = {}
    for workload, docs in sorted(runs.items()):
        docs.sort(key=lambda d: d["info"]["seed"])
        entry = {"seeds": [d["info"]["seed"] for d in docs],
                 "correct": all(d["correct"] for d in docs),
                 "failed": sum(d["failed"] for d in docs),
                 "metrics": {}}
        for name, m in docs[0]["metrics"].items():
            values = [d["metrics"][name]["value"] for d in docs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
                else (values[0], None, values[0])
            entry["metrics"][name] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0, "values": values}
        out[workload] = entry
    return out


if __name__ == "__main__":
    print(json.dumps(summarize(sys.argv[1:]), indent=1))
