"""Summarizes benchmark verdict lines: median, quartiles and spread per metric.

Each input line is a verdict (the last line a run prints), optionally
preceded by a label and a space, e.g. a tree or workload name. Lines
are grouped by label; spread is (Q3 - Q1) / median, with quartiles as
Python's statistics.quantiles(values, n=4) gives them.

    python3 benchmark/summarize.py runs.txt [more.txt ...]
"""

import json
import statistics
import sys
from collections import defaultdict


def main(paths):
    groups = defaultdict(lambda: defaultdict(list))
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                label, _, rest = line.partition(" {")
                text = "{" + rest if rest else line
                label = label if rest else "-"
                verdict = json.loads(text)
                if not verdict["correct"]:
                    print(f"{label}: a run failed its output checks", file=sys.stderr)
                for name, metric in verdict["metrics"].items():
                    groups[label][name].append(metric["value"])
    for label, metrics in groups.items():
        for name, values in metrics.items():
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else float("nan")
            else:
                q1 = q3 = spread = float("nan")
            print(f"{label}\t{name}\tn={len(values)}\tmedian={median:.6g}\tq1={q1:.6g}\tq3={q3:.6g}\tspread={spread:.4f}")


if __name__ == "__main__":
    main(sys.argv[1:])
