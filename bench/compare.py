"""Compare two sets of runs: ``python3 -m bench.compare A.json B.json``.

Each file is a ``results.json`` written by ``python3 -m bench.run --runs K``
(``A`` is the base, usually the parent commit).  One row per workload x
end-to-end metric: both medians with quartiles, the ratio with its base,
and a verdict against the bound the metric fixed in ``bench/metrics.py``:

``worse``       B's median is worse than A's by more than the bound
``unresolved``  the run-to-run spread of either side is wider than the
                bound, and not every run of B reads better than every
                run of A
``ok``          otherwise

The rows that must repeat exactly (``sim_cycles_total``,
``sim_gflops_swe``, ``peac_instrs``) are ``changed`` unless every run of
both sides agrees.  Exit code 1 if any row is ``worse`` or ``changed``.
"""

from __future__ import annotations

import json
import sys

from .harness import median, quartiles
from .metrics import END_TO_END, WORKLOADS

EXACT = ("sim_cycles_total", "sim_gflops_swe", "peac_instrs")


def load(path: str) -> dict:
    """workload -> {"end_to_end": {metric: [values]}, "named": {...}}."""
    with open(path) as f:
        records = json.load(f)["records"]
    untraced = [r for r in records if not r["trace"]]
    out: dict = {}
    for record in untraced or records:
        sets = out.setdefault(record["workload"],
                              {"end_to_end": {}, "named": {}})
        for block in ("end_to_end", "named"):
            for name, value in record[block].items():
                sets[block].setdefault(name, []).append(value)
    return out


def verdict(a: list, b: list, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = median(a)
    worsening = sign * (median(b) - base) / base
    if worsening > bound:
        return "worse"
    spread = max((q3 - q1) / median(v)
                 for v in (a, b) for q1, q3 in [quartiles(v)])
    every_b_better = (max(b) < min(a) if better == "lower"
                      else min(b) > max(a))
    if spread > bound and not every_b_better:
        return "unresolved"
    return "ok"


def _cell(values: list) -> str:
    q1, q3 = quartiles(values)
    return f"{median(values):.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def compare(a: dict, b: dict) -> tuple[list[tuple], bool]:
    rows = []
    bad = False
    for workload, _why in WORKLOADS:
        if workload not in a or workload not in b:
            continue
        for name, _unit, better, bound in END_TO_END:
            va = a[workload]["end_to_end"][name]
            vb = b[workload]["end_to_end"][name]
            result = verdict(va, vb, better, bound)
            bad |= result == "worse"
            rows.append((workload, name, _cell(va), _cell(vb),
                         f"{median(vb) / median(va):.3f} of {median(va):.4g}",
                         f"{result} (bound {bound:.0%}, {better} is better)"))
        for name in EXACT:
            va = a[workload]["named"].get(name)
            vb = b[workload]["named"].get(name)
            if va is None or vb is None:
                continue
            same = len(set(va) | set(vb)) == 1
            bad |= not same
            rows.append((workload, name, f"{va[0]:.6g}", f"{vb[0]:.6g}",
                         f"{vb[0] / va[0]:.3f} of {va[0]:.6g}",
                         "ok (exact)" if same else "changed"))
    return rows, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    rows, bad = compare(load(argv[0]), load(argv[1]))
    header = ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
              "ratio B/A of base", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
