#!/usr/bin/env python3
"""Summarize the run records in benchmark/results/runs/.

    python3 benchmark/summarize.py [--out benchmark/results/baseline.json]

Prints, per workload, the median and quartiles of every end-to-end
metric, quality figure and raw wall-clock figure over the untraced runs,
and the per-module metrics and span table of the traced runs (median
over runs), as Markdown. With --out it also writes the same numbers as JSON.
"""
import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

RUNS_DIR = Path(__file__).resolve().parent / "results" / "runs"


def spread(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "runs": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def summarize(records):
    by_key = defaultdict(list)
    for rec in records:
        by_key[(rec["workload"], rec["trace"])].append(rec)
    out = {}
    for (workload, trace), recs in sorted(by_key.items()):
        entry = out.setdefault(workload, {})
        metrics = {}
        for name, m in recs[0]["result"]["metrics"].items():
            metrics[name] = {"unit": m["unit"],
                             **spread([r["result"]["metrics"][name]["value"] for r in recs])}
        if trace:
            entry["per_layer"] = metrics
            entry["spans"] = {
                name: {k: statistics.median(r["spans"][name][k] for r in recs if name in r["spans"])
                       for k in ("calls", "self_s", "total_s")}
                for name in recs[0]["spans"]
            }
        else:
            entry["end_to_end"] = metrics
            entry["wall_clock"] = {name: spread([r["wall_clock"][name] for r in recs])
                                   for name in recs[0]["wall_clock"]}
            entry["quality"] = {name: spread([r["quality"][name] for r in recs])
                                for name in recs[0]["quality"]}
            entry["seeds"] = sorted(r["environment"]["seed"] for r in recs)
            entry["environment"] = {k: v for k, v in recs[0]["environment"].items() if k != "seed"}
    return out


def markdown(summary):
    env = next(e["environment"] for e in summary.values() if "environment" in e)
    lines = [
        "# ikdamp benchmark results\n",
        "Environment: " + ", ".join(f"{k} {v}" for k, v in env.items()) + ".\n",
        "End-to-end times are in reference units (benchmark/speed.py); the "
        "wall-clock rows are the same runs, unscaled. Per-module times are "
        "wall-clock.\n",
    ]
    for workload, entry in summary.items():
        lines.append(f"## {workload}\n")
        if "end_to_end" in entry:
            lines.append(f"Untraced runs, seeds {entry['seeds']}.\n")
            lines.append("| metric | median | q1 | q3 | unit |")
            lines.append("|---|---|---|---|---|")
            rows = {**entry["end_to_end"], **entry["quality"],
                    **{f"wall-clock {k}": {**v, "unit": entry["end_to_end"][k]["unit"]}
                       for k, v in entry["wall_clock"].items()}}
            for name, m in rows.items():
                lines.append(f"| {name} | {m['median']:.4g} | {m['q1']:.4g} | {m['q3']:.4g} "
                             f"| {m.get('unit', '')} |")
            lines.append("")
        if "spans" in entry:
            ops, _, op_s = (entry["spans"]["op"][k] for k in ("calls", "self_s", "total_s"))
            lines.append(f"Traced run: {ops:.0f} ops, {1e3 * op_s / ops:.2f} ms per traced op.\n")
            lines.append("| span | calls/op | self us/call | share |")
            lines.append("|---|---|---|---|")
            rows = sorted(((s["self_s"], name, s["calls"]) for name, s in entry["spans"].items()
                           if name != "op"), reverse=True)
            for self_s, name, calls in rows:
                lines.append(f"| {name} | {calls / ops:.2f} | {1e6 * self_s / calls:.2f} "
                             f"| {self_s / op_s:.1%} |")
            lines.append("")
            lines.append("| per-module metric | value | unit |")
            lines.append("|---|---|---|")
            for name, m in entry["per_layer"].items():
                lines.append(f"| {name} | {m['median']:.4g} | {m['unit']} |")
            lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    records = [json.loads(p.read_text()) for p in sorted(RUNS_DIR.glob("*.json"))]
    if not records:
        parser.error(f"no run records in {RUNS_DIR}")
    summary = summarize(records)
    print(markdown(summary))
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
