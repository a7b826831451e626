"""Run workloads over several seeds and print one row per workload.

    python3 perfbench/table.py                          # every workload, seed 0
    python3 perfbench/table.py --seeds 0-9              # ten seeds: medians and spreads
    python3 perfbench/table.py --trace 1 --seeds 0      # per-layer breakdown
    python3 perfbench/table.py --seeds 0-9 --write perfbench/baseline.json

Each (workload, seed) is one ``run.py`` process, run one at a time, for
``run_seconds`` from BENCHMARK.json.  The spread of a metric is
(q3 - q1) / median over the seeds, with quartiles from
``statistics.quantiles(values, n=4)``.  ``--write`` merges the medians,
spreads and the per-run environment into a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def tail(samples):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    pct = int(100 * (n - 10) / n)
    return {"percentile": pct, "value": statistics.quantiles(samples, n=100)[pct - 1], "n": n}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", default=None, help="merge the summary into this JSON file")
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS)
    seeds = parse_seeds(args.seeds)

    summary = {}
    for name in names:
        results = []
        for seed in seeds:
            result, record = run_one(name, seed, args.trace)
            results.append((seed, result, record))
            print(f"# {name} seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
            ) + f" failed={result['failed']}/{result['attempted']}", flush=True)
        metrics = {
            k: dict(summarize([r["metrics"][k]["value"] for _, r, _ in results]),
                    unit=m["unit"])
            for k, m in results[0][1]["metrics"].items()
        }
        attempted = sum(r["attempted"] for _, r, _ in results)
        failed = sum(r["failed"] for _, r, _ in results)
        pooled = [c for _, _, rec in results for op in rec["compute_s"] for c in op]
        summary[name] = {
            "seeds": seeds,
            "solve_s_tail": tail(pooled),
            "seconds": SECONDS,
            "failed_ratio": failed / attempted,
            "attempted": attempted,
            "metrics": metrics,
            "environment": [rec["environment"] for _, _, rec in results],
        }

    if args.trace:
        layer_names = list(summary[names[0]]["metrics"])
        print(f"{'per-layer metric (median)':34s}" + "".join(f"{n:>20s}" for n in names))
        for metric in layer_names:
            unit = summary[names[0]]["metrics"][metric]["unit"]
            print(f"{metric + ' [' + unit + ']':34s}" + "".join(
                f"{summary[n]['metrics'][metric]['median']:20.6g}" for n in names))
    else:
        order = list(summary[names[0]]["metrics"])
        header = ["workload"] + [
            f"{k} [{summary[names[0]]['metrics'][k]['unit']}]" for k in order
        ] + ["failed_ratio"]
        print("  ".join(f"{h:>22s}" for h in header))
        for n in names:
            m = summary[n]["metrics"]
            cells = [n] + [f"{m[k]['median']:.6g}" for k in order]
            cells.append(f"{summary[n]['failed_ratio']:.3g} of {summary[n]['attempted']}")
            print("  ".join(f"{c:>22s}" for c in cells))
        for n in names:
            t = summary[n]["solve_s_tail"]
            print(f"  {n}: solve_s p{t['percentile']} = {t['value']:.6g} s over {t['n']} samples"
                  if t else f"  {n}: too few solve_s samples for a tail percentile (need 11)")
        if len(seeds) > 1:
            print("spread (q3-q1)/median over seeds:")
            for n in names:
                m = summary[n]["metrics"]
                print(f"  {n:20s} " + "  ".join(f"{k}={m[k]['spread']:.4f}" for k in order))

    if args.write:
        path = Path(args.write)
        data = json.loads(path.read_text()) if path.exists() else {}
        key = "per_layer" if args.trace else "end_to_end"
        data.setdefault(key, {}).update(summary)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
