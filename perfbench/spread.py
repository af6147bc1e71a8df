"""Run-to-run spread of the benchmark over several workload seeds.

    python3 perfbench/spread.py --workloads referee-enum --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json

Runs ``run.py`` once per (workload, seed), one process at a time, with the
window and trace setting given, and prints for every metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the quartile distance
as a share of the median, next to a third of the metric's bound from
BENCHMARK.json, the steadiness target.  ``--out`` writes the same summary,
with every run's environment line, as JSON.
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


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        envs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            envs.append(json.loads(next(l for l in lines if l.startswith("env: "))[5:]))
            ok = ok and result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            rows[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                          "spread": share, "n": len(vals), "values": vals}
            target = f"target < {bound / 3:.4f}" if bound else ""
            print(f"  {name:50s} median {med:12.6g} {units[name]:8s} "
                  f"spread {share:8.4f} {target}")
        summary[workload] = {"metrics": rows, "env": envs}
    if args.out:
        args.out.write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                                        "trace": args.trace, "workloads": summary},
                                       indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
