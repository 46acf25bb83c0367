"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/prove.py --seeds 1-10 [--workloads train-xor-gan,gradcheck]
                               [--trace] [--out perfbench/_out/prove.json]
                               [--compare perfbench/_out/earlier.json]

Runs run.py once per workload and seed, one run at a time, with
BENCHMARK.json's run_seconds. For each end-to-end metric it prints the
median, the quartiles from statistics.quantiles(n=4), and the spread
(q3 - q1) / median next to the metric's bound. With --trace it runs the
traced variant and reports the median of each per-layer metric instead.
With --compare it also prints how far each median moved from the same
metric in an earlier --out report, in the metric's worse direction,
against its bound.
It also checks that BENCHMARK.json names exactly the metrics run.py prints.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable if c == "python3" else c for c in spec["command"]]
    cmd += ["--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(int(trace))]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    samples = json.loads(lines[-2])["samples"]
    environment = json.loads(lines[0])["environment"]
    return {"result": result, "samples": samples, "environment": environment, "wall_s": wall}


def check_names(spec: dict, result: dict, trace: bool) -> None:
    declared = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    printed = list(result["metrics"])
    if sorted(declared) != sorted(printed):
        raise SystemExit(f"BENCHMARK.json and run.py disagree: declared-only "
                         f"{sorted(set(declared) - set(printed))}, printed-only "
                         f"{sorted(set(printed) - set(declared))}")
    kind = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for name, value in result["metrics"].items():
        if value["unit"] != kind[name]:
            raise SystemExit(f"{name}: unit {value['unit']!r} printed, "
                             f"{kind[name]!r} declared")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower"
                    for m in spec["end_to_end"] + spec["per_layer"]}
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}

    report = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            run = run_once(spec, workload, seed, args.trace)
            check_names(spec, run["result"], args.trace)
            if not run["result"]["correct"]:
                raise SystemExit(f"{workload} seed {seed}: outputs failed their checks "
                                 f"({run['result']['failed']} of "
                                 f"{run['result']['attempted']})")
            runs.append(run)
            print(f"{workload} seed {seed}: {run['wall_s']:.1f} s", file=sys.stderr)
        report["environment"] = runs[0]["environment"]
        entry = {"run_wall_s": [round(r["wall_s"], 2) for r in runs],
                 "samples": [r["samples"] for r in runs], "metrics": {}}
        print(f"\n{workload} ({len(runs)} runs, mean wall "
              f"{statistics.mean(r['wall_s'] for r in runs):.1f} s)")
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            unit = runs[0]["result"]["metrics"][name]["unit"]
            median = statistics.median(values)
            row = {"unit": unit, "median": median, "values": values}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else 0.0
                row.update(q1=q1, q3=q3, spread=spread)
                bound = bounds.get(name) if not args.trace else None
                flag = ""
                if bound is not None:
                    row["bound"] = bound
                    ok = spread < bound / 3
                    steady &= ok
                    flag = "ok" if ok else "WIDE"
                before = earlier.get(workload, {}).get("metrics", {}).get(name, {}).get("median")
                if before:
                    worse = (median / before - 1) * (1 if lower_better[name] else -1)
                    row["worse_than_earlier"] = worse
                    steady &= bound is None or worse <= bound
                    flag += f"  worse than earlier {worse:+.4f}"
                    flag += " OVER" if bound is not None and worse > bound else ""
                print(f"  {name:40s} {median:12.6g} {unit:11s} spread {spread:7.4f}"
                      + (f"  bound {bound:<5}" if bound is not None else "") + f" {flag}")
            else:
                print(f"  {name:40s} {median:12.6g} {unit}")
            entry["metrics"][name] = row
        report["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    if not args.trace:
        print("\nsteady" if steady else "\nsome spreads exceed a third of their bound, "
              "or some medians moved by more than their bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
