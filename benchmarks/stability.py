"""Run-to-run stability of the end-to-end metrics, for setting and re-checking bounds.

    python3 benchmarks/stability.py --runs 10 --seconds 15 [--workload NAME ...]
        [--first-seed 1] [--output FILE] [--against FILE]

Runs ``run.py`` once per seed (``first-seed``, ``first-seed + 1``, ...) on
each workload, one run at a time, and reports per metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, next to the bound in BENCHMARK.json.  A spread above a
third of the bound is marked, as is any run that was not correct or whose
share of failed operations differs from the first run's.  Each run's
environment line (nproc, worker count, Python, numpy and scipy versions) is
kept in the JSON written with ``--output``.  ``--against`` names the output
of an earlier set: each median is then compared with that set's, and a move
in the worse direction by more than the bound is marked, as is a different
share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--output", default=None)
    parser.add_argument("--against", default=None, help="output of an earlier set to compare with")
    args = parser.parse_args(argv)
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    if args.runs < 4:
        parser.error("--runs must be >= 4 for quartiles")

    report = {}
    for workload in args.workload or names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            info, result = run_once(workload, seed, args.seconds)
            runs.append({"seed": seed, "info": info, "result": result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), file=sys.stderr)
        shares = {Fraction(r["result"]["failed"], r["result"]["attempted"]) for r in runs}
        metrics = {name: summarise([r["result"]["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["result"]["metrics"]}
        report[workload] = {"all_correct": all(r["result"]["correct"] for r in runs),
                            "failed_shares": sorted(str(s) for s in shares),
                            "metrics": metrics, "runs": runs}
        print(f"\n{workload}: correct {report[workload]['all_correct']}, "
              f"failed share {report[workload]['failed_shares']}")
        for name, m in metrics.items():
            bound = bounds.get(name)
            mark = "" if bound is None or m["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {name:15s} median {m['median']:12.6g}  q1 {m['q1']:12.6g}  q3 {m['q3']:12.6g}"
                  f"  spread {m['spread']:.4f}  bound {bound}{mark}")
            if workload in earlier and bound is not None:
                before = earlier[workload]["metrics"][name]["median"]
                worse = (m["median"] - before) / before * (1 if better[name] == "lower" else -1)
                flag = "  <-- worse than the bound" if worse > bound else ""
                print(f"  {'':15s} against {before:12.6g}: {worse:+.4f} worse{flag}")
        if workload in earlier and earlier[workload]["failed_shares"] != report[workload]["failed_shares"]:
            print(f"  failed share differs from the earlier set's {earlier[workload]['failed_shares']}")
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
