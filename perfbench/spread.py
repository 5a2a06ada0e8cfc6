"""Run one workload on several seeds and report each end-to-end metric's
median, quartiles and spread (quartile distance over the median).

    python3 perfbench/spread.py --workload batch_2k --seeds 1-10
    python3 perfbench/spread.py --workload batch_2k --seeds 1-10 --record "label"

Run from the repository root. Reads the command, run length, metrics and
bounds from BENCHMARK.json. ``--record`` appends the summary to
``perfbench/trajectory.jsonl``, the committed history of medians.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds_arg, required=True)
    p.add_argument("--record", metavar="LABEL")
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        t = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t
        if out.returncode != 0:
            print(out.stderr[-3000:], file=sys.stderr)
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            return 1
        res = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "wall_s": wall, **res})
        for k in values:
            values[k].append(res["metrics"][k]["value"])
        print(f"seed {seed}: {wall:.1f} s wall, correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']}", flush=True)
    summary = {}
    print(f"{'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, q2, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / q2
        summary[m["name"]] = {"median": q2, "q1": q1, "q3": q3, "spread": spread}
        flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
        print(f"{m['name']:22s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{m['bound']:6.3f}{flag}")
    print(f"wall per run: median {statistics.median(r['wall_s'] for r in runs):.1f} s, "
          f"max {max(r['wall_s'] for r in runs):.1f} s")
    if args.record:
        with open(ROOT / "perfbench" / "trajectory.jsonl", "a") as f:
            f.write(json.dumps({
                "label": args.record, "workload": args.workload, "seeds": args.seeds,
                "run_seconds": bench["run_seconds"], "summary": summary,
                "runs": [{k: r[k] for k in ("seed", "wall_s", "correct", "attempted",
                                            "failed")} for r in runs],
            }) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
