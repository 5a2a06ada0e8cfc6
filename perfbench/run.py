"""IUAD benchmark: one workload in one fresh process, from one seed.

    python3 perfbench/run.py --workload batch_2k --seed 1 --seconds 4 --trace 0

Run from the repository root. Each workload's corpus and held-out papers
are generated from a pinned corpus seed; the stream order comes from
``--seed``. The program only sees the generated inputs. Every metric is
printed as ``name = value unit``; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). Runs and spans are appended under ``perfbench/out/``. See
``perfbench/README.md`` for the workloads, the pinned settings and which
layer metric should move which end-to-end metric.
"""
import time

T0 = time.perf_counter()  # process start, for setup_s

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from config import END_TO_END, PER_LAYER, SETTINGS, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare_environment() -> Path:
    """Point imports, Spark and temporary files at the checkout. Exits when
    the program's sources are missing."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {src}")
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    # spark-submit first runs a launcher JVM; keep its files in the checkout
    # too (the driver JVM gets the same options in bench.start_spark).
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-Djava.io.tmpdir={tmp} -XX:+PerfDisableSharedMem"
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    return tmp


def main(argv=None) -> int:
    args = parse_args(argv)
    tmp = prepare_environment()
    import bench

    sf = WORKLOADS[args.workload]
    res = bench.run(sf, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                    t0=T0, tmp=tmp)
    tally = res["tally"]
    # A traced run whose layer hooks did not all fire has failed its check
    # and lacks their metrics; they read 0.
    m = {k: res["metrics"].get(k, 0) for k in {**END_TO_END, **PER_LAYER}}
    shown = {**END_TO_END, **(PER_LAYER if args.trace else {})}
    for k, unit in shown.items():
        print(f"{k} = {m[k]:.6g} {unit}")
    print(f"failed_frac = {tally.failed / max(1, tally.attempted):.6g} "
          f"({tally.failed}/{tally.attempted})")
    for k, v in res["extra"].items():
        print(f"{k} = {v}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "settings": SETTINGS,
        "sf": sf,
        "attempted": tally.attempted, "failed": tally.failed, "metrics": m,
        "extra": res["extra"], "time": time.time(),
    }
    with open(OUT / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    if res["spans"]:
        with open(OUT / f"spans-{args.workload}-{args.seed}.json", "w") as f:
            json.dump(res["spans"], f, indent=1)
    wanted = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": m[k], "unit": u} for k, u in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
