"""Pinned settings, workloads and metric names of the IUAD benchmark.

Importing this module imports neither Spark nor the program, so the command
line can be parsed before the environment points at the checkout.
"""
from __future__ import annotations

import os

#: Pinned measurement settings (also in README.md and each results line).
SETTINGS = {
    "master": f"local[{min(4, os.cpu_count() or 1)}]",
    "shuffle_partitions": 16,
    "driver_memory": "2g",
    "eta": 5,
    "delta": 0.0,
    "model_seed": 0,
    # The corpora and the held-out papers are pinned, as in
    # benchmarks/bench_config.py: across corpus seeds, 2,000 papers move
    # MicroF and the batch time far more than run-to-run noise does.
    "corpus_seed": 7,
    "testing_names": 50,
    # Papers carrying a testing name that are kept out of the model and
    # streamed through the judge.
    "held_out": 50,
    # The first run_iuad in a JVM is cold (code generation, class loading,
    # Python worker start-up) and takes more than its own data explain. Set-up
    # ends with one run on this small corpus, so the timed runs are warm. It
    # runs on one shuffle partition: with 16 it took 29-35 s, with one 21 s,
    # and the warm run after it took as long either way.
    "warmup_sf": 0.001,
    "warmup_shuffle_partitions": 1,
}


#: Workload name -> corpus scale factor. SCN and profiles run about 80 Spark
#: jobs whatever the corpus, so on little data fixed per-job overhead
#: dominates the batch time; the two sizes split it from the part that grows
#: with the data.
WORKLOADS = {"batch_1k": 0.005, "batch_2k": 0.01}

#: Passes the stream makes at least, four on each of four CPUs. Every pass
#: repeats the same papers on a fresh judge, and a paper's latency is its
#: fastest pass: on a shared host one pass of the same papers took from
#: 0.47 s to 0.93 s within 12 s, and passes rotated over the CPUs found the
#: fast ones.
MIN_PASSES = 16

END_TO_END = {
    "setup_s": "s", "batch_s": "s", "judge_ms_p50": "ms", "judge_ms_p99": "ms",
    "stream_papers_per_s": "1/s", "gcn_micro_f": "ratio", "stream_micro_f": "ratio",
    "driver_peak_rss_mb": "MB",
}
SPARK_LAYERS = ("text", "scn", "profiles", "similarity", "gcn")
_LAYER_STATS = {"wall_s": "s", "jobs": "count", "stages": "count", "task_s": "s",
                "shuffle_mb": "MB", "failed_tasks": "count"}
PER_LAYER = {
    **{f"{layer}.{k}": u for layer in SPARK_LAYERS for k, u in _LAYER_STATS.items()},
    "scn.scrs": "count", "scn.vertices_stable": "count",
    "scn.vertices_singleton": "count", "scn.edges": "count",
    "profiles.rows": "count",
    "similarity.pairs": "count", "similarity.max_pairs_per_name": "count",
    "similarity.zero_pairs": "count",
    "em.wall_s": "s", "em.sample_rows": "count", "em.synth_rows": "count",
    "em.iters": "count",
    "gcn.pairs_ge_delta": "count", "gcn.merge_ratio": "ratio", "gcn.vertices": "count",
    "gcn.partition_disagree_pairs": "count",
    "judge.from_model_s": "s", "judge.judge_s": "s", "judge.assimilate_s": "s",
    "judge.candidates_scored": "count", "judge.assigned": "count",
    "judge.new_vertices": "count", "judge.gc_s": "s",
    "trace.overhead_s": "s",
}
#: Counts the traced run must reproduce exactly.
TRACE_MUST_MATCH = ("scn.scrs", "scn.vertices_stable", "scn.vertices_singleton",
                    "scn.edges", "similarity.pairs")
