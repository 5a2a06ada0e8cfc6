"""One benchmark run: set-up, the measured window and the output checks.

Imports Spark and the program, so it is imported only after ``run.py`` has
pointed the environment at the checkout.
"""
from __future__ import annotations

import gc
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pandas as pd
from pyspark import SparkContext
from pyspark.sql import SparkSession

from checks import disagreeing_pairs, gcn_problems, micro_f, occurrences, scn_counts
from config import MIN_PASSES, SETTINGS, TRACE_MUST_MATCH
from layers import Tracer, traced_iuad
from repro.core.incremental import IncrementalJudge
from repro.core.pipeline import run_iuad
from repro.dblp.generator import Corpus, author_paper_pairs, generate
from repro.dblp.testing import testing_set


def start_spark(tmp: Path) -> SparkSession:
    spark = (
        SparkSession.builder.master(SETTINGS["master"]).appName("perfbench")
        .config("spark.driver.memory", SETTINGS["driver_memory"])
        .config("spark.driver.host", "127.0.0.1")
        # No JVM performance-data file under /tmp: the benchmark writes only
        # inside its checkout.
        .config("spark.driver.extraJavaOptions",
                f"-Djava.io.tmpdir={tmp} -XX:+PerfDisableSharedMem")
        .config("spark.local.dir", str(tmp))
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        # The per-layer counters are read from the status store after a run.
        .config("spark.ui.retainedJobs", 100000)
        .config("spark.ui.retainedStages", 100000)
        .config("spark.sql.shuffle.partitions", SETTINGS["shuffle_partitions"])
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark: SparkSession) -> None:
    """Stop Spark and wait until the JVM it launched has exited."""
    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        proc.wait(timeout=60)
    SparkContext._gateway = SparkContext._jvm = None


class Tally:
    """Operations attempted and failed; a failure prints its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"CHECK FAILED [{what}]: {p}", file=sys.stderr)


class GCClock:
    """Seconds the cyclic garbage collector runs while it is installed in
    ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Bench:
    """The inputs of one workload, a live Spark session, and what the runs
    and stream passes have measured so far."""

    def __init__(self, sf: float, seed: int, tmp: Path) -> None:
        self.tally = Tally()
        corpus = generate(sf=sf, seed=SETTINGS["corpus_seed"])
        papers = corpus.papers
        names = testing_set(papers, n_names=SETTINGS["testing_names"]).name.tolist()
        self.nameset = set(names)
        occ = author_paper_pairs(papers)
        self.truth = occ[occ.name.isin(self.nameset)].reset_index(drop=True)
        test_pids = sorted(self.truth.paper_id.unique().tolist())
        held = set(np.random.default_rng(SETTINGS["corpus_seed"]).choice(
            test_pids, size=min(SETTINGS["held_out"], len(test_pids)), replace=False).tolist())
        # --seed draws the row order of the batch input and the order in
        # which held-out papers arrive; the corpus itself is pinned.
        rng = np.random.default_rng(seed)
        base = papers[~papers.paper_id.isin(held)]
        base = base.iloc[rng.permutation(len(base))].reset_index(drop=True)
        held_rows = papers[papers.paper_id.isin(held)]
        self.held = [
            {"paper_id": r.paper_id, "names": list(r.names), "title": r.title,
             "venue": r.venue, "year": r.year}
            for r in held_rows.iloc[rng.permutation(len(held_rows))].itertuples(index=False)
        ]
        self.occ = occurrences(base)
        self.reference: pd.DataFrame | None = None
        self.disagree: list[int] = []
        self.passes: list[dict] = []
        self.spans: list[dict] = []
        self.spark = start_spark(tmp)
        self.papers = Corpus(papers=base, authors=corpus.authors).to_spark(self.spark)

    # ---- batch -----------------------------------------------------------
    def warm_up(self) -> None:
        """One checked run_iuad on the small pinned warm-up corpus."""
        small = generate(sf=SETTINGS["warmup_sf"], seed=SETTINGS["corpus_seed"])
        conf = self.spark.conf
        conf.set("spark.sql.shuffle.partitions", SETTINGS["warmup_shuffle_partitions"])
        try:
            model = run_iuad(self.spark, small.to_spark(self.spark), eta=SETTINGS["eta"],
                             delta=SETTINGS["delta"], seed=SETTINGS["model_seed"])
            asg = model.gcn.assignments.select("paper_id", "name", "gcn_vertex").toPandas()
        finally:
            conf.set("spark.sql.shuffle.partitions", SETTINGS["shuffle_partitions"])
        self.tally.record("warm-up run", gcn_problems(asg, occurrences(small.papers)))

    def iuad(self, what: str, *, counts: bool = False):
        """One untraced run_iuad with its GCN assignments collected, then
        checked. Returns (model, assignments, seconds, counts); ``counts``
        adds the SCN and pair counts a traced run must reproduce."""
        t = time.perf_counter()
        model = run_iuad(self.spark, self.papers, eta=SETTINGS["eta"],
                         delta=SETTINGS["delta"], seed=SETTINGS["model_seed"])
        asg = model.gcn.assignments.select("paper_id", "name", "gcn_vertex").toPandas()
        secs = time.perf_counter() - t
        scn_asg = model.scn.assignments.select(
            "paper_id", "name", "vertex_id", "stable").toPandas()
        found, problems = scn_counts(scn_asg)
        problems += gcn_problems(asg, self.occ)
        if counts:
            found["scn.scrs"] = model.scn.scrs.count()
            found["scn.edges"] = model.scn.edges.count()
            found["similarity.pairs"] = model.pairs.count()
        self.compare_partition(asg)
        self.tally.record(what, problems)
        return model, asg, secs, found

    def compare_partition(self, asg: pd.DataFrame) -> None:
        """Disagreement with this process's first run on the same input."""
        if self.reference is None:
            self.reference = asg
        else:
            self.disagree.append(disagreeing_pairs(self.reference, asg))

    # ---- judge -----------------------------------------------------------
    def stream(self, judge: IncrementalJudge, seconds: float) -> None:
        """The judge stream. Closed loop, one client: a paper's names are
        judged and assimilated in turn, and the next paper starts when the
        last is done. Passes over the held-out papers repeat in the same
        order, each on a fresh judge, until ``seconds`` are spent and
        MIN_PASSES made. Pass i runs on CPU i mod N of the N the process may
        use: on a shared host some CPUs run slower than others at any moment,
        and which ones changes from second to second."""
        profiles = [p for ps in judge.by_name.values() for p in ps]
        cpus = sorted(os.sched_getaffinity(0))
        spent, made = 0.0, 0
        try:
            while spent < seconds or made < MIN_PASSES:
                os.sched_setaffinity(0, {cpus[made % len(cpus)]})
                fresh = IncrementalJudge(profiles, judge.stats, judge.params,
                                         delta=judge.delta)
                res = self._judge_pass(fresh)
                if self.passes and res["final"] != self.passes[0]["final"]:
                    self.tally.record("stream pass", ["a repeated pass judged differently"])
                self.passes.append(res)
                spent += res["wall"]
                made += 1
        finally:
            os.sched_setaffinity(0, cpus)

    def _judge_pass(self, judge: IncrementalJudge) -> dict:
        lat, final = [], {}
        judge_s = assim_s = 0.0
        cands = assigned = 0
        clock = GCClock()
        gc.callbacks.append(clock)
        t_pass = time.perf_counter()
        for paper in self.held:
            t0 = time.perf_counter()
            for nm in paper["names"]:
                cands += len(judge.by_name.get(nm, ()))
                t1 = time.perf_counter()
                vid, _ = judge.judge(paper, nm)
                t2 = time.perf_counter()
                final[(paper["paper_id"], nm)] = judge.assimilate(paper, nm, vid)
                judge_s += t2 - t1
                assim_s += time.perf_counter() - t2
                assigned += vid is not None
            lat.append(time.perf_counter() - t0)
        wall = time.perf_counter() - t_pass
        gc.callbacks.remove(clock)
        for paper in self.held:
            self.tally.record("judge", [
                f"paper {paper['paper_id']} {nm!r} ended in no vertex of that name"
                for nm in paper["names"]
                if not any(c.vertex_id == final[(paper["paper_id"], nm)]
                           for c in judge.by_name.get(nm, ()))
            ])
        return {"lat": lat, "wall": wall, "final": final, "gc_s": clock.seconds,
                "judge.judge_s": judge_s, "judge.assimilate_s": assim_s,
                "judge.candidates_scored": cands, "judge.assigned": assigned,
                "judge.new_vertices": len(final) - assigned}

    def stream_metrics(self, asg: pd.DataFrame) -> dict:
        """A paper's latency is its fastest pass, and the pass figures are
        those of the fastest pass: the one on the CPU that the host's other
        work slowed least. The collector's time is the mean over all
        passes. ``asg`` is the GCN the judge was built from."""
        best_ms = [min(per_pass) * 1000 for per_pass in zip(*(p["lat"] for p in self.passes))]
        fastest = min(self.passes, key=lambda p: p["wall"])
        first = self.passes[0]
        extra = pd.DataFrame(
            [(pid, nm, v) for (pid, nm), v in first["final"].items() if nm in self.nameset],
            columns=["paper_id", "name", "gcn_vertex"],
        )
        return {
            "judge_ms_p50": statistics.median(best_ms),
            "judge_ms_p99": percentile(best_ms, 99),
            "stream_papers_per_s": len(self.held) / fastest["wall"],
            "stream_micro_f": micro_f(pd.concat([asg, extra], ignore_index=True), self.truth),
            "judge.judge_s": fastest["judge.judge_s"],
            "judge.assimilate_s": fastest["judge.assimilate_s"],
            "judge.gc_s": statistics.fmean(p["gc_s"] for p in self.passes),
            **{k: first[k] for k in ("judge.candidates_scored", "judge.assigned",
                                     "judge.new_vertices")},
        }

    # ---- traced run ------------------------------------------------------
    def trace_layers(self, untraced_s: float, untraced: dict, t0: float) -> dict:
        """The traced run: per-layer spans and counters, checked against
        the untraced run made just before it."""
        tracer = Tracer(self.spark, t0)
        asg, scn_asg, counts, problems = traced_iuad(
            self.spark, self.papers, tracer, eta=SETTINGS["eta"],
            delta=SETTINGS["delta"], seed=SETTINGS["model_seed"])
        self.spans = tracer.spans
        if not problems:
            scn_c, problems = scn_counts(scn_asg)
            counts.update(scn_c)
            problems += gcn_problems(asg, self.occ)
            problems += [f"traced {k}={counts[k]} but untraced {k}={untraced[k]}"
                         for k in TRACE_MUST_MATCH if counts[k] != untraced[k]]
            self.compare_partition(asg)
            counts["trace.overhead_s"] = tracer.wall("run_iuad") - untraced_s
        self.tally.record("traced run", problems)
        return counts


def run(sf: float, *, seed: int, seconds: float, trace: bool, t0: float,
        tmp: Path) -> dict:
    """Set up, measure and check one workload. Set-up ends with the warm-up
    run. The window then holds one warm run_iuad on the workload's corpus,
    IncrementalJudge.from_model on its model and the judge stream. The
    stream runs once Spark has stopped: the judge is pure Python, and the
    JVM's work after a run is not its own."""
    b = Bench(sf, seed, tmp)
    metrics: dict = {}
    try:
        b.warm_up()
        setup_s = time.perf_counter() - t0
        model, asg, batch_s, counts = b.iuad("batch run", counts=trace)
        t = time.perf_counter()
        judge = IncrementalJudge.from_model(model)
        metrics["judge.from_model_s"] = time.perf_counter() - t
        if trace:
            metrics.update(b.trace_layers(batch_s, counts, t0))
    finally:
        stop_spark(b.spark)
    b.stream(judge, seconds)
    metrics.update(b.stream_metrics(asg))
    metrics.update({
        "setup_s": setup_s,
        "batch_s": batch_s,
        "gcn_micro_f": micro_f(asg, b.truth),
        "gcn.partition_disagree_pairs": max(b.disagree, default=0),
        "driver_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    extra = {"stream_passes": len(b.passes), "held_out_papers": len(b.held),
             "stream_pass_s": [round(p["wall"], 4) for p in b.passes],
             "partition_disagree_pairs": b.disagree}
    return {"metrics": metrics, "extra": extra, "tally": b.tally, "spans": b.spans}
