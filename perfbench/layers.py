"""Per-layer tracing from outside the program.

``traced_iuad`` runs ``run_iuad`` itself. For the length of that run, each
layer function it looks up in its module is swapped for a wrapper that
records a span around the call (name, start, end, parent), runs it under
the span's own Spark job group and materializes the layer's output at its
boundary. So the traced run is the program's own pipeline, not a copy of
it. The jobs, stages, executor run time and shuffle bytes of a layer are
read back from Spark's status store once the run is over. Spans stay in
memory until the benchmark writes them out.
"""
from __future__ import annotations

import collections
import contextlib
import time

from pyspark.sql import functions as F

import repro.core.pipeline as pipeline
import repro.core.profiles as profiles
from config import SPARK_LAYERS
from repro.core.gammas import GAMMA_NAMES

_GROUP = "perfbench."


class Tracer:
    """Spans (name, start, end, parent), in seconds from ``t0``. Span names
    are unique within one traced run."""

    def __init__(self, spark, t0: float) -> None:
        self.sc = spark.sparkContext
        self.t0 = t0
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def begin(self, name: str) -> None:
        rec = {"name": name, "parent": self._stack[-1]["name"] if self._stack else None,
               "start": time.perf_counter() - self.t0, "end": None}
        self.spans.append(rec)
        self._stack.append(rec)
        self.sc.setJobGroup(_GROUP + name, name)

    def end(self, name: str) -> None:
        """Close span ``name`` and any span still open inside it."""
        while self._stack:
            rec = self._stack.pop()
            rec["end"] = time.perf_counter() - self.t0
            if rec["name"] == name:
                break
        if self._stack:
            self.sc.setJobGroup(_GROUP + self._stack[-1]["name"], self._stack[-1]["name"])
        else:
            self.sc.setLocalProperty("spark.jobGroup.id", None)

    @contextlib.contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end(name)

    def wall(self, name: str) -> float:
        rec = next(s for s in self.spans if s["name"] == name)
        return rec["end"] - rec["start"]

    def own_wall(self, name: str) -> float:
        """Wall time of span ``name`` less that of the spans inside it, to
        match its job group, which does not hold their jobs."""
        return self.wall(name) - sum(self.wall(s["name"]) for s in self.spans
                                     if s["parent"] == name)

    def spark_counters(self, name: str) -> dict:
        """jobs, stages that ran, task time, shuffle written and failed tasks
        of the jobs run under span ``name``'s job group."""
        tracker = self.sc.statusTracker()
        jobs = tracker.getJobIdsForGroup(_GROUP + name)
        stage_ids = set()
        for j in jobs:
            info = tracker.getJobInfo(j)
            if info is not None:
                stage_ids.update(info.stageIds)
        store = self.sc._jsc.sc().statusStore()
        jvm = self.sc._jvm
        no_status = jvm.java.util.ArrayList()
        no_quantiles = self.sc._gateway.new_array(jvm.double, 0)
        stages = task_ms = shuffle = failed = 0
        for sid in sorted(stage_ids):
            attempts = store.stageData(sid, False, no_status, False, no_quantiles)
            ran = False
            for i in range(attempts.size()):
                sd = attempts.apply(i)
                if sd.status().toString() == "SKIPPED":
                    continue
                ran = True
                task_ms += sd.executorRunTime()
                shuffle += sd.shuffleWriteBytes()
                failed += sd.numFailedTasks()
            stages += ran
        return {
            f"{name}.jobs": len(jobs),
            f"{name}.stages": stages,
            f"{name}.task_s": task_ms / 1000.0,
            f"{name}.shuffle_mb": shuffle / 2**20,
            f"{name}.failed_tasks": failed,
        }


@contextlib.contextmanager
def _swapped(module, **wrappers):
    """Replace module attributes for the length of the block."""
    saved = {k: getattr(module, k) for k in wrappers}
    for k, fn in wrappers.items():
        setattr(module, k, fn)
    try:
        yield
    finally:
        for k, fn in saved.items():
            setattr(module, k, fn)


def traced_iuad(spark, papers, tracer: Tracer, **iuad_args):
    """``run_iuad`` under spans. Returns the GCN and SCN assignments
    (pandas), the layer metrics, and a problem for each layer function that
    the run did not call exactly once (then its spans are not the run's)."""
    counts: dict = {"em.synth_rows": 0}
    out: dict = {}
    calls: collections.Counter = collections.Counter()
    orig = {k: getattr(pipeline, k) for k in (
        "build_scn", "build_profiles", "pair_similarities", "synthetic_matched_gammas",
        "fit_em", "score_pairs", "build_gcn")}
    orig["keywords"] = profiles.keywords

    def build_scn(*a, **k):
        calls["build_scn"] += 1
        with tracer.span("scn"):
            scn = orig["build_scn"](*a, **k)
            counts["scn.scrs"] = scn.scrs.count()
            scn.assignments.cache().count()  # build_profiles caches it too
            counts["scn.edges"] = scn.edges.count()
        return scn

    def keywords(*a, **k):
        calls["keywords"] += 1
        with tracer.span("text"):
            kw = orig["keywords"](*a, **k).cache()  # build_profiles caches it too
            kw.count()
        return kw

    def build_profiles(*a, **k):
        calls["build_profiles"] += 1
        with tracer.span("profiles"):
            ps = orig["build_profiles"](*a, **k)
            counts["profiles.rows"] = ps.profiles.count()
        return ps

    def pair_similarities(*a, **k):
        # run_iuad checkpoints the pairs lazily; here the checkpoint is made
        # at once, and run_iuad's own then reads from it. EM, which run_iuad
        # does inline, runs from here to the end of fit_em.
        calls["pair_similarities"] += 1
        with tracer.span("similarity"):
            pairs = orig["pair_similarities"](*a, **k).localCheckpoint(eager=True)
            counts["similarity.pairs"] = pairs.count()
        tracer.begin("em")
        return pairs

    def synthetic_matched_gammas(*a, **k):
        calls["synthetic_matched_gammas"] += 1
        synth = orig["synthetic_matched_gammas"](*a, **k)
        counts["em.synth_rows"] = len(synth)
        return synth

    def fit_em(X, *a, **k):
        calls["fit_em"] += 1
        params = orig["fit_em"](X, *a, **k)
        counts["em.sample_rows"] = len(X) - counts["em.synth_rows"]
        counts["em.iters"] = params.n_iter
        tracer.end("em")
        return params

    def score_pairs(*a, **k):
        calls["score_pairs"] += 1
        tracer.begin("gcn")
        return orig["score_pairs"](*a, **k)

    def build_gcn(*a, **k):
        calls["build_gcn"] += 1
        gcn = orig["build_gcn"](*a, **k)
        out["asg"] = gcn.assignments.select("paper_id", "name", "gcn_vertex").toPandas()
        tracer.end("gcn")
        return gcn

    with tracer.span("run_iuad"), \
            _swapped(profiles, keywords=keywords), \
            _swapped(pipeline, build_scn=build_scn, build_profiles=build_profiles,
                     pair_similarities=pair_similarities,
                     synthetic_matched_gammas=synthetic_matched_gammas,
                     fit_em=fit_em, score_pairs=score_pairs, build_gcn=build_gcn):
        model = pipeline.run_iuad(spark, papers, **iuad_args)
    problems = [f"the traced run_iuad called {k} {calls[k]} times, not once"
                for k in orig if calls[k] != 1]
    if problems:
        return None, None, counts, problems

    # Counts that need queries of their own, outside every span.
    pairs = model.pairs  # the scored pairs, cached by run_iuad
    with tracer.span("counts"):
        scn_asg = model.scn.assignments.select(
            "paper_id", "name", "vertex_id", "stable").toPandas()
        per_name = pairs.groupBy("name").count().agg(F.max("count")).first()[0]
        zero = F.lit(True)
        for g in GAMMA_NAMES:
            if g != "g3_interest":
                zero = zero & (F.col(g) == 0)
        counts["similarity.zero_pairs"] = pairs.where(zero).count()
        counts["gcn.pairs_ge_delta"] = pairs.where(F.col("score") >= model.delta).count()
    asg = out["asg"]
    counts["similarity.max_pairs_per_name"] = per_name or 0
    counts["gcn.merge_ratio"] = counts["gcn.pairs_ge_delta"] / max(1, counts["similarity.pairs"])
    counts["gcn.vertices"] = asg["gcn_vertex"].nunique()
    counts["em.wall_s"] = tracer.wall("em")
    for layer in SPARK_LAYERS:
        counts[f"{layer}.wall_s"] = tracer.own_wall(layer)
        counts.update(tracer.spark_counters(layer))
    for rec in tracer.spans:
        rec["counts"] = {k: v for k, v in counts.items() if k.startswith(rec["name"] + ".")}
    return asg, scn_asg, counts, []
