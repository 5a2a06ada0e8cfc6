"""Output checks and quality figures for one benchmark run.

Everything here works on small pandas frames collected from a finished
``run_iuad`` / judge stream, so none of it is inside a timed region.
"""
from __future__ import annotations

import pandas as pd

from repro.eval.metrics import confusion_pandas


def occurrences(papers: pd.DataFrame) -> pd.DataFrame:
    """(paper_id, name): one row per slot in a co-author list."""
    occ = papers[["paper_id", "names"]].explode("names")
    return occ.rename(columns={"names": "name"}).reset_index(drop=True)


def _slot_counts(df: pd.DataFrame) -> pd.Series:
    return df.groupby(["paper_id", "name"]).size().sort_index()


def gcn_problems(asg: pd.DataFrame, occ: pd.DataFrame) -> list[str]:
    """Every (paper_id, name) occurrence gets exactly one GCN vertex, and
    every GCN vertex holds a single name. ``asg`` has paper_id, name,
    gcn_vertex."""
    problems = []
    if not _slot_counts(asg).equals(_slot_counts(occ)):
        problems.append(
            f"GCN assignments ({len(asg)} rows) are not one per occurrence "
            f"({len(occ)} occurrences)"
        )
    multi = asg.groupby("gcn_vertex")["name"].nunique()
    if (multi > 1).any():
        problems.append(f"{int((multi > 1).sum())} GCN vertices hold more than one name")
    return problems


def scn_counts(scn_asg: pd.DataFrame) -> tuple[dict, list[str]]:
    """SCN shape from its assignments (paper_id, name, vertex_id, stable),
    and whether stable plus singleton vertices make up every vertex."""
    vertices = scn_asg["vertex_id"].nunique()
    stable = scn_asg.loc[scn_asg["stable"], "vertex_id"].nunique()
    singleton = scn_asg.loc[~scn_asg["stable"], "vertex_id"].nunique()
    problems = []
    if stable + singleton != vertices:
        problems.append(
            f"SCN stable ({stable}) + singleton ({singleton}) vertices != {vertices}"
        )
    return {"scn.vertices_stable": stable, "scn.vertices_singleton": singleton}, problems


def _same_pairs(sizes: pd.Series) -> int:
    return int((sizes * (sizes - 1) // 2).sum())


def disagreeing_pairs(a: pd.DataFrame, b: pd.DataFrame) -> int:
    """Same-name occurrence pairs that one partition puts together and the
    other keeps apart. ``a`` and ``b``: paper_id, name, gcn_vertex over the
    same occurrences. GCN vertices never span names, so grouping by vertex
    already scopes pairs to one name."""
    m = a.merge(b, on=["paper_id", "name"], suffixes=("_a", "_b"))
    same_a = _same_pairs(m.groupby("gcn_vertex_a").size())
    same_b = _same_pairs(m.groupby("gcn_vertex_b").size())
    both = _same_pairs(m.groupby(["gcn_vertex_a", "gcn_vertex_b"]).size())
    return same_a + same_b - 2 * both


def micro_f(asg: pd.DataFrame, truth: pd.DataFrame) -> float:
    """Pairwise MicroF of a clustering (paper_id, name, gcn_vertex) on the
    labelled testing occurrences ``truth`` (paper_id, author_id, name)."""
    lab = asg.rename(columns={"gcn_vertex": "cluster"})[["paper_id", "name", "cluster"]]
    return confusion_pandas(lab.merge(truth, on=["paper_id", "name"])).micro_f
