"""Explain equals run: every plan rendering describes the cached plan.

``run()`` executes the plan ``plan_decision(q).plan`` caches.  The
shell's ``.explain`` lists that plan's operator description,
``explain_analyze`` overlays a profiled run's counts on it, and
``explain_cost`` projects it into a TD2-style report.  This module
checks, over the optimizer differential corpus, the traverse
differential shapes and the sharded/unsharded twins, that all three
agree with the cached plan on operator kinds, labels and estimated
rows, on the plan notes, and on the order of extent accesses.
"""

from __future__ import annotations

import random

import pytest

from repro.db.database import Database
from repro.lang.ast import Gen
from repro.shell import Shell

from tests.conftest import EMPLOYEE_ODL
from tests.test_exec_replan import ODL as REPLAN_ODL
from tests.test_exec_sharded import QUERIES as SHARD_QUERIES
from tests.test_exec_sharded import make_pair
from tests.test_opt_differential import build_db, corpus
from tests.test_traverse_differential import (
    DEPTHS,
    SHAPES,
    pick_start,
    query_src,
)
from tests.traverse_helpers import graph_db

_OPERATOR = "operator       : "
_NOTE = "plan note      : "


def _lines(text: str, prefix: str) -> list[str]:
    return [
        line[len(prefix):] for line in text.splitlines()
        if line.startswith(prefix)
    ]


def _accesses(ops) -> list[tuple]:
    return [
        (
            op.extra["var"], op.extra["extent"],
            op.extra["shards"], op.extra["pruned"],
        )
        for op in ops
        if "extent" in op.extra
    ]


def assert_parity(db: Database, src: str) -> None:
    """Run ``src``, then hold every rendering to the cached plan."""
    from repro.obs.profile import describe_ops

    db.run(src, commit=False)
    decision = db.plan_decision(src)
    explain = Shell(db).handle(f".explain {src}")
    profile = db.explain_analyze(src)
    report = db.explain_cost(src)
    assert report.engine == profile.engine == decision.engine, src

    plan = decision.plan
    if plan is None:
        assert _lines(explain, _OPERATOR) == []
        assert profile.nodes == [] and report.accesses == []
        return
    # .explain lists the cached plan's operators and notes
    assert _lines(explain, _OPERATOR) == describe_ops(plan.ops), src
    assert _lines(explain, _NOTE) == list(plan.notes), src
    # explain_analyze overlays actual counts on the same description
    assert profile.summary["plan"] == "cached", src
    assert [(n.kind, n.label, n.est_rows) for n in profile.nodes] == [
        (op.kind, op.label, op.est_rows) for op in plan.ops
    ], src
    assert profile.summary["plan_notes"] == list(plan.notes), src
    # explain_cost projects it: accesses in plan order, its filters,
    # one merge per comprehension, its notes
    assert [
        (a.var, a.extent, a.shards_accessed, a.pruned)
        for a in report.accesses
    ] == _accesses(plan.ops), src
    assert [f"filter {p.pred}" for p in report.predicates] == [
        op.label for op in plan.ops if op.kind == "filter"
    ], src
    assert [(m.comp, m.est_rows_moved) for m in report.merges] == [
        (op.label, op.est_rows) for op in plan.ops if op.kind == "comp"
    ], src
    assert report.notes == list(plan.notes), src
    assert report.est_cost == profile.est_cost == plan.ops[0].extra["est_cost"]


# -- the two defects the single plan path removed -------------------------


def hr_store(n: int = 200) -> Database:
    """An HR store with ``Employee`` sharded ``k=4 by EmpID``."""
    db = Database.from_odl(EMPLOYEE_ODL)
    db.shard("Employee", k=4, by="EmpID")
    managers = [
        db.insert("Manager", name=f"mgr{i}", age=40 + i, address="a",
                  level=i % 4)
        for i in range(4)
    ]
    for i in range(n):
        db.insert(
            "Employee", name=f"emp{i}", age=20 + i % 45, address="a",
            EmpID=i, GrossSalary=3000 + i, UniqueManager=managers[i % 4],
        )
    return db


class TestMotivation:
    def test_analyze_profiles_the_shard_pruned_plan(self):
        db = hr_store()
        src = "{ e.name | e <- Employees, e.EmpID = 17 }"
        notes = db.plan_decision(src).plan.notes
        assert any(n.startswith("shard-prune: index probe") for n in notes)
        profile = db.explain_analyze(src)
        assert profile.summary["plan_notes"] == list(notes)
        (probe,) = db.explain_cost(src).accesses
        assert probe.pruned and probe.shards_accessed == 1
        assert_parity(db, src)

    def test_cost_report_prices_the_join_order_run_uses(self):
        db = hr_store()
        src = (
            "{ struct(e: e.name, m: m.name) | e <- Employees, "
            "m <- Managers }"
        )
        source = db.plan_decision(src).plan.source
        run_order = [g.var for g in source.qualifiers if isinstance(g, Gen)]
        assert run_order == ["m", "e"]
        assert [a.var for a in db.explain_cost(src).accesses] == run_order
        assert_parity(db, src)


    def test_analyze_after_an_order_changing_replan_describes_what_ran(self):
        # the replan's observed-cardinality override moved Tinys outward
        # in the cached plan; a fresh profiled build, costed without it,
        # keeps the other order, so its counters cannot overlay the
        # cached description and the profile says so
        db = Database.from_odl(REPLAN_ODL)
        for i in range(60):
            db.insert("Employee", name=f"e{i}", dept=i)
        for i in range(12):
            db.insert("Tiny", n=i)
        src = (
            "{ struct(a: s.name, b: t.n) | s <- (Employees intersect "
            "(Employees intersect (Employees intersect Employees))), "
            "t <- Tinys }"
        )
        db.run(src, commit=False)
        assert db._qstats["replans"] == 1
        profile = db.explain_analyze(src)
        assert profile.summary["plan"].startswith("rebuilt")
        notes = profile.summary["plan_notes"]
        assert not any(n.startswith("replan:") for n in notes)
        assert profile.value == db.run(src, engine="bigstep").value


# -- the differential corpora ---------------------------------------------


def test_opt_corpus_parity():
    db = build_db()
    for src in corpus():
        assert_parity(db, src)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_traverse_shapes_parity(shape):
    for seed in range(3):
        rng = random.Random(f"{shape}-{seed}")
        edges = SHAPES[shape](rng)
        db = graph_db(edges)
        for depth in DEPTHS:
            source, _ = pick_start(rng, edges)
            assert_parity(db, query_src(source, depth))
            assert_parity(db, f"{{ y | y <- {query_src(source, depth)} }}")


@pytest.mark.parametrize("twin", ("sharded", "unsharded"))
def test_sharded_twins_parity(twin):
    sharded, plain = make_pair()
    db = sharded if twin == "sharded" else plain
    for src in SHARD_QUERIES + ["{ p.name | p <- Persons, p.age > 3 }"]:
        assert_parity(db, src)
