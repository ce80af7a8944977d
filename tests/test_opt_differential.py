"""Differential testing of optimizer v2 against the big-step semantics.

A seeded generator produces hundreds of queries — filters, joins,
nested comprehensions, set operations, definition calls — over
adversarially skewed data, and every one is run on both the
cost-based compiled engine (stats-driven reordering, join selection,
adaptive replanning) and the §3 big-step evaluator.  The values must
be identical: the paper's bijection argument makes the two semantics
agree on every read-only query, so any divergence is an optimizer bug,
not a modelling choice.  The corpus deliberately includes queries whose
derived sources misestimate hard enough to force mid-query replans.
"""

import random

import pytest

from repro.db.database import Database
from repro.optimizer.cost import CostModel, cost_rules
from repro.optimizer.planner import _MAX_PASSES, Planner

from tests.conftest import EMPLOYEE_ODL

ODL = """
class Emp extends Object (extent Emps) {
    attribute string name;
    attribute int dept;
    attribute int salary;
}
class Dept extends Object (extent Depts) {
    attribute int id;
    attribute int grp;
}
class Tag extends Object (extent Tags) {
    attribute int n;
}
"""

N_QUERIES = 220


def build_db() -> Database:
    """Skewed: dept 0 holds ~70% of Emps, salaries cluster low."""
    db = Database.from_odl(ODL)
    rng = random.Random(1234)
    for i in range(50):
        dept = 0 if rng.random() < 0.7 else rng.randrange(1, 12)
        salary = rng.randrange(10) if rng.random() < 0.8 else rng.randrange(100)
        db.insert("Emp", name=f"e{i}", dept=dept, salary=salary)
    for i in range(15):
        db.insert("Dept", id=i, grp=i % 3)
    for i in range(6):
        db.insert("Tag", n=i)
    db.define("define hotdept() as { e | e <- Emps, e.dept = 0 };")
    db.define("define cheap(c: int) as { e | e <- Emps, e.salary < c };")
    return db


OPS = ["=", "<", "<=", ">", ">="]


def gen_query(rng: random.Random) -> str:
    kind = rng.randrange(10)
    dept_c = rng.randrange(12)
    sal_c = rng.randrange(100)
    op1 = rng.choice(OPS)
    op2 = rng.choice(OPS)
    if kind == 0:
        return f"{{ e.name | e <- Emps, e.dept {op1} {dept_c} }}"
    if kind == 1:
        # two filters in a random order: reordering bait
        preds = [f"e.dept {op1} {dept_c}", f"e.salary {op2} {sal_c}"]
        rng.shuffle(preds)
        return f"{{ e.salary | e <- Emps, {preds[0]}, {preds[1]} }}"
    if kind == 2:
        # equi-join, generator order randomized
        gens = ["e <- Emps", "d <- Depts"]
        rng.shuffle(gens)
        return (
            f"{{ struct(a: e.name, b: d.grp) | {gens[0]}, {gens[1]}, "
            f"e.dept = d.id }}"
        )
    if kind == 3:
        # three-way cross with a late selective filter
        return (
            f"{{ struct(a: e.salary, b: t.n) | e <- Emps, d <- Depts, "
            f"t <- Tags, e.dept = d.id, d.grp = {rng.randrange(3)}, "
            f"t.n {op1} {rng.randrange(6)} }}"
        )
    if kind == 4:
        # nested comprehension (unnest bait)
        return (
            f"{{ x | x <- {{ e.salary | e <- Emps, "
            f"e.dept {op1} {dept_c} }} }}"
        )
    if kind == 5:
        # defcall source: cardinality unknown at compile time, the
        # skew makes hotdept() a guaranteed misestimate (replan bait)
        return "{ s.salary | s <- hotdept() }"
    if kind == 6:
        return f"{{ s.name | s <- cheap({sal_c}) }}"
    if kind == 7:
        # setop source (survives unnesting; movable)
        return (
            "{ struct(a: s.dept, b: t.n) | s <- (Emps intersect "
            "(Emps intersect Emps)), t <- Tags }"
        )
    if kind == 8:
        return (
            f"(Emps intersect Emps) union "
            f"{{ e | e <- Emps, e.salary {op2} {sal_c} }}"
        )
    # correlated nested comp in the head
    return (
        f"{{ struct(d: d.id, team: {{ e.name | e <- Emps, "
        f"e.dept = d.id }}) | d <- Depts, d.grp {op1} {rng.randrange(3)} }}"
    )


def corpus():
    rng = random.Random(987)
    return [gen_query(rng) for _ in range(N_QUERIES)]


class TestDifferential:
    def test_corpus_is_large_enough(self):
        assert len(corpus()) >= 200

    def test_compiled_matches_bigstep_on_corpus(self):
        db = build_db()
        mismatches = []
        compiled_runs = 0
        for src in corpus():
            got = db.run(src, commit=False)
            want = db.run(src, commit=False, engine="bigstep")
            if got.value != want.value:
                mismatches.append(
                    (src, str(got.value)[:80], str(want.value)[:80])
                )
            if got.engine == "compiled":
                compiled_runs += 1
        assert not mismatches, mismatches[:3]
        # the corpus must actually exercise the optimized engine and
        # force at least one adaptive replan on the skewed sources
        assert compiled_runs >= N_QUERIES * 0.8
        assert db._qstats["replans"] >= 1

    def test_replanned_query_stays_deterministic(self):
        # the same replan-forcing query, repeated: every run (first,
        # replanned, cached) returns the same value as big-step
        db = build_db()
        src = "{ s.salary | s <- hotdept() }"
        want = db.run(src, commit=False, engine="bigstep").value
        for _ in range(3):
            assert db.run(src, commit=False).value == want
        assert db._qstats["replans"] == 1

    def test_corpus_under_growth_stays_correct(self):
        # grow the hot extent past the epoch threshold mid-corpus:
        # plans recompiled against the drifted catalog must still agree
        db = build_db()
        sample = corpus()[:40]
        for src in sample:
            assert (
                db.run(src, commit=False).value
                == db.run(src, commit=False, engine="bigstep").value
            )
        for i in range(150):
            db.insert("Emp", name=f"g{i}", dept=0, salary=i % 7)
        for src in sample:
            assert (
                db.run(src, commit=False).value
                == db.run(src, commit=False, engine="bigstep").value
            )


def planner_passes(db: Database, src: str) -> int:
    """Bottom-up rewrite passes the cost-based pipeline takes to reach a
    fixpoint on ``src`` (``_MAX_PASSES + 1`` when it never does)."""
    model = CostModel.from_database(db)
    ctx = db.type_context()
    planner = Planner(ctx, cost_rules(model))
    current = db.parse(src)
    for passes in range(1, _MAX_PASSES + 1):
        rewritten = planner._pass(ctx, current)
        if rewritten == current:
            return passes
        current = rewritten
    return _MAX_PASSES + 1


class TestConvergence:
    """Two pure predicates sharing a slot once swapped places on every
    pass, so the planner only stopped at its pass limit."""

    def test_every_corpus_query_reaches_a_fixpoint(self):
        db = build_db()
        stuck = [
            src for src in corpus() if planner_passes(db, src) >= _MAX_PASSES
        ]
        assert not stuck, stuck[:3]

    def test_hr_join_reaches_a_fixpoint(self):
        db = Database.from_odl(EMPLOYEE_ODL)
        manager = db.insert(
            "Manager", name="m", age=50, address="a", level=1
        )
        db.insert(
            "Employee", name="e", age=40, address="a", EmpID=1,
            GrossSalary=4000, UniqueManager=manager,
        )
        src = (
            "{ struct(e: e.name, m: m.name) | e <- Employees, m <- Managers, "
            "e.UniqueManager == m, m.level = 1, e.age > 30 }"
        )
        assert planner_passes(db, src) < _MAX_PASSES
