"""Unit tests for the Database façade (repro.db.database)."""

import sys
import threading

import pytest

from repro.db.database import Database
from repro.db.recovery import recover
from repro.effects.algebra import Effect, add, read
from repro.errors import IOQLEffectError, IOQLTypeError
from repro.lang.ast import OidRef
from repro.model.types import INT, STRING, SetType
from repro.semantics.strategy import LAST

from tests.conftest import EMPLOYEE_ODL


class TestPopulation:
    def test_insert_returns_oid(self, empty_hr_db):
        oid = empty_hr_db.insert("Person", name="Ada", age=36, address="X")
        assert isinstance(oid, OidRef)
        assert oid.name in empty_hr_db.extent("Persons")

    def test_insert_checks_attribute_set(self, empty_hr_db):
        with pytest.raises(IOQLTypeError, match="exactly"):
            empty_hr_db.insert("Person", name="Ada")

    def test_insert_checks_types(self, empty_hr_db):
        with pytest.raises(IOQLTypeError):
            empty_hr_db.insert("Person", name=1, age=36, address="X")

    def test_insert_object_valued(self, empty_hr_db):
        boss = empty_hr_db.insert("Manager", name="G", age=1, address="Y", level=1)
        e = empty_hr_db.insert(
            "Employee",
            name="A", age=2, address="Z", EmpID=1, GrossSalary=3,
            UniqueManager=boss,
        )
        assert empty_hr_db.attr(e, "UniqueManager") == boss

    def test_attr_read(self, hr_db):
        (mgr,) = hr_db.extent("Managers")
        assert hr_db.attr(mgr, "name").value == "Grace"


class TestQueries:
    def test_simple_query(self, hr_db):
        r = hr_db.query("{ e.name | e <- Employees }")
        assert r.python() == frozenset({"Ada", "Edsger"})

    def test_path_expression(self, hr_db):
        r = hr_db.query("{ e.UniqueManager.name | e <- Employees }")
        assert r.python() == frozenset({"Grace"})

    def test_method_in_query(self, hr_db):
        r = hr_db.query("{ e.NetSalary(100) | e <- Employees }")
        assert r.python() == frozenset({4900, 4100})

    def test_select_sugar(self, hr_db):
        r = hr_db.query(
            "select struct(who: e.name, net: e.NetSalary(0)) "
            "from e in Employees where e.GrossSalary > 4500"
        )
        assert r.python() == frozenset() or r.python() == ({"who": "Ada", "net": 5000},)

    def test_typecheck_before_run(self, hr_db):
        with pytest.raises(IOQLTypeError):
            hr_db.run("1 + true")

    def test_commit_behaviour(self, hr_db):
        before = len(hr_db.extent("Persons"))
        hr_db.run('new Person(name: "N", age: 1, address: "A")')
        assert len(hr_db.extent("Persons")) == before + 1

    def test_no_commit(self, hr_db):
        before = len(hr_db.extent("Persons"))
        hr_db.run('new Person(name: "N", age: 1, address: "A")', commit=False)
        assert len(hr_db.extent("Persons")) == before

    def test_strategy_passthrough(self, hr_db):
        a = hr_db.run("{ e.EmpID | e <- Employees }", strategy=LAST)
        assert a.python() == frozenset({1, 2})


class TestDefinitions:
    def test_define_and_call(self, hr_db):
        hr_db.define(
            "define paid_more(limit: int) as "
            "{ e.name | e <- Employees, e.GrossSalary > limit };"
        )
        assert hr_db.query("paid_more(4500)").python() == frozenset({"Ada"})

    def test_define_records_latent_effect(self, hr_db):
        t = hr_db.define("define all_emps() as Employees;")
        assert t.effect == Effect.of(read("Employee"))

    def test_duplicate_define_rejected(self, hr_db):
        hr_db.define("define f(x: int) as x;")
        with pytest.raises(IOQLTypeError, match="already exists"):
            hr_db.define("define f(x: int) as x + 1;")

    def test_definitions_compose(self, hr_db):
        hr_db.define("define base() as 100;")
        hr_db.define("define doubled() as base() + base();")
        assert hr_db.query("doubled()").python() == 200


class TestStaticAnalysis:
    def test_typecheck(self, hr_db):
        assert hr_db.typecheck("{ e.EmpID | e <- Employees }") == SetType(INT)

    def test_effect_of(self, hr_db):
        assert hr_db.effect_of("Managers") == Effect.of(read("Manager"))

    def test_typecheck_with_effect(self, hr_db):
        t, e = hr_db.typecheck_with_effect(
            'new Person(name: "x", age: 1, address: "a")'
        )
        assert str(t) == "Person"
        assert e == Effect.of(add("Person"))

    def test_oids_typed_in_context(self, hr_db):
        (mgr,) = hr_db.extent("Managers")
        assert str(hr_db.typecheck(OidRef(mgr))) == "Manager"

    def test_is_deterministic_positive(self, hr_db):
        assert hr_db.is_deterministic("{ p.name | p <- Persons }")

    def test_is_deterministic_negative(self, hr_db):
        src = (
            "{ (if size(Persons) = 0 then 0 "
            "   else struct(a: 1, b: new Person(name: p.name, age: 0, address: p.address)).a) "
            "  | p <- Persons }"
        )
        assert not hr_db.is_deterministic(src)
        assert hr_db.determinism_witnesses(src)

    def test_commutation_conflicts(self, hr_db):
        src = (
            "Persons union "
            '{ struct(a: q, b: new Person(name: "x", age: 0, address: "y")).a | q <- Persons }'
        )
        assert hr_db.commutation_conflicts(src)
        with pytest.raises(IOQLEffectError):
            hr_db.check_commutable(src)

    def test_check_commutable_ok(self, hr_db):
        hr_db.check_commutable("Persons union Managers")


class TestSnapshots:
    def test_snapshot_restore(self, hr_db):
        snap = hr_db.snapshot()
        hr_db.run('new Person(name: "tmp", age: 0, address: "t")')
        hr_db.define("define junk() as 1;")
        hr_db.restore(snap)
        assert "junk" not in hr_db.definitions
        r = hr_db.query("{ p.name | p <- Persons }")
        assert "tmp" not in r.python()

    def test_restore_keeps_definitions_of_snapshot(self, hr_db):
        hr_db.define("define keep() as 7;")
        snap = hr_db.snapshot()
        hr_db.run('new Person(name: "x", age: 0, address: "t")')
        hr_db.restore(snap)
        assert hr_db.query("keep()").python() == 7


class TestExplore:
    def test_explore_does_not_commit(self, hr_db):
        before = len(hr_db.extent("Persons"))
        hr_db.explore('new Person(name: "e", age: 0, address: "t")')
        assert len(hr_db.extent("Persons")) == before

    def test_explore_deterministic_query(self, hr_db):
        ex = hr_db.explore("{ e.EmpID | e <- Employees }")
        assert ex.deterministic()


class TestOverlappedCommits:
    """Commits whose evaluations overlap never undo each other.

    Two writers evaluate against the same base EE/OE (a barrier holds
    both after evaluation), so whichever commits second does so against
    a state the first already replaced.  The merge install must keep
    both added objects — on an unsharded database too, and in the log
    as well as in memory — and a read-only statement must install
    nothing.
    """

    def _overlap_two_writers(self, db, monkeypatch):
        from repro.semantics import bigstep

        evaluate = bigstep.evaluate_bigstep
        both_evaluated = threading.Barrier(2)

        def evaluate_then_wait(*args, **kw):
            out = evaluate(*args, **kw)
            both_evaluated.wait(timeout=10)
            return out

        monkeypatch.setattr(bigstep, "evaluate_bigstep", evaluate_then_wait)
        errors = []

        def writer(i):
            try:
                db.run(
                    f'new Person(name: "w{i}", age: {30 + i}, address: "x")',
                    engine="bigstep",
                )
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert not errors

    def test_both_commits_survive_in_memory(self, hr_db, monkeypatch):
        self._overlap_two_writers(hr_db, monkeypatch)
        names = hr_db.query("{ p.name | p <- Persons }").python()
        assert names == {"w0", "w1"}

    def test_both_commits_survive_recovery(self, tmp_path, monkeypatch):
        d = str(tmp_path / "db")
        db = Database.open(d, EMPLOYEE_ODL)
        self._overlap_two_writers(db, monkeypatch)
        assert len(db.extent("Persons")) == 2
        expected = (db.ee, db.oe)
        db.close()
        got = recover(d, attach=False).db
        assert (got.ee, got.oe) == expected

    def test_overlapped_read_does_not_undo_a_write(self, hr_db, monkeypatch):
        from repro.semantics import bigstep

        evaluate = bigstep.evaluate_bigstep

        def evaluate_then_write(*args, **kw):
            out = evaluate(*args, **kw)
            monkeypatch.setattr(bigstep, "evaluate_bigstep", evaluate)
            # lands between the read's evaluation and its commit
            hr_db.insert("Person", name="w", age=1, address="x")
            return out

        monkeypatch.setattr(bigstep, "evaluate_bigstep", evaluate_then_write)
        assert hr_db.run("size(Persons)", engine="bigstep").python() == 0
        assert len(hr_db.extent("Persons")) == 1

    def test_many_threads_lose_no_write(self, empty_hr_db):
        db = empty_hr_db
        per_thread = 10
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work(t):
                for i in range(per_thread):
                    if i % 2:
                        db.insert("Person", name=f"t{t}i{i}", age=i, address="a")
                    else:
                        db.run(
                            f'new Person(name: "t{t}r{i}", age: {i}, address: "r")',
                            engine="bigstep",
                        )

            threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert len(db.extent("Persons")) == 8 * per_thread
