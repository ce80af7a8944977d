"""The statement cache: each source is parsed and checked once.

A statement is what the front end concludes about one source — the
resolved query, its Figure 1 type and its Figure 3 effect.  Both
judgements are functions of the schema, the definitions and the
classes of the query's free oids, so the cache keys a statement on the
source and the definitions version and revalidates its free oids on
every hit.  Each guard has a case here that fails without it.
"""

import pytest

import repro.db.database as database_mod
import repro.lang.parser as parser_mod
from repro.db.database import Database
from repro.effects.algebra import Effect, add
from repro.effects.checker import EffectChecker
from repro.errors import IOQLTypeError
from repro.resilience.transactions import TransactionScope

from tests.test_opt_differential import build_db, corpus

ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute int age;
}
"""

READ = "{ p.name | p <- Persons, p.age > 30 }"


@pytest.fixture
def db():
    db = Database.from_odl(ODL)
    db.insert("Person", name="Ada", age=36)
    db.insert("Person", name="Alan", age=41)
    return db


def _stats(db):
    cache = db._plan_cache
    return cache.statement_hits, cache.statement_misses


@pytest.fixture
def front_end_calls(monkeypatch):
    """Count parse, Figure 1 and Figure 3 calls made through ``run``."""
    calls = {"parse": 0, "figure1": 0, "figure3": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    parse = counting("parse", parser_mod.parse_query)
    monkeypatch.setattr(parser_mod, "parse_query", parse)
    monkeypatch.setattr(database_mod, "parse_query", parse)
    monkeypatch.setattr(
        database_mod, "check_query",
        counting("figure1", database_mod.check_query),
    )
    monkeypatch.setattr(
        EffectChecker, "check_traced",
        counting("figure3", EffectChecker.check_traced),
    )
    return calls


class TestGuards:
    def test_rolled_back_oid_is_checked_again(self, db):
        # the per-statement rollback behind run(atomic=True) removes the
        # oid without touching the definitions: only the free-oid guard
        # can notice that the cached text no longer types
        scope = TransactionScope.capture(db, Effect.of(add("Person")))
        oid = db.insert("Person", name="Tmp", age=5)
        text = f"{oid.name}.name"
        assert db.run(text).python() == "Tmp"
        assert db.run(text).python() == "Tmp"
        scope.rollback(db)
        assert oid.name not in db.oe
        with pytest.raises(IOQLTypeError) as cached:
            db.run(text)
        fresh = Database.from_odl(ODL)
        with pytest.raises(IOQLTypeError) as uncached:
            fresh.run(text)
        assert str(cached.value) == str(uncached.value)

    def test_transaction_rollback_removes_oid(self, db):
        text = None
        with pytest.raises(RuntimeError):
            with db.transaction():
                oid = db.insert("Person", name="Tmp", age=5)
                text = f"{{ {oid.name}.age + p.age | p <- Persons }}"
                assert db.run(text).python() == {10, 41, 46}
                raise RuntimeError("abort")
        with pytest.raises(IOQLTypeError, match="unbound identifier"):
            db.run(text)

    def test_redefinition_changes_the_route(self, db):
        snap = db.snapshot()
        db.define("define people() as Persons;")
        text = "{ p.name | p <- people() }"
        assert db.plan_decision(text).engine == "compiled"
        db.run(text)
        assert db.plan_decision(text).engine == "compiled"
        # the same name, now with an A(Person) latent effect
        db.restore(snap)
        db.define(
            'define people() as '
            '{ new Person(name: "New", age: 1) | p <- Persons };'
        )
        decision = db.plan_decision(text)
        assert decision.engine == "reduction"
        assert decision.reason.startswith("write effects on {Person}")
        # a stale read-only effect would also let replication route
        # this writer to a replica
        assert decision.static_effect.adds() == {"Person"}
        assert db.run(text).engine == "reduction"

    def test_restore_checks_again(self, db, front_end_calls):
        snap = db.snapshot()
        db.run(READ)
        db.run(READ)
        assert front_end_calls["figure1"] == 1
        db.restore(snap)
        db.run(READ)
        assert front_end_calls["figure1"] == 2
        assert front_end_calls["figure3"] == 2

    def test_restore_before_an_oid_existed(self, db):
        snap = db.snapshot()
        oid = db.insert("Person", name="Late", age=9)
        text = f"{oid.name}.age"
        assert db.run(text).python() == 9
        db.restore(snap)
        with pytest.raises(IOQLTypeError, match="unbound identifier"):
            db.run(text)


class TestEdges:
    def test_ill_typed_text_raises_the_same_every_time(self, db):
        text = "{ p.name + 1 | p <- Persons }"
        errors = []
        for _ in range(2):
            with pytest.raises(IOQLTypeError) as info:
                db.run(text)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        assert db._plan_cache.statement_count() == 0

    def test_unchecked_run_never_writes_an_entry(self, db):
        db.run(READ, typecheck=False)
        assert db._plan_cache.statement_count() == 0
        db.run(READ)
        assert db._plan_cache.statement_count() == 1
        hits, _ = _stats(db)
        db.run(READ, typecheck=False)
        assert _stats(db)[0] == hits + 1

    def test_text_and_query_agree(self, db):
        q = db.parse(READ)
        by_text = db.run(READ).python()
        by_query = db.run(q).python()
        assert by_text == by_query == {"Ada", "Alan"}
        assert db.run(q).python() == by_text

    def test_warm_run_skips_the_front_end(self, db, front_end_calls):
        db.run(READ)
        cold = dict(front_end_calls)
        assert cold == {"parse": 1, "figure1": 1, "figure3": 1}
        for _ in range(3):
            db.run(READ)
        assert front_end_calls == cold

    def test_run_many_admission_hits(self, db):
        db.run_many([READ] * 5, workers=2)
        hits, misses = _stats(db)
        assert misses == 1
        assert hits >= 4
        values = db.run_many([READ] * 3, workers=2).values()
        assert values == [db.run(READ).value] * 3
        assert _stats(db)[1] == 1


def test_opt_corpus_cold_and_warm_agree():
    db = build_db()
    queries = corpus()
    cold = [db.run(src).value for src in queries]
    hits, _ = _stats(db)
    warm = [db.run(src).value for src in queries]
    assert warm == cold
    assert _stats(db)[0] - hits == len(queries)


def test_health_reports_statements(db):
    from repro import obs
    from repro.db import health
    from repro.obs.export import prometheus_text

    for _ in range(3):
        db.run(READ)
    h = db.health()
    assert h["statements"] == {
        "entries": 1, "hits": 2, "misses": 1, "hit_rate": 2 / 3,
    }
    assert "statements  entries=1 hit_rate=67% hits=2 misses=1" in (
        health.render(h)
    )
    obs.enable()
    try:
        obs.reset()
        db.health()
        text = prometheus_text()
    finally:
        obs.disable()
        obs.reset()
    assert "statement_cache_entries" in text
    assert "statement_cache_hit_rate" in text


def test_concurrent_lookups_lose_no_count(db):
    import sys
    import threading

    texts = [f"{{ p.name | p <- Persons, p.age > {k} }}" for k in range(6)]
    rounds, workers = 40, 8
    errors = []

    def reader():
        try:
            for _ in range(rounds):
                for text in texts:
                    db.run(text)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    hits, misses = _stats(db)
    assert hits + misses == rounds * workers * len(texts)
    assert db._plan_cache.statement_count() == len(texts)
