"""Structural O(1) checks for the oid part of Q.

A database's typing context reads oid classes through a view over the
object environment, so neither building a context nor binding a local
variable costs anything proportional to the store.
"""

import pytest

from repro.db.database import Database
from repro.db.store import ExtentEnv, ObjectEnv, ObjectRecord
from repro.lang.ast import IntLit, StrLit
from repro.model.types import INT, ClassType, SetType
from repro.typing.context import TypeContext

ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute int age;
}
"""

N = 10_000


@pytest.fixture(scope="module")
def big_db():
    """10k Persons installed by direct environment construction."""
    db = Database.from_odl(ODL)
    recs = {
        f"@Person_{i}": ObjectRecord(
            "Person", (("name", StrLit(f"p{i}")), ("age", IntLit(i % 90)))
        )
        for i in range(N)
    }
    db.ee = ExtentEnv({"Persons": ("Person", frozenset(recs))})
    db.oe = ObjectEnv(recs)
    db.supply._next = N
    return db


def test_extend_copies_only_local_bindings(big_db):
    inner = big_db.type_context().extend("x", INT)
    assert dict(inner.vars) == {"x": INT}
    assert inner.var_type("@Person_7") == ClassType("Person")
    assert inner.extend_many({"y": INT, "z": INT}).vars.keys() == {"x", "y", "z"}


def test_insert_then_typecheck_never_iterates_oe(big_db, monkeypatch):
    def refuse(self, *args):
        raise AssertionError("the object environment was iterated")

    monkeypatch.setattr(ObjectEnv, "items", refuse)
    monkeypatch.setattr(ObjectEnv, "oids", refuse)
    oid = big_db.insert("Person", name="Ada", age=36)
    ctx = big_db.type_context()
    assert ctx.var_type(oid.name) == ClassType("Person")
    assert big_db.typecheck(f"{oid.name}.age + 1") == INT
    assert big_db.typecheck("{ p.age | p <- Persons }") == SetType(INT)


def test_local_binding_shadows_an_oid():
    from repro.typing.context import OidTypes

    oe = ObjectEnv({"@P_0": ObjectRecord("Person", ())})
    ctx = TypeContext(Database.from_odl(ODL).schema, oids=OidTypes(oe))
    assert ctx.var_type("@P_0") == ClassType("Person")
    assert ctx.extend("@P_0", INT).var_type("@P_0") == INT
    assert ctx.has_var("@P_0") and not ctx.has_var("@P_1")
    assert OidTypes(oe).get("@P_1") is None
