"""The benchmark's store and the inputs every workload sends to it.

The schema is ``benchmarks/workloads.py::HR_ODL`` plus one
self-reference, ``Employee.mentor``, which forms a seeded forest (roots
mentor themselves) so the read mix can include a depth-bounded
``traverse``.  The store is installed by direct ``ObjectEnv`` /
``ExtentEnv`` construction, as ``benchmarks/workloads.py::ref_graph``
does, because building it through ``Database.insert`` is quadratic.

Every input is a pure function of ``(store size, seed)``: the query
texts, their parameters and the insert payloads are generated here,
before anything is timed, and the program only ever sees the generated
texts.  Each read template has a Python oracle that computes the
expected answer straight from an ``(EE, OE)`` pair, independently of
every evaluator in the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from workloads import HR_ODL

from repro.db.database import Database
from repro.db.store import ExtentEnv, ObjectEnv, ObjectRecord
from repro.lang.ast import IntLit, OidRef, StrLit

_MANAGER_ATTR = "attribute Manager UniqueManager;"
if _MANAGER_ATTR not in HR_ODL:
    raise RuntimeError("HR_ODL no longer declares Employee.UniqueManager")
ODL = HR_ODL.replace(
    _MANAGER_ATTR, _MANAGER_ATTR + "\n    attribute Employee mentor;"
)

#: one manager per this many objects; one forest root per this many employees
MANAGER_EVERY = 50
ROOT_EVERY = 100


@dataclass(frozen=True)
class Shape:
    """How many objects of each class a store of ``objects`` holds."""

    objects: int

    @property
    def managers(self) -> int:
        return max(1, self.objects // MANAGER_EVERY)

    @property
    def employees(self) -> int:
        return self.objects - self.managers

    @property
    def roots(self) -> int:
        return self.employees // ROOT_EVERY + 1


def load(objects: int, seed: int) -> Database:
    """A volatile database holding the seeded HR forest."""
    shape = Shape(objects)
    rng = random.Random(f"store:{objects}:{seed}")
    recs: dict[str, ObjectRecord] = {}
    managers = [f"@Manager_{i}" for i in range(shape.managers)]
    for i, oid in enumerate(managers):
        recs[oid] = ObjectRecord(
            "Manager",
            (
                ("name", StrLit(f"mgr{i}")),
                ("age", IntLit(rng.randrange(35, 65))),
                ("level", IntLit(rng.randrange(4))),
            ),
        )
    employees = [f"@Employee_{i}" for i in range(shape.employees)]
    for i, oid in enumerate(employees):
        mentor = oid if i < shape.roots else employees[rng.randrange(i)]
        recs[oid] = ObjectRecord(
            "Employee",
            (
                ("name", StrLit(f"emp{i}")),
                ("age", IntLit(rng.randrange(20, 65))),
                ("EmpID", IntLit(i)),
                ("GrossSalary", IntLit(rng.randrange(3000, 7000))),
                ("UniqueManager", OidRef(rng.choice(managers))),
                ("mentor", OidRef(mentor)),
            ),
        )
    db = Database.from_odl(ODL)
    db.oe = ObjectEnv(recs)
    db.ee = ExtentEnv(
        {
            "Persons": ("Person", frozenset()),
            "Managers": ("Manager", frozenset(managers)),
            "Employees": ("Employee", frozenset(employees)),
        }
    )
    db.supply.advance_to(objects)
    return db


# -- read templates ----------------------------------------------------------
# name -> query text for a parameter tuple


def text(template: str, params: tuple) -> str:
    if template == "point":
        return f"{{ e.name | e <- Employees, e.EmpID = {params[0]} }}"
    if template == "range":
        return f"{{ e.EmpID | e <- Employees, e.GrossSalary > {params[0]} }}"
    if template == "join":
        return (
            "{ struct(e: e.name, m: m.name) | e <- Employees, m <- Managers, "
            f"e.UniqueManager == m, m.level = {params[0]}, e.age > {params[1]} }}"
        )
    if template == "aggregate":
        return f"sum({{ e.GrossSalary | e <- Employees, e.age > {params[0]} }})"
    if template == "exists":
        return f"exists e in Employees : e.GrossSalary > {params[0]}"
    if template == "traverse":
        return (
            "{ x.EmpID | x <- traverse(s in { e | e <- Employees, "
            f"e.EmpID = {params[0]} }} over mentor depth <= {params[1]}) }}"
        )
    if template == "persons":
        return "size(Persons)"
    raise ValueError(f"unknown read template {template!r}")


def writer_text(manager: int) -> str:
    """A ``new``-containing comprehension over the fixed Managers extent
    that creates exactly one Person (manager names are unique)."""
    return (
        "{ new Person(name: m.name, age: m.age) | m <- Managers, "
        f'm.name = "mgr{manager}" }}'
    )


def param_domain(template: str, shape: Shape) -> list[tuple]:
    """Every parameter tuple a read template is run with.

    Point and traverse reads take their key from the whole EmpID range;
    the other templates have small domains that a workload deals from a
    shuffled deck, so every run sees nearly the same parameter mix.
    """
    if template in ("point", "traverse"):
        depths = (2, 3, 4) if template == "traverse" else (None,)
        return [
            (key,) if depth is None else (key, depth)
            for key in range(shape.employees) for depth in depths
        ]
    if template == "range":
        return [(t,) for t in range(6900, 6990, 10)]
    if template == "join":
        return [(level, age) for level in range(4) for age in range(58, 64)]
    if template == "aggregate":
        return [(age,) for age in range(56, 64)]
    if template == "exists":
        return [(t,) for t in range(6980, 7000, 2)]
    if template == "persons":
        return [()]
    raise ValueError(f"unknown read template {template!r}")


# -- oracles -----------------------------------------------------------------


def _rows(ee: ExtentEnv, oe: ObjectEnv, extent: str) -> list[tuple[str, dict]]:
    out = []
    for oid in ee.members(extent):
        rec = oe.get(oid)
        row = {}
        for a, v in rec.attrs:
            row[a] = v.name if isinstance(v, OidRef) else v.value
        out.append((oid, row))
    return out


def expected(template: str, params: tuple, ee: ExtentEnv, oe: ObjectEnv):
    """The answer of one read, computed in Python from ``(ee, oe)``."""
    if template == "persons":
        return len(ee.members("Persons"))
    emps = _rows(ee, oe, "Employees")
    if template == "point":
        return frozenset(r["name"] for _, r in emps if r["EmpID"] == params[0])
    if template == "range":
        return frozenset(r["EmpID"] for _, r in emps if r["GrossSalary"] > params[0])
    if template == "join":
        level, age = params
        mgrs = {
            oid: r["name"]
            for oid, r in _rows(ee, oe, "Managers")
            if r["level"] == level
        }
        return frozenset(
            (("e", r["name"]), ("m", mgrs[r["UniqueManager"]]))
            for _, r in emps
            if r["UniqueManager"] in mgrs and r["age"] > age
        )
    if template == "aggregate":
        # a set comprehension: equal salaries count once
        return sum({r["GrossSalary"] for _, r in emps if r["age"] > params[0]})
    if template == "exists":
        return any(r["GrossSalary"] > params[0] for _, r in emps)
    if template == "traverse":
        key, depth = params
        by_oid = dict(emps)
        seen = {oid for oid, r in emps if r["EmpID"] == key}
        frontier = set(seen)
        for _ in range(depth):
            frontier = {by_oid[o]["mentor"] for o in frontier} - seen
            seen |= frontier
        return frozenset(by_oid[o]["EmpID"] for o in seen)
    raise ValueError(f"unknown read template {template!r}")


def canonical(value):
    """A Python value from ``repro.lang.values.from_value`` in a form
    comparable with :func:`expected`: records become sorted item tuples
    and every collection a frozenset (the benchmark's reads return sets)."""
    if isinstance(value, dict):
        return tuple(sorted((k, canonical(v)) for k, v in value.items()))
    if isinstance(value, (frozenset, set, tuple, list)):
        return frozenset(canonical(v) for v in value)
    return value
