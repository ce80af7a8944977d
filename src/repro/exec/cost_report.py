"""A TD2-style distributed cost report for one query, without running it.

TD2 (the SIGMOD 2003 paper's industrial contemporary in distributed
query processing) prices a plan by what each *site* scans and what
moves between sites.  The sharded database has the same shape in
miniature: each shard is a site, a partition-parallel pipeline runs
per shard, and the merge point pays for the rows the shards emit.
:func:`build_cost_report` is a *view* of the plan ``run()`` executes:
it projects the compiled plan's operator description
(:attr:`~repro.exec.compiler.CompiledPlan.ops`), whose estimates and
shard choices the compiler recorded, to report per extent access:

* how many of the extent's shards the plan touches (1 after
  shard-probe pruning, all ``k`` for an unconfined scan);
* the estimated rows actually scanned (``ceil(rows / k)`` per shard
  touched — the partition is hash-balanced by construction);
* the filter selectivities that thin the pipeline downstream;

and per comprehension the **merge cost**: the estimated rows (and
bytes, at a flat per-row figure à la TD2's ``size_msg``) the per-shard
pipelines hand to the ordered merge.  The report never executes the
query, so it is safe to call on any effect; a query on the reduction
engine reports only its estimated cost — the machine prunes nothing.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from repro.lang.ast import Query
from repro.lang.pprint import pretty

#: Flat estimate of one row crossing a merge point, in bytes — an oid
#: ref or small tuple; the TD2 ``size_msg`` analogue.
ROW_BYTES = 24


@dataclass
class ExtentAccess:
    """One generator's scan of one extent, shard-priced."""

    extent: str
    cname: str
    var: str
    rows: int
    sharded: bool
    k: int
    by: str | None
    shards_accessed: int
    rows_scanned: float
    pruned: bool


@dataclass
class PredicateCost:
    """One predicate and the fraction of rows it is estimated to pass."""

    pred: str
    selectivity: float


@dataclass
class MergePoint:
    """One comprehension's fan-in: what the shard pipelines emit."""

    comp: str
    pipelines: int
    est_rows_moved: float
    est_bytes_moved: float


@dataclass
class CostReport:
    """The full report; ``render()`` pretty-prints, ``to_dict()`` is
    JSON-safe (the shell's ``.explain cost``)."""

    query: str
    engine: str
    decision: str
    est_cost: float
    accesses: list[ExtentAccess] = field(default_factory=list)
    predicates: list[PredicateCost] = field(default_factory=list)
    merges: list[MergePoint] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def total_rows_scanned(self) -> float:
        return sum(a.rows_scanned for a in self.accesses)

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["total_rows_scanned"] = self.total_rows_scanned
        for access in doc["accesses"]:
            access["class"] = access.pop("cname")
        return doc

    def render(self) -> str:
        lines = [
            f"cost report: {self.query}",
            f"  engine {self.engine} — {self.decision}",
            f"  est cost {self.est_cost:.1f} steps, "
            f"est rows scanned {self.total_rows_scanned:.1f}",
        ]
        for a in self.accesses:
            if a.sharded:
                tag = (
                    f"{a.shards_accessed}/{a.k} shard(s)"
                    + (" [pruned]" if a.pruned else "")
                )
            else:
                tag = "unsharded"
            lines.append(
                f"  access {a.var} <- {a.extent} ({a.cname}): "
                f"{a.rows} rows, {tag}, "
                f"~{a.rows_scanned:.1f} scanned"
            )
        for p in self.predicates:
            lines.append(
                f"  filter {p.pred}: selectivity {p.selectivity:.2f}"
            )
        for m in self.merges:
            lines.append(
                f"  merge {m.comp}: {m.pipelines} pipeline(s), "
                f"~{m.est_rows_moved:.1f} rows "
                f"(~{m.est_bytes_moved:.0f} B) moved"
            )
        for note in self.notes:
            lines.append(f"  note {note}")
        return "\n".join(lines)


def build_cost_report(db, q: Query) -> CostReport:
    """Project ``q``'s cached plan description into the report."""
    db.typecheck(q)
    decision = db.plan_decision(q)
    report = CostReport(
        query=pretty(q),
        engine=decision.engine,
        decision=decision.reason,
        est_cost=0.0,
    )
    plan = decision.plan
    if plan is None:
        from repro.optimizer.cost import CostModel

        report.est_cost = CostModel.from_database(db).eval_cost(q)
        report.notes.append(
            "the reduction machine prunes nothing: no access is priced"
        )
        return report
    ops = plan.ops
    report.est_cost = ops[0].extra["est_cost"]
    report.notes.extend(plan.notes)
    pipelines: dict[int, int] = {}
    for op in ops:
        x = op.extra
        if op.kind == "filter":
            pred = op.label.removeprefix("filter ")
            report.predicates.append(PredicateCost(pred, x["selectivity"]))
        elif "extent" in x:
            rows = int(x["rows"])
            per_shard = math.ceil(rows / x["k"])
            report.accesses.append(
                ExtentAccess(
                    x["extent"], db.schema.extent_class(x["extent"]),
                    x["var"], rows,
                    sharded=x["sharded"], k=x["k"], by=x["by"],
                    shards_accessed=x["shards"],
                    rows_scanned=float(per_shard * x["shards"]),
                    pruned=x["pruned"],
                )
            )
            # an unconfined scan of a sharded extent fans out one
            # pipeline per shard; a pruned access runs one
            comp = _enclosing_comp(ops, op)
            pipelines[comp] = max(pipelines.get(comp, 1), x["shards"])
    for op in ops:
        if op.kind == "comp":
            report.merges.append(
                MergePoint(
                    comp=op.label,
                    pipelines=pipelines.get(op.op_id, 1),
                    est_rows_moved=op.est_rows,
                    est_bytes_moved=op.est_rows * ROW_BYTES,
                )
            )
    return report


def _enclosing_comp(ops, op) -> int:
    """The id of the comprehension whose pipeline ``op`` belongs to."""
    parent = op.parent
    while ops[parent].kind != "comp":
        parent = ops[parent].parent
    return parent
