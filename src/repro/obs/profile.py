"""Per-operator query profiles: the data model behind ``.explain analyze``.

A profiled execution of a compiled plan produces three layers:

* :class:`OpDescr` — the *static* side, one record per plan operator
  (scan, filter, hash join, emit, nested comprehension), created by the
  compiler for every plan.  Each carries the cost model's **estimated**
  output cardinality, so the profile can hold estimate and actual side
  by side — the data feed a cost-based replanner needs.
* :class:`ProfileRun` — the *dynamic* side, two flat arrays (call
  counts and inclusive wall-times) indexed by operator id, written by
  the per-operator wrappers the compiler installs.  Kept deliberately
  dumb: the hot path does one list-index increment and two clock reads
  per operator invocation.
* :class:`QueryProfile` — the joined result: a tree of
  :class:`ProfileNode` rows (estimated rows, actual rows, misestimate
  ratio, calls, inclusive/self time), a summary dict, and JSON-safe
  :meth:`~QueryProfile.profile_dict` / human :meth:`~QueryProfile.render`
  presentations.

This module is a **leaf**: stdlib imports only, so the compiler, the
engine and the database can all import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

_LABEL_WIDTH = 44


def _short(text: str, width: int = 120) -> str:
    text = " ".join(str(text).split())
    return text if len(text) <= width else text[: width - 1] + "…"


@dataclass(slots=True)
class OpDescr:
    """One plan operator, as the compiler described it.

    ``rows_from`` is the id of the operator whose *call count* equals
    this operator's output row count — for a chain operator that is the
    next operator downstream, for the last one (emit) it is itself.
    ``parent`` reflects the actual call nesting, so inclusive times
    subtract correctly.
    """

    op_id: int
    parent: int | None
    kind: str  # result | comp | scan | filter | hash-join | emit
    label: str
    est_rows: float
    rows_from: int
    extra: dict = field(default_factory=dict)


def _depths(ops) -> list[int]:
    """Nesting depth of each operator (the root is 0); the compiler
    lists a parent before its children."""
    depth: dict[int, int] = {}
    for op in ops:
        depth[op.op_id] = 0 if op.parent is None else depth[op.parent] + 1
    return [depth[op.op_id] for op in ops]


def describe_ops(ops) -> list[str]:
    """One line per operator of a plan description, indented by
    nesting, with its estimated output rows — ``.explain``'s view."""
    return [
        f"{'  ' * d}{op.label} (est {op.est_rows:.1f} rows)"
        for op, d in zip(ops, _depths(ops))
    ]


def same_operators(a, b) -> bool:
    """Do two operator descriptions lay out the same pipeline?

    Estimates may differ; kinds, labels and nesting may not — the
    condition for one plan's run counters to overlay the other's
    description.
    """
    return [(o.parent, o.kind, o.label) for o in a] == [
        (o.parent, o.kind, o.label) for o in b
    ]


class ProfileRun:
    """The dynamic counters of one instrumented plan execution."""

    __slots__ = ("rows", "times", "scans", "index_lookups")

    def __init__(self, n_ops: int) -> None:
        self.rows = [0] * n_ops
        self.times = [0.0] * n_ops
        self.scans = 0
        self.index_lookups = 0


@dataclass
class ProfileNode:
    """One rendered row of the profile tree (estimate vs actual)."""

    op_id: int
    parent: int | None
    kind: str
    label: str
    est_rows: float
    rows_in: int
    rows_out: int
    time_s: float
    self_time_s: float
    misestimate: float | None  # actual/estimated; None when no estimate basis

    def as_dict(self) -> dict:
        return {
            "op_id": self.op_id,
            "parent": self.parent,
            "kind": self.kind,
            "label": self.label,
            "est_rows": self.est_rows,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "time_ms": self.time_s * 1e3,
            "self_time_ms": self.self_time_s * 1e3,
            "misestimate": self.misestimate,
        }


def _ratio(actual: int, est: float) -> float | None:
    if est > 0:
        return actual / est
    return 1.0 if actual == 0 else None


def misestimate_percentile(
    nodes: "list[ProfileNode]", q: float = 0.9
) -> float:
    """The ``q``-percentile misestimate factor across a plan's nodes.

    The factor is symmetric — ``max(actual/est, est/actual)`` — so a
    10× *under*-estimate scores the same as a 10× *over*-estimate, and
    a node with no estimate basis (``misestimate is None``) is scored
    at the benchmark's worst observed factor rather than skipped.
    Returns 1.0 for an empty plan (every estimate exact).  This is the
    quality gate the optimizer benchmark's ``misestimate_p90`` uses.
    """
    factors: list[float] = []
    worst = 1.0
    missing = 0
    for n in nodes:
        r = n.misestimate
        if r is None:
            missing += 1
            continue
        f = max(r, 1.0 / r) if r > 0 else 1.0
        factors.append(f)
        worst = max(worst, f)
    factors.extend([worst] * missing)
    if not factors:
        return 1.0
    factors.sort()
    pos = min(len(factors) - 1, int(q * len(factors)))
    return factors[pos]


def build_nodes(
    ops, run: ProfileRun, *, result_rows: int | None = None
) -> list[ProfileNode]:
    """Join static operator descriptions with one run's counters."""
    child_time: dict[int, float] = {}
    for op in ops:
        if op.parent is not None:
            child_time[op.parent] = (
                child_time.get(op.parent, 0.0) + run.times[op.op_id]
            )
    nodes: list[ProfileNode] = []
    for op in ops:
        rows_in = run.rows[op.op_id]
        rows_out = run.rows[op.rows_from]
        if op.kind == "result" and result_rows is not None:
            rows_out = result_rows
        t = run.times[op.op_id]
        nodes.append(
            ProfileNode(
                op_id=op.op_id,
                parent=op.parent,
                kind=op.kind,
                label=op.label,
                est_rows=op.est_rows,
                rows_in=rows_in,
                rows_out=rows_out,
                time_s=t,
                self_time_s=max(0.0, t - child_time.get(op.op_id, 0.0)),
                misestimate=_ratio(rows_out, op.est_rows),
            )
        )
    return nodes


@dataclass
class QueryProfile:
    """Everything ``.explain analyze`` learned about one execution."""

    query: str
    engine: str  # "compiled" | "reduction"
    elapsed_s: float
    fuel: int  # budget fuel consumed (compiled ops / machine steps)
    effect: str
    est_cost: float
    actual_steps: int
    nodes: list[ProfileNode] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    value: object = field(default=None, repr=False)

    def profile_dict(self) -> dict:
        """The machine-readable profile (JSON round-trip safe)."""
        return {
            "query": self.query,
            "engine": self.engine,
            "elapsed_ms": self.elapsed_s * 1e3,
            "fuel": self.fuel,
            "effect": self.effect,
            "est_cost": self.est_cost,
            "actual_steps": self.actual_steps,
            "nodes": [n.as_dict() for n in self.nodes],
            "summary": self.summary,
        }

    # -- human rendering -------------------------------------------------
    def render(self) -> str:
        lines = [
            f"profile : {self.engine} engine — "
            f"{self.elapsed_s * 1e3:.3f} ms, fuel {self.fuel}, "
            f"effect {self.effect or '∅'}",
            f"query   : {_short(self.query, 100)}",
            f"cost    : estimated {self.est_cost:.0f} steps, "
            f"actual {self.actual_steps}",
        ]
        for key, val in sorted(self.summary.items()):
            if key in ("rules", "plan_notes"):
                continue
            lines.append(f"{key:<8}: {val}")
        if self.nodes:
            lines.append(
                f"{'operator':<{_LABEL_WIDTH}} "
                f"{'est rows':>10} {'actual':>8} {'ratio':>7} "
                f"{'calls':>7} {'ms':>9} {'self ms':>9}"
            )
            for n, d in zip(self.nodes, _depths(self.nodes)):
                label = _short("  " * d + n.label, _LABEL_WIDTH)
                ratio = (
                    "   inf" if n.misestimate is None
                    else f"{n.misestimate:5.2f}x"
                )
                lines.append(
                    f"{label:<{_LABEL_WIDTH}} "
                    f"{n.est_rows:>10.1f} {n.rows_out:>8} {ratio:>7} "
                    f"{n.rows_in:>7} {n.time_s * 1e3:>9.3f} "
                    f"{n.self_time_s * 1e3:>9.3f}"
                )
        rules = self.summary.get("rules")
        if rules:
            lines.append("rules fired:")
            for rule, n in sorted(rules.items(), key=lambda kv: (-kv[1], kv[0])):
                lines.append(f"  {rule:<20}{n:>7}")
        notes = self.summary.get("plan_notes")
        if notes:
            for note in notes:
                lines.append(f"note    : {note}")
        return "\n".join(lines)
