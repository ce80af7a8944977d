"""Engine selection and compiled-plan execution.

:func:`decide` is the compile/fallback gate behind
``Database.run(engine="auto")``: a query is routed to the compiled
engine exactly when the Figure 3 effect system proves it read-only
(empty ``A``/``U`` write set — the premise of Theorem 4, which makes
every schedule, and hence the set-at-a-time operator order, yield the
same observables) *and* the compiler covers its syntax.  Everything
else falls back to the paper's reduction machine, with the reason
recorded for ``.explain``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter

from repro.effects.algebra import Effect
from repro.exec.cache import PlanEntry, Statement
from repro.exec.compiler import CompiledPlan, NotCompilable, compile_plan
from repro.exec.runtime import ExecContext, ReplanGuard, ReplanSignal
from repro.lang.ast import Query


@dataclass(frozen=True)
class PlanDecision:
    """Which engine a query runs on, and why."""

    engine: str  # "compiled" | "reduction"
    reason: str
    entry: PlanEntry | None = None
    static_effect: Effect | None = None

    @property
    def plan(self) -> CompiledPlan | None:
        return self.entry.plan if self.entry is not None else None

    def describe(self) -> str:
        lines = [f"{self.engine} — {self.reason}"]
        if self.plan is not None and self.plan.notes:
            lines.extend(f"  {note}" for note in self.plan.notes)
        return "\n".join(lines)


def decide(db, stmt: Statement) -> PlanDecision:
    """The compile/fallback decision for one checked statement.

    Reads the Figure 3 effect the statement carries; a statement
    Figure 3 rejected runs on the reduction machine.
    """
    eff = stmt.effect
    if eff is None:
        return PlanDecision(
            "reduction", f"static analysis failed ({stmt.error})"
        )
    q = stmt.query
    if eff.writes():
        written = ", ".join(sorted(eff.writes()))
        return PlanDecision(
            "reduction",
            f"write effects on {{{written}}} — Theorem 4 does not apply",
            static_effect=eff,
        )
    entry = db._plan_cache.get(q, db._defs_version)
    if entry is not None and _stats_stale(db, entry):
        # the catalog the plan was costed against has materially
        # changed (stats-epoch drift): recompile rather than keep a
        # generator order chosen for a different data shape
        entry = None
    if entry is None:
        entry = _compile_entry(db, q, eff)
        db._plan_cache.put(q, db._defs_version, entry)
    if entry.plan is None:
        return PlanDecision(
            "reduction", entry.reason, entry=entry, static_effect=eff
        )
    return PlanDecision(
        "compiled",
        "read-only (empty write effect) — deterministic by Theorem 4",
        entry=entry,
        static_effect=eff,
    )


def _stats_stale(db, entry: PlanEntry) -> bool:
    """Has the statistics epoch drifted since ``entry`` was costed?

    A cached refusal was costed against nothing: the compiler refuses
    on syntax alone.
    """
    catalog = getattr(db, "_stats", None)
    if catalog is None or entry.plan is None:
        return False
    return entry.stats_epoch != catalog.observe(db.ee)


def _compile_entry(db, q: Query, eff: Effect) -> PlanEntry:
    entry = PlanEntry(plan=None, reads=eff.reads(), static_effect=eff)
    try:
        entry.plan, model = build_plan(db, q)
    except NotCompilable as exc:
        entry.reason = f"not compilable: {exc}"
        return entry
    entry.stats_epoch = model.stats_epoch
    return entry


def build_plan(db, q: Query, *, profile: bool = False, overrides=None):
    """The one plan builder: ``(plan, model)`` for ``q`` against ``db``.

    Takes one catalog snapshot, runs the cost-based pipeline (the
    reorder rule prices generator orders with it) and compiles against
    the database's shard layout, so a plan built here for
    ``.explain analyze`` (``profile=True``: the same plan plus operator
    wrappers) is the one ``run()`` caches.  ``overrides`` maps source
    sub-queries to observed cardinalities — the adaptive replanner's
    feedback.  Raises :class:`NotCompilable` outside the compiled
    fragment.
    """
    from repro.optimizer.cost import CostModel, cost_rules
    from repro.optimizer.planner import optimize

    model = CostModel.from_database(db)
    if overrides:
        model.card_overrides.update(overrides)
    normalised = optimize(db, q, cost_rules(model), model=model).query
    plan = compile_plan(
        db.schema,
        db._definitions,
        normalised,
        method_mode=db.method_mode,
        method_fuel=db.machine.method_fuel,
        profile=profile,
        cost_model=model,
        shards=db._shards,
    )
    return plan, model


def route_read(db, q: Query, decision: PlanDecision, **run_kw):
    """The replication routing hook behind ``Database.run(engine="auto")``.

    A query whose Figure 3 effect has an **empty write set** is exactly
    one Theorem 4 makes schedule-invariant — so it may be answered by
    any replica whose per-extent watermarks cover its R-set (plus the
    star mark that tracks ``U``/``define`` commits, per the §5
    reference-chasing caveat) without the answer being distinguishable
    from the primary's.  Returns the replica's :class:`EvalResult`, or
    ``None`` when no replica qualifies (the caller degrades to the
    primary: counted, never wrong).
    """
    replicas = getattr(db, "_replicas", None)
    if replicas is None:
        return None
    eff = decision.static_effect
    if eff is None or eff.writes():
        return None
    return replicas.try_serve(q, eff, **run_kw)


def execute_plan(
    db,
    entry: PlanEntry,
    *,
    budget=None,
    ee=None,
    oe=None,
    trace=None,
    prof=None,
):
    """Run a compiled plan against the database's current EE/OE.

    Returns ``(value, dynamic_effect, ops)``; the environments are
    untouched by construction (the plan is read-only).  ``ee``/``oe``
    override the live environments for pinned snapshot reads (the
    scheduler's routed reads evaluate against the immutable pair they
    captured at admission, not whatever the replica has applied since).
    ``trace``, when a dict, receives ``"shard_reads"``: the dynamic
    per-class shard sets this execution actually touched (``None`` =
    all shards) — the result cache's per-``(class, shard)`` key.
    ``prof``, a :class:`~repro.obs.profile.ProfileRun`, collects a
    profiled plan's operator counters (``.explain analyze``); the root
    operator is credited with one call and the whole wall-time.

    **Adaptive replanning**: on a non-pinned, unprofiled execution the
    context carries a :class:`~repro.exec.runtime.ReplanGuard`; when an
    observed source cardinality diverges from the plan's compile-time
    estimate by ``db.replan_ratio`` or more, the plan raises
    :class:`~repro.exec.runtime.ReplanSignal`, the entry is recompiled
    with the observation as a cardinality override, and execution
    restarts (at most once).  Abandoning the partial run is safe —
    the plan is read-only, so by Theorem 4 re-execution yields the
    same observables — and the restarted attempt gets a fresh budget
    start, so a budget can overshoot by at most one aborted attempt.
    """
    pinned = ee is not None or oe is not None
    ratio = getattr(db, "replan_ratio", None)
    for attempt in (0, 1):
        ctx = ExecContext(
            ee if ee is not None else db.ee,
            oe if oe is not None else db.oe,
            db.schema,
            db._definitions,
            method_mode=db.method_mode,
            method_fuel=db.machine.method_fuel,
            supply=db.supply,
            budget=budget,
            # attribute indexes are versioned against the *live* store; a
            # pinned snapshot may be older, so it scans without them
            indexes=None if pinned else db._indexes,
            state_version=-1 if pinned else db._state_version,
            shards=None if pinned else getattr(db, "_shards", None),
            closure_indexes=None if pinned else db._closure_indexes,
        )
        ctx.prof = prof
        if attempt == 0 and not pinned and ratio and prof is None:
            ctx.replan = ReplanGuard(ratio)
        # one charge per execution: every machine run takes at least one
        # step, so the compiled engine exposes the same fault/budget site
        # even for constant plans
        ctx.charge()
        t0 = perf_counter()
        try:
            if ctx.obs:
                from repro.obs.spans import span as _span

                with _span("exec.plan") as sp:
                    value = entry.plan.fn(ctx, {})
                    sp.set(ops=ctx.ops, reads=len(ctx.reads))
            else:
                # obs-off fast path: no span/metric/label object built
                value = entry.plan.fn(ctx, {})
        except ReplanSignal as sig:
            _replan_entry(db, entry, sig)
            continue
        break
    if prof is not None:
        prof.rows[0] = 1
        prof.times[0] = perf_counter() - t0
    if trace is not None:
        trace["shard_reads"] = {
            c: (None if s is None else frozenset(s))
            for c, s in ctx.shard_reads.items()
        }
    return value, ctx.effect(), ctx.ops


def _replan_entry(db, entry: PlanEntry, sig) -> None:
    """Mid-query re-optimization after a caught :class:`ReplanSignal`.

    Rebuilds the entry's plan with the *observed* cardinality of the
    misestimated source installed as an override, so the join-order
    search prices the permutations against reality; the refreshed plan
    replaces the cached one in place (later executions keep it).
    """
    from repro.lang.pprint import pretty
    from repro.obs import flight as _flight
    from repro.obs._state import STATE as _OBS
    from repro.obs.metrics import REGISTRY as _METRICS

    plan, model = build_plan(
        db, entry.plan.source, overrides={sig.source: float(sig.actual)}
    )
    note = (
        f"replan: {pretty(sig.source)} estimated {sig.est:.0f} rows, "
        f"observed {sig.actual}"
    )
    entry.plan = replace(plan, notes=plan.notes + (note,))
    entry.stats_epoch = model.stats_epoch
    qstats = getattr(db, "_qstats", None)
    if qstats is not None and "replans" in qstats:
        qstats["replans"] += 1
    if _OBS.enabled:
        _METRICS.counter("exec_replans_total").inc()
    _flight.record(
        "exec-replan",
        source=pretty(sig.source),
        est=round(sig.est, 1),
        actual=sig.actual,
    )
