"""A cost model over reduction steps, and cost-based generator reordering.

The effect system answers *may I* rewrite (§4); a real optimizer also
needs *should I*.  This module supplies the cost machinery:

* :class:`CostModel` — cardinality and evaluation-cost estimates driven
  by catalog statistics: extent sizes from the live EE, and (v2) the
  per-(extent, attribute) :class:`~repro.db.statistics.StatisticsCatalog`
  — equality selectivity = 1/distinct, range selectivity from equi-depth
  histograms, join cardinality from matching distinct counts.  The
  System-R constants (0.5 default, 0.1 equality) remain the fallback
  whenever no statistics are available;
* the ``reorder-generators`` rewrite: a full join-order search over the
  independent generator permutations of each comprehension, placing
  each movable predicate at the earliest point its variables are bound.
  Legality is effect-gated exactly like every other rule (moved sources
  must be write-free and termination-safe, moved predicates additionally
  pure — reordering changes how many times each is evaluated);
  profitability is the cost model's call.

Estimates can be wrong (uniformity, independence, staleness) — but the
*correctness* story is carried entirely by the effect side conditions;
a bad estimate can only cost performance, never answers.  The adaptive
layer on top (``repro.exec.engine``) compares these estimates against
observed cardinalities mid-query and replans on divergence.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import permutations

from repro.lang.ast import (
    BagLit,
    BoolLit,
    Cmp,
    Comp,
    ExtentRef,
    Field,
    Gen,
    If,
    IntLit,
    ListLit,
    ObjEq,
    Pred,
    PrimEq,
    Qualifier,
    Query,
    SetLit,
    SetOp,
    SetOpKind,
    StrLit,
    ToSet,
    Traverse,
    Var,
)
from repro.lang.traversal import free_vars, subqueries
from repro.optimizer.rules import RewriteContext, Rule

DEFAULT_SELECTIVITY = 0.5
"""Fraction of elements assumed to survive one predicate qualifier."""

EQUALITY_SELECTIVITY = 0.1
"""Fraction assumed to survive an equality predicate (``=``/``==``)
when no distinct-count statistics are available — the System-R 1/10
default in place of per-attribute distinct counts."""

UNKNOWN_CARDINALITY = 8.0
"""Guess for collections the model cannot see through (e.g. variables)."""

MIN_SELECTIVITY = 1e-6
"""Floor under statistics-driven selectivities (a 0 estimate would make
every downstream cost identical and hide real ordering differences)."""

_EXHAUSTIVE_ORDER_LIMIT = 6
"""Largest independent-generator group ordered by exhaustive search;
bigger groups fall back to a greedy smallest-rows-first construction."""


class BoundStats:
    """Lazy view of a database's statistics catalog for one model.

    Column stats are built/validated against the database's *current*
    store version at first use, so a model snapshot stays cheap when the
    optimizer never asks about a column.  The database is held weakly:
    a cached plan keeps its model for deferred estimates, and must not
    keep the database alive through its own plan cache.
    """

    __slots__ = ("_db",)

    def __init__(self, db):
        self._db = weakref.ref(db)

    def column(self, extent: str, attr: str):
        db = self._db()
        catalog = getattr(db, "_stats", None)
        if catalog is None:
            return None
        try:
            return catalog.column(
                db.ee, db.oe, db._state_version, extent, attr
            )
        except Exception:
            return None


@dataclass
class CostModel:
    """Cardinality/cost estimation from catalog statistics.

    ``stats`` (when present) answers per-column distinct counts and
    histograms; ``card_overrides`` maps a source sub-query AST to an
    *observed* cardinality — the adaptive replanner's feedback channel,
    consulted before any estimate.  ``stats_epoch`` records which
    statistics epoch the model was snapshotted against so cached plans
    can be invalidated on drift.
    """

    extent_sizes: dict[str, int] = field(default_factory=dict)
    selectivity: float = DEFAULT_SELECTIVITY
    stats: BoundStats | None = None
    card_overrides: dict[Query, float] = field(default_factory=dict)
    stats_epoch: int = -1

    @staticmethod
    def from_database(db) -> "CostModel":
        """Snapshot the live catalog: extent sizes plus column stats."""
        model = CostModel(
            {e: len(db.ee.members(e)) for e in db.ee.names()}
        )
        catalog = getattr(db, "_stats", None)
        if catalog is not None:
            model.stats_epoch = catalog.observe(db.ee)
            model.stats = BoundStats(db)
        return model

    # -- attribute resolution ---------------------------------------------
    def _column(self, q: Query, env: dict[str, str] | None):
        """Column stats for ``x.attr`` when ``x`` ranges over an extent."""
        if (
            self.stats is None
            or env is None
            or not isinstance(q, Field)
            or not isinstance(q.target, Var)
        ):
            return None
        extent = env.get(q.target.name)
        if extent is None:
            return None
        return self.stats.column(extent, q.name)

    # -- cardinality -------------------------------------------------------
    def cardinality(self, q: Query, env: dict[str, str] | None = None) -> float:
        """Estimated number of elements of a collection-valued query."""
        if self.card_overrides:
            observed = self.card_overrides.get(q)
            if observed is not None:
                return observed
        if isinstance(q, ExtentRef):
            return float(self.extent_sizes.get(q.name, UNKNOWN_CARDINALITY))
        if isinstance(q, (SetLit, BagLit, ListLit)):
            return float(len(q.items))
        if isinstance(q, SetOp):
            l = self.cardinality(q.left, env)
            r = self.cardinality(q.right, env)
            if q.op is SetOpKind.UNION:
                return l + r
            if q.op is SetOpKind.INTERSECT:
                return min(l, r) * self.selectivity
            return l * self.selectivity  # EXCEPT
        if isinstance(q, ToSet):
            return self.cardinality(q.arg, env)
        if isinstance(q, Comp):
            card = 1.0
            inner = dict(env) if env else {}
            for cq in q.qualifiers:
                if isinstance(cq, Gen):
                    card *= self.cardinality(cq.source, inner)
                    if isinstance(cq.source, ExtentRef):
                        inner[cq.var] = cq.source.name
                    else:
                        inner.pop(cq.var, None)
                else:
                    card *= self.predicate_selectivity(cq.cond, inner)
            return card
        if isinstance(q, If):
            return max(self.cardinality(q.then, env), self.cardinality(q.els, env))
        if isinstance(q, Traverse):
            src = self.cardinality(q.source, env)
            total = float(sum(self.extent_sizes.values()))
            # statistics-driven fan-out: the traversed attribute is
            # single-valued, so each hop's frontier is bounded by the
            # column's distinct target count (heavy fan-in — many
            # objects sharing one target — collapses the frontier)
            fan = None
            if self.stats is not None and isinstance(q.source, ExtentRef):
                col = self.stats.column(q.source.name, q.attr)
                if col is not None and col.rows > 0:
                    fan = col.distinct()
            if q.depth is not None:
                # each start object contributes at most one new node per
                # hop; the whole store is a hard ceiling when the
                # catalog knows its size
                card = src * float(q.depth + 1)
                if fan is not None:
                    card = min(card, src + fan * float(q.depth))
                return min(card, total) if self.extent_sizes else card
            # unbounded: the closure can saturate the reachable cone
            return total if self.extent_sizes else max(src, UNKNOWN_CARDINALITY)
        return UNKNOWN_CARDINALITY

    def predicate_selectivity(
        self, cond: Query, env: dict[str, str] | None = None
    ) -> float:
        """Estimated fraction of rows surviving one predicate.

        With statistics and an ``env`` mapping generator variables to
        the extents they range over:

        * ``x.a = literal``  → the measured frequency of the literal
          (exact or MCV), falling back to 1/distinct(a);
        * ``x.a = y.b``      → exact matching-row count while both
          frequency tables are exact, else the textbook
          1/max(distinct(a), distinct(b)) equi-join estimate;
        * ``x.a < literal`` (and friends) → the equi-depth histogram
          fraction.

        Without statistics, equalities get :data:`EQUALITY_SELECTIVITY`
        and everything else the model's default — exactly the v1
        constants, so the profiler (``.explain analyze``) and the
        reorder rule always price the same operator the same way.
        """
        if isinstance(cond, (PrimEq, ObjEq)):
            sel = self._eq_selectivity(cond, env)
            return sel if sel is not None else EQUALITY_SELECTIVITY
        if isinstance(cond, Cmp):
            sel = self._range_selectivity(cond, env)
            if sel is not None:
                return sel
        if isinstance(cond, BoolLit):
            return 1.0 if cond.value else 0.0
        return self.selectivity

    def _eq_selectivity(
        self, cond: Query, env: dict[str, str] | None
    ) -> float | None:
        from repro.db.statistics import join_selectivity

        left = self._column(cond.left, env)
        right = self._column(cond.right, env)
        if left is not None and right is not None:
            return max(MIN_SELECTIVITY, join_selectivity(left, right))
        col = left if left is not None else right
        if col is None:
            return None
        # a concrete comparand lets the frequency/MCV table answer
        other = cond.right if left is not None else cond.left
        if not isinstance(other, (IntLit, StrLit, BoolLit)):
            other = None
        return max(MIN_SELECTIVITY, col.eq_selectivity(other))

    def _range_selectivity(
        self, cond: Cmp, env: dict[str, str] | None
    ) -> float | None:
        col = self._column(cond.left, env)
        other = cond.right
        op = cond.op.value
        if col is None:
            col = self._column(cond.right, env)
            other = cond.left
            # mirror the operator: c OP x.a  ==  x.a OP' c
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        if col is None or not isinstance(other, IntLit):
            return None
        if not col.has_histogram:
            return None
        return max(MIN_SELECTIVITY, col.range_selectivity(op, other.value))

    # -- evaluation cost ------------------------------------------------------
    def eval_cost(self, q: Query, env: dict[str, str] | None = None) -> float:
        """Estimated reduction steps to evaluate ``q`` once.

        Comprehension cost models the machine: the first generator's
        source is evaluated once, each later qualifier once per
        iteration of everything before it, and the head once per
        surviving binding.
        """
        if isinstance(q, Comp):
            cost = 1.0
            iterations = 1.0
            inner = dict(env) if env else {}
            for cq in q.qualifiers:
                if isinstance(cq, Gen):
                    cost += iterations * self.eval_cost(cq.source, inner)
                    iterations *= max(self.cardinality(cq.source, inner), 0.0)
                    if isinstance(cq.source, ExtentRef):
                        inner[cq.var] = cq.source.name
                    else:
                        inner.pop(cq.var, None)
                else:
                    cost += iterations * self.eval_cost(cq.cond, inner)
                    iterations *= self.predicate_selectivity(cq.cond, inner)
            cost += iterations * self.eval_cost(q.head, inner)
            return cost
        if isinstance(q, Traverse):
            # the chase charges one step per visited node; the RED
            # route's index lookup is cheaper but the model prices the
            # fallback (an over-estimate can only cost performance)
            return (
                1.0
                + self.eval_cost(q.source, env)
                + max(self.cardinality(q, env), 1.0)
            )
        base = 1.0
        for sub in subqueries(q):
            base += self.eval_cost(sub, env)
        if isinstance(q, ExtentRef):
            base += self.extent_sizes.get(q.name, UNKNOWN_CARDINALITY)
        return base


# ---------------------------------------------------------------------------
# join-order search
# ---------------------------------------------------------------------------


def comp_env(q: Comp, env: dict[str, str] | None = None) -> dict[str, str]:
    """Variable → extent bindings for a comprehension's generators."""
    out = dict(env) if env else {}
    for cq in q.qualifiers:
        if isinstance(cq, Gen):
            if isinstance(cq.source, ExtentRef):
                out[cq.var] = cq.source.name
            else:
                out.pop(cq.var, None)
    return out


def order_cost(
    model: CostModel,
    qualifiers: tuple[Qualifier, ...] | list[Qualifier],
    head: Query,
    env: dict[str, str] | None = None,
) -> float:
    """Cost of one qualifier order under the compiled engine's shape.

    An uncorrelated source is materialized once (the compiler caches
    it); a correlated source re-evaluates per surviving row.  Every
    generator additionally charges one step per loop iteration, and
    predicates charge their evaluation per row then thin the stream by
    their estimated selectivity.  This is the function the join-order
    search minimizes — deliberately the same arithmetic as the
    profiler's per-operator estimates.
    """
    rows = 1.0
    cost = 1.0
    bound: set[str] = set()
    inner = dict(env) if env else {}
    for cq in qualifiers:
        if isinstance(cq, Gen):
            src_cost = model.eval_cost(cq.source, inner)
            if free_vars(cq.source) & bound:
                cost += rows * src_cost  # correlated: once per row
            else:
                cost += src_cost  # uncorrelated: materialized once
            card = max(model.cardinality(cq.source, inner), 0.0)
            cost += rows * card  # the loop itself
            rows *= card
            bound.add(cq.var)
            if isinstance(cq.source, ExtentRef):
                inner[cq.var] = cq.source.name
            else:
                inner.pop(cq.var, None)
        else:
            cost += rows * model.eval_cost(cq.cond, inner)
            rows *= model.predicate_selectivity(cq.cond, inner)
    cost += rows * model.eval_cost(head, inner)
    return cost


def _segment_orders(
    gens: list[Gen], deps: dict[int, set[int]]
) -> "list[tuple[int, ...]]":
    """All dependence-respecting permutations of one generator group."""
    n = len(gens)
    valid = []
    for perm in permutations(range(n)):
        pos = {g: i for i, g in enumerate(perm)}
        if all(pos[d] < pos[g] for g in range(n) for d in deps[g]):
            valid.append(perm)
    return valid


def _greedy_order(
    model: CostModel,
    gens: list[Gen],
    deps: dict[int, set[int]],
    preds_for: dict[int, list[Pred]],
    env: dict[str, str],
) -> tuple[int, ...]:
    """Smallest-effective-rows-first construction for large groups."""
    n = len(gens)
    placed: list[int] = []
    done: set[int] = set()
    while len(placed) < n:
        best = None
        best_key = None
        for g in range(n):
            if g in done or not deps[g] <= done:
                continue
            card = max(model.cardinality(gens[g].source, env), 0.0)
            eff = card
            for pred in preds_for.get(g, []):
                eff *= model.predicate_selectivity(pred.cond, env)
            key = (eff, model.eval_cost(gens[g].source, env))
            if best_key is None or key < best_key:
                best, best_key = g, key
        assert best is not None
        placed.append(best)
        done.add(best)
    return tuple(placed)


def reorder_qualifiers(
    model: CostModel, rc: RewriteContext, q: Comp
) -> tuple[Qualifier, ...] | None:
    """The full join-order search over one comprehension.

    Qualifiers are split into maximal *movable groups*: runs of
    generators whose sources are skippable (write-free +
    termination-safe) and predicates that are discardable (additionally
    pure).  Anything else — an effectful source, an impure predicate —
    is a barrier that nothing crosses.  Within a group the search
    considers every dependence-respecting generator permutation
    (exhaustive up to :data:`_EXHAUSTIVE_ORDER_LIMIT`, greedy beyond),
    re-attaching each predicate at the earliest point its variables are
    bound, and keeps the cheapest order under :func:`order_cost`.

    Returns the reordered qualifier tuple, or ``None`` when the
    original order is already (estimated) optimal or nothing may move.
    """
    quals = q.qualifiers
    gen_vars = [cq.var for cq in quals if isinstance(cq, Gen)]
    if len(set(gen_vars)) != len(gen_vars):
        return None  # shadowed variables: order is semantically load-bearing
    env = comp_env(q)

    # bind every generator so effect checks can resolve attribute classes
    rc_all = rc
    for cq in quals:
        if isinstance(cq, Gen):
            rc_all = rc_all.bind(cq.var, cq.source)

    out: list[Qualifier] = []
    changed = False
    i = 0
    while i < len(quals):
        cq = quals[i]
        movable = (
            rc_all.skippable(cq.source)
            if isinstance(cq, Gen)
            else rc_all.discardable(cq.cond)
        )
        if not movable:
            out.append(cq)
            i += 1
            continue
        # collect the maximal movable group
        group: list[Qualifier] = []
        while i < len(quals):
            cq = quals[i]
            ok = (
                rc_all.skippable(cq.source)
                if isinstance(cq, Gen)
                else rc_all.discardable(cq.cond)
            )
            if not ok:
                break
            group.append(cq)
            i += 1
        reordered = _reorder_group(model, group, out, env, q.head, quals[i:])
        if list(reordered) != list(group):
            changed = True
        out.extend(reordered)
    if not changed:
        return None
    return tuple(out)


def _reorder_group(
    model: CostModel,
    group: list[Qualifier],
    prefix: list[Qualifier],
    env: dict[str, str],
    head: Query,
    suffix: tuple[Qualifier, ...],
) -> list[Qualifier]:
    gens = [cq for cq in group if isinstance(cq, Gen)]
    if len(gens) <= 1:
        return group
    preds = [cq for cq in group if isinstance(cq, Pred)]
    var_of = {g.var: gi for gi, g in enumerate(gens)}

    deps: dict[int, set[int]] = {}
    for gi, g in enumerate(gens):
        deps[gi] = {
            var_of[v]
            for v in free_vars(g.source)
            if v in var_of and var_of[v] != gi
        }
    pred_deps: list[set[int]] = [
        {var_of[v] for v in free_vars(p.cond) if v in var_of} for p in preds
    ]

    def interleave(order: tuple[int, ...]) -> list[Qualifier]:
        seq: list[Qualifier] = []
        emitted: set[int] = set()
        pending = list(range(len(preds)))
        # predicates with no group deps run before any generator
        for pi in list(pending):
            if not pred_deps[pi]:
                seq.append(preds[pi])
                pending.remove(pi)
        for gi in order:
            seq.append(gens[gi])
            emitted.add(gi)
            for pi in list(pending):
                if pred_deps[pi] <= emitted:
                    seq.append(preds[pi])
                    pending.remove(pi)
        return seq

    def preds_enabled_by() -> dict[int, list[Pred]]:
        # for the greedy key: predicates a generator's binding enables
        by: dict[int, list[Pred]] = {}
        for pi, p in enumerate(preds):
            ds = pred_deps[pi]
            if len(ds) == 1:
                (only,) = ds
                by.setdefault(only, []).append(p)
        return by

    def cost_of(seq: list[Qualifier]) -> float:
        return order_cost(
            model, list(prefix) + seq + list(suffix), head, env
        )

    if len(gens) <= _EXHAUSTIVE_ORDER_LIMIT:
        orders = _segment_orders(gens, deps)
    else:
        orders = [_greedy_order(model, gens, deps, preds_enabled_by(), env)]
        orders.append(tuple(range(len(gens))))  # never regress vs original

    best_seq = group
    best_cost = cost_of(group)
    for order in orders:
        seq = interleave(order)
        c = cost_of(seq)
        if c < best_cost - 1e-9:
            best_cost = c
            best_seq = seq
    return best_seq


def make_reorder_rule(model: CostModel) -> Rule:
    """The cost-directed ``reorder-generators`` rewrite.

    v2: a full join-order search per comprehension (see
    :func:`reorder_qualifiers`) in place of the old single
    adjacent-swap.  Legality is unchanged — moved sources must be
    write-free and termination-safe, moved predicates pure — and the
    rewrite fires only on a strict estimated improvement, so the
    planner's fixpoint terminates.
    """

    def fn(rc: RewriteContext, q: Query):
        if not isinstance(q, Comp):
            return None
        reordered = reorder_qualifiers(model, rc, q)
        if reordered is None:
            return None
        return Comp(q.head, reordered)

    return Rule("reorder-generators", fn)


def cost_rules(model: CostModel):
    """The default rewrite pipeline plus cost-based reordering."""
    from repro.optimizer.rules import DEFAULT_RULES

    return DEFAULT_RULES + (make_reorder_rule(model),)


def optimize_with_costs(db, q: Query, model: CostModel | None = None):
    """The default pipeline plus cost-based generator reordering."""
    from repro.optimizer.planner import optimize

    if model is None:
        model = CostModel.from_database(db)
    return optimize(db, q, cost_rules(model), model=model)
