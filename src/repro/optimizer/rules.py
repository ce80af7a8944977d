"""Rewrite rules with effect-based side conditions (§4's application).

The paper's point is that classical algebraic optimizations are
*unsound* for a query language with object creation and possibly
non-terminating methods, but become sound again when gated on effect
information.  Each rule here carries its side condition explicitly:

====================  =====================================================
``if-const-fold``     ``if true/false then … else …`` → branch (safe)
``arith-fold``        literal arithmetic/comparison/equality (safe)
``union-empty``       ``q ∪ {}`` / ``{} ∪ q`` → ``q`` (safe: ∪ by a pure
                      value is identity and ``q`` is still evaluated)
``intersect-empty``   ``q ∩ {}``, ``{} ∩ q``, ``q \\ … `` with ``{}`` →
                      ``{}``/``q`` — requires the *discarded* operand to
                      be pure and termination-safe (its evaluation is
                      skipped)
``true-pred``         drop a ``true`` predicate qualifier (safe)
``false-pred``        ``{h | …, false, …}`` → ``{}`` — requires the
                      *skipped* qualifiers to be write-free and
                      termination-safe
``empty-gen``         ``{h | …, x ← {}, …}`` → ``{}`` — same condition
``pred-pushdown``     move a pure, termination-safe predicate to the
                      earliest position where its variables are bound —
                      requires the qualifiers it crosses to be write-free
                      and termination-safe (their evaluation count drops)
``unnest``            ``{h | x ← {h′ | G⃗}, R⃗}`` →
                      ``{h[x:=h′] | G⃗, R⃗[x:=h′]}`` — valid on sets
                      (idempotent collection); requires ``h′`` pure and
                      termination-safe (it is duplicated) and the inner
                      qualifiers write-free
``record-proj``       ``struct(…, l: q, …).l`` → ``q`` — requires the
                      *other* field expressions to be pure and
                      termination-safe
``commute-setop``     ``q₁ op q₂`` → ``q₂ op q₁`` for commutative op —
                      Theorem 8's condition: the operand effects must
                      not interfere.  Exposed for cost-directed use;
                      not in the default normalisation pipeline.
====================  =====================================================

"Termination-safe" is the syntactic check :func:`termination_safe`:
no method or definition calls anywhere (the paper stresses that method
invocation may not terminate and that effect information alone does not
capture divergence).  "Write-free"/"pure" are judgements of the
Figure 3 effect system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.effects.algebra import EMPTY, Effect
from repro.effects.checker import EffectChecker
from repro.errors import IOQLTypeError
from repro.lang.ast import (
    BoolLit,
    Cmp,
    CmpKind,
    Comp,
    DefCall,
    Field,
    Gen,
    If,
    IntLit,
    IntOp,
    IntOpKind,
    MethodCall,
    Pred,
    PrimEq,
    Qualifier,
    Query,
    RecordLit,
    SetLit,
    SetOp,
    Size,
    StrLit,
)
from repro.lang.traversal import free_vars, subst, walk
from repro.obs._state import STATE as _OBS
from repro.obs.metrics import REGISTRY as _METRICS
from repro.typing.context import TypeContext


def termination_safe(q: Query) -> bool:
    """No method or definition calls: evaluation always terminates.

    Sound and syntactic: every other construct is structurally
    decreasing under the Figure 2 rules.  (Definitions are excluded
    because their bodies may call methods; a whole-program analysis
    could refine this.)
    """
    return not any(isinstance(n, (MethodCall, DefCall)) for n in walk(q))


@dataclass(frozen=True)
class RewriteContext:
    """What a rule may consult: the typing context for effect queries."""

    ctx: TypeContext

    def effect(self, q: Query) -> Effect | None:
        """The Figure 3 effect of ``q``, or None if it does not check
        (rules must then decline)."""
        try:
            _, eff = EffectChecker().check(self.ctx, q)
        except IOQLTypeError:
            return None
        return eff

    def pure(self, q: Query) -> bool:
        """ε = ∅ — no reads, adds or updates."""
        eff = self.effect(q)
        return eff is not None and eff.is_empty()

    def write_free(self, q: Query) -> bool:
        """No A/U atoms (reads allowed — they cannot change outcomes)."""
        eff = self.effect(q)
        return eff is not None and not eff.writes()

    def discardable(self, q: Query) -> bool:
        """Safe to not evaluate at all: pure *and* termination-safe."""
        return self.pure(q) and termination_safe(q)

    def skippable(self, q: Query) -> bool:
        """Safe to evaluate fewer times: write-free and termination-safe."""
        return self.write_free(q) and termination_safe(q)

    def bind(self, var: str, q_source: Query) -> "RewriteContext":
        """Extend the typing context with a generator binding."""
        from repro.model.types import SetType

        try:
            from repro.typing.checker import check_query

            st = check_query(self.ctx, q_source)
        except IOQLTypeError:
            return self
        if isinstance(st, SetType):
            return RewriteContext(self.ctx.extend(var, st.elem))
        return self


@dataclass(frozen=True)
class Rule:
    """A named local rewrite: ``fn(rc, q)`` returns the replacement or None."""

    name: str
    fn: Callable[[RewriteContext, Query], Query | None]

    def apply(self, rc: RewriteContext, q: Query) -> Query | None:
        if not _OBS.enabled:
            return self.fn(rc, q)
        _METRICS.counter("rewrite_attempts_total", rule=self.name).inc()
        out = self.fn(rc, q)
        if out is not None and out != q:
            _METRICS.counter("rewrite_hits_total", rule=self.name).inc()
        return out


# ---------------------------------------------------------------------------
# always-safe folds
# ---------------------------------------------------------------------------


def _if_const_fold(rc: RewriteContext, q: Query) -> Query | None:
    if isinstance(q, If) and isinstance(q.cond, BoolLit):
        return q.then if q.cond.value else q.els
    return None


def _arith_fold(rc: RewriteContext, q: Query) -> Query | None:
    if isinstance(q, IntOp) and isinstance(q.left, IntLit) and isinstance(q.right, IntLit):
        l, r = q.left.value, q.right.value
        return IntLit(
            l + r if q.op is IntOpKind.ADD else l - r if q.op is IntOpKind.SUB else l * r
        )
    if isinstance(q, Cmp) and isinstance(q.left, IntLit) and isinstance(q.right, IntLit):
        l, r = q.left.value, q.right.value
        return BoolLit(
            {
                CmpKind.LT: l < r,
                CmpKind.LE: l <= r,
                CmpKind.GT: l > r,
                CmpKind.GE: l >= r,
            }[q.op]
        )
    if isinstance(q, PrimEq):
        kinds = (IntLit, BoolLit, StrLit)
        if isinstance(q.left, kinds) and isinstance(q.right, kinds) and type(q.left) is type(q.right):
            return BoolLit(q.left == q.right)
    if isinstance(q, Size) and isinstance(q.arg, SetLit):
        from repro.lang.values import is_value, make_set_value

        if all(is_value(i) for i in q.arg.items):
            return IntLit(len(make_set_value(q.arg.items).items))
    return None


# ---------------------------------------------------------------------------
# set-operator identities
# ---------------------------------------------------------------------------


def _empty_setop(rc: RewriteContext, q: Query) -> Query | None:
    if not isinstance(q, SetOp):
        return None
    from repro.lang.ast import SetOpKind

    empty = SetLit(())
    l_empty = q.left == empty
    r_empty = q.right == empty
    if q.op is SetOpKind.UNION:
        # ∪ with the pure value {} is the identity; both operands are
        # still in the term (the kept one), so no evaluation is skipped.
        if l_empty:
            return q.right
        if r_empty:
            return q.left
        return None
    if q.op is SetOpKind.INTERSECT:
        # {} ∩ q → {} discards q entirely: q must be discardable.
        if l_empty and rc.discardable(q.right):
            return empty
        if r_empty and rc.discardable(q.left):
            return empty
        return None
    # EXCEPT: q \ {} → q (nothing skipped); {} \ q → {} needs q discardable
    if r_empty:
        return q.left
    if l_empty and rc.discardable(q.right):
        return empty
    return None


# ---------------------------------------------------------------------------
# comprehension rules
# ---------------------------------------------------------------------------


def _qual_effects_ok(rc: RewriteContext, quals: tuple[Qualifier, ...]) -> bool:
    """May the evaluation of these qualifiers be skipped entirely?"""
    inner = rc
    for cq in quals:
        if isinstance(cq, Pred):
            if not inner.skippable(cq.cond):
                return False
        else:
            assert isinstance(cq, Gen)
            if not inner.skippable(cq.source):
                return False
            inner = inner.bind(cq.var, cq.source)
    return True


def _true_pred(rc: RewriteContext, q: Query) -> Query | None:
    if not isinstance(q, Comp):
        return None
    for i, cq in enumerate(q.qualifiers):
        if isinstance(cq, Pred) and cq.cond == BoolLit(True):
            return Comp(q.head, q.qualifiers[:i] + q.qualifiers[i + 1 :])
    return None


def _false_pred(rc: RewriteContext, q: Query) -> Query | None:
    if not isinstance(q, Comp):
        return None
    for i, cq in enumerate(q.qualifiers):
        if isinstance(cq, Pred) and cq.cond == BoolLit(False):
            if _qual_effects_ok(rc, q.qualifiers[:i]):
                return SetLit(())
    return None


def _empty_gen(rc: RewriteContext, q: Query) -> Query | None:
    if not isinstance(q, Comp):
        return None
    for i, cq in enumerate(q.qualifiers):
        if isinstance(cq, Gen) and cq.source == SetLit(()):
            if _qual_effects_ok(rc, q.qualifiers[:i]):
                return SetLit(())
    return None


def _pred_pushdown(rc: RewriteContext, q: Query) -> Query | None:
    """Move one pure predicate to the earliest position binding its vars."""
    if not isinstance(q, Comp):
        return None
    quals = q.qualifiers
    for i, cq in enumerate(quals):
        if not isinstance(cq, Pred):
            continue
        # the predicate itself will be evaluated more often: must be
        # pure and termination-safe
        inner = rc
        bound_at: list[frozenset[str]] = []  # vars bound before position j
        bound: frozenset[str] = frozenset()
        for prior in quals[:i]:
            bound_at.append(bound)
            if isinstance(prior, Gen):
                bound |= {prior.var}
                inner = inner.bind(prior.var, prior.source)
        bound_at.append(bound)
        if not inner.discardable(cq.cond):
            continue
        fv = free_vars(cq.cond)
        # earliest legal position
        target = i
        for j in range(i - 1, -1, -1):
            crossed = quals[j]
            if isinstance(crossed, Gen) and crossed.var in fv:
                break
            # crossed qualifier will be evaluated fewer times
            cr_inner_q = crossed.cond if isinstance(crossed, Pred) else crossed.source
            rc_j = rc
            for prior in quals[:j]:
                if isinstance(prior, Gen):
                    rc_j = rc_j.bind(prior.var, prior.source)
            if not rc_j.skippable(cr_inner_q):
                break
            target = j
        # crossing only predicates changes no evaluation count; moving
        # anyway lets two same-slot predicates swap places every pass
        if any(isinstance(quals[j], Gen) for j in range(target, i)):
            new_quals = list(quals)
            del new_quals[i]
            new_quals.insert(target, cq)
            return Comp(q.head, tuple(new_quals))
    return None


def _unnest(rc: RewriteContext, q: Query) -> Query | None:
    """Flatten a generator over a nested comprehension (set monad law).

    ``{h | …, x ← {h′ | G⃗}, R⃗} → {h[x:=h′] | …, G⃗, R⃗[x:=h′]}``.

    Side conditions (see the module docstring's table):

    * ``h′`` must be discardable — it is duplicated into the head and
      every rest qualifier and re-evaluated per iteration;
    * the inner qualifiers ``G⃗`` and the rest ``R⃗`` (and the outer
      head) must be write-free and termination-safe: the rewrite
      interleaves their evaluation and runs ``R⃗`` once per inner
      *binding* rather than once per distinct inner *element* (sets
      deduplicate), which is observable only through writes or
      divergence.
    """
    if not isinstance(q, Comp):
        return None
    inner_rc = rc
    for i, cq in enumerate(q.qualifiers):
        if isinstance(cq, Gen) and isinstance(cq.source, Comp):
            inner = cq.source
            head_rc = inner_rc
            for icq in inner.qualifiers:
                if isinstance(icq, Gen):
                    head_rc = head_rc.bind(icq.var, icq.source)
            if (
                head_rc.discardable(inner.head)
                and _qual_effects_ok(inner_rc, inner.qualifiers)
                and _rest_write_free(inner_rc, cq, inner, q.qualifiers[i + 1 :], q.head)
            ):
                rest = tuple(
                    _subst_qual(r, cq.var, inner.head)
                    for r in q.qualifiers[i + 1 :]
                )
                new_head = subst(q.head, cq.var, inner.head)
                new_quals = q.qualifiers[:i] + inner.qualifiers + rest
                return Comp(new_head, new_quals)
        if isinstance(cq, Gen):
            inner_rc = inner_rc.bind(cq.var, cq.source)
    return None


def _rest_write_free(
    rc: RewriteContext,
    gen: Gen,
    inner: Comp,
    rest: tuple[Qualifier, ...],
    head: Query,
) -> bool:
    """Check R⃗ and the outer head are skippable under their bindings."""
    cur = rc.bind(gen.var, gen.source)
    for r in rest:
        sub = r.cond if isinstance(r, Pred) else r.source  # type: ignore[union-attr]
        if not cur.skippable(sub):
            return False
        if isinstance(r, Gen):
            cur = cur.bind(r.var, r.source)
    return cur.skippable(head)


def _subst_qual(cq: Qualifier, x: str, r: Query) -> Qualifier:
    if isinstance(cq, Pred):
        return Pred(subst(cq.cond, x, r))
    assert isinstance(cq, Gen)
    if cq.var == x:
        return cq
    return Gen(cq.var, subst(cq.source, x, r))


def _record_proj(rc: RewriteContext, q: Query) -> Query | None:
    if not isinstance(q, Field) or not isinstance(q.target, RecordLit):
        return None
    hit = q.target.field(q.name)
    if hit is None:
        return None
    others = [sub for l, sub in q.target.fields if l != q.name]
    if all(rc.discardable(o) for o in others):
        return hit
    return None


def _commute_setop(rc: RewriteContext, q: Query) -> Query | None:
    """Theorem 8's rewrite.  Not in the default pipeline — commuting is
    only *profitable* under a cost model; this rule asserts *legality*."""
    if not isinstance(q, SetOp) or not q.op.commutative:
        return None
    from repro.model.types import ListType
    from repro.typing.checker import check_query

    try:
        if isinstance(check_query(rc.ctx, q.left), ListType):
            return None  # list union = concatenation: never commutes
    except IOQLTypeError:
        return None
    le = rc.effect(q.left)
    re_ = rc.effect(q.right)
    if le is None or re_ is None or le.interferes_with(re_):
        return None
    return SetOp(q.op, q.right, q.left)


IF_CONST_FOLD = Rule("if-const-fold", _if_const_fold)
ARITH_FOLD = Rule("arith-fold", _arith_fold)
EMPTY_SETOP = Rule("empty-setop", _empty_setop)
TRUE_PRED = Rule("true-pred", _true_pred)
FALSE_PRED = Rule("false-pred", _false_pred)
EMPTY_GEN = Rule("empty-gen", _empty_gen)
PRED_PUSHDOWN = Rule("pred-pushdown", _pred_pushdown)
UNNEST = Rule("unnest", _unnest)
RECORD_PROJ = Rule("record-proj", _record_proj)
COMMUTE_SETOP = Rule("commute-setop", _commute_setop)

DEFAULT_RULES: tuple[Rule, ...] = (
    IF_CONST_FOLD,
    ARITH_FOLD,
    EMPTY_SETOP,
    TRUE_PRED,
    FALSE_PRED,
    EMPTY_GEN,
    RECORD_PROJ,
    UNNEST,
    PRED_PUSHDOWN,
)
"""The normalisation pipeline (everything except explicit commutation)."""
