"""Grammar-driven expression generation (§5.1, generation layer).

Each :meth:`Enumerator.advance` runs one iteration of Algorithm 2's
"generate new expressions" step over a :class:`~.pool.PoolStore` the
enumerator does *not* own: every production is instantiated with every
valid combination of stored expressions *in which at least one argument
is from the newest generation*, so all smaller expressions are produced
before larger ones and no combination is rebuilt.

Because freshness is a generation tag on the entries, the enumerator is
naturally incremental: atoms or seeds admitted into a persistent store
between runs (new constants from an appended example, subexpressions of
the current ``P_i``, revived shadow entries) carry the current
generation and become the fresh set of the next advance, so enumeration
continues where the previous run stopped instead of starting over.

When ``use_dsl`` is off (the "no DSL" ablation of §6.3, and the
sketch-like baseline) the grammar is ignored and argument slots accept
any expression of a compatible *type*, exactly the weaker search the
paper compares against.

**Batched mode** (the default; ``REPRO_ENUM=classic`` or
:func:`set_enum_mode` selects the reference path). For an eager call
production every child entry already carries its cached value vector,
so the candidate's vector is obtained by one column-wise application of
the component (:func:`repro.core.compile.compile_batch`) — no ``Expr``
is allocated, hashed, canonicalized, or walked first. Observational
duplicates are rejected on the interned signature of that vector alone;
the expression is materialized lazily from the ``(production,
child-entries)`` tuple only for survivors (and for semantic losers that
still fit the revival shadow list, which must be hash-consed exactly as
the classic path leaves them). Productions the batch compiler cannot
handle — lazy components, recursion, unbound LaSy callees — fall back
to the classic per-candidate pipeline, so both modes synthesize
identical programs (``tests/test_enum_batched.py`` holds them to that).
Lambda slots join the batched path with one memoized callable per
example in place of a vector (:meth:`PoolStore.lambda_columns`), under
the whole-tree fuel of the classic evaluation
(:meth:`PoolStore.apply_lambda_batch`). Candidates with free variables
are still built and offered one by one, but only after their budget
charge and size and variable caps passed on the children's sizes.
"""

from __future__ import annotations

import itertools
import os
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ...obs.profile import get_progress
from ...obs.trace import get_tracer
from ..compile import compile_batch, compile_lasy_batch
from ..dsl import LambdaSpec, NtRef, Production
from ..evaluator import check_value_size
from ..expr import Call, Const, Expr, Lambda, LasyCall, Param, Recurse, Var, free_vars
from ..types import types_compatible
from ..values import ERROR, freeze
from .pool import PoolEntry, PoolStore, _value_type

# ---------------------------------------------------------------------
# Enumeration-mode switch, mirroring evaluator.REPRO_EVAL: the batched
# value-vector path is a pure optimization, and the classic path stays
# selectable for differential tests, A/B timing, and as a safety hatch.

_ENUM_MODE = "classic" if os.environ.get("REPRO_ENUM") == "classic" else "batched"


def set_enum_mode(mode: str) -> str:
    """Select ``"batched"`` or ``"classic"``; returns the previous mode."""
    global _ENUM_MODE
    if mode not in ("batched", "classic"):
        raise ValueError(f"unknown enum mode {mode!r}")
    previous = _ENUM_MODE
    _ENUM_MODE = mode
    return previous


def get_enum_mode() -> str:
    return _ENUM_MODE


def _production_label(prod: Production) -> str:
    """Stable human-readable production tag for spans and reports."""
    if prod.kind == "lasy_fn":
        return f"{prod.nt}<-_LASY_FN"
    if prod.kind == "recurse":
        return f"{prod.nt}<-_RECURSE"
    name = prod.func.name if prod.func is not None else prod.kind
    return f"{prod.nt}<-{name}"


def lambda_nt(spec: LambdaSpec) -> str:
    """The synthetic nonterminal tag for inline lambda arguments."""
    vars_part = ",".join(spec.var_names)
    return f"lambda({vars_part}:{spec.body_nt})"


class Enumerator:
    """Generates expression generations into a borrowed store."""

    def __init__(self, store: PoolStore, enum_mode: Optional[str] = None):
        self.store = store
        # Per-run override (DbsOptions.enum_mode, rebound by the session
        # each begin_run); None defers to the process-wide REPRO_ENUM
        # default.
        self.enum_mode = enum_mode
        # Argument-slot generation splits, valid for one advance only
        # (see _split_candidates).
        self._slot_cache: Dict[Any, Tuple] = {}
        # True while a batched-mode advance is in flight: offers from
        # this enumerator may then compute sampled fingerprints from the
        # pool's memoized grids (classic mode stays the reference path).
        self._fast_sampling = False
        # Bound by ShardCoordinator.attach when a run shards generations
        # across worker processes; None means every advance is serial.
        self.shard_coord = None

    def __getstate__(self):
        # The slot cache is valid for one advance only and holds raw
        # entry-list aliases; never ship it. An advance is never in
        # flight across a pickle, so the sampling flag resets too. The
        # shard coordinator owns live worker processes and is strictly
        # parent-side state.
        state = self.__dict__.copy()
        state["_slot_cache"] = {}
        state["_fast_sampling"] = False
        state["shard_coord"] = None
        return state

    # -- seeding -------------------------------------------------------

    def seed(self, seeds: Iterable[Expr] = ()) -> None:
        """Offer the atoms (params, constants, nullary calls, lambda
        variables) and the caller's seed expressions.

        Idempotent over a persistent store — duplicates fall to the
        syntactic seen-set — which is exactly what a warm run needs:
        constants derived from newly appended examples and the current
        ``P_i``'s subexpressions enter at the store's current generation.
        """
        store = self.store
        if store.options.use_dsl:
            for prod in store.dsl.productions:
                if prod.kind == "param":
                    self._add_params(prod.nt)
                elif prod.kind == "constant":
                    self._add_constants(prod.nt)
                elif prod.kind == "var":
                    self._add_var(prod.nt, prod.var_name or "")
                elif prod.kind == "call" and prod.func and not prod.args:
                    store.offer(Call(prod.func, (), prod.nt))
        else:
            self._seed_atoms_untyped()
        for seed in seeds:
            store.offer(seed)

    def _seed_atoms_untyped(self) -> None:
        """Type-only atoms for the no-DSL mode: every param, every
        constant, every lambda variable, tagged with pseudo-nonterminals."""
        store = self.store
        for name, ty in store.signature.params:
            store.offer(Param(name, ty, store._type_nt(ty)))
        for value in store.all_constants():
            ty = _value_type(value, store.dsl)
            store.offer(Const(value, ty, store._type_nt(ty)))
        for vname, vty in store.dsl.lambda_vars.items():
            store.offer(Var(vname, vty, store._type_nt(vty)))
        for prod in store.dsl.productions:
            if prod.kind == "call" and prod.func and not prod.args:
                func = prod.func
                store.offer(Call(func, (), store._type_nt(func.return_type)))

    def _add_params(self, nt: str) -> None:
        store = self.store
        nt_type = store.dsl.type_of(nt)
        for name, ty in store.signature.params:
            if types_compatible(nt_type, ty):
                store.offer(Param(name, ty, nt))

    def _add_constants(self, nt: str) -> None:
        store = self.store
        nt_type = store.dsl.type_of(nt)
        for value in store.constants_for(nt):
            store.offer(Const(value, nt_type, nt))

    def _add_var(self, nt: str, var_name: str) -> None:
        store = self.store
        vty = store.dsl.lambda_vars.get(var_name)
        if vty is None:
            return
        store.offer(Var(var_name, vty, nt))

    # -- generation ----------------------------------------------------

    def advance(self) -> List[Expr]:
        """Run one generation of expression composition; returns the new
        (deduplicated) expressions added this generation.

        On budget exhaustion the partial generation is returned (and the
        store's ``exhausted`` flag set) so DBS can still test what was
        built before reporting TIMEOUT."""
        added: List[Expr] = []
        for batch in self.advance_batches():
            added.extend(batch)
        return added

    def advance_batches(self) -> Iterable[List[Expr]]:
        """Like :func:`advance` but yields per-production batches, so the
        caller can test candidates as soon as their production finishes
        rather than after the whole (possibly enormous) generation."""
        from ..budget import BudgetExhausted

        store = self.store
        store.generation += 1
        # Until the generator runs to completion, the generation is
        # incomplete (budget death, or the caller stopped consuming on a
        # solve); a warm run redoes it — see PoolStore.bind.
        store.incomplete_generation = True
        # Whether this generation is the redo of one interrupted in a
        # previous run (PoolStore.bind armed the flag when stepping the
        # generation counter back). Published on completion so DBS's
        # dry-generation check knows a zero-add redo is inconclusive.
        redone = store.pending_redo
        store.pending_redo = False
        store.last_generation_redone = False
        if store.budget.exhausted():
            store.exhausted = True
            return
        store.exhausted = False
        tracer = get_tracer()
        batched = self._resolve_mode() == "batched"
        self._fast_sampling = batched
        self._slot_cache.clear()
        store.clear_partitions()
        try:
            if store.options.use_dsl:
                # Cheapest productions first: a huge production must not
                # starve the small ones (and the solution is more often
                # within reach of a small production's fresh combos).
                from .shard import _generation_productions

                ordered = sorted(
                    _generation_productions(store.dsl),
                    key=self._production_cost,
                )
                coord = self.shard_coord
                if coord is not None:
                    # Sharded advance: workers enumerate disjoint ordinal
                    # strides of this generation against replicas, and
                    # the coordinator replays the merged survivors here.
                    # None means "run it serially" (generation too
                    # small, or sharding permanently disabled after an
                    # infrastructure failure) with the pool untouched.
                    shard_gen = coord.try_generation(self, ordered, redone)
                    if shard_gen is not None:
                        yield from shard_gen
                        return
                prog = get_progress()
                for prod in ordered:
                    use_batched = batched and self._batchable(prod)
                    if tracer.enabled:
                        batch = self._expand_traced(prod, tracer, use_batched)
                    else:
                        batch = self._expand(prod, use_batched)
                    if prog is not None and prog.due():
                        prog.tick(
                            generation=store.generation,
                            pool_size=store.total(),
                            candidates=store.budget.expressions,
                            deadline_s=store.budget.time_remaining(),
                        )
                    if batch:
                        yield batch
            else:
                batch = self._expand_untyped()
                if batch:
                    yield batch
        except BudgetExhausted:
            store.exhausted = True
            return
        store.incomplete_generation = False
        store.last_generation_redone = redone

    def _resolve_mode(self) -> str:
        mode = self.enum_mode or get_enum_mode()
        if mode not in ("batched", "classic"):
            raise ValueError(f"unknown enum mode {mode!r}")
        return mode

    def _batchable(self, prod: Production) -> bool:
        """Whether a production can take the batched value-vector path:
        an eager call (or LaSy call) returning data. Lambda slots carry
        per-example memoized callables in place of vectors (see
        :meth:`PoolStore.lambda_columns`); recursion carries no
        vectors, and with no examples there is nothing to batch over."""
        if not self.store.examples:
            return False
        if prod.kind == "lasy_fn":
            return True  # unbound callees fall back per name
        return (
            prod.kind == "call"
            and prod.func is not None
            and not prod.func.lazy
            and not prod.func.return_type.is_function
        )

    def _expand(self, prod: Production, batched: bool = False) -> List[Expr]:
        if prod.kind == "lasy_fn":
            return self._expand_lasy(prod, batched)
        if batched:
            return self._expand_batched(prod)
        return self._expand_production(prod)

    def _expand_traced(
        self, prod: Production, tracer, batched: bool = False
    ) -> List[Expr]:
        """One production under a ``dbs.enumerate`` (classic) or
        ``dbs.enum.batched`` span — distinct names so trace reports
        split the two paths' time. The ``offered`` count is attached
        even when the budget dies mid-expansion, so the report's
        expression attribution stays complete.

        When the run records detailed metrics (tracing on), the same
        deltas also land in ``prof.production.*`` labeled instruments —
        counter snapshots around the expansion, so the inner loops stay
        untouched — which merge across worker shards and feed the
        ``report-trace --hotspots`` production table."""
        store = self.store
        label = _production_label(prod)
        detailed = store._detailed
        with tracer.span(
            "dbs.enum.batched" if batched else "dbs.enumerate",
            generation=store.generation,
            production=label,
        ) as span:
            before = store.budget.expressions
            if detailed:
                added_before = store._c_added.value
                sem_before = store._c_semantic.value
                t0 = perf_counter()
            batch: List[Expr] = []
            try:
                batch = self._expand(prod, batched)
            finally:
                offered = store.budget.expressions - before
                span.set(offered=offered, added=len(batch))
                if detailed:
                    metrics = store.metrics
                    metrics.histogram("prof.production.seconds").observe(
                        perf_counter() - t0, production=label
                    )
                    if offered:
                        metrics.counter("prof.production.offered").inc(
                            offered, production=label
                        )
                    admitted = store._c_added.value - added_before
                    if admitted:
                        metrics.counter("prof.production.admitted").inc(
                            admitted, production=label
                        )
                    sig_rejected = store._c_semantic.value - sem_before
                    if sig_rejected:
                        metrics.counter("prof.production.sig_rejected").inc(
                            sig_rejected, production=label
                        )
            return batch

    def _production_cost(self, prod: Production) -> int:
        """Estimated combination count for this production this
        generation (product of slot pool sizes)."""
        store = self.store
        cost = 1
        for arg in prod.args:
            if isinstance(arg, NtRef):
                size = sum(
                    len(store._entries.get(name, ()))
                    for name in store.dsl.expansion(arg.nt)
                )
            elif isinstance(arg, LambdaSpec):
                size = len(store._entries.get(arg.body_nt, ()))
            else:
                size = 1
            cost *= max(size, 1)
            if cost > 10**12:
                break
        return cost

    def _expand_production(self, prod: Production) -> List[Expr]:
        store = self.store
        split_slots = [self._split_candidates(arg) for arg in prod.args]
        if any(not slot[2] for slot in split_slots):
            return []
        added: List[Expr] = []
        fast_path = (
            prod.kind == "call"
            and prod.func is not None
            and not prod.func.lazy
            and not any(isinstance(a, LambdaSpec) for a in prod.args)
        )
        for combo in self._split_combinations(split_slots):
            if prod.kind == "call":
                assert prod.func is not None
                expr: Optional[Expr] = Call(
                    prod.func, tuple(e.expr for e in combo), prod.nt
                )
                values = (
                    self._apply_values(prod.func, combo) if fast_path else None
                )
            else:  # recurse
                expr = self._build_recurse(prod, combo)
                values = None
            if expr is None:
                continue
            result = store.offer(
                expr, values, sampled_fast=self._fast_sampling
            )
            if result is not None:
                added.append(result)
        return added

    def _expand_batched(self, prod: Production) -> List[Expr]:
        """Batched expansion of one eager call production (see
        :meth:`_batched_combos` for the loop itself)."""
        store = self.store
        func = prod.func
        assert func is not None
        batch_fn = compile_batch(func)
        if batch_fn is None:  # lazy component: vectors can't feed thunks
            return self._expand_production(prod)
        split_slots = [self._split_candidates(arg) for arg in prod.args]
        if any(not slot[2] for slot in split_slots):
            return []
        nt = prod.nt

        def make_expr(children: Tuple[Expr, ...]) -> Expr:
            return Call(func, children, nt)

        lambda_slots = tuple(
            j for j, arg in enumerate(prod.args) if isinstance(arg, LambdaSpec)
        )
        return self._batched_combos(
            nt, split_slots, batch_fn, make_expr, lambda_slots
        )

    def _batched_combos(
        self,
        nt: str,
        split_slots: List[Tuple],
        batch_fn,
        make_expr,
        lambda_slots: Tuple[int, ...] = (),
    ) -> List[Expr]:
        """The batched inner loop: per fresh combination, compute the
        candidate's value vector straight from the cached child vectors
        with one vectorized ``batch_fn`` call and dedup on the interned
        signature; only survivors (and shadow-worthy semantic losers)
        are materialized as expressions via ``make_expr``. Candidate
        accounting (budget charge, offered/rejected/semantic counters,
        admission filter) mirrors the classic :meth:`PoolStore.offer`
        pipeline step for step, so the two modes exhaust budgets at the
        same points and leave identical pools. ``lambda_slots`` index
        the slots whose entries carry lambda columns; their fuel is
        metered by :meth:`PoolStore.apply_lambda_batch`."""
        store = self.store
        examples = store.examples
        n_examples = len(examples)
        budget = store.budget
        dedup = store.options.semantic_dedup
        predicate = store.dsl.admission_filters.get(nt)
        max_size = store.options.max_expr_size
        seen = store._seen_semantic.setdefault(nt, set()) if dedup else ()
        detailed = store._detailed
        c_offered = store._c_offered
        c_batched = store._c_batched
        c_materialized = store._c_materialized
        c_applies = store._c_applies
        c_rejected = store._c_rejected
        c_semantic = store._c_semantic
        # Heartbeats from the hottest loop in the engine: the common
        # prog-is-None case costs one comparison every combo, the
        # installed case one extra clock read every 2048 combos.
        prog = get_progress()
        # Shard-capture mode (worker replica): the per-candidate work up
        # to and including the admission filter runs here as usual, then
        # the candidate is recorded for the parent's replay instead of
        # entering the live dedup/admission tail.
        capture = store._shard_capture
        combo_n = 0
        added: List[Expr] = []
        for combo in self._split_combinations(split_slots):
            if prog is not None:
                combo_n += 1
                if not combo_n & 2047 and prog.due():
                    prog.tick(
                        generation=store.generation,
                        pool_size=store.total(),
                        candidates=budget.expressions,
                        deadline_s=budget.time_remaining(),
                    )
            for entry in combo:
                if entry.values is None:
                    # A child without a cached vector (free lambda
                    # variables or recursion in a subtree): the
                    # candidate is not closed, so the whole classic
                    # admission pipeline applies to it — but its caps
                    # can be checked from the children before it is
                    # built, and its sampled fingerprint can come from
                    # the memoized grids instead of a fresh
                    # per-candidate evaluation.
                    checked = capture is None and not any(
                        e.expr.has_recurse for e in combo
                    )
                    if checked:
                        size = 1
                        has_vars = False
                        for e in combo:
                            size += e.expr.size
                            if e.expr.free_var_set:
                                has_vars = True
                        if not store.precheck(nt, size, has_vars):
                            break
                    expr = make_expr(tuple(e.expr for e in combo))
                    c_materialized.value += 1
                    result = store.offer(
                        expr, sampled_fast=True, checked=checked
                    )
                    if result is not None:
                        added.append(result)
                    break
            else:
                budget.charge_expression()
                c_offered.value += 1
                size = 1
                for entry in combo:
                    size += entry.expr.size
                if size > max_size:
                    c_rejected.value += 1
                    if detailed:
                        c_rejected.label(reason="size", nt=nt)
                    continue
                if lambda_slots:
                    values = store.apply_lambda_batch(
                        batch_fn, combo, lambda_slots, make_expr
                    )
                else:
                    values = batch_fn(*[e.values for e in combo])
                c_batched.value += 1
                c_applies.value += n_examples
                if predicate is not None and not predicate(values, examples):
                    c_rejected.value += 1
                    if detailed:
                        c_rejected.label(reason="filter", nt=nt)
                    continue
                if capture is not None:
                    capture.batched(nt, combo, values, make_expr)
                    continue
                sig = sig_cols = None
                if dedup:
                    sig, sig_cols = store.vector_sig(nt, values)
                    if sig is not None and sig in seen:
                        c_semantic.value += 1
                        if detailed:
                            c_semantic.label(nt=nt)
                        if store.shadow_has_room(nt):
                            expr = make_expr(tuple(e.expr for e in combo))
                            c_materialized.value += 1
                            store.shadow_batched(expr, values, sig, sig_cols)
                        continue
                expr = make_expr(tuple(e.expr for e in combo))
                c_materialized.value += 1
                result = store.admit_batched(expr, values, sig, sig_cols)
                if result is not None:
                    added.append(result)
        return added

    def _apply_values(
        self, func, combo: Sequence[PoolEntry]
    ) -> Optional[Tuple[Any, ...]]:
        """Value vector of ``func`` applied to cached child vectors, or
        None when some child has no cached vector."""
        store = self.store
        child_vectors = []
        for entry in combo:
            if entry.values is None:
                return None
            child_vectors.append(entry.values)
        out: List[Any] = []
        store._c_applies.value += len(store.examples)
        for i in range(len(store.examples)):
            args = [vec[i] for vec in child_vectors]
            if any(a is ERROR for a in args):
                out.append(ERROR)
                continue
            try:
                out.append(check_value_size(freeze(func.fn(*args))))
            except Exception:
                out.append(ERROR)
        return tuple(out)

    def _build_recurse(
        self, prod: Production, combo: Sequence[PoolEntry]
    ) -> Optional[Expr]:
        store = self.store
        expected = store.signature.param_types
        arg_types = tuple(
            store.dsl.type_of(a.nt) for a in prod.args if isinstance(a, NtRef)
        )
        if len(arg_types) != len(expected) or not all(
            types_compatible(e, a) for e, a in zip(expected, arg_types)
        ):
            return None
        return Recurse(tuple(e.expr for e in combo), prod.nt)

    def _expand_untyped(self) -> List[Expr]:
        store = self.store
        added: List[Expr] = []
        for func in store.dsl.functions():
            slots: List[List[PoolEntry]] = []
            feasible = True
            has_lambda = False
            for pty in func.param_types:
                if pty.is_function:
                    has_lambda = True
                    candidates = self._lambda_candidates(pty)
                else:
                    candidates = [
                        entry
                        for t, entries in store._by_type.items()
                        if types_compatible(pty, t)
                        for entry in entries
                    ]
                if not candidates:
                    feasible = False
                    break
                slots.append(candidates)
            if not feasible:
                continue
            fast_path = not func.lazy and not has_lambda
            for combo in self._fresh_combinations(slots):
                nt = store._type_nt(func.return_type)
                expr = Call(func, tuple(e.expr for e in combo), nt)
                values = self._apply_values(func, combo) if fast_path else None
                result = store.offer(expr, values)
                if result is not None:
                    added.append(result)
        return added

    def _lambda_candidates(self, fun_type) -> List[PoolEntry]:
        """In no-DSL mode, wrap pooled bodies in lambdas matching a
        function-typed parameter, using the grammar's lambda variables."""
        store = self.store
        out: List[PoolEntry] = []
        for spec in store._lambda_specs:
            body_ty = store.dsl.type_of(spec.body_nt)
            from ..types import fun_n

            if fun_n(spec.var_types, body_ty) != fun_type:
                continue
            params = tuple(
                Var(n, t, store._type_nt(t))
                for n, t in zip(spec.var_names, spec.var_types)
            )
            for entry in store._by_type.get(body_ty, []):
                lam = Lambda(params, entry.expr, lambda_nt(spec))
                out.append(PoolEntry(lam, entry.generation))
        return out

    def _split_candidates(
        self, arg: Any
    ) -> Tuple[List[PoolEntry], List[PoolEntry], List[PoolEntry]]:
        """One argument slot's candidates split by generation against
        the newest complete generation: ``(older, fresh, upto)``, each
        preserving the pool's entry order. Computed once per slot per
        advance (entries admitted *during* the advance carry the
        in-progress generation and are excluded by every split, so the
        cache stays valid while the generation grows) — this is what
        stops the enumerator from rescanning and re-filtering the whole
        pool once per production per argument position."""
        if isinstance(arg, NtRef):
            cache_key: Any = ("nt", arg.nt)
        elif isinstance(arg, LambdaSpec):
            # LambdaSpecs live in the DSL for the whole run, so identity
            # is a stable key for a per-advance cache.
            cache_key = ("lambda", id(arg))
        else:
            raise TypeError(f"unknown arg spec {arg!r}")
        cached = self._slot_cache.get(cache_key)
        if cached is not None:
            return cached
        store = self.store
        newest = store.generation - 1
        if isinstance(arg, NtRef):
            names = store.dsl.expansion(arg.nt)
            if len(names) == 1:
                split = store.partition(names[0], newest)
            else:
                older: List[PoolEntry] = []
                fresh: List[PoolEntry] = []
                upto: List[PoolEntry] = []
                for name in names:
                    part = store.partition(name, newest)
                    older.extend(part[0])
                    fresh.extend(part[1])
                    upto.extend(part[2])
                split = (older, fresh, upto)
        else:
            params = tuple(
                Var(n, t, store._type_nt(t))
                for n, t in zip(arg.var_names, arg.var_types)
            )
            nt = lambda_nt(arg)
            var_names = set(arg.var_names)
            # Batched mode: a body closed but for the lambda's own
            # variables gets per-example columns in place of a vector.
            columns = self._fast_sampling and bool(store.examples)
            older = []
            fresh = []
            upto = []
            for body_nt in store.dsl.expansion(arg.body_nt):
                for entry in store._entries.get(body_nt, []):
                    generation = entry.generation
                    if generation > newest:
                        continue
                    body = entry.expr
                    if arg.require_var_use and not (
                        free_vars(body) & var_names
                    ):
                        continue
                    values = None
                    if (
                        columns
                        and not body.has_recurse
                        and body.free_var_set <= var_names
                    ):
                        values = store.lambda_columns(body, arg.var_names)
                    wrapped = PoolEntry(
                        Lambda(params, body, nt), generation, values
                    )
                    upto.append(wrapped)
                    if generation < newest:
                        older.append(wrapped)
                    else:
                        fresh.append(wrapped)
            split = (older, fresh, upto)
        self._slot_cache[cache_key] = split
        return split

    def _split_combinations(
        self, split_slots: List[Tuple]
    ) -> Iterable[Tuple[PoolEntry, ...]]:
        """All slot combinations containing at least one expression from
        the newest complete generation, over precomputed generation
        splits: slot ``j`` carries the newest element, earlier slots are
        strictly older, later slots are anything up to newest. Same
        schedule — and therefore the same candidate order, which decides
        which of two observationally equal candidates wins admission —
        as :meth:`_fresh_combinations`, minus the per-production
        re-filtering. In shard-capture mode the stream is strided down
        to this worker's ordinal slice (same order, a congruence-class
        subset)."""
        capture = self.store._shard_capture
        if capture is not None:
            return capture.stride(self._all_split_combinations(split_slots))
        return self._all_split_combinations(split_slots)

    def _all_split_combinations(
        self, split_slots: List[Tuple]
    ) -> Iterable[Tuple[PoolEntry, ...]]:
        for j in range(len(split_slots)):
            fresh = split_slots[j][1]
            if not fresh:
                continue
            older = [slot[0] for slot in split_slots[:j]]
            upto = [slot[2] for slot in split_slots[j + 1:]]
            if any(not s for s in older) or any(not s for s in upto):
                continue
            yield from itertools.product(*older, fresh, *upto)

    def _fresh_combinations(
        self, slots: List[List[PoolEntry]]
    ) -> Iterable[Tuple[PoolEntry, ...]]:
        """All slot combinations containing at least one expression from
        the newest complete generation (``store.generation - 1``), without
        duplicates: slot ``j`` carries the newest element, earlier slots
        are strictly older, later slots are anything."""
        newest = self.store.generation - 1
        for j in range(len(slots)):
            older = [
                [e for e in slot if e.generation < newest]
                for slot in slots[:j]
            ]
            fresh = [e for e in slots[j] if e.generation == newest]
            anything = [
                [e for e in slot if e.generation <= newest]
                for slot in slots[j + 1:]
            ]
            if not fresh or any(not s for s in older) or any(
                not s for s in anything
            ):
                continue
            yield from itertools.product(*older, fresh, *anything)

    def _expand_lasy(self, prod: Production, batched: bool = False) -> List[Expr]:
        store = self.store
        nt_type = store.dsl.type_of(prod.nt)
        arg_nts = [a.nt for a in prod.args if isinstance(a, NtRef)]
        split_slots = [
            self._split_candidates(NtRef(a_nt)) for a_nt in arg_nts
        ]
        if any(not slot[2] for slot in split_slots):
            return []
        added: List[Expr] = []
        for name, sig in store.lasy_signatures.items():
            if name == store.signature.name:
                continue  # self-calls are _RECURSE, not _LASY_FN
            if not types_compatible(nt_type, sig.return_type):
                continue
            if len(sig.params) != len(arg_nts):
                continue
            if not all(
                types_compatible(pty, store.dsl.type_of(a_nt))
                for (_, pty), a_nt in zip(sig.params, arg_nts)
            ):
                continue
            fn = store.lasy_fns.get(name)
            if batched and fn is not None:
                # The callee is bound, so its vector semantics match the
                # classic _apply_lasy_values column for column.
                lasy_nt = prod.nt

                def make_expr(
                    children: Tuple[Expr, ...], name=name, lasy_nt=lasy_nt
                ) -> Expr:
                    return LasyCall(name, children, lasy_nt)

                added.extend(
                    self._batched_combos(
                        lasy_nt,
                        split_slots,
                        compile_lasy_batch(fn),
                        make_expr,
                    )
                )
                continue
            for combo in self._split_combinations(split_slots):
                expr = LasyCall(name, tuple(e.expr for e in combo), prod.nt)
                values = None
                if fn is not None and all(
                    e.values is not None for e in combo
                ):
                    values = self._apply_lasy_values(fn, combo)
                result = store.offer(
                    expr, values, sampled_fast=self._fast_sampling
                )
                if result is not None:
                    added.append(result)
        return added

    def _apply_lasy_values(
        self, fn, combo: Sequence[PoolEntry]
    ) -> Tuple[Any, ...]:
        store = self.store
        out: List[Any] = []
        store._c_applies.value += len(store.examples)
        for i in range(len(store.examples)):
            args = [e.values[i] for e in combo]  # type: ignore[index]
            if any(a is ERROR for a in args):
                out.append(ERROR)
                continue
            try:
                out.append(check_value_size(freeze(fn(*args))))
            except Exception:
                out.append(ERROR)
        return tuple(out)
