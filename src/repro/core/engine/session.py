"""The cross-run synthesis session (orchestration layer).

A :class:`SynthesisSession` owns the persistent :class:`~.pool.PoolStore`
and :class:`~.enumerator.Enumerator` and threads them — together with
the per-run tester, budget, metrics registry, and tracer — through
consecutive DBS invocations of one TDS example sequence (Algorithm 1).

Per run, :meth:`SynthesisSession.begin_run` either

* builds the store cold (first run, or the run's options/examples are
  incompatible with what the store holds), or
* *extends* it: rebinds counters and budget, reconciles LaSy-function
  staleness, widens every cached value vector by the newly appended
  examples only (``PoolStore.extend_examples``), and re-seeds atoms and
  the current ``P_i``'s subexpressions into the store at the current
  generation — so iteration ``i+1`` starts from iteration ``i``'s
  enumeration frontier instead of from scratch.

The T(p)/B(g) conditional store and the tester are per-run (they depend
on the full example list and the run's budget); only the expression
store survives.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..budget import BudgetExhausted, CancelToken
from ..conditionals import ConditionalStore, guard_nts
from ..contexts import Context, hole_type
from ..dsl import Dsl, Example, Signature
from ..expr import Expr, free_vars
from ..types import types_compatible
from .enumerator import Enumerator
from .keys import SessionKey, options_fingerprint, session_key_for
from .pool import PoolOptions, PoolStore
from .registry import StrategyRegistry, default_registry
from .testing import Tester

REUSE_KEYS = ("reused", "invalidated", "revived", "refreshed", "pruned")


def _prefix_permutation(
    held: Sequence[Example], want: Sequence[Example]
) -> Optional[List[int]]:
    """``perm`` with ``held[perm[i]] == want[i]``, or None when ``want``
    is not a permutation of ``held``. Multiset matching by structural
    equality; duplicates pair up greedily (any pairing of equal examples
    is the same permutation of columns). O(n²), with n the example
    prefix — single digits in practice."""
    if len(held) != len(want):
        return None
    used = [False] * len(held)
    perm: List[int] = []
    for example in want:
        for j, candidate in enumerate(held):
            if not used[j] and candidate == example:
                used[j] = True
                perm.append(j)
                break
        else:
            return None
    return perm


def acceptable_nts(
    contexts: Sequence[Context], dsl: Dsl, options
) -> Dict[int, frozenset]:
    """Per context (by position), the nonterminal tags it accepts."""
    table: Dict[int, frozenset] = {}
    for i, ctx in enumerate(contexts):
        if ctx.hole_nt in dsl.nonterminals:
            table[i] = frozenset(dsl.expansion(ctx.hole_nt))
        else:
            table[i] = frozenset((ctx.hole_nt,))
    return table


class SynthesisSession:
    """Pool, tester, budget, metrics, and tracer for a DBS run — with
    the pool (and enumerator) persisting across runs."""

    def __init__(
        self,
        dsl: Dsl,
        signature: Signature,
        *,
        lasy_fns: Optional[Mapping[str, Any]] = None,
        lasy_signatures: Optional[Mapping[str, Signature]] = None,
        registry: Optional[StrategyRegistry] = None,
    ):
        self.dsl = dsl
        self.signature = signature
        # Shared with (and mutated by) the LaSy runner; the store's
        # refresh_lasy reconciles cached vectors against it per run.
        self.lasy_fns = lasy_fns if lasy_fns is not None else {}
        self.lasy_signatures = dict(lasy_signatures or {})
        self.registry = registry or default_registry()

        self.pool: Optional[PoolStore] = None
        self.enumerator: Optional[Enumerator] = None
        self.runs = 0
        # Lifetime pool.entries_* totals across runs (benchmarks and the
        # differential tests read these; per-run values live on each
        # run's metrics registry).
        self.reuse_totals: Dict[str, int] = {k: 0 for k in REUSE_KEYS}

        # Per-run state, populated by begin_run.
        self.contexts: List[Context] = []
        self.examples: List[Example] = []
        self.budget = None
        self.options = None
        self.stats = None
        self.tracer = None
        self.tester: Optional[Tester] = None
        self.store: Optional[ConditionalStore] = None
        self.guard_nts: frozenset = frozenset()
        self.acceptable: Dict[int, frozenset] = {}
        self.root_nt: Optional[str] = None
        self.all_set: frozenset = frozenset()
        self.max_branches = 1
        self.previous_program: Optional[Expr] = None
        self.last_store_size = (-1, -1)
        self.cancel: Optional[CancelToken] = None
        # A prefix permutation discovered by _extension_suffix, applied
        # by _extend_warm after the pool is re-bound (so the reorder's
        # dedup counters land on the current run's registry).
        self._pending_reorder: Optional[List[int]] = None
        # Cross-run (but strictly process-local) shard coordinator: kept
        # alive between runs so sharded DBS reuses warm worker replicas;
        # released by suspend — a cached session must not pin worker
        # processes. See engine.shard.
        self.shard_coord = None

    # -- identity / lifecycle ------------------------------------------

    def key(self, options: Any = None) -> SessionKey:
        """The session's explicit identity key (see ``engine.keys``):
        DSL, signature, LaSy-state fingerprint, pool options, and the
        example prefix the pool currently holds. ``options`` (a run- or
        cache-level options dataclass, e.g. ``TdsOptions``) is
        fingerprinted in when given."""
        pool = self.pool
        return session_key_for(
            getattr(self.dsl, "name", type(self.dsl).__name__),
            self.signature,
            lasy_fns=self.lasy_fns,
            lasy_names=self.lasy_signatures,
            pool_options=(
                options_fingerprint(pool.options) if pool is not None else ()
            ),
            options=options,
            examples=pool.examples if pool is not None else (),
        )

    def suspend(self) -> None:
        """Detach the session from its run so it can sit in a cache:
        per-run references (budget, registry-backed stats, tracer,
        tester, conditional store, cancel token) are released — a warm
        cached session must not pin a finished request's objects. The
        warm state (pool entries, enumerator generation, grids) is kept;
        the next :meth:`begin_run` reattaches everything."""
        self.budget = None
        self.stats = None
        self.tracer = None
        self.tester = None
        self.store = None
        self.cancel = None
        self.contexts = []
        self.acceptable = {}
        self.previous_program = None
        self._pending_reorder = None
        self.close_shard_coordinator()
        if self.pool is not None:
            self.pool.previous_program = None
            self.pool.guard_sets = []
            self.pool.suspend()

    def shard_coordinator(self, jobs: int, min_cost: int):
        """The session's shard coordinator for a run at ``jobs`` workers,
        creating (or re-creating, if the worker count changed) it on
        demand. Kept across runs so worker replicas stay warm and are
        synced with deltas instead of fresh snapshots."""
        from .shard import ShardCoordinator

        coord = self.shard_coord
        if coord is not None and (coord.jobs != jobs or coord.closed):
            coord.close()
            coord = None
        if coord is None:
            coord = ShardCoordinator(jobs, min_cost=min_cost)
            self.shard_coord = coord
        coord.min_cost = min_cost
        return coord

    def close_shard_coordinator(self) -> None:
        """Reap shard workers (and absorb their trace shards), if any."""
        coord, self.shard_coord = self.shard_coord, None
        if coord is not None:
            coord.close()

    def __getstate__(self):
        # Suspend-equivalent for transport: per-run references are not
        # picklable (tracers hold files, budgets hold monotonic
        # deadlines) and must not travel; the pool and enumerator have
        # their own __getstate__ that preserves the warm search state.
        state = self.__dict__.copy()
        for name in (
            "budget",
            "stats",
            "tracer",
            "tester",
            "store",
            "cancel",
            "shard_coord",
        ):
            state[name] = None
        state["contexts"] = []
        state["acceptable"] = {}
        state["previous_program"] = None
        state["_pending_reorder"] = None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.shard_coord = None
        if self.pool is not None:
            # The pool re-binds to private counters on unpickle; keep
            # the shared-mapping invariant (session and pool must see
            # the same lasy_fns object).
            self.pool.lasy_fns = self.lasy_fns

    # -- run lifecycle -------------------------------------------------

    def begin_run(
        self,
        *,
        contexts: Sequence[Context],
        examples: Sequence[Example],
        seeds: Sequence[Expr],
        budget,
        options,
        stats,
        tracer,
        previous_program: Optional[Expr] = None,
        max_branches: int = 1,
    ) -> "SynthesisSession":
        self.contexts = list(contexts)
        self.examples = list(examples)
        self.budget = budget
        self.options = options
        self.stats = stats
        self.tracer = tracer
        self.previous_program = previous_program
        self.max_branches = max_branches
        self.cancel = None
        self.last_store_size = (-1, -1)
        self._pending_reorder = None

        pool_options = PoolOptions(
            use_dsl=options.use_dsl,
            semantic_dedup=options.semantic_dedup,
        )
        pool = self.pool
        if pool is not None and not pool.compatible_options(pool_options):
            pool = self.pool = None
        suffix = self._extension_suffix(pool) if pool is not None else None
        if pool is None or suffix is None:
            self._build_cold(seeds, pool_options)
        else:
            try:
                self._extend_warm(suffix, seeds)
            except BudgetExhausted:
                # A deadline that fires mid-extension leaves the store
                # half-widened; drop it so the next run rebuilds cold
                # instead of reusing inconsistent vectors.
                self.pool = None
                self.enumerator = None
                raise
        pool = self.pool
        assert pool is not None
        pool.previous_program = previous_program
        pool.guard_sets = []
        # Per-run enumeration-mode override (DbsOptions.enum_mode); the
        # warm path reuses the enumerator across runs, so rebind every
        # begin_run rather than only at construction.
        assert self.enumerator is not None
        self.enumerator.enum_mode = getattr(options, "enum_mode", None)

        self.store = ConditionalStore(len(self.examples))
        self.guard_nts = guard_nts(self.dsl)
        self.all_set = frozenset(range(len(self.examples)))
        self.acceptable = acceptable_nts(self.contexts, self.dsl, options)
        self.root_nt = next(
            (ctx.hole_nt for ctx in self.contexts if ctx.is_trivial),
            self.dsl.start,
        )
        self.tester = Tester(
            self.signature,
            self.examples,
            self.lasy_fns,
            options,
            stats,
            budget,
            previous_program=previous_program,
        )
        self.runs += 1
        return self

    def _extension_suffix(self, pool: PoolStore) -> Optional[List[Example]]:
        """The examples to append, or None when the run's example list is
        not an extension of the store's (the store only ever widens).

        A run whose prefix is a *permutation* of the held examples still
        extends the store: the pool's state is per-example columns over
        an example multiset (see ``PoolStore.reorder_examples``), so the
        held columns are reordered to the run's order instead of
        rebuilding cold. The reorder itself is deferred until
        ``_extend_warm`` has re-bound the pool to this run's registry.
        """
        held = pool.examples
        if len(self.examples) < len(held):
            return None
        prefix = self.examples[: len(held)]
        if prefix != held:
            perm = _prefix_permutation(held, prefix)
            if perm is None:
                return None
            self._pending_reorder = perm
        return self.examples[len(held):]

    def _build_cold(self, seeds: Sequence[Expr], pool_options) -> None:
        with self.tracer.span(
            "dbs.enumerate", generation=0, production="<atoms>"
        ) as span:
            self.pool = PoolStore(
                self.dsl,
                self.signature,
                self.examples,
                lasy_fns=self.lasy_fns,
                lasy_signatures=self.lasy_signatures,
                options=pool_options,
                budget=self.budget,
                metrics=self.stats.registry,
            )
            self.enumerator = Enumerator(self.pool)
            self.enumerator.seed(seeds)
            span.set(
                offered=self.budget.expressions, added=self.pool.total()
            )

    def _extend_warm(self, suffix: Sequence[Example], seeds) -> None:
        pool = self.pool
        pool.bind(self.stats.registry, self.budget)
        # Sampled fingerprints are recomputed the way this run's
        # enumeration mode admits them: through the memoized grids in
        # batched mode, per cell in the classic reference.
        enumerator = self.enumerator
        enumerator.enum_mode = getattr(self.options, "enum_mode", None)
        fast = enumerator._resolve_mode() == "batched"
        reordered = 0
        if self._pending_reorder is not None:
            pool.reorder_examples(self._pending_reorder, sampled_fast=fast)
            reordered = len(self._pending_reorder)
            self._pending_reorder = None
        with self.tracer.span(
            "pool.extend",
            examples=len(self.examples),
            appended=len(suffix),
            reordered=reordered,
            entries=pool.total(),
        ) as span:
            refreshed = pool.refresh_lasy()
            report = pool.extend_examples(
                suffix, seeds=seeds, sampled_fast=fast
            )
            offered_before = self.budget.expressions
            # Re-seed: constants derived from the appended examples and
            # P_i's subexpressions enter at the current generation, so
            # the next advance composes over them (Algorithm 1: "the
            # effort to build it in previous iterations is not wasted").
            # The nested span keeps the report invariant that every
            # budget expression charge falls inside a dbs.enumerate (or
            # dbs.strategies) span.
            with self.tracer.span(
                "dbs.enumerate",
                generation=pool.generation,
                production="<atoms>",
            ) as seed_span:
                self.enumerator.seed(seeds)
                seed_span.set(
                    offered=self.budget.expressions - offered_before,
                    added=pool.total(),
                )
            span.set(
                seeded=self.budget.expressions - offered_before,
                refreshed=refreshed,
                **report,
            )
        report["refreshed"] = refreshed
        for key in REUSE_KEYS:
            self.reuse_totals[key] += report.get(key, 0)

    def cancelled(self) -> bool:
        return self.cancel is not None and self.cancel.is_set()

    # -- candidate testing ---------------------------------------------

    def test_batch(self, exprs, span=None) -> Optional[Expr]:
        """Plug each expression into each compatible context; return a
        program satisfying every example, else record T(p)/B(g) and None.

        ``exprs`` may be any iterable (including a lazy pool view); the
        batch size is attached to ``span`` as it becomes known.
        """
        options = self.options
        tester = self.tester
        store = self.store
        contexts = self.contexts
        acceptable = self.acceptable
        use_dsl = options.use_dsl
        guards = self.guard_nts
        budget = self.budget
        count = 0
        try:
            for expr in exprs:
                count += 1
                if not count & 63:
                    # Guard-only stretches of a batch never charge the
                    # budget; this periodic check bounds the hard
                    # deadline's overshoot to 64 guard evaluations.
                    budget.check_deadline()
                expr_free = free_vars(expr)
                is_guard = (
                    expr.nt in guards if use_dsl else expr.nt == "τ:bool"
                )
                if is_guard and not expr_free:
                    true_set, errors = tester.guard_sets(expr)
                    store.record_guard(expr, true_set, errors)
                    tester._guard_records.value += 1
                for i, ctx in enumerate(contexts):
                    if use_dsl:
                        if expr.nt not in acceptable[i]:
                            continue
                    else:
                        expr_type = hole_type(self.dsl, expr)
                        if expr_type is None or not types_compatible(
                            ctx.hole_type, expr_type
                        ):
                            continue
                    program = ctx.plug(expr)
                    if free_vars(program):
                        continue
                    passed = tester.passed_set(program)
                    if len(passed) == len(tester.examples) and tester.examples:
                        return program
                    store.record_program(program, passed)
                    tester._program_records.value += 1
                    angelic = tester.angelic_passed_set(program)
                    if angelic and angelic != passed:
                        store.record_program(program, angelic)
        finally:
            if span is not None:
                span.set(batch=count)
        return None
