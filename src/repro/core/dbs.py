"""DSL-based synthesis — Algorithm 2, driving the layered engine.

One DBS invocation searches for a program satisfying *all* given examples
by plugging grammar-generated expressions into the supplied contexts.
The search interleaves, per Algorithm 2:

1. startup strategies (the loop strategies) — tried up front by default
   (cheap relative to enumeration), or, with
   ``DbsOptions.concurrent_loops`` (what the CLI's ``--jobs > 1``
   selects for single syntheses), on a helper thread that runs alongside
   enumeration exactly as the paper describes; the concurrent variant is
   traced under a dedicated ``dbs.loops.concurrent`` span;
2. plugging every (context, expression) pair and testing the result;
3. the round strategies after each expression generation — composition
   strategies (§5.4) and conditional synthesis from the recorded T(p)
   and B(g) sets (§5.2);
4. generating the next expression generation (§5.1).

The heavy lifting lives in :mod:`repro.core.engine`: a
:class:`~repro.core.engine.session.SynthesisSession` threads the
expression store, enumerator, tester, and strategy registry through the
run. Passing a persistent session (as TDS does) makes the store carry
over between runs — see ``engine/session.py`` for the warm path.

The result is a program or ``TIMEOUT`` (``DbsResult.program is None``)
when the budget — wall clock, expression count, or program count — is
exhausted.
"""

from __future__ import annotations

import io
import os
import threading
import time
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..obs.metrics import Registry
from ..obs.trace import get_tracer
from .budget import Budget, BudgetExhausted, CancelToken, Deadline, default_budget
from .contexts import Context, trivial_context
from .dsl import Dsl, Example, Signature
from .engine.shard import DEFAULT_SHARD_MIN_COST
from .engine.session import SynthesisSession
from .evaluator import METRICS as EVAL_METRICS
from .expr import Expr


@dataclass
class DbsOptions:
    """Feature switches; the §6.3 ablations turn these off selectively."""

    use_dsl: bool = True
    semantic_dedup: bool = True
    enable_conditionals: bool = True
    enable_loops: bool = True
    # Run loop strategies on a helper thread beside enumeration (the
    # paper's concurrent-thread model) instead of serially up front.
    concurrent_loops: bool = False
    max_generations: int = 24
    evaluation_fuel: int = 60_000
    max_recursion_depth: int = 40
    # Hard per-run wall-clock deadline (seconds). Unlike the soft
    # Budget.max_seconds it allows no grace sweep: the run truncates
    # with a structured SynthesisTimeout within one cooperative check
    # interval of the wall (see docs/robustness.md). None/0 = off.
    timeout_s: Optional[float] = None
    # Enumeration path: "batched" (value-vector candidates, the
    # default), "classic" (per-expression reference pipeline), or None
    # to defer to the process-wide REPRO_ENUM switch.
    enum_mode: Optional[str] = None
    # Shard each generation's enumeration across this many worker
    # processes (see engine.shard; strictly deterministic — the merged
    # pool and synthesized programs are byte-identical to a serial
    # run). 0 defers to the REPRO_DBS_JOBS environment switch; 0/1
    # there too means serial.
    shard_jobs: int = 0
    # Productions with fewer estimated candidate combinations than
    # this run serially even when sharding is on: dispatch and record
    # shipping would cost more than the enumeration they split. When
    # left at the default, the REPRO_DBS_SHARD_MIN_COST environment
    # switch overrides it (CI uses 0 to force worker dispatch on
    # otherwise-small smoke tasks).
    shard_min_cost: int = DEFAULT_SHARD_MIN_COST


class _Metric:
    """Descriptor exposing one registry metric as a plain read/write
    attribute — ``stats.expressions`` reads the counter, assignment sets
    it. Replaces a hand-written property pair per field."""

    def __init__(self, name: str, kind: str = "counter", cast=int):
        self.name = name
        self.kind = kind
        self.cast = cast

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return self.cast(obj.registry.value(self.name, 0))

    def __set__(self, obj, value) -> None:
        if self.kind == "gauge":
            obj.registry.gauge(self.name).set(value)
        else:
            obj.registry.counter(self.name).value = value


class DbsStats:
    """Counters for one DBS run — a backward-compatible attribute view
    over the run's :class:`~repro.obs.metrics.Registry`.

    The historical fields (``elapsed``, ``expressions``, ...) read and
    write the registry via :class:`_Metric` descriptors, so existing
    consumers (TDS steps, experiment drivers, baselines) keep working
    while everything new — labeled pool/dedup/evaluator breakdowns,
    per-production counts — lives in ``stats.registry`` and flows into
    trace reports.
    """

    __slots__ = ("registry",)

    # metric names (counters unless noted)
    ELAPSED = "dbs.elapsed_seconds"  # gauge
    EXPRESSIONS = "dbs.expressions"
    PROGRAMS_TESTED = "dbs.programs_tested"
    GENERATIONS = "dbs.generations"
    LOOP_CANDIDATES = "dbs.loop.candidates"
    CONDITIONAL_ATTEMPTS = "dbs.conditional.attempts"

    elapsed = _Metric(ELAPSED, kind="gauge", cast=float)
    expressions = _Metric(EXPRESSIONS)
    programs_tested = _Metric(PROGRAMS_TESTED)
    generations = _Metric(GENERATIONS)
    loop_candidates = _Metric(LOOP_CANDIDATES)
    conditional_attempts = _Metric(CONDITIONAL_ATTEMPTS)

    _FIELDS = (
        "elapsed",
        "expressions",
        "programs_tested",
        "generations",
        "loop_candidates",
        "conditional_attempts",
    )

    def __init__(
        self,
        elapsed: float = 0.0,
        expressions: int = 0,
        programs_tested: int = 0,
        generations: int = 0,
        loop_candidates: int = 0,
        conditional_attempts: int = 0,
        registry: Optional[Registry] = None,
    ):
        self.registry = registry if registry is not None else Registry()
        values = (
            elapsed,
            expressions,
            programs_tested,
            generations,
            loop_candidates,
            conditional_attempts,
        )
        for name, value in zip(self._FIELDS, values):
            if value:
                setattr(self, name, value)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._FIELDS
        )
        return f"DbsStats({inner})"


@dataclass
class SynthesisTimeout:
    """Structured record of a truncated run (``DbsResult.timeout``).

    ``reason`` is what ended the search first: ``"deadline"`` (hard
    wall), ``"cancelled: ..."``, ``"time"`` / ``"expressions"`` /
    ``"programs"`` (soft budget), ``"max_generations"``, or
    ``"search_exhausted"`` (the language ran dry below the size cap).
    The partial component pool survives in the run's
    :class:`~repro.core.engine.session.SynthesisSession` for warm
    reuse, and ``pool_entries`` records its size at truncation.
    """

    reason: str
    elapsed: float
    expressions: int
    pool_entries: int
    budget_seconds: Optional[float] = None

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"SynthesisTimeout({self.reason} after {self.elapsed:.3f}s, "
            f"{self.expressions} expressions, {self.pool_entries} pooled)"
        )


@dataclass
class DbsResult:
    """``program is None`` means TIMEOUT (``timeout`` says why)."""

    program: Optional[Expr]
    stats: DbsStats
    timeout: Optional[SynthesisTimeout] = None

    @property
    def timed_out(self) -> bool:
        return self.program is None


def dbs(
    contexts: Sequence[Context],
    examples: Sequence[Example],
    seeds: Sequence[Expr],
    dsl: Dsl,
    signature: Signature,
    max_branches: int = 1,
    budget: Optional[Budget] = None,
    lasy_fns: Optional[Mapping] = None,
    lasy_signatures: Optional[Mapping[str, Signature]] = None,
    options: Optional[DbsOptions] = None,
    previous_program: Optional[Expr] = None,
    session: Optional[SynthesisSession] = None,
) -> DbsResult:
    """Algorithm 2. Returns a program satisfying all ``examples`` or
    TIMEOUT.

    ``previous_program`` (P_i from TDS) is additionally used to evaluate
    *recursive* candidates angelically when recording T(p): a recursive
    branch body without its base case diverges under true self-recursion,
    so its recursive calls are bound to the previous program instead; the
    assembled conditional is always re-verified with true recursion.

    ``session`` is an optional persistent
    :class:`~repro.core.engine.session.SynthesisSession`; when given (and
    built for the same DSL and signature), its expression store carries
    over from previous runs and is *extended* by the newly appended
    examples instead of rebuilt — TDS passes one session across its whole
    example sequence."""
    options = options or DbsOptions()
    budget = budget or default_budget()
    budget.restart_clock()
    if options.timeout_s:
        budget.add_deadline(Deadline.after(options.timeout_s))
    tracer = get_tracer()
    stats = DbsStats(registry=Registry(detailed=tracer.enabled))
    if session is not None and (
        session.dsl is not dsl or session.signature is not signature
    ):
        session = None  # a foreign session's store cannot serve this run
    depth = getattr(_RUN_DEPTH, "value", 0)
    nested = depth > 0
    # local_value: a worker-snapshot merge into the process-global
    # evaluator registry landing inside this region must not be
    # attributed to (double-counted against) this run.
    eval_before = {
        name: EVAL_METRICS.local_value(name) for name in _EVAL_COUNTERS
    }
    _RUN_DEPTH.value = depth + 1
    try:
        with tracer.span(
            "dbs",
            examples=len(examples),
            contexts=len(contexts),
            nested=nested,
        ) as root_span:
            result = _run_dbs(
                contexts, examples, seeds, dsl, signature, max_branches,
                budget, lasy_fns, lasy_signatures, options,
                previous_program, stats, tracer, session,
            )
            if tracer.enabled:
                root_span.set(
                    outcome="timeout" if result.timed_out else "solved"
                )
                if result.timeout is not None:
                    root_span.set(timeout_reason=result.timeout.reason)
        # Snapshot and emit outside the span: the report reconciles the
        # span's duration against DbsStats.elapsed, and the metrics
        # serialization is reporting overhead, not search time.
        if tracer.enabled:
            registry = stats.registry
            for name in _EVAL_COUNTERS:
                registry.counter(name).value = int(
                    EVAL_METRICS.local_value(name) - eval_before[name]
                )
            tracer.event(
                "dbs.metrics",
                nested=nested,
                metrics=registry.snapshot(),
            )
        return result
    finally:
        _RUN_DEPTH.value = depth


# Process-global evaluator counters copied into each traced run's
# registry as deltas, so its dbs.metrics snapshot carries the
# evaluator's run and error counts (and report-trace their ratio).
_EVAL_COUNTERS = ("eval.run_program", "eval.run_program_errors")


# Depth of dbs() calls on the current thread's stack; loop-body
# sub-syntheses run nested (their spawned budgets are excluded from
# report totals). Thread-local so a concurrent loop-strategy thread
# can't corrupt the main thread's depth — the thread seeds its own
# depth at 1, since its sub-syntheses are logically nested in the run
# that spawned it.
_RUN_DEPTH = threading.local()


def _shard_jobs(options: DbsOptions) -> int:
    """Effective worker count for sharded enumeration: the explicit
    option, else the ``REPRO_DBS_JOBS`` environment default. Forced
    serial inside any worker process (one flat level of parallelism)
    and for the untyped no-DSL mode (its expansion has no
    per-production combination stream to stride)."""
    if os.environ.get("REPRO_IN_WORKER"):
        return 0
    jobs = options.shard_jobs
    if not jobs:
        try:
            jobs = int(os.environ.get("REPRO_DBS_JOBS", "0") or 0)
        except ValueError:
            jobs = 0
    if jobs > 1 and options.use_dsl:
        return jobs
    return 0


def _shard_min_cost(options: DbsOptions) -> int:
    """Effective per-production sharding threshold: the explicit
    option, or — when it sits at the default — the
    ``REPRO_DBS_SHARD_MIN_COST`` environment switch (used by CI to
    force dispatch on small smoke tasks)."""
    if options.shard_min_cost == DEFAULT_SHARD_MIN_COST:
        try:
            env = os.environ.get("REPRO_DBS_SHARD_MIN_COST")
            if env:
                return int(env)
        except ValueError:
            pass
    return options.shard_min_cost


def _run_dbs(
    contexts: Sequence[Context],
    examples: Sequence[Example],
    seeds: Sequence[Expr],
    dsl: Dsl,
    signature: Signature,
    max_branches: int,
    budget: Budget,
    lasy_fns: Optional[Mapping],
    lasy_signatures: Optional[Mapping[str, Signature]],
    options: DbsOptions,
    previous_program: Optional[Expr],
    stats: DbsStats,
    tracer,
    session: Optional[SynthesisSession],
) -> DbsResult:
    start_time = time.monotonic()
    examples = list(examples)
    if not contexts:
        contexts = [trivial_context(dsl)]
    ephemeral_session = session is None
    if session is None:
        session = SynthesisSession(
            dsl,
            signature,
            lasy_fns=dict(lasy_fns or {}),
            lasy_signatures=dict(lasy_signatures or {}),
        )
    loop_state: Optional[_ConcurrentLoops] = None
    shard_coord = None

    def finish(
        program: Optional[Expr], reason: Optional[str] = None
    ) -> DbsResult:
        if loop_state is not None:
            program = loop_state.finish(program, tracer)
        if shard_coord is not None:
            shard_coord.detach()
            if ephemeral_session:
                # Nobody holds this session after the run; reap its
                # workers now (a persistent session keeps them warm
                # until it is suspended).
                session.close_shard_coordinator()
        session.cancel = None
        stats.elapsed = time.monotonic() - start_time
        stats.expressions = budget.expressions
        timeout = None
        if program is None:
            timeout = SynthesisTimeout(
                reason=budget.exhausted_reason or reason or "search_exhausted",
                elapsed=stats.elapsed,
                expressions=budget.expressions,
                pool_entries=session.pool.total() if session.pool else 0,
                budget_seconds=(
                    options.timeout_s
                    if options.timeout_s
                    else budget.max_seconds
                ),
            )
            stats.registry.counter("dbs.timeout").inc(1, reason=timeout.reason)
        return DbsResult(program, stats, timeout=timeout)

    try:
        session.begin_run(
            contexts=contexts,
            examples=examples,
            seeds=seeds,
            budget=budget,
            options=options,
            stats=stats,
            tracer=tracer,
            previous_program=previous_program,
            max_branches=max_branches,
        )
        pool = session.pool
        registry = session.registry

        jobs = _shard_jobs(options)
        if jobs and getattr(_RUN_DEPTH, "value", 1) <= 1:
            # Top-level runs only: a nested loop-body synthesis is
            # small and already races the main thread's enumeration.
            shard_coord = session.shard_coordinator(
                jobs, _shard_min_cost(options)
            )
            shard_coord.attach(pool, session.enumerator)

        # 1. Startup strategies (Algorithm 2, line 1): serially up
        # front, or on a helper thread racing enumeration (§5.3's
        # concurrent model) when options.concurrent_loops.
        if registry.for_stage("startup"):
            if options.concurrent_loops:

                def run_startup(cancel) -> Optional[Expr]:
                    # The helper thread installed its own tracer; the
                    # plugins pick it up via get_tracer().
                    session.cancel = cancel
                    return registry.run(
                        "startup", session, budget, get_tracer()
                    )

                loop_state = _ConcurrentLoops(
                    parent_traced=tracer.enabled, runner=run_startup
                ).start()
            else:
                program = registry.run("startup", session, budget, tracer)
                if program is not None:
                    return finish(program)

        last_size = -1
        batches = iter([pool.iter_all()])
        while True:
            if loop_state is not None and loop_state.program is not None:
                # The loop-strategy thread won the race; finish() joins
                # it and returns its program.
                return finish(None)
            program = None
            for pending in batches:
                with tracer.span("dbs.test") as test_span:
                    program = session.test_batch(pending, span=test_span)
                if program is not None:
                    break
            if program is not None:
                return finish(program)
            if budget.exhausted():
                # The budget died mid-generation, but the pool still
                # holds everything the search built. Give the final
                # round strategies (goal-directed composition) one last
                # pass over it (under the tester's grace window) before
                # reporting TIMEOUT: a solution assembled from
                # already-enumerated pieces should not be lost to the
                # enumeration cutoff. The grace sweep only applies to
                # soft budgets — past the hard deadline the run must
                # truncate immediately.
                if not budget.hard_expired():
                    program = registry.run(
                        "round", session, budget, tracer, final_only=True
                    )
                    if program is not None:
                        return finish(program)
                break
            # 2. Round strategies (Algorithm 2, lines 6-7): composition
            # strategies, then the conditional pass.
            program = registry.run("round", session, budget, tracer)
            if program is not None:
                return finish(program)
            if stats.generations >= options.max_generations:
                return finish(None, reason="max_generations")
            if pool.exhausted:
                break  # budget died mid-generation; partial batch tested
            if (
                stats.generations > 0
                and pool.total() == last_size
                and not pool.last_generation_redone
            ):
                # Language exhausted below the size cap. A *redone*
                # generation (warm resume after a mid-generation
                # truncation) is exempt: when the truncation landed past
                # the last admittable combination, the redo adds nothing
                # even though the next generation has fresh combos.
                break
            # 3. Next generation (Algorithm 2, line 8), tested batch-wise
            # at the top of the loop (the generator is lazy).
            stats.generations += 1
            last_size = pool.total()
            batches = session.enumerator.advance_batches()
    except BudgetExhausted:
        pass
    return finish(None)


class _ConcurrentLoops:
    """Loop strategies on a helper thread beside enumeration (§5.3).

    The paper runs loop strategies "concurrently with the DBS
    algorithm"; this is that thread. Isolation model:

    * the thread installs its own tracer via ``set_thread_tracer`` —
      an in-memory ``JsonlTracer`` when the parent traces, else the
      null tracer — because tracer span stacks are not thread-safe;
      the buffered records are spliced into the parent's stream on
      join (``absorb_shard``), re-parented under the open ``dbs`` span;
    * the thread seeds its ``_RUN_DEPTH`` at 1, so its sub-syntheses
      report as nested runs just like the serial path;
    * the shared ``Budget`` and registry counters take concurrent plain
      ``+=`` increments — benign under the GIL (worst case a slightly
      stale read), and the budget's exhaustion check is conservative.

    Cancellation is cooperative: enumeration finding a program first
    sets ``cancel``, which loop strategies check between candidate
    sub-syntheses, so the join in :meth:`finish` is bounded by one
    sub-DBS budget.
    """

    def __init__(self, parent_traced: bool, runner) -> None:
        self.cancel = CancelToken()
        self.program: Optional[Expr] = None
        self.error: Optional[BaseException] = None
        self.seconds = 0.0
        self._buffer = io.StringIO() if parent_traced else None
        self._runner = runner
        self._thread = threading.Thread(
            target=self._run, name="dbs-loop-strategies", daemon=True
        )

    def start(self) -> "_ConcurrentLoops":
        self._thread.start()
        return self

    def _run(self) -> None:
        from ..obs.trace import (
            NULL_TRACER,
            JsonlTracer,
            set_thread_tracer,
        )

        tracer = (
            JsonlTracer(self._buffer)
            if self._buffer is not None
            else NULL_TRACER
        )
        set_thread_tracer(tracer)
        _RUN_DEPTH.value = 1
        start = time.monotonic()
        try:
            with tracer.span("dbs.loops.concurrent") as span:
                program = self._runner(self.cancel)
                span.set(solved=program is not None)
                self.program = program
        except BudgetExhausted:
            pass
        except BaseException as exc:  # re-raised on the main thread
            self.error = exc
        finally:
            self.seconds = time.monotonic() - start
            set_thread_tracer(None)

    def finish(self, program: Optional[Expr], tracer) -> Optional[Expr]:
        """Join the thread, splice its trace, and pick the winner:
        enumeration's program when it found one, else the thread's."""
        self.cancel.cancel("cancelled: enumeration finished first")
        self._thread.join()
        if self._buffer is not None:
            absorb = getattr(tracer, "absorb_shard", None)
            if absorb is not None:
                absorb(self._buffer.getvalue().splitlines())
        if self.error is not None:
            raise self.error
        return program if program is not None else self.program
