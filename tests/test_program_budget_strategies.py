"""Tests for program wrappers, budgets, and composition strategies."""

import time

import pytest

from repro.core.budget import Budget, BudgetExhausted, default_budget
from repro.core.dsl import DslBuilder, Example, Signature
from repro.core.engine import Enumerator, PoolStore
from repro.core.evaluator import EvaluationError
from repro.core.expr import Call, Const, Function, Param
from repro.core.program import LookupFunction, SynthesizedFunction
from repro.core.strategies import make_concat_strategy
from repro.core.types import INT, STRING

ADD = Function("Add", (INT, INT), INT, lambda a, b: a + b)


def seeded_pool(dsl, signature, examples):
    """An expression store holding the grammar's atoms."""
    pool = PoolStore(dsl, signature, examples)
    Enumerator(pool).seed()
    return pool


class TestSynthesizedFunction:
    def fn(self):
        sig = Signature("inc", (("x", INT),), INT)
        body = Call(ADD, (Param("x", INT, "e"), Const(1, INT, "e")), "e")
        return SynthesizedFunction(sig, body)

    def test_callable(self):
        assert self.fn()(41) == 42

    def test_arity_checked(self):
        with pytest.raises(TypeError):
            self.fn()(1, 2)

    def test_satisfies(self):
        assert self.fn().satisfies(Example((1,), 2))
        assert not self.fn().satisfies(Example((1,), 3))

    def test_satisfies_all(self):
        assert self.fn().satisfies_all(
            [Example((0,), 1), Example((9,), 10)]
        )


class TestLookupFunction:
    def lookup(self):
        sig = Signature("venue", (("abbr", STRING),), STRING)
        fn = LookupFunction(sig)
        fn.add(Example(("PLDI",), "full name"))
        return fn

    def test_hit(self):
        assert self.lookup()("PLDI") == "full name"

    def test_miss_errors(self):
        with pytest.raises(EvaluationError):
            self.lookup()("POPL")

    def test_satisfies(self):
        fn = self.lookup()
        assert fn.satisfies(Example(("PLDI",), "full name"))
        assert not fn.satisfies(Example(("PLDI",), "other"))
        assert not fn.satisfies(Example(("POPL",), "x"))

    def test_body_is_none(self):
        assert self.lookup().body is None


class TestBudget:
    def test_expression_limit(self):
        budget = Budget(max_expressions=2)
        budget.charge_expression()
        budget.charge_expression()
        with pytest.raises(BudgetExhausted):
            budget.charge_expression()

    def test_program_limit(self):
        budget = Budget(max_programs=1)
        budget.charge_program()
        with pytest.raises(BudgetExhausted):
            budget.charge_program()

    def test_time_limit(self):
        budget = Budget(max_seconds=0.0)
        time.sleep(0.01)
        assert budget.exhausted()

    def test_unlimited_by_default_fields(self):
        budget = Budget()
        for _ in range(1000):
            budget.charge_expression()

    def test_restart_clock(self):
        budget = Budget(max_seconds=30)
        budget.restart_clock()
        assert not budget.exhausted()

    def test_spawn_scales_down(self):
        budget = Budget(max_seconds=10, max_expressions=1000, max_programs=1000)
        child = budget.spawn(0.5)
        assert child.max_expressions == 500
        assert child.max_programs == 500
        assert child.max_seconds <= 5.0

    def test_spawn_of_unbounded_stays_unbounded(self):
        child = Budget().spawn()
        assert child.max_expressions is None
        assert child.max_seconds is None

    def test_default_budget_is_bounded(self):
        budget = default_budget()
        assert budget.max_seconds is not None


class TestConcatStrategy:
    def dsl(self):
        b = DslBuilder("cat", start="e")
        b.nt("e", STRING)
        b.nt("f", STRING)
        b.param("f")
        b.constant("f")
        b.fn("e", "Concatenate", ["f", "e"], lambda a, c: a + c)
        b.unit("e", "f")
        b.constants_from(lambda ex: {"f": ["-", "!"]})
        return b.build()

    def test_covers_output_from_pieces(self):
        dsl = self.dsl()
        sig = Signature("f", (("a", STRING), ("b", STRING)), STRING)
        examples = [
            Example(("x", "y"), "x-y"),
            Example(("p", "q"), "p-q"),
        ]
        pool = seeded_pool(dsl, sig, examples)
        strategy = make_concat_strategy("Concatenate", "f", "e")
        candidates = strategy(pool, examples, sig, dsl)
        assert candidates
        from repro.core.evaluator import run_program

        hits = [
            c
            for c in candidates
            if run_program(c, ("a", "b"), ("m", "n")) == "m-n"
        ]
        assert hits

    def test_no_string_outputs_no_candidates(self):
        dsl = self.dsl()
        sig = Signature("f", (("a", STRING),), INT)
        examples = [Example(("x",), 3)]
        pool = seeded_pool(dsl, sig, examples)
        strategy = make_concat_strategy("Concatenate", "f", "e")
        assert strategy(pool, examples, sig, dsl) == []

    def test_uncoverable_output_no_candidates(self):
        dsl = self.dsl()
        sig = Signature("f", (("a", STRING),), STRING)
        examples = [Example(("x",), "zzz")]
        pool = seeded_pool(dsl, sig, examples)
        strategy = make_concat_strategy("Concatenate", "f", "e")
        candidates = strategy(pool, examples, sig, dsl)
        from repro.core.evaluator import try_run

        for candidate in candidates:
            assert try_run(candidate, ("a",), ("x",)) == "zzz"
