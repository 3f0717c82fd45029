"""Tests for the simulated Pex oracle and the Pex4Fun game."""

import os
import subprocess
import sys

from repro.core.budget import Budget
from repro.core.dsl import Example, Signature
from repro.core.types import INT, STRING
from repro.pex import PUZZLES, Oracle, Puzzle, play, play_with_manual_examples
from repro.pex.puzzles import puzzles_by_category


def _puzzle(name):
    return next(p for p in PUZZLES if p.name == name)


def small_budget():
    return Budget(max_seconds=8, max_expressions=80_000)


class TestPuzzleSuite:
    def test_size_and_categories(self):
        assert len(PUZZLES) >= 60
        categories = puzzles_by_category()
        # The paper's named failure categories are represented.
        assert "unsupported-loop" in categories
        assert "missing-component" in categories
        assert "too-large" in categories

    def test_references_work_on_seeds(self):
        for puzzle in PUZZLES:
            for seed in puzzle.seeds:
                puzzle.reference(*seed)  # must not raise

    def test_names_unique(self):
        names = [p.name for p in PUZZLES]
        assert len(names) == len(set(names))


class TestOracle:
    def test_empty_program_gets_first_seed(self):
        oracle = Oracle(_puzzle("square"))
        example = oracle.find_counterexample(None)
        assert example is not None
        assert example.output == example.args[0] ** 2

    def test_correct_candidate_has_no_counterexample(self):
        oracle = Oracle(_puzzle("square"))
        assert oracle.find_counterexample(lambda x: x * x) is None

    def test_wrong_candidate_refuted(self):
        oracle = Oracle(_puzzle("square"))
        example = oracle.find_counterexample(lambda x: x + x)
        assert example is not None
        assert example.args[0] * example.args[0] == example.output

    def test_crashing_candidate_refuted(self):
        oracle = Oracle(_puzzle("square"))

        def boom(x):
            raise RuntimeError

        assert oracle.find_counterexample(boom) is not None

    def test_deterministic_with_seed(self):
        a = Oracle(_puzzle("square"), seed=3).find_counterexample(None)
        b = Oracle(_puzzle("square"), seed=3).find_counterexample(None)
        assert a == b

    def test_draws_independent_of_hash_seed(self):
        # The generator's seed must not come from the salted str hash:
        # two interpreters with different PYTHONHASHSEED draw alike.
        code = (
            "from repro.pex import PUZZLES, Oracle\n"
            "puzzle = next(p for p in PUZZLES if p.name == 'square')\n"
            "print(Oracle(puzzle, seed=3).rng.random())\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        draws = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", code],
                env=env, capture_output=True, text=True, check=True,
            )
            draws.append(out.stdout.strip())
        assert draws[0] == draws[1]

    def test_reference_domain_errors_skipped(self):
        # first-char is undefined on ""; the oracle must not use it.
        oracle = Oracle(_puzzle("first-char"))
        example = oracle.find_counterexample(None)
        assert example.args[0] != ""


class TestGame:
    def test_square_solved_quickly(self):
        result = play(_puzzle("square"), budget_factory=small_budget)
        assert result.solved
        assert result.iterations <= 3
        assert result.program is not None

    def test_iteration_cap_respected(self):
        result = play(
            _puzzle("bitwise-or"),
            budget_factory=lambda: Budget(max_expressions=3_000),
            max_iterations=3,
        )
        assert not result.solved
        assert result.iterations <= 3

    def test_examples_are_counterexamples(self):
        result = play(_puzzle("double"), budget_factory=small_budget)
        puzzle = _puzzle("double")
        for example in result.examples:
            assert puzzle.reference(*example.args) == example.output

    def test_manual_sequence_fallback(self):
        manual = [
            Example((0,), 1),
            Example((1,), 1),
            Example((2,), 2),
            Example((3,), 6),
            Example((4,), 24),
        ]
        result = play_with_manual_examples(
            _puzzle("factorial"),
            manual,
            budget_factory=lambda: Budget(
                max_seconds=15, max_expressions=150_000
            ),
        )
        assert result.solved

    def test_solved_program_matches_reference_everywhere_tested(self):
        result = play(_puzzle("max-of-two"), budget_factory=small_budget)
        assert result.solved
        oracle = Oracle(_puzzle("max-of-two"), seed=99)
        fn = result.program
        from repro.core.evaluator import run_program

        assert (
            oracle.find_counterexample(
                lambda *args: run_program(fn, ("a", "b"), args)
            )
            is None
        )
