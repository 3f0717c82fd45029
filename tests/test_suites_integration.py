"""Integration tests: benchmark suites end-to-end through LaSy + TDS.

A representative fast benchmark per domain runs in the default test
pass; the complete suites run under ``--runslow`` (they are also what
the benchmark harness exercises).
"""

import pytest

from repro.core.budget import Budget
from repro.suites import (
    ALL_SUITES,
    STRING_BENCHMARKS,
    TABLE_BENCHMARKS,
    XML_BENCHMARKS,
)


def fast_budget():
    return Budget(max_seconds=20, max_expressions=250_000)


def hard_budget():
    return Budget(max_seconds=60, max_expressions=700_000)


def by_name(suite, name):
    return next(b for b in suite if b.name == name)


class TestSuiteShape:
    def test_counts_match_paper(self):
        assert len(STRING_BENCHMARKS) == 15  # §6.1.1
        assert len(TABLE_BENCHMARKS) == 8  # §6.1.2
        assert len(XML_BENCHMARKS) == 10  # §6.1.3

    def test_wordwrap_has_long_sequence(self):
        wordwrap = by_name(STRING_BENCHMARKS, "word-wrap")
        assert wordwrap.n_examples() >= 9

    def test_sources_parse(self):
        from repro.lasy.parser import parse_lasy

        for suite in ALL_SUITES.values():
            for benchmark in suite:
                parse_lasy(benchmark.source)

    def test_every_benchmark_has_holdout(self):
        for suite in ALL_SUITES.values():
            for benchmark in suite:
                assert benchmark.holdout, benchmark.name


@pytest.mark.parametrize(
    "suite_name, bench_name",
    [
        ("strings", "extract-domain"),
        ("strings", "parenthesize"),
        ("tables", "transpose"),
        ("tables", "fill-down-keys"),
        ("xml", "add-classes"),
        ("xml", "title-from-text"),
    ],
)
def test_fast_benchmarks_solve_and_generalize(suite_name, bench_name):
    benchmark = by_name(ALL_SUITES[suite_name], bench_name)
    result = benchmark.run(budget_factory=fast_budget)
    assert result.success, f"{bench_name} did not synthesize"
    assert benchmark.check_holdout(result), f"{bench_name} overfitted"


@pytest.mark.slow
@pytest.mark.parametrize(
    "bench", STRING_BENCHMARKS, ids=lambda b: b.name
)
def test_string_suite(bench):
    result = bench.run(
        budget_factory=hard_budget if bench.hard else fast_budget
    )
    assert result.success, f"{bench.name} did not synthesize"
    assert bench.check_holdout(result), f"{bench.name} overfitted"


@pytest.mark.slow
@pytest.mark.parametrize(
    "bench", TABLE_BENCHMARKS, ids=lambda b: b.name
)
def test_table_suite(bench):
    result = bench.run(
        budget_factory=hard_budget if bench.hard else fast_budget
    )
    assert result.success
    assert bench.check_holdout(result)


@pytest.mark.slow
@pytest.mark.parametrize(
    "bench", XML_BENCHMARKS, ids=lambda b: b.name
)
def test_xml_suite(bench):
    result = bench.run(
        budget_factory=hard_budget if bench.hard else fast_budget
    )
    assert result.success
    assert bench.check_holdout(result)
