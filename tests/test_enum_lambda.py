"""Differential tests for batched lambda-bearing productions.

In batched mode a lambda slot's wrapper entry carries one memoized
callable per example instead of a value vector, so ``SplitAndMerge``,
``Loop``, ``MapRows`` and ``MapNodes`` candidates get their values from
their children's columns before any expression is built, under the
whole-tree fuel of the classic evaluation. ``REPRO_ENUM=classic``
builds and evaluates every candidate and stays the oracle: the pools
(entries, order, vectors, shadows) must match; the end-to-end program
differential over lambda-heavy tasks lives in ``tests/test_enum_batched.py``.
Budgets here count expressions only, never seconds.
"""

import pytest

from repro.core.budget import Budget
from repro.core.dsl import DslBuilder, Example, LambdaSpec, Signature
from repro.core.engine import Enumerator
from repro.core.engine.enumerator import _production_label
from repro.core.types import INT, STRING
from repro.core.values import ERROR
from repro.domains.registry import get_domain
from repro.domains.strings import flash_loop, split_and_merge
from repro.lasy import parse_lasy
from tests.test_enum_batched import make_pool, pool_state, run_generations


def _char_at(s, i):
    return s[i]  # IndexError past the end: stops a Loop


def _upper(s):
    return s.upper()


def _concat(a, c):
    return a + c


def _separators(examples):
    return {"s": [",", "-"]}


def loop_dsl():
    """A small strings grammar with both string lambda productions. Each
    lambda variable lives in its own body nonterminal and the lambda
    results feed no other production, so every lambda-bearing candidate
    is closed and only lambda columns can reach the fuel limit."""
    b = DslBuilder("lambdas", start="f")
    b.nt("f", STRING).nt("x", STRING).nt("s", STRING)
    b.nt("lb", STRING).nt("sb", STRING).nt("p", STRING).nt("w", INT)
    b.fn("f", "Loop", [LambdaSpec(("w",), (INT,), "lb")], flash_loop)
    b.fn(
        "f",
        "SplitAndMerge",
        ["x", "s", "s", LambdaSpec(("piece",), (STRING,), "sb")],
        split_and_merge,
    )
    b.fn("lb", "CharAt", ["x", "w"], _char_at)
    b.fn("lb", "Concat", ["lb", "lb"], _concat)
    b.fn("lb", "Upper", ["lb"], _upper)
    b.fn("lb", "Append", ["lb", "s"], _concat)
    b.fn("sb", "Upper", ["p"], _upper)
    b.fn("sb", "Concat", ["sb", "sb"], _concat)
    b.unit("sb", "p")
    b.param("x")
    b.var("p", "piece")
    b.var("w", "w")
    b.constant("s")
    b.constants_from(_separators)
    return b.build()


LOOP_SIG = Signature("f", (("x", STRING),), STRING)
LOOP_EXAMPLES = [
    Example(("a,b",), "A-B"),
    Example(("xy,z",), "XY-Z"),
    Example(("p,q,r",), "P-Q-R"),
]
# Long enough that Loop(λw: CharAt(x, w)) and SplitAndMerge over its
# pieces both cross a signature fuel of 40.
LONG_EXAMPLE = Example((",".join("abcdefghijklmnopqrst"),), "")


def _lasy_case(domain, source):
    program = parse_lasy(source)
    decl = program.declarations[-1]
    examples = [
        Example(r.args, r.output)
        for r in program.examples
        if r.func_name == decl.name
    ]
    return get_domain(domain).dsl(), decl.signature, examples


TABLES_SOURCE = """
    language tables;
    function Table Mirror(Table t);
    require Mirror({{"a", "b", "c"}, {"1", "2", "3"}})
         == {{"c", "b", "a"}, {"3", "2", "1"}};
    require Mirror({{"x", "y"}, {"", "v"}, {"k", "l"}})
         == {{"y", "x"}, {"v", ""}, {"l", "k"}};
"""

XML_SOURCE = """
    language xml;
    function XDocument Modern(XDocument d);
    require Modern("<doc><b>hi</b><b>there</b></doc>")
         == "<doc><strong>hi</strong><strong>there</strong></doc>";
    require Modern("<doc><b>x</b><i>y</i></doc>")
         == "<doc><strong>x</strong><i>y</i></doc>";
"""


def _case(name):
    if name in ("Loop", "SplitAndMerge"):
        return loop_dsl(), LOOP_SIG, LOOP_EXAMPLES, 4
    if name == "MapRows":
        return (*_lasy_case("tables", TABLES_SOURCE), 2)
    return (*_lasy_case("xml", XML_SOURCE), 3)


def _mentions(pool, name):
    return any(
        str(e.expr).startswith(name + "(")
        for nt in pool._entries
        for e in pool.iter_entries(nt)
    )


PRODUCTIONS = ["SplitAndMerge", "Loop", "MapRows", "MapNodes"]


@pytest.mark.parametrize("name", PRODUCTIONS)
def test_cold_pool_matches_classic(name):
    dsl, signature, examples, advances = _case(name)
    batched = run_generations(dsl, signature, examples, "batched", advances)
    classic = run_generations(dsl, signature, examples, "classic", advances)
    assert _mentions(batched, name)
    assert pool_state(batched) == pool_state(classic)


@pytest.mark.parametrize("name", PRODUCTIONS)
def test_extended_pool_matches_classic(name):
    dsl, signature, examples, advances = _case(name)
    head, tail = examples[:-1], examples[-1]
    batched = run_generations(
        dsl, signature, head, "batched", advances - 1, extend=tail
    )
    classic = run_generations(
        dsl, signature, head, "classic", advances - 1, extend=tail
    )
    assert _mentions(batched, name)
    assert pool_state(batched) == pool_state(classic)


def _production_window(dsl, signature, examples, advances, name):
    """Budget charges before and after the lambda production's
    expansion in the last advance of an unbudgeted batched run."""
    window = []
    expand = Enumerator._expand

    def recording(self, prod, batched=False):
        before = self.store.budget.expressions
        try:
            return expand(self, prod, batched)
        finally:
            if _production_label(prod).endswith("<-" + name):
                window[:] = [before, self.store.budget.expressions]

    Enumerator._expand = recording
    try:
        run_generations(dsl, signature, examples, "batched", advances)
    finally:
        Enumerator._expand = expand
    return window


@pytest.mark.parametrize("name", PRODUCTIONS)
def test_budget_death_inside_lambda_production(name):
    dsl, signature, examples, advances = _case(name)
    before, after = _production_window(
        dsl, signature, examples, advances, name
    )
    assert after - before > 2
    limit = (before + after) // 2
    pools = [
        run_generations(
            dsl, signature, examples, mode, advances, max_expressions=limit
        )
        for mode in ("batched", "classic")
    ]
    assert all(pool.exhausted for pool in pools)
    assert pool_state(pools[0]) == pool_state(pools[1])


def test_fuel_boundary_columns_match_classic():
    # One fuel for the whole tree per column: on the long example the
    # Loop body's calls run it out midway (the loop ends early with a
    # shorter string) and SplitAndMerge's do too (the column errors).
    examples = LOOP_EXAMPLES[:2] + [LONG_EXAMPLE]
    batched = run_generations(
        loop_dsl(), LOOP_SIG, examples, "batched", 3, fuel=40
    )
    classic = run_generations(
        loop_dsl(), LOOP_SIG, examples, "classic", 3, fuel=40
    )
    assert pool_state(batched) == pool_state(classic)
    assert batched._lambda_cache  # the columns, not classic evaluation
    columns = {str(e.expr): e.values for e in batched.iter_entries("f")}
    shadows = {str(e.expr): e.values for e in batched._shadows.get("f", ())}
    columns.update(shadows)
    loop = columns["Loop(λw: CharAt(x, w))"]
    assert loop[0] == "a,b"
    assert 0 < len(loop[2]) < len(LONG_EXAMPLE.args[0])
    split = columns["SplitAndMerge(x, ',', '-', λpiece: Upper(piece))"]
    assert split[:2] == ("A-B", "XY-Z")
    assert split[2] is ERROR


def test_lambda_columns_stay_out_of_pickles():
    import pickle

    pool = run_generations(loop_dsl(), LOOP_SIG, LOOP_EXAMPLES, "batched")
    assert pool._lambda_cache and pool._cost_cache
    clone = pickle.loads(pickle.dumps(pool))
    assert not clone._lambda_cache and not clone._cost_cache
    assert pool_state(clone) == pool_state(pool)


# -- warm extension re-fingerprints through the grids ------------------


def test_extension_grid_fingerprints_match_per_cell():
    """Batched sessions recompute sampled fingerprints on extension
    through the memoized grids; the per-cell reference must give the
    same pool and the same counters."""
    dsl = get_domain("strings").dsl()
    signature = Signature("f", (("v", STRING),), STRING)
    examples = [
        Example(("John Smith",), "J.S."),
        Example(("Jane Doe",), "J.D."),
    ]

    def run(sampled_fast):
        pool, stats = make_pool(
            dsl, signature, examples[:1], max_expressions=20_000
        )
        enumerator = Enumerator(pool, enum_mode="batched")
        enumerator.seed([])
        enumerator.advance()
        enumerator.advance()
        pool.budget = Budget(max_expressions=5_000)
        pool.extend_examples(examples[1:], sampled_fast=sampled_fast)
        return pool, {
            name: value
            for name, value in stats.registry.snapshot_flat().items()
            if "seconds" not in name
        }

    fast_pool, fast_counters = run(True)
    assert any(
        e.values is None and e.sig is not None
        for nt in fast_pool._entries
        for e in fast_pool.iter_entries(nt)
    )
    ref_pool, ref_counters = run(False)
    assert pool_state(fast_pool) == pool_state(ref_pool)
    assert fast_counters == ref_counters
