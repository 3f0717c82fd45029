"""A simulated Pex: counterexample generation against a secret solution.

The real Pex uses dynamic symbolic execution over .NET bytecode; what the
TDS experiment needs from it is only "a distinguishing input if the
player's code does not match the specification" (§6.1.4). We substitute
seeded randomized plus bounded-exhaustive input generation: the candidate
and the reference are run on curated seeds, then on enumerated small
inputs, then on random typed inputs; the first disagreement (in value or
in error behaviour) is returned.

Determinism: the oracle is seeded, so the whole Pex4Fun experiment
replays identically.
"""

from __future__ import annotations

import itertools
import random
import string as string_module
import zlib
from typing import Any, Callable, Iterator, List, Optional, Tuple

from ..core.dsl import Example
from ..core.types import Type
from ..core.values import ERROR, freeze, structurally_equal
from .puzzles import Puzzle

_WORDS = ["a", "hi", "cat", "dog", "one", "two words", "Ann", "", " x ", "A,B"]


class Oracle:
    """Counterexample generator for one puzzle."""

    def __init__(
        self,
        puzzle: Puzzle,
        seed: int = 0,
        random_attempts: int = 400,
        exhaustive_budget: int = 300,
    ):
        self.puzzle = puzzle
        # crc32, not hash(): str hashes are salted per process
        # (PYTHONHASHSEED), and the draws must not depend on that.
        self.rng = random.Random(
            seed ^ zlib.crc32(puzzle.name.encode()) & 0xFFFF
        )
        self.random_attempts = random_attempts
        self.exhaustive_budget = exhaustive_budget

    # -- input generation --------------------------------------------------

    def _small_values(self, ty: Type) -> List[Any]:
        if ty.name == "int":
            return [0, 1, 2, 3, -1, 5, 10]
        if ty.name in ("str", "char"):
            return ["", "a", "ab", "a b", "Hi", "x,y", "1", "a\nb"]
        if ty.name == "bool":
            return [False, True]
        if ty.is_list:
            elems = self._small_values(ty.element_type())[:4]
            out: List[Any] = [()]
            out.extend((e,) for e in elems)
            out.extend((a, b) for a in elems[:3] for b in elems[:3])
            return out
        return []

    def _random_value(self, ty: Type) -> Any:
        rng = self.rng
        if ty.name == "int":
            return rng.randint(-20, 60)
        if ty.name in ("str", "char"):
            if rng.random() < 0.5:
                return rng.choice(_WORDS)
            length = rng.randint(0, 8)
            alphabet = string_module.ascii_letters + "  ,.0123456789"
            return "".join(rng.choice(alphabet) for _ in range(length))
        if ty.name == "bool":
            return rng.random() < 0.5
        if ty.is_list:
            length = rng.randint(0, 5)
            return tuple(
                self._random_value(ty.element_type()) for _ in range(length)
            )
        return None

    def _candidate_inputs(self) -> Iterator[Tuple[Any, ...]]:
        yield from self.puzzle.seeds
        param_types = self.puzzle.signature.param_types
        pools = [self._small_values(ty) for ty in param_types]
        if all(pools):
            count = 0
            for combo in itertools.product(*pools):
                yield tuple(freeze(v) for v in combo)
                count += 1
                if count >= self.exhaustive_budget:
                    break
        for _ in range(self.random_attempts):
            yield tuple(
                freeze(self._random_value(ty)) for ty in param_types
            )

    # -- the oracle --------------------------------------------------------

    def reference_output(self, args: Tuple[Any, ...]) -> Any:
        try:
            return freeze(self.puzzle.reference(*args))
        except Exception:
            return ERROR

    def find_counterexample(
        self, candidate: Optional[Callable[..., Any]]
    ) -> Optional[Example]:
        """A distinguishing input, or None when the candidate matches the
        reference on every generated input.

        ``candidate=None`` (the empty program ⊥) disagrees everywhere;
        the first well-defined seed is returned — this seeds the game.
        """
        for args in self._candidate_inputs():
            expected = self.reference_output(args)
            if expected is ERROR:
                continue  # inputs outside the secret spec's domain
            if candidate is None:
                return Example(args, expected)
            try:
                actual = freeze(candidate(*args))
            except Exception:
                return Example(args, expected)
            if not structurally_equal(actual, expected):
                return Example(args, expected)
        return None
