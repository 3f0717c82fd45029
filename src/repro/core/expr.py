"""The expression IR shared by TDS, DBS and the domain DSLs.

Programs synthesized by the paper are expressions over *components*
(pure functions registered by a DSL, §3.2) plus a handful of special
forms the synthesizer reasons about directly:

* :class:`Param` — a reference to a parameter of the function being
  synthesized (the DSL's ``_PARAM`` rule);
* :class:`Const` — a literal constant (``_CONSTANT``);
* :class:`Var` / :class:`Lambda` — lambda abstraction, used for
  higher-order components such as ``Loop`` and ``SplitAndMerge``;
* :class:`Call` — application of a DSL-defined function to arguments;
* :class:`If` — the cascading conditional learned by the ``__CONDITIONAL``
  strategy (§5.2);
* :class:`Recurse` — a recursive call to the function being synthesized
  (``_RECURSE``);
* :class:`LasyCall` — a call to another, already-synthesized LaSy
  function (``_LASY_FN``);
* :class:`Foreach` / :class:`ForLoop` — loop nodes produced by the
  ``__FOREACH`` / ``__FOR`` strategies (§5.3).

Every expression is tagged with the grammar nonterminal that produced it
(``nt``); per §5.1, "all components are expressions marked with which
non-terminal in the grammar defined them". Expressions are immutable and
hashable; ``size`` (node count) is cached at construction since it drives
the smaller-programs bias of the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Tuple

from .types import Type

Path = Tuple[int, ...]


@dataclass(frozen=True)
class Function:
    """Metadata for a DSL-defined component function.

    ``fn`` must be pure (§3.2: "the semantics of the DSL must be
    functional"). ``lazy`` marks special functions (e.g. short-circuit
    boolean operators) whose arguments the evaluator supplies as thunks.
    """

    name: str
    param_types: Tuple[Type, ...]
    return_type: Type
    fn: Callable[..., Any]
    lazy: bool = False

    @property
    def arity(self) -> int:
        return len(self.param_types)

    def __str__(self) -> str:
        params = ", ".join(str(t) for t in self.param_types)
        return f"{self.return_type} {self.name}({params})"

    def __hash__(self) -> int:
        return hash((self.name, self.param_types, self.return_type))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Function):
            return NotImplemented
        return (
            self.name == other.name
            and self.param_types == other.param_types
            and self.return_type == other.return_type
        )


#: Instance attribute under which :func:`repro.core.compile.compile_expr`
#: memoizes a node's compiled closure. A process-local cache: dropped
#: from pickles, and never part of equality or hashing.
COMPILED_ATTR = "_compiled"


class Expr:
    """Base class for expressions. Subclasses are frozen dataclasses.

    Hashes are computed once at construction (children contribute their
    cached hashes, so hashing is O(1) per node); equality short-circuits
    on the cached hash before any deep comparison. The syntactic dedup of
    §5.1 hashes millions of expressions, so this matters.

    ``free_var_set`` (free lambda-variable names) and ``has_recurse``
    are likewise fixed once the node exists, so they too are computed at
    construction from the children's cached values — the pool's dedup
    and admission checks consult them per candidate.
    """

    nt: str
    size: int
    _hash: int
    free_var_set: frozenset
    has_recurse: bool
    # Set per node by compile_expr (see COMPILED_ATTR); a class-level
    # default rather than a field, so it stays out of every dataclass.
    _compiled = None

    def _identity(self) -> tuple:
        raise NotImplementedError

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        state = self.__dict__
        if COMPILED_ATTR in state:
            state = dict(state)
            del state[COMPILED_ATTR]
        return state

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(self) is not type(other):
            return NotImplemented if not isinstance(other, Expr) else False
        if self._hash != other._hash:  # type: ignore[attr-defined]
            return False
        return self._identity() == other._identity()  # type: ignore[union-attr]

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def with_children(self, children: Tuple["Expr", ...]) -> "Expr":
        if children:
            raise ValueError(f"{type(self).__name__} takes no children")
        return self

    # -- traversal ---------------------------------------------------

    def walk(self) -> Iterator["Expr"]:
        """Yield this expression and all descendants, preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def walk_with_paths(self, prefix: Path = ()) -> Iterator[Tuple[Path, "Expr"]]:
        """Yield ``(path, node)`` pairs, preorder."""
        yield prefix, self
        for i, child in enumerate(self.children()):
            yield from child.walk_with_paths(prefix + (i,))

    def contains(self, predicate: Callable[["Expr"], bool]) -> bool:
        return any(predicate(node) for node in self.walk())

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        return repr(self)


_NO_FREE_VARS: frozenset = frozenset()


def _finish(node: Expr, size: int) -> None:
    object.__setattr__(node, "size", size)
    identity = node._identity()
    object.__setattr__(
        node, "_hash", hash((type(node).__name__,) + identity)
    )
    # Children are already finished (construction is bottom-up), so the
    # traversal caches are O(1) per node.
    kind = type(node)
    if kind is Var:
        free: frozenset = frozenset((node.name,))
        recurses = False
    elif kind is Lambda:
        free = node.body.free_var_set
        if free:
            free = free.difference(p.name for p in node.params)
        recurses = node.body.has_recurse
    else:
        free = _NO_FREE_VARS
        recurses = kind is Recurse
        for child in node.children():
            child_free = child.free_var_set
            if child_free:
                free = free | child_free
            if child.has_recurse:
                recurses = True
    object.__setattr__(node, "free_var_set", free)
    object.__setattr__(node, "has_recurse", recurses)


@dataclass(frozen=True, eq=False)
class Hole(Expr):
    """The single hole of a context (§4.2); never evaluated."""

    nt: str
    size: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        _finish(self, 1)

    def __str__(self) -> str:
        return "•"  # the paper's bullet


@dataclass(frozen=True, eq=False)
class Param(Expr):
    """Reference to a parameter of the function being synthesized."""

    name: str
    type: Type
    nt: str
    size: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        _finish(self, 1)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class Const(Expr):
    """A literal constant embedded in the program."""

    value: Any
    type: Type
    nt: str
    size: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        _finish(self, 1)

    def __str__(self) -> str:
        from .values import value_repr

        return value_repr(self.value)


@dataclass(frozen=True, eq=False)
class Var(Expr):
    """A lambda-bound variable."""

    name: str
    type: Type
    nt: str
    size: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        _finish(self, 1)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class Call(Expr):
    """Application of a DSL-defined function to argument expressions."""

    func: Function
    args: Tuple[Expr, ...]
    nt: str
    size: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.args) != self.func.arity:
            raise ValueError(
                f"{self.func.name} expects {self.func.arity} args, "
                f"got {len(self.args)}"
            )
        _finish(self, 1 + sum(a.size for a in self.args))

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def with_children(self, children: Tuple[Expr, ...]) -> "Call":
        return Call(self.func, tuple(children), self.nt)

    def __str__(self) -> str:
        return f"{self.func.name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True, eq=False)
class Lambda(Expr):
    """Lambda abstraction ``λ params . body``."""

    params: Tuple[Var, ...]
    body: Expr
    nt: str
    size: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        _finish(self, 1 + self.body.size)

    def children(self) -> Tuple[Expr, ...]:
        return (self.body,)

    def with_children(self, children: Tuple[Expr, ...]) -> "Lambda":
        (body,) = children
        return Lambda(self.params, body, self.nt)

    def __str__(self) -> str:
        names = ", ".join(p.name for p in self.params)
        return f"λ{names}: {self.body}"


@dataclass(frozen=True, eq=False)
class If(Expr):
    """A cascading conditional: ``if g1 then b1 elif g2 then b2 ... else e``.

    ``branches`` holds (guard, body) pairs in evaluation order;
    ``orelse`` is the final else body.
    """

    branches: Tuple[Tuple[Expr, Expr], ...]
    orelse: Expr
    nt: str
    size: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not self.branches:
            raise ValueError("If requires at least one guarded branch")
        total = 1 + self.orelse.size
        for guard, body in self.branches:
            total += guard.size + body.size
        _finish(self, total)

    @property
    def num_branches(self) -> int:
        """Number of bodies, counting the else branch."""
        return len(self.branches) + 1

    def children(self) -> Tuple[Expr, ...]:
        flat: list[Expr] = []
        for guard, body in self.branches:
            flat.append(guard)
            flat.append(body)
        flat.append(self.orelse)
        return tuple(flat)

    def with_children(self, children: Tuple[Expr, ...]) -> "If":
        children = tuple(children)
        if len(children) != 2 * len(self.branches) + 1:
            raise ValueError("wrong number of children for If")
        pairs = tuple(
            (children[2 * i], children[2 * i + 1])
            for i in range(len(self.branches))
        )
        return If(pairs, children[-1], self.nt)

    def bodies(self) -> Tuple[Expr, ...]:
        return tuple(b for _, b in self.branches) + (self.orelse,)

    def __str__(self) -> str:
        parts = [f"if {g} then {b}" for g, b in self.branches]
        return " else ".join(parts) + f" else {self.orelse}"


@dataclass(frozen=True, eq=False)
class Recurse(Expr):
    """Recursive call to the function being synthesized (``_RECURSE``)."""

    args: Tuple[Expr, ...]
    nt: str
    size: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        _finish(self, 1 + sum(a.size for a in self.args))

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def with_children(self, children: Tuple[Expr, ...]) -> "Recurse":
        return Recurse(tuple(children), self.nt)

    def __str__(self) -> str:
        return f"recurse({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True, eq=False)
class LasyCall(Expr):
    """Call to another LaSy function by name (``_LASY_FN``)."""

    func_name: str
    args: Tuple[Expr, ...]
    nt: str
    size: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        _finish(self, 1 + sum(a.size for a in self.args))

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def with_children(self, children: Tuple[Expr, ...]) -> "LasyCall":
        return LasyCall(self.func_name, tuple(children), self.nt)

    def __str__(self) -> str:
        return f"{self.func_name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True, eq=False)
class Foreach(Expr):
    """A foreach loop produced by the ``__FOREACH`` strategy (§5.3).

    Evaluates ``source`` to a list, then runs ``body`` (a lambda over
    ``(i, current, acc)``) per element, accumulating outputs into a list.
    ``reverse`` iterates the source right-to-left (the "going in reverse
    order" strategy variant), still producing outputs aligned with the
    iteration order.
    """

    source: Expr
    body: Lambda
    nt: str
    reverse: bool = False
    size: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        _finish(self, 1 + self.source.size + self.body.size)

    def children(self) -> Tuple[Expr, ...]:
        return (self.source, self.body)

    def with_children(self, children: Tuple[Expr, ...]) -> "Foreach":
        source, body = children
        if not isinstance(body, Lambda):
            raise ValueError("Foreach body must be a Lambda")
        return Foreach(source, body, self.nt, self.reverse)

    def __str__(self) -> str:
        kw = "foreach_rev" if self.reverse else "foreach"
        return f"{kw}({self.source}, {self.body})"


@dataclass(frozen=True, eq=False)
class ForLoop(Expr):
    """A counted accumulator loop produced by the ``__FOR`` strategy.

    Semantics: ``acc = init; for i in start..bound(input): acc = body(i,
    acc); return acc`` where ``bound`` is an expression over the function
    parameters.
    """

    bound: Expr
    init: Expr
    body: Lambda
    nt: str
    start: int = 1
    size: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        _finish(self, 1 + self.bound.size + self.init.size + self.body.size)

    def children(self) -> Tuple[Expr, ...]:
        return (self.bound, self.init, self.body)

    def with_children(self, children: Tuple[Expr, ...]) -> "ForLoop":
        bound, init, body = children
        if not isinstance(body, Lambda):
            raise ValueError("ForLoop body must be a Lambda")
        return ForLoop(bound, init, body, self.nt, self.start)

    def __str__(self) -> str:
        return (
            f"for(i={self.start}..{self.bound}, acc={self.init}, {self.body})"
        )


# ---------------------------------------------------------------------
# Path utilities


def get_at(root: Expr, path: Path) -> Expr:
    """The subexpression of ``root`` at ``path``."""
    node = root
    for index in path:
        node = node.children()[index]
    return node


def replace_at(root: Expr, path: Path, replacement: Expr) -> Expr:
    """A copy of ``root`` with the node at ``path`` replaced."""
    if not path:
        return replacement
    index, rest = path[0], path[1:]
    children = list(root.children())
    children[index] = replace_at(children[index], rest, replacement)
    return root.with_children(tuple(children))


def subexpressions(root: Expr) -> Iterator[Tuple[Path, Expr]]:
    """All (path, subexpression) pairs of ``root`` including the root."""
    yield from root.walk_with_paths()


def count_branches(program: Optional[Expr]) -> int:
    """``num_branch`` from Algorithm 1: bodies of the top-level conditional.

    A program with no conditional has one branch; the empty program has
    one as well (so the first DBS call gets ``m = 1``).
    """
    if program is None:
        return 1
    if isinstance(program, If):
        return program.num_branches
    return 1


def top_level_bodies(program: Expr) -> Tuple[Expr, ...]:
    """The branch bodies of the top-level conditional, or the program."""
    if isinstance(program, If):
        return program.bodies()
    return (program,)


def is_recursive(expr: Expr) -> bool:
    """Whether ``expr`` contains a recursive self-call."""
    return expr.has_recurse


def contains_free_vars(expr: Expr) -> bool:
    """Whether ``expr`` contains lambda variables not bound within it."""
    return bool(expr.free_var_set)


def free_vars(expr: Expr) -> frozenset:
    """Names of lambda variables free in ``expr``."""
    return expr.free_var_set


# Cached-hash identity tuples (see Expr.__eq__/__hash__).
def _const_key(value):
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value

def _identity_hole(self):
    return (self.nt,)
Hole._identity = _identity_hole

def _identity_param(self):
    return (self.name, self.type, self.nt)
Param._identity = _identity_param

def _identity_const(self):
    return (_const_key(self.value), self.type, self.nt)
Const._identity = _identity_const

def _identity_var(self):
    return (self.name, self.type, self.nt)
Var._identity = _identity_var

def _identity_call(self):
    return (self.func, self.args, self.nt)
Call._identity = _identity_call

def _identity_lambda(self):
    return (self.params, self.body, self.nt)
Lambda._identity = _identity_lambda

def _identity_if(self):
    return (self.branches, self.orelse, self.nt)
If._identity = _identity_if

def _identity_recurse(self):
    return (self.args, self.nt)
Recurse._identity = _identity_recurse

def _identity_lasycall(self):
    return (self.func_name, self.args, self.nt)
LasyCall._identity = _identity_lasycall

def _identity_foreach(self):
    return (self.source, self.body, self.nt, self.reverse)
Foreach._identity = _identity_foreach

def _identity_forloop(self):
    return (self.bound, self.init, self.body, self.nt, self.start)
ForLoop._identity = _identity_forloop

