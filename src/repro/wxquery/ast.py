"""Abstract syntax tree for WXQuery (Definition 2.1).

Each numbered production of the definition has a node class:

1. :class:`EmptyElement`       — ``<t/>``
2. :class:`DirectElement`      — ``<t> ... </t>``
3. :class:`FLWRExpr`           — for/let/where/return with data windows
4. :class:`IfExpr`             — ``if χ then α else β``
5. :class:`PathOutput`         — ``$y/π``
6. :class:`VarOutput`          — ``$z``
7. :class:`SequenceExpr`       — ``( α, β, ... )``

Conditions ``χ`` are conjunctions of :class:`Comparison` atoms over
:class:`Operand` (a variable plus a relative child-axis path) and exact
rational constants.  Constants are carried as :class:`fractions.Fraction`
because the predicate-graph layer (Section 3.3) does exact arithmetic on
them; the original lexeme is retained for faithful unparsing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from ..xmlkit import Path

#: Aggregation operators Φ of Definition 2.1.
AGGREGATE_FUNCTIONS = ("min", "max", "sum", "count", "avg")

#: Comparison operators θ (Section 2: θ ∈ {=, <, ≤, >, ≥}; ``!=`` is not
#: part of the fragment and is rejected by the analyzer).
COMPARISON_OPS = ("=", "<", "<=", ">", ">=", "!=")


def literal_to_fraction(lexeme: str) -> Fraction:
    """Parse an integer or finite-decimal literal exactly."""
    return Fraction(lexeme)


def fraction_to_literal(value: Fraction) -> str:
    """Shortest decimal rendering of an exact constant."""
    if value.denominator == 1:
        return str(value.numerator)
    as_float = float(value)
    if Fraction(str(as_float)) == value:
        return str(as_float)
    return f"{value.numerator}/{value.denominator}"


# ----------------------------------------------------------------------
# Conditions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Operand:
    """A value reference ``$v`` — a variable plus a relative path.

    In a ``where`` clause operands are written ``$p/coord/cel/ra``;
    inside a path condition ``[coord/cel/ra >= ...]`` the variable is
    implicit (the enclosing ``for`` variable) and ``var`` is ``None``
    until the analyzer resolves it.
    """

    var: Optional[str]
    path: Path

    def resolved(self, var: str) -> "Operand":
        return Operand(var, self.path) if self.var is None else self

    def __str__(self) -> str:
        prefix = f"${self.var}" if self.var is not None else ""
        if self.path.is_empty():
            return prefix or "."
        return f"{prefix}/{self.path}" if prefix else str(self.path)


@dataclass(frozen=True)
class Comparison:
    """One atomic predicate ``$v θ c`` or ``$v θ $w + c``."""

    left: Operand
    op: str
    right_operand: Optional[Operand] = None
    constant: Fraction = Fraction(0)
    constant_lexeme: Optional[str] = None

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def __str__(self) -> str:
        const = self.constant_lexeme or fraction_to_literal(self.constant)
        if self.right_operand is None:
            return f"{self.left} {self.op} {const}"
        if self.constant == 0:
            return f"{self.left} {self.op} {self.right_operand}"
        return f"{self.left} {self.op} {self.right_operand} + {const}"


@dataclass(frozen=True)
class Condition:
    """A conjunction of atomic predicates (Section 2)."""

    atoms: Tuple[Comparison, ...]

    def __str__(self) -> str:
        return " and ".join(str(atom) for atom in self.atoms)

    def resolved(self, var: str) -> "Condition":
        """Bind implicit operands to ``var`` (for path conditions)."""
        return Condition(
            tuple(
                Comparison(
                    atom.left.resolved(var),
                    atom.op,
                    atom.right_operand.resolved(var) if atom.right_operand else None,
                    atom.constant,
                    atom.constant_lexeme,
                )
                for atom in self.atoms
            )
        )

    def __bool__(self) -> bool:
        return bool(self.atoms)


def conjunction(*conditions: Optional[Condition]) -> Condition:
    """Merge several (possibly ``None``) conditions into one."""
    atoms: List[Comparison] = []
    for cond in conditions:
        if cond:
            atoms.extend(cond.atoms)
    return Condition(tuple(atoms))


# ----------------------------------------------------------------------
# Windows
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WindowClause:
    """A data window ``|count ∆ step µ|`` or ``|π diff ∆ step µ|``.

    ``step`` defaults to ``size`` when omitted (Section 2).  For
    time-based (``diff``) windows ``reference`` names the ordered
    reference element controlling the window.
    """

    kind: str  # "count" | "diff"
    size: Fraction
    step: Optional[Fraction] = None
    reference: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.kind not in ("count", "diff"):
            raise ValueError(f"unknown window kind {self.kind!r}")
        if self.kind == "diff" and self.reference is None:
            raise ValueError("time-based windows need a reference element")
        if self.kind == "count" and self.reference is not None:
            raise ValueError("item-based windows take no reference element")
        if self.size <= 0:
            raise ValueError("window size must be positive")
        if self.step is not None and self.step <= 0:
            raise ValueError("window step must be positive")

    @property
    def effective_step(self) -> Fraction:
        return self.step if self.step is not None else self.size

    def __str__(self) -> str:
        head = "count" if self.kind == "count" else f"{self.reference} diff"
        text = f"|{head} {fraction_to_literal(self.size)}"
        if self.step is not None:
            text += f" step {fraction_to_literal(self.step)}"
        return text + "|"


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
class Expr:
    """Base class of all WXQuery expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class EmptyElement(Expr):
    """Production 1: ``<t/>``."""

    tag: str


@dataclass(frozen=True)
class EnclosedExpr(Expr):
    """A brace-enclosed computed expression inside a constructor."""

    body: "Expr"


@dataclass(frozen=True)
class DirectElement(Expr):
    """Production 2: ``<t> [[α1,2 | {α3..7}]]* </t>``."""

    tag: str
    content: Tuple[Expr, ...] = ()


@dataclass(frozen=True)
class StreamSource:
    """``stream("name")`` or ``doc("name")`` heading a for-binding."""

    function: str  # "stream" | "doc"
    name: str

    def __post_init__(self) -> None:
        if self.function not in ("stream", "doc"):
            raise ValueError(f"unknown source function {self.function!r}")

    def __str__(self) -> str:
        return f'{self.function}("{self.name}")'


@dataclass(frozen=True)
class ForClause:
    """``for $x in $y/π̄ |window|`` — one binding of an FLWR expression.

    ``source`` is either a :class:`StreamSource` or the name of an
    in-scope variable.  ``path`` is the bare navigation path; conditions
    embedded in path steps (``π̄``) are split off into ``path_condition``
    by the parser, with operands left implicit (resolved to ``var`` by
    the analyzer).
    """

    var: str
    source: Union[StreamSource, str]
    path: Path
    path_condition: Optional[Condition] = None
    window: Optional[WindowClause] = None


@dataclass(frozen=True)
class LetClause:
    """``let $a := Φ($y/π)`` — a window-based aggregation binding."""

    var: str
    function: str
    source_var: str
    path: Path

    def __post_init__(self) -> None:
        if self.function not in AGGREGATE_FUNCTIONS:
            raise ValueError(f"unknown aggregation function {self.function!r}")


@dataclass(frozen=True)
class FLWRExpr(Expr):
    """Production 3: for/let clauses, optional where, return."""

    clauses: Tuple[Union[ForClause, LetClause], ...]
    where: Optional[Condition]
    return_expr: Expr


@dataclass(frozen=True)
class IfExpr(Expr):
    """Production 4: ``if χ then α else β``."""

    condition: Condition
    then_branch: Expr
    else_branch: Expr


@dataclass(frozen=True)
class PathOutput(Expr):
    """Production 5: ``$y/π`` — output subtrees reachable via ``π``."""

    var: str
    path: Path


@dataclass(frozen=True)
class VarOutput(Expr):
    """Production 6: ``$z`` — output the subtree rooted at ``$z``."""

    var: str


@dataclass(frozen=True)
class SequenceExpr(Expr):
    """Production 7: ``( α, β, ... )``."""

    items: Tuple[Expr, ...] = ()


@dataclass(frozen=True)
class Query:
    """A complete parsed subscription."""

    body: Expr
    source_text: str = field(default="", compare=False)

    def streams(self) -> List[str]:
        """Names of all ``stream()`` inputs referenced by the query."""
        names: List[str] = []
        _collect_streams(self.body, names)
        return names


def _collect_streams(expr: Expr, out: List[str]) -> None:
    if isinstance(expr, FLWRExpr):
        for clause in expr.clauses:
            if isinstance(clause, ForClause) and isinstance(clause.source, StreamSource):
                if clause.source.function == "stream" and clause.source.name not in out:
                    out.append(clause.source.name)
        _collect_streams(expr.return_expr, out)
    elif isinstance(expr, DirectElement):
        for item in expr.content:
            _collect_streams(item, out)
    elif isinstance(expr, EnclosedExpr):
        _collect_streams(expr.body, out)
    elif isinstance(expr, IfExpr):
        _collect_streams(expr.then_branch, out)
        _collect_streams(expr.else_branch, out)
    elif isinstance(expr, SequenceExpr):
        for item in expr.items:
            _collect_streams(item, out)
