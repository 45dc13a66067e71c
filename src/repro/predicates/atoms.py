"""Normalized atomic predicates and strictness-aware bounds.

Section 3.3 normalizes predicates "to contain only comparisons of the
form ``$v ≥ c``, ``$v ≤ c`` and ``$v ≤ $w + c``".  The fragment's
operator set θ also contains the strict comparisons ``<`` and ``>``
(Section 2), which over decimal-valued domains cannot be rewritten into
non-strict ones.  Following the classic Rosenkrantz–Hunt treatment [5],
an edge weight is therefore a :class:`Bound` — an exact rational value
plus a strictness flag — with

* *addition* (path concatenation): values add, strictness ORs;
* *tightness order*: ``v ≤ 3`` is tighter than ``v ≤ 5``; ``v < 3`` is
  tighter than ``v ≤ 3``;
* *implication*: bound ``b₁`` implies bound ``b₂`` on the same edge iff
  ``b₁ ≤ b₂`` in tightness order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Union

from ..wxquery.ast import Comparison, fraction_to_literal
from ..xmlkit import Path


class Bound:
    """A weight ``c`` with a strictness flag.

    The constraint carried by an edge ``u → v`` with bound ``(c, s)`` is
    ``u ≤ v + c`` when ``s`` is false and ``u < v + c`` when true.

    Internally strictness is an *epsilon count* (the classic
    ``c − k·ε`` encoding): path concatenation adds the counts, so a
    zero-weight cycle containing a strict edge keeps producing strictly
    tighter bounds and Bellman–Ford correctly flags it as a negative
    cycle (``v < v`` is unsatisfiable).  At the constraint level only
    ``k = 0`` versus ``k ≥ 1`` matters — equality and :meth:`implies`
    compare at that level.
    """

    __slots__ = ("value", "eps")

    def __init__(self, value: Fraction, strict: Union[bool, int] = False) -> None:
        self.value = value
        self.eps = int(strict)

    @property
    def strict(self) -> bool:
        return self.eps > 0

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other: "Bound") -> "Bound":
        return Bound(self.value + other.value, self.eps + other.eps)

    # -- tightness order ------------------------------------------------
    def __lt__(self, other: "Bound") -> bool:
        if self.value != other.value:
            return self.value < other.value
        return self.eps > other.eps

    def __le__(self, other: "Bound") -> bool:
        return self == other or self < other

    def __gt__(self, other: "Bound") -> bool:
        return other < self

    def __ge__(self, other: "Bound") -> bool:
        return other <= self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bound):
            return NotImplemented
        return self.value == other.value and self.strict == other.strict

    def __hash__(self) -> int:
        return hash((self.value, self.strict))

    def implies(self, other: "Bound") -> bool:
        """``True`` when this bound's constraint entails ``other``'s."""
        if self.value != other.value:
            return self.value < other.value
        return self.strict or not other.strict

    def is_infeasible_cycle(self) -> bool:
        """A cycle with this total weight denies satisfiability.

        A cycle ``v ≤ v + c`` is impossible iff ``c < 0``, or ``c = 0``
        with a strict edge on the cycle (``v < v``).
        """
        return self.value < 0 or (self.value == 0 and self.strict)

    def __repr__(self) -> str:
        return f"Bound({self.value!r}, strict={self.strict})"

    def __str__(self) -> str:
        marker = "!" if self.strict else ""
        return f"{fraction_to_literal(self.value)}{marker}"


ZERO_BOUND = Bound(Fraction(0), False)

#: The distinguished node representing the constant zero (Section 3.3).
ZERO = "0"

NodeLabel = Union[str, Path]


@dataclass(frozen=True)
class NormalizedAtom:
    """One normalized constraint ``source ≤ target + bound``.

    ``source``/``target`` are absolute paths or the :data:`ZERO` node.
    This is exactly ζ(e) from the paper:
    ``ζ(e) = (sourcelabel(e) ≤ targetlabel(e) + weight(e))``.
    """

    source: NodeLabel
    target: NodeLabel
    bound: Bound

    def __str__(self) -> str:
        op = "<" if self.bound.strict else "<="
        if self.target == ZERO:
            return f"{self.source} {op} {fraction_to_literal(self.bound.value)}"
        if self.source == ZERO:
            return f"{self.target} >{'' if self.bound.strict else '='} {fraction_to_literal(-self.bound.value)}"
        return f"{self.source} {op} {self.target} + {fraction_to_literal(self.bound.value)}"


class NormalizationError(ValueError):
    """Raised for comparisons outside the normalizable fragment."""


def normalize_comparison(
    left: NodeLabel, op: str, right: Union[NodeLabel, None], constant: Fraction
) -> List[NormalizedAtom]:
    """Normalize ``left θ c`` or ``left θ right + c`` to ≤-form atoms.

    Rules (with ``R`` denoting ``right`` or the zero node):

    * ``L ≤ R + c``  → ``L → R`` with bound ``(c, ◦)``
    * ``L < R + c``  → ``L → R`` with bound ``(c, •)``
    * ``L ≥ R + c``  ⇔ ``R ≤ L − c`` → ``R → L`` with bound ``(−c, ◦)``
    * ``L > R + c``  → ``R → L`` with bound ``(−c, •)``
    * ``L = R + c``  → both ``≤`` and ``≥`` edges
    """
    target: NodeLabel = right if right is not None else ZERO
    atoms: List[NormalizedAtom] = []
    if op in ("<=", "<", "="):
        atoms.append(NormalizedAtom(left, target, Bound(constant, op == "<")))
    if op in (">=", ">", "="):
        atoms.append(NormalizedAtom(target, left, Bound(-constant, op == ">")))
    if not atoms:
        raise NormalizationError(f"operator {op!r} is outside θ")
    return atoms


def normalize_atom(
    atom: Comparison, left_path: Path, right_path: Union[Path, None]
) -> List[NormalizedAtom]:
    """Normalize a resolved WXQuery comparison.

    ``left_path``/``right_path`` are the absolute paths of the operands
    (from :class:`repro.wxquery.analyzer.ResolvedAtom`).
    """
    if atom.op == "!=":
        raise NormalizationError(f"'!=' is outside θ: {atom}")
    right: Union[Path, None] = right_path if atom.right_operand is not None else None
    return normalize_comparison(left_path, atom.op, right, atom.constant)
