"""Post-processing: rebuild the subscriber-facing result structure.

Restructuring — new elements, renaming, reordering, the final ``avg =
sum/count`` computation — happens exactly once, at the super-peer of the
subscribing thin-peer, and its output is never reused in the network
(Section 2).  The :class:`Restructurer` evaluates the analyzed query's
``return`` clause against each delivered stream item:

* plain subscriptions: the item is a (selected, projected) input item;
* aggregate subscriptions: the item is a partial-aggregate wire element
  and the ``let`` variable binds to its finalized scalar;
* window-contents subscriptions: the item is a ``<window>`` batch and
  the ``for`` variable binds to the batch's items.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Optional, Union

from ..wxquery import (
    AnalyzedQuery,
    Comparison,
    DirectElement,
    EmptyElement,
    EnclosedExpr,
    Expr,
    IfExpr,
    PathOutput,
    SequenceExpr,
    VarOutput,
)
from ..xmlkit import Element
from .aggregate import number_text, wire_to_partial
from .operators import EngineError, Operator

#: A binding value during return-clause evaluation.
Value = Union[Element, float, List[Element]]

#: A compiled return-clause expression: bindings -> evaluated values.
Compiled = Callable[[Dict[str, "Value"]], List["Value"]]


class Restructurer:
    """Evaluate a subscription's ``return`` clause over stream items.

    The return expression is compiled once into a tree of closures
    (:func:`compile_return`, shared by every subscription with an equal
    clause); per-item evaluation then runs without AST type dispatch —
    the executor restructures every delivered item of every
    subscription, so this is one of the engine's hottest paths.
    """

    def __init__(self, analyzed: AnalyzedQuery) -> None:
        self.analyzed = analyzed
        self._aggregations = analyzed.aggregations()
        self._for_vars = tuple(
            binding.var for binding in analyzed.bindings.values() if binding.kind == "for"
        )
        self._compiled = compile_return(analyzed.flwr.return_expr)
        first = self._aggregations[0] if self._aggregations else None
        #: Everything restructuring reads of the query (equal clauses
        #: share one compiled tree): restructurers with equal signatures
        #: build equal results from equal items, so the executor counts
        #: such deliveries of one stream once.
        self.signature = (
            self._compiled,
            first and (first.var, first.aggregate or "avg", first.source_var),
            self._for_vars,
        )

    def __reduce__(self) -> tuple:
        """Pickle as the analyzed query; the closure tree recompiles on
        the receiving side (restructuring is stateless per item)."""
        return (Restructurer, (self.analyzed,))

    # ------------------------------------------------------------------
    def build(self, item: Element) -> List[Element]:
        """Produce the result elements for one delivered stream item."""
        bindings = self._bind(item)
        if not bindings:
            return []
        return _as_elements(self._compiled(bindings))

    def build_with_bindings(self, bindings: Dict[str, Value]) -> List[Element]:
        """Evaluate the return clause under explicit variable bindings.

        Used by multi-input combination
        (:class:`repro.engine.combine.LatestValueCombiner`), which binds
        each input stream's root variable to its latest item.
        """
        if not bindings:
            return []
        return _as_elements(self._compiled(dict(bindings)))

    def _bind(self, item: Element) -> Dict[str, Value]:
        bindings: Dict[str, Value] = {}
        if item.tag == "agg" and self._aggregations:
            aggregation = self._aggregations[0]
            partial = wire_to_partial(item, aggregation.aggregate or "avg")
            value = partial.final(aggregation.aggregate or "avg")
            if value is None:
                return {}  # empty window: nothing to report
            bindings[aggregation.var] = value
            if aggregation.source_var is not None:
                bindings[aggregation.source_var] = []
            return bindings
        for var in self._for_vars:
            bindings[var] = list(item.children) if item.tag == "window" else item
        return bindings


# ----------------------------------------------------------------------
# Expression compilation
# ----------------------------------------------------------------------
@lru_cache(maxsize=256)
def compile_return(expr: Expr) -> "Compiled":
    """Translate a return expression into a closure tree.

    Each closure maps ``bindings -> List[Value]``; per-item evaluation
    pays no AST isinstance dispatch.  Bindings are never empty here —
    :meth:`Restructurer.build` filters empty-window items first.  The
    tree holds no state, so one compile serves every subscription with
    an equal clause (template workloads register hundreds of them).
    """
    if isinstance(expr, EmptyElement):
        tag = expr.tag
        return lambda bindings: [Element(tag)]
    if isinstance(expr, DirectElement):
        tag = expr.tag
        pieces = [compile_return(piece) for piece in expr.content]
        def direct(bindings: Dict[str, Value]) -> List[Value]:
            parts: List[Value] = []
            for piece in pieces:
                parts.extend(piece(bindings))
            return [_assemble(tag, parts)]
        return direct
    if isinstance(expr, EnclosedExpr):
        return compile_return(expr.body)
    if isinstance(expr, SequenceExpr):
        items = [compile_return(piece) for piece in expr.items]
        def sequence(bindings: Dict[str, Value]) -> List[Value]:
            out: List[Value] = []
            for piece in items:
                out.extend(piece(bindings))
            return out
        return sequence
    if isinstance(expr, IfExpr):
        atoms = expr.condition.atoms
        then_branch = compile_return(expr.then_branch)
        else_branch = compile_return(expr.else_branch)
        return lambda bindings: (
            then_branch(bindings) if _holds(atoms, bindings) else else_branch(bindings)
        )
    if isinstance(expr, PathOutput):
        var, steps = expr.var, expr.path.steps
        def navigate(bindings: Dict[str, Value]) -> List[Value]:
            value = bindings.get(var)
            if value is None:
                raise EngineError(f"unbound variable ${var} at restructuring")
            if isinstance(value, float):
                raise EngineError(f"cannot navigate into scalar ${var}")
            roots = value if isinstance(value, list) else [value]
            found: List[Value] = []
            for root in roots:
                found.extend(node.copy() for node in root.find_all(steps))
            return found
        return navigate
    if isinstance(expr, VarOutput):
        var = expr.var
        def output(bindings: Dict[str, Value]) -> List[Value]:
            value = bindings.get(var)
            if value is None:
                raise EngineError(f"unbound variable ${var} at restructuring")
            if isinstance(value, list):
                return [element.copy() for element in value]
            if isinstance(value, Element):
                return [value.copy()]
            return [value]
        return output
    raise EngineError(f"cannot restructure expression {expr!r}")


def _holds(atoms, bindings: Dict[str, Value]) -> bool:
    for atom in atoms:
        if not _atom_holds(atom, bindings):
            return False
    return True


def _atom_holds(atom: Comparison, bindings: Dict[str, Value]) -> bool:
    left = _operand_value(atom.left, bindings)
    if atom.right_operand is not None:
        right = _operand_value(atom.right_operand, bindings)
    else:
        right = 0.0
    if left is None or right is None:
        return False
    limit = right + float(atom.constant)
    return {
        "=": left == limit,
        "<": left < limit,
        "<=": left <= limit,
        ">": left > limit,
        ">=": left >= limit,
    }.get(atom.op, False)


def _operand_value(operand, bindings: Dict[str, Value]) -> Optional[float]:
    if operand.var is None:
        return None
    value = bindings.get(operand.var)
    if value is None:
        return None
    if isinstance(value, float):
        return value
    if isinstance(value, list):
        return None
    if operand.path.is_empty():
        return None
    return operand.path.number(value)


def _assemble(tag: str, parts: List[Value]) -> Element:
    """Build a constructed element from evaluated content pieces."""
    elements = [part for part in parts if isinstance(part, Element)]
    scalars = [part for part in parts if not isinstance(part, Element)]
    if elements and scalars:
        raise EngineError(
            f"mixed element/scalar content in constructed <{tag}> is outside "
            "the supported data model"
        )
    if elements:
        return Element(tag, children=elements)
    if scalars:
        text = " ".join(_scalar_text(scalar) for scalar in scalars)
        return Element(tag, text=text)
    return Element(tag)


def _scalar_text(value: Value) -> str:
    assert isinstance(value, float)
    return number_text(value)


def _as_elements(values: List[Value]) -> List[Element]:
    out: List[Element] = []
    for value in values:
        if isinstance(value, Element):
            out.append(value)
        else:
            raise EngineError("top-level restructured output must be elements")
    return out


class RestructureOperator(Operator):
    """Operator wrapper around a :class:`Restructurer`."""

    kind = "restructure"

    def __init__(self, restructurer: Restructurer) -> None:
        self.restructurer = restructurer

    def process(self, item: Element) -> List[Element]:
        return self.restructurer.build(item)
