"""Repro-specific source linter (pass "b").

A small ``ast``-based linter encoding the correctness rules this
codebase actually depends on — the things a generic linter either does
not know or is not strict enough about:

* ``L301`` **mutable-default-arg** — a ``list``/``dict``/``set``
  default is shared across calls; registration state leaking between
  :class:`StreamGlobe` instances was the motivating near-miss.
* ``L302`` **float-literal-equality** — ``==``/``!=`` against a float
  literal; the cost model's estimates are sums of floats, exact
  comparison silently mis-classifies plans.
* ``L303`` **bare-except** — swallows ``KeyboardInterrupt`` and
  engine invariants alike.
* ``L304`` **frozen-mutation** — ``object.__setattr__`` outside
  ``__init__``/``__post_init__``/``__new__``/``__setattr__`` defeats
  frozen dataclasses (plans and properties are shared by identity;
  mutating them corrupts every holder).
* ``L305`` **silent-broad-except** — ``except Exception: pass``
  (or broader) hides engine failures entirely.
* ``L306`` **stateful-operator** — an operator's ``process``/``flush``
  writing module globals or class attributes: operators are
  instantiated per installed pipeline and must keep their state
  per-instance, or shared plans interfere.
* ``L310`` **unordered-iteration** — iterating a syntactic ``set``
  expression (``set(...)``/``frozenset(...)`` calls, set
  literals/comprehensions, set algebra like ``set(a) - set(b)``) in a
  ``for`` loop, comprehension, an order-sensitive sink
  (``list``/``tuple``/``enumerate``/``str.join``), or a
  serialization boundary (``.dumps``/``.dump``/``.send``/``.put``/
  ``.send_bytes`` — pickle and worker-pipe traffic).  Set iteration
  order is hash-order, so anything derived from it — diagnostics,
  plans, teardown order, bytes crossing a process boundary — silently
  varies across processes; the sharded executor's determinism
  guarantee assumes it never happens.  Wrap
  in ``sorted(...)`` to fix the order.  (Dicts are insertion-ordered
  in modern Python and are not flagged.)

``lint_paths`` walks files/directories and returns an
:class:`~repro.diagnostics.AnalysisReport` whose subjects are
``path:line:col`` locations.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, List, Optional

from ..diagnostics import AnalysisReport, Diagnostic

__all__ = ["lint_source", "lint_paths"]

_MUTABLE_CONSTRUCTORS = ("list", "dict", "set")
_INIT_METHODS = ("__init__", "__post_init__", "__new__", "__setattr__", "__setstate__")
_OPERATOR_METHODS = ("process", "flush")
_ORDER_SENSITIVE_SINKS = ("list", "tuple", "enumerate")
#: Attribute calls whose payload crosses a process/wire boundary: the
#: serialized bytes bake in whatever order the payload iterates in.
_SERIALIZATION_SINKS = ("dumps", "dump", "send", "put", "send_bytes")
_SET_ALGEBRA_METHODS = (
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
)


def lint_source(source: str, filename: str = "<string>") -> List[Diagnostic]:
    """Lint one module's source text."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        line = exc.lineno or 0
        return [
            Diagnostic(
                "L300",
                f"{filename}:{line}:{exc.offset or 0}",
                f"syntax error: {exc.msg}",
            )
        ]
    visitor = _LintVisitor(filename)
    visitor.visit(tree)
    return visitor.diagnostics


def lint_paths(paths: Iterable[str], title: str = "code lint") -> AnalysisReport:
    """Lint ``.py`` files under the given files/directories."""
    report = AnalysisReport(title=title)
    for path in _python_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        report.extend(lint_source(source, filename=path))
    return report


def _python_files(paths: Iterable[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                files.extend(
                    os.path.join(root, name)
                    for name in sorted(names)
                    if name.endswith(".py")
                )
        elif path.endswith(".py"):
            files.append(path)
    return sorted(files)


class _LintVisitor(ast.NodeVisitor):
    """Single-pass visitor tracking the class/function context."""

    def __init__(self, filename: str) -> None:
        self.filename = filename
        self.diagnostics: List[Diagnostic] = []
        self._class_stack: List[str] = []
        self._function_stack: List[str] = []

    # ------------------------------------------------------------------
    def _where(self, node: ast.AST) -> str:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        return f"{self.filename}:{line}:{col}"

    def _report(self, code: str, node: ast.AST, message: str, hint: str = "") -> None:
        self.diagnostics.append(Diagnostic(code, self._where(node), message, hint))

    @property
    def _current_function(self) -> Optional[str]:
        return self._function_stack[-1] if self._function_stack else None

    @property
    def _current_class(self) -> Optional[str]:
        return self._class_stack[-1] if self._class_stack else None

    def _in_operator_method(self) -> bool:
        return (
            self._current_class is not None
            and self._current_function in _OPERATOR_METHODS
        )

    # ------------------------------------------------------------------
    # Scope tracking
    # ------------------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node: ast.AST, name: str, args: ast.arguments) -> None:
        self._check_defaults(args)
        self._function_stack.append(name)
        self.generic_visit(node)
        self._function_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name, node.args)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name, node.args)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_function(node, "<lambda>", node.args)

    # ------------------------------------------------------------------
    # L301 — mutable default arguments
    # ------------------------------------------------------------------
    def _check_defaults(self, args: ast.arguments) -> None:
        for default in [*args.defaults, *args.kw_defaults]:
            if default is None:
                continue
            if self._is_mutable_literal(default):
                self._report(
                    "L301",
                    default,
                    "mutable default argument is shared across calls",
                    hint="default to None and create the container in the body",
                )

    @staticmethod
    def _is_mutable_literal(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_CONSTRUCTORS
        )

    # ------------------------------------------------------------------
    # L302 — float literal equality
    # ------------------------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if self._is_float_literal(left) or self._is_float_literal(right):
                self._report(
                    "L302",
                    node,
                    "exact equality against a float literal",
                    hint="use math.isclose, compare against None/sentinels, "
                    "or restructure so the comparison is unnecessary",
                )
                break
        self.generic_visit(node)

    @staticmethod
    def _is_float_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        return (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.UAdd))
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, float)
        )

    # ------------------------------------------------------------------
    # L303 / L305 — exception handling
    # ------------------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                "L303",
                node,
                "bare except catches SystemExit and KeyboardInterrupt",
                hint="name the exception types this handler is prepared for",
            )
        elif self._is_broad_type(node.type) and self._is_silent_body(node.body):
            self._report(
                "L305",
                node,
                "broad exception handler silently discards the error",
                hint="narrow the exception type or handle/log the failure",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_broad_type(node: ast.expr) -> bool:
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Tuple):
            names = [e.id for e in node.elts if isinstance(e, ast.Name)]
        return any(name in ("Exception", "BaseException") for name in names)

    @staticmethod
    def _is_silent_body(body: List[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring or `...`
            return False
        return True

    # ------------------------------------------------------------------
    # L304 — frozen dataclass mutation
    # L310 — unordered iteration through order-sensitive call sinks
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
            and self._current_function not in _INIT_METHODS
        ):
            self._report(
                "L304",
                node,
                "object.__setattr__ outside construction mutates a frozen instance",
                hint="frozen dataclasses (plans, properties, links) are shared "
                "by identity; build a new instance instead",
            )
        sink = None
        serializing = False
        if isinstance(func, ast.Name) and func.id in _ORDER_SENSITIVE_SINKS:
            sink = func.id
        elif isinstance(func, ast.Attribute) and func.attr == "join":
            sink = "join"
        elif isinstance(func, ast.Attribute) and func.attr in _SERIALIZATION_SINKS:
            sink = func.attr
            serializing = True
        if sink is not None:
            args = node.args if serializing else node.args[:1]
            for arg in args:
                if self._is_set_expr(arg):
                    message = (
                        f"{sink}() serializes a set expression in hash order"
                        if serializing
                        else f"{sink}() materializes a set expression in hash order"
                    )
                    self._report(
                        "L310",
                        arg,
                        message,
                        hint="wrap the set expression in sorted(...) so the "
                        "resulting order is deterministic",
                    )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # L310 — iterating unordered set expressions
    # ------------------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_unordered_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_unordered_iteration(node.iter)
        self.generic_visit(node)

    def _check_unordered_iteration(self, iterable: ast.expr) -> None:
        if self._is_set_expr(iterable):
            self._report(
                "L310",
                iterable,
                "iteration over an unordered set expression; the visit "
                "order is hash-order and varies across processes",
                hint="wrap the set expression in sorted(...) so everything "
                "derived from the loop is deterministic",
            )

    def _is_set_expr(self, node: ast.expr) -> bool:
        """Syntactically recognizable set-valued expressions."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_ALGEBRA_METHODS
                and self._is_set_expr(func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    # ------------------------------------------------------------------
    # L306 — operators mutating shared state in process/flush
    # ------------------------------------------------------------------
    def visit_Global(self, node: ast.Global) -> None:
        if self._in_operator_method():
            self._report(
                "L306",
                node,
                f"operator method {self._current_function}() rebinds module "
                f"global(s) {', '.join(node.names)}",
                hint="operators run once per installed pipeline; keep state "
                "on self so shared plans cannot interfere",
            )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._in_operator_method():
            for target in node.targets:
                self._check_shared_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._in_operator_method():
            self._check_shared_target(node.target)
        self.generic_visit(node)

    def _check_shared_target(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_shared_target(element)
            return
        node = target
        while isinstance(node, ast.Subscript):
            node = node.value
        if not isinstance(node, ast.Attribute):
            return
        base = node.value
        is_class_attr = (
            (isinstance(base, ast.Name) and base.id == self._current_class)
            or (
                isinstance(base, ast.Attribute)
                and base.attr == "__class__"
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
            )
            or (
                isinstance(base, ast.Call)
                and isinstance(base.func, ast.Name)
                and base.func.id == "type"
                and len(base.args) == 1
                and isinstance(base.args[0], ast.Name)
                and base.args[0].id == "self"
            )
        )
        if is_class_attr:
            self._report(
                "L306",
                target,
                f"operator method {self._current_function}() mutates class-level "
                f"state {ast.unparse(node) if hasattr(ast, 'unparse') else node.attr}",
                hint="state written in process()/flush() must live on the "
                "instance, not the class",
            )
