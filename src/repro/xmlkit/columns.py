"""Schema sniffing and struct-of-arrays shape compilation.

The streaming engine's hot path (see :mod:`repro.engine.columnar`)
encodes *regular* item batches — batches where every item has the exact
same nested element structure, like the photon workload — into one flat
column per leaf element.  This module owns the shape machinery:

* :func:`signature_of` sniffs an item's nested ``(tag, children)``
  skeleton; :func:`shape_for_signature` / :func:`shapes_for_signatures`
  intern a :class:`Shape` per signature in a bounded registry that is
  never evicted, so identical batches share one compiled artifact set —
  which is why a batch looks its rows up first (:func:`interned_shape`)
  and interns only the shapes it ends up stored under; a column batch
  crossing a process boundary arrives as a bare signature and is
  interned in the same registry; :func:`shape_of` is sniff-and-intern
  for one item, and :func:`shape_tree` builds a shape's nodes outside
  the registry (the statistics sample's groups);
* each shape carries a code-generated **validator** (exact structural
  match via direct child indexing, no tag scans, that freezes the item
  it accepts in the same call) and per-leaf
  **extractors** (``elements -> text column``);
* one tree code generator fills :class:`Element` slots directly (no
  per-node ``__init__``) for both directions: :func:`compile_builder`
  (``leaf texts -> item`` with born-frozen leaves, what a source that
  knows its shape calls per item) and :meth:`ShapeNode.decoder`
  (``row of columns -> item``, frozen at every node from the size
  columns);
* :meth:`ShapeNode.resolve` maps child-axis navigation steps to shape
  nodes (column lookups), and :meth:`ShapeNode.prune` mirrors
  :func:`repro.xmlkit.transform.prune_to_paths` on the shape itself —
  projection becomes a column-set change, no trees are built;
* :func:`leaf_sizes` / :func:`leaf_size` / :func:`escaped_text_len`
  reproduce the byte accounting of :meth:`Element.serialized_size`
  exactly, so column-computed sizes are integer-identical to the
  trees' frozen sizes.

Everything here is deterministic: shapes are interned by value, columns
are numbered in document order, and code generation depends only on the
shape signature.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, cast

from .element import Element, _escape_text

#: Nested shape signature: ``(tag, (child signatures...))``.
Signature = Tuple[str, tuple]

#: Sniffing limits: shapes beyond these bounds are never columnarized
#: (a row store holds them; deep/wide documents don't batch well).
MAX_SHAPE_NODES = 64
MAX_SHAPE_DEPTH = 12

#: Registry cap: distinct shapes beyond this bypass encoding instead of
#: evicting (eviction would churn the per-shape compiled artifacts that
#: operators cache by node identity).
MAX_SHAPES = 256

_MISSING = object()


def escaped_text_len(text: str) -> int:
    """Byte length of ``text`` after XML escaping, UTF-8 encoded.

    Must match ``len(_escape_text(text).encode("utf-8"))`` — the ASCII
    fast path counts the three escaped characters instead of building
    the escaped string.
    """
    if text.isascii():
        return (
            len(text)
            + 4 * text.count("&")
            + 3 * text.count("<")
            + 3 * text.count(">")
        )
    return len(_escape_text(text).encode("utf-8"))


def leaf_size(text: Optional[str], tag_len: int) -> int:
    """Serialized size of a childless element, mirroring
    :meth:`Element.serialized_size`: ``<t/>`` when empty, else
    ``<t>...</t>`` with escaped UTF-8 text."""
    if text is None:
        return tag_len + 3
    return 2 * tag_len + 5 + escaped_text_len(text)


def leaf_sizes(texts: Sequence[Optional[str]], tag_len: int) -> List[int]:
    """Per-row :func:`leaf_size` of one leaf's text column.

    Decided once per column from its content: when every text is
    present, ASCII and free of ``& < >`` (canonical numbers always are)
    a row's size is ``2·|tag| + 5 + len(text)``; any other column is
    sized row by row."""
    present = cast("Sequence[str]", texts)  # the join below checks it
    try:
        joined: Optional[str] = "".join(present)
    except TypeError:  # a row without text serializes as <t/>
        joined = None
    if (
        joined is not None
        and joined.isascii()
        and "&" not in joined
        and "<" not in joined
        and ">" not in joined
    ):
        base = 2 * tag_len + 5
        return [base + length for length in map(len, present)]
    return [leaf_size(text, tag_len) for text in texts]


class ShapeNode:
    """One node of a (possibly pruned) shape tree.

    Leaves (no children) own a ``column`` id into the batch store's
    text columns; interior nodes never carry text (the element model
    forbids mixed content).  Per-node caches — navigation resolution,
    shape pruning, size constants, compiled decoders — live on the node
    so every batch with the same shape reuses them.
    """

    __slots__ = (
        "tag",
        "tag_len",
        "children",
        "column",
        "_resolve_cache",
        "_prune_cache",
        "_size_info",
        "_decoder",
        "_signature",
    )

    def __init__(
        self, tag: str, children: Tuple["ShapeNode", ...], column: Optional[int]
    ) -> None:
        self.tag = tag
        self.tag_len = len(tag.encode("utf-8"))
        self.children = children
        self.column = column
        self._resolve_cache: Dict[Tuple[str, ...], Optional["ShapeNode"]] = {}
        self._prune_cache: Dict[tuple, Optional["ShapeNode"]] = {}
        self._size_info: Optional[Tuple[int, Tuple["ShapeNode", ...]]] = None
        self._decoder: Optional[Callable[..., Element]] = None
        self._signature: Optional[Signature] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.column is not None else "interior"
        return f"<ShapeNode {self.tag!r} {kind} children={len(self.children)}>"

    def signature(self) -> Signature:
        """The nested ``(tag, children)`` signature of this (possibly
        pruned) subtree — what a column view ships in place of its
        shape, and what :func:`shape_for_signature` interns on arrival."""
        if self._signature is None:
            self._signature = (
                self.tag,
                tuple(child.signature() for child in self.children),
            )
        return self._signature

    # ------------------------------------------------------------------
    # Navigation (the columnar analogue of Element.find)
    # ------------------------------------------------------------------
    def resolve(self, steps: Tuple[str, ...]) -> Optional["ShapeNode"]:
        """Follow child-axis steps, first matching child per step —
        exactly :meth:`Element.find` semantics, cached per step tuple."""
        if not steps:
            return self  # not cached: a node must not hold itself
        cached = self._resolve_cache.get(steps, _MISSING)
        if cached is not _MISSING:
            return cached  # type: ignore[return-value]
        node: Optional[ShapeNode] = self
        for step in steps:
            assert node is not None
            for child in node.children:
                if child.tag == step:
                    node = child
                    break
            else:
                node = None
                break
        self._resolve_cache[steps] = node
        return node

    # ------------------------------------------------------------------
    # Projection (the columnar analogue of prune_to_paths)
    # ------------------------------------------------------------------
    def prune(self, keep: Tuple[Tuple[str, ...], ...]) -> Optional["ShapeNode"]:
        """Prune this shape to the retained paths.

        Mirrors :func:`repro.xmlkit.transform.prune_to_paths` node for
        node: a matched path keeps its whole subtree (the original
        nodes, columns included), interior nodes survive only when a
        descendant is retained, and ``None`` means the projected item
        is dropped entirely.  Pruning is structural, so one answer per
        (shape, keep) pair covers every row of every batch; results are
        cached and shared so downstream caches key off node identity.
        """
        if any(not steps for steps in keep):
            return self  # the empty path keeps the whole item (not cached)
        cached = self._prune_cache.get(keep, _MISSING)
        if cached is not _MISSING:
            return cached  # type: ignore[return-value]
        result = _prune_shape(self, list(keep))
        self._prune_cache[keep] = result
        return result

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    def size_info(self) -> Tuple[int, Tuple["ShapeNode", ...]]:
        """``(static_interior_bytes, leaf_nodes)`` for this shape.

        Interior nodes contribute a content-independent ``2·|tag|+5``
        (``<t>`` + ``</t>``); leaves contribute per row via their text
        column.  Together they reproduce ``Element.serialized_size``.
        A leaf answers afresh: caching ``(0, (self,))`` would make it
        hold itself, a cycle only the cyclic collector reclaims.
        """
        if self.column is not None:
            return 0, (self,)
        if self._size_info is None:
            static = 0
            leaves: List[ShapeNode] = []
            stack: List[ShapeNode] = [self]
            while stack:
                node = stack.pop()
                if node.column is not None:
                    leaves.append(node)
                else:
                    static += 2 * node.tag_len + 5
                    stack.extend(reversed(node.children))
            self._size_info = (static, tuple(leaves))
        return self._size_info

    # ------------------------------------------------------------------
    # Decoding (rebuild Element trees from columns)
    # ------------------------------------------------------------------
    def decoder(self) -> Callable[..., Element]:
        """``build(i, *text_columns, *size_columns)`` rebuilds row ``i``'s
        element tree, frozen at every node: both column groups follow
        the leaves of :meth:`size_info` (document order), leaves take
        their pinned size from their size column and interior nodes add
        their markup to their children's sizes.  Compiled once per
        shape node."""
        if self._decoder is None:
            count = len(self.size_info()[1])
            params = ", ".join(
                ["i", *(f"t{k}" for k in range(count)), *(f"s{k}" for k in range(count))]
            )
            self._decoder = _compile_tree(
                self.signature(),
                params,
                lambda k, tag_len: (f"t{k}[i]", f"s{k}[i]"),
                pin_interior=True,
            )
        return self._decoder


def _prune_shape(
    node: ShapeNode, keep: List[Tuple[str, ...]]
) -> Optional[ShapeNode]:
    children: List[ShapeNode] = []
    for child in node.children:
        descend: List[Tuple[str, ...]] = []
        keep_whole = False
        for steps in keep:
            if steps[0] != child.tag:
                continue
            if len(steps) == 1:
                keep_whole = True
                break
            descend.append(steps[1:])
        if keep_whole:
            children.append(child)  # whole subtree: share the original nodes
        elif descend:
            pruned = _prune_shape(child, descend)
            if pruned is not None:
                children.append(pruned)
    if not children:
        return None
    return ShapeNode(node.tag, tuple(children), None)


# ----------------------------------------------------------------------
# Tree code generation (source-side builder, column decoder)
# ----------------------------------------------------------------------
def _compile_tree(
    signature: Signature,
    params: str,
    leaf: Callable[[int, int], Tuple[str, str]],
    pin_interior: bool,
) -> Callable[..., Element]:
    """Generate ``def _build(params)`` returning one item of ``signature``.

    Every node is allocated without ``__init__`` and its four slots are
    filled directly: tags are validated here, once, through the public
    constructor; a leaf gets ``children = []`` and an interior node
    ``text = None``, so mixed content cannot be built.
    ``leaf(k, tag_len)`` supplies the text and pinned-size expressions
    of the ``k``-th leaf in document order.  With ``pin_interior``
    interior nodes are frozen too (``2·|tag| + 5`` plus their
    children's sizes); without, they stay unfrozen and the caller may
    still restructure the item before ``freeze()``.
    """
    lines = [f"def _build({params}):"]
    root = _emit_tree(signature, [0, 0], leaf, pin_interior, lines)
    lines.append(f"    return e{root}")
    namespace: Dict[str, object] = {
        "E": Element,
        "new": object.__new__,
        "leaf_size": leaf_size,
    }
    return _generated(lines, "<shape-tree>", namespace, "_build")


def _emit_tree(
    sig: Signature,
    counts: List[int],
    leaf: Callable[[int, int], Tuple[str, str]],
    pin_interior: bool,
    lines: List[str],
) -> int:
    """Append the statements building node ``sig`` (children first) to
    ``lines``; its variable number.  ``counts`` holds the nodes and the
    leaves numbered so far.  A module function, not a recursive closure
    (DESIGN.md §7, "The pump and the collector")."""
    tag, child_sigs = sig
    Element(tag)  # raises on an invalid tag
    tag_len = len(tag.encode("utf-8"))
    kids = [_emit_tree(child_sig, counts, leaf, pin_interior, lines) for child_sig in child_sigs]
    node = counts[0]
    counts[0] += 1
    if kids:
        text = size = "None"
        if pin_interior:
            size = " + ".join([str(2 * tag_len + 5), *(f"z{kid}" for kid in kids)])
    else:
        text, size = leaf(counts[1], tag_len)
        counts[1] += 1
    if pin_interior:
        size = f"z{node} = {size}"
    lines.append(f"    e{node} = new(E)")
    lines.append(f"    e{node}.tag = {tag!r}")
    lines.append(f"    e{node}.text = {text}")
    lines.append(f"    e{node}.children = [{', '.join(f'e{kid}' for kid in kids)}]")
    lines.append(f"    e{node}._size = {size}")
    return node


def _generated(
    lines: List[str], filename: str, namespace: Dict[str, object], name: str
) -> Callable[..., Any]:
    """Compile the generated function ``name`` over ``namespace`` and
    take it out of the namespace again: the function keeps its globals,
    and globals that held the function would be a reference cycle."""
    exec(compile("\n".join(lines), filename, "exec"), namespace)  # noqa: S102
    return cast(Callable[..., Any], namespace.pop(name))


@lru_cache(maxsize=MAX_SHAPES)
def compile_builder(
    signature: Signature, plain: Tuple[bool, ...]
) -> Callable[..., Element]:
    """``build(t0, …, tk)``: one item of ``signature`` from its leaf
    texts (document order), for a producer that knows its shape.

    Texts arrive canonical (``str``, never numbers).  Leaves are **born
    frozen**: where ``plain[k]`` declares leaf ``k``'s text ASCII and
    free of ``& < >`` — ``str(int)`` and ``repr(float)`` are by
    construction — its size is ``2·|tag| + 5 + len(text)``, any other
    leaf goes through :func:`leaf_size`.  Interior nodes are left
    unfrozen with list-valued ``children``.  One compile per
    ``(signature, plain)``, shared by every producer of that shape.
    """
    count = _leaf_count(signature)
    if count != len(plain):
        raise ValueError(
            f"shape <{signature[0]}> has {count} leaves, {len(plain)} declared"
        )

    def leaf(k: int, tag_len: int) -> Tuple[str, str]:
        if plain[k]:
            return f"t{k}", f"{2 * tag_len + 5} + len(t{k})"
        return f"t{k}", f"leaf_size(t{k}, {tag_len})"

    params = ", ".join(f"t{k}" for k in range(count))
    return _compile_tree(signature, params, leaf, pin_interior=False)


def _leaf_count(signature: Signature) -> int:
    return sum(map(_leaf_count, signature[1])) or 1


# ----------------------------------------------------------------------
# Shape sniffing and the interned registry
# ----------------------------------------------------------------------
class Shape:
    """An interned shape: the node tree plus its compiled artifacts."""

    __slots__ = ("root", "signature", "validator", "column_paths", "_extractors")

    def __init__(
        self,
        root: ShapeNode,
        signature: Signature,
        validator: Callable[[Element], bool],
        column_paths: Tuple[Tuple[int, ...], ...],
    ) -> None:
        self.root = root
        self.signature = signature
        self.validator = validator
        #: Child-index chains from the item root, one per column id.
        self.column_paths = column_paths
        self._extractors: Dict[int, Callable[[Sequence[Element]], list]] = {}

    @property
    def column_count(self) -> int:
        return len(self.column_paths)

    def extractor(self, column: int) -> Callable[[Sequence[Element]], list]:
        """Compiled whole-column text extractor for one leaf."""
        extract = self._extractors.get(column)
        if extract is None:
            chain = "".join(f".children[{i}]" for i in self.column_paths[column])
            lines = ["def _extract(elements):", f"    return [e{chain}.text for e in elements]"]
            extract = _generated(lines, "<shape-extractor>", {}, "_extract")
            self._extractors[column] = extract
        return extract


def signature_of(element: Element) -> Optional[Signature]:
    """The nested ``(tag, children)`` signature, or ``None`` when the
    item exceeds the sniffing bounds.  Sniffing interns nothing."""
    return _signature_walk(element, 0, [MAX_SHAPE_NODES])


def _signature_walk(node: Element, depth: int, budget: List[int]) -> Optional[Signature]:
    # A module-level function, not a closure: a recursive closure is a
    # function <-> cell reference cycle, garbage only the cyclic
    # collector reclaims (DESIGN.md §7, "The pump and the collector").
    budget[0] -= 1
    if budget[0] < 0 or depth > MAX_SHAPE_DEPTH:
        return None
    children: List[Signature] = []
    for child in node.children:
        child_sig = _signature_walk(child, depth + 1, budget)
        if child_sig is None:
            return None
        children.append(child_sig)
    return (node.tag, tuple(children))


def _build_nodes(
    signature: Signature, paths: List[Tuple[int, ...]], prefix: Tuple[int, ...]
) -> ShapeNode:
    tag, child_sigs = signature
    if not child_sigs:
        column = len(paths)
        paths.append(prefix)
        node = ShapeNode(tag, (), column)
        return node
    children = tuple(
        _build_nodes(child_sig, paths, prefix + (index,))
        for index, child_sig in enumerate(child_sigs)
    )
    return ShapeNode(tag, children, None)


def _compile_validator(signature: Signature) -> Callable[[Element], bool]:
    """Generate an exact structural matcher that freezes what it accepts.

    The generated function checks tags and child counts at every level
    (direct child indexing, no tag scans), requires leaves to be
    childless and interior nodes to be textless — any mismatch means the
    item does not share the batch shape and the batch falls back to
    trees.  An accepted item is then pinned in the same call: every node
    not frozen yet gets :meth:`Element.freeze`'s size, a leaf
    :func:`leaf_size` and an interior node ``2·|tag|+5`` plus its
    children's sizes; a node already frozen keeps its size.  A rejected
    item is left as it came (ingest freezes it on its own,
    :func:`repro.engine.columnar.encode_batch`).
    """
    checks = ["def _validate(e0):"]
    pins: List[str] = []
    _emit_validator(signature, 0, [0], checks, pins)
    # A frozen item's nodes are all frozen (``freeze`` pins a subtree
    # whole): only the checks remain.
    checks.append("    if e0._size is not None: return True")
    lines = [*checks, *pins, "    return True"]
    return _generated(lines, "<shape-validator>", {"leaf_size": leaf_size}, "_validate")


def _emit_validator(
    sig: Signature, node: int, counter: List[int], checks: List[str], pins: List[str]
) -> None:
    """Append node ``e{node}``'s checks (pre-order) and its pin
    (post-order: children first) to the generated validator.  A module
    function, not a recursive closure, like :func:`_signature_walk`."""
    tag, child_sigs = sig
    var = f"e{node}"
    tag_len = len(tag.encode("utf-8"))
    size = f"z{node}"
    if not child_sigs:
        checks.append(f"    if {var}.tag != {tag!r} or {var}.children: return False")
        pins.append(f"    {size} = {var}._size")
        pins.append(f"    if {size} is None:")
        pins.append(f"        t = {var}.text")
        pins.append(
            f"        {size} = {var}._size = "
            f"{tag_len + 3} if t is None else leaf_size(t, {tag_len})"
        )
        return
    checks.append(f"    if {var}.tag != {tag!r} or {var}.text is not None: return False")
    counter[0] += 1
    kids = f"c{counter[0]}"
    checks.append(f"    {kids} = {var}.children")
    checks.append(f"    if len({kids}) != {len(child_sigs)}: return False")
    children = []
    for index, child_sig in enumerate(child_sigs):
        counter[0] += 1
        children.append(f"z{counter[0]}")
        checks.append(f"    e{counter[0]} = {kids}[{index}]")
        _emit_validator(child_sig, counter[0], counter, checks, pins)
    pins.append(f"    {size} = {var}._size")
    pins.append(f"    if {size} is None:")
    pins.append(f"        {size} = {var}._size = {' + '.join([str(2 * tag_len + 5), *children])}")


_REGISTRY: Dict[Signature, Shape] = {}


def shape_of(element: Element) -> Optional[Shape]:
    """Sniff and intern ``element``'s shape.

    Returns ``None`` when the item is out of bounds or the registry is
    full — both mean "keep the trees" (a row store).
    """
    signature = signature_of(element)
    return None if signature is None else shape_for_signature(signature)


def shape_for_signature(signature: Signature) -> Optional[Shape]:
    """Intern the shape of ``signature`` (``None``: registry full).

    Interning by signature guarantees that every batch of the same
    structure — sniffed from an item here or arriving as columns from
    another process — shares one :class:`Shape` (and therefore one set
    of compiled artifacts and one set of cache-keyed :class:`ShapeNode`
    identities).
    """
    shape = _REGISTRY.get(signature)
    if shape is None:
        if len(_REGISTRY) >= MAX_SHAPES:
            return None
        paths: List[Tuple[int, ...]] = []
        root = _build_nodes(signature, paths, ())
        shape = Shape(root, signature, _compile_validator(signature), tuple(paths))
        _REGISTRY[signature] = shape
    return shape


def interned_shape(signature: Signature) -> Optional[Shape]:
    """The shape already interned for ``signature``, if any — a lookup
    that interns and compiles nothing, for a batch that does not yet
    know whether it will be stored under the shape."""
    return _REGISTRY.get(signature)


def shapes_for_signatures(signatures: Sequence[Signature]) -> Optional[List[Shape]]:
    """Intern the shapes of all (distinct) ``signatures`` or of none
    (``None``: the registry has no room for the new ones among them),
    so that a batch the registry turns away leaves nothing behind."""
    new = sum(signature not in _REGISTRY for signature in signatures)
    if new and len(_REGISTRY) + new > MAX_SHAPES:
        return None
    # Room was checked: none of these comes back ``None``.
    return [cast(Shape, shape_for_signature(signature)) for signature in signatures]


def shape_tree(signature: Signature) -> ShapeNode:
    """The node tree of ``signature`` with its leaves numbered in
    document order, outside the registry: nothing is interned and
    nothing is compiled.  For a reader that wants :meth:`ShapeNode.prune`
    and :meth:`ShapeNode.size_info` on a shape no batch is stored under,
    such as the statistics sample (:mod:`repro.costmodel.statistics`)."""
    return _build_nodes(signature, [], ())


def elements_from_columns(
    signature: Signature, columns: Sequence[list], count: int
) -> Tuple[Element, ...]:
    """Rebuild ``count`` frozen item trees from the leaf text columns
    of ``signature`` (document order) without interning anything — the
    arrival path of a column view when the registry is full."""
    root = shape_tree(signature)
    build = root.decoder()
    sizes = [
        leaf_sizes(column, leaf.tag_len)
        for column, leaf in zip(columns, root.size_info()[1])
    ]
    return tuple(build(i, *columns, *sizes) for i in range(count))


def registry_size() -> int:
    """Number of interned shapes (telemetry/testing)."""
    return len(_REGISTRY)
