"""A lightweight XML element model.

The paper's data model (Section 2) restricts itself to elements: XML
attributes "can always be converted into corresponding elements", so the
model here stores a tag, an optional text value, and a list of child
elements.  This is intentionally much smaller than a DOM: the stream
engine creates and destroys millions of elements while pumping photon
streams through operator pipelines, and the traffic accounting needs a
precise, cheap serialized-size computation.

The public entry points are :class:`Element` and the convenience
constructor :func:`element`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Union

Scalar = Union[str, int, float]


def _coerce_text(value: Optional[Scalar]) -> Optional[str]:
    """Normalize a scalar into the canonical text representation.

    Integers keep their plain decimal form; floats use ``repr`` so that
    round-tripping through serialization is lossless for the finite
    decimal values the paper's predicates allow.
    """
    if value is None:
        return None
    if isinstance(value, str):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("boolean element text is not part of the data model")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # repr() gives the shortest string that round-trips; strip a
        # trailing ".0" is deliberately NOT done so typed-ness survives.
        return repr(value)
    raise TypeError(f"unsupported text type: {type(value)!r}")


_INVALID_TAG_CHARS = frozenset(" \t\n\r<>&/'\"")
#: Tags seen and validated once; stream tags repeat millions of times.
_VALIDATED_TAGS: set = set()


class Element:
    """A single XML element: tag, optional text, ordered children.

    Mixed content (text interleaved with children) is not part of the
    paper's data model and is rejected: an element carries either text or
    children, never both.

    Parameters
    ----------
    tag:
        The element name.  Must be a valid XML name (checked loosely:
        non-empty, no whitespace or markup characters).
    text:
        Optional scalar content.  Numbers are canonicalized to strings.
    children:
        Optional iterable of child :class:`Element` objects.

    This constructor is the validating public entry point.  Code that
    builds many items of one known shape goes through the generated
    constructors of :mod:`repro.xmlkit.columns`, which fill the slots
    directly from tags validated once here.
    """

    __slots__ = ("tag", "text", "children", "_size")

    def __init__(
        self,
        tag: str,
        text: Optional[Scalar] = None,
        children: Optional[Iterable["Element"]] = None,
    ) -> None:
        if tag not in _VALIDATED_TAGS:
            if not tag or _INVALID_TAG_CHARS.intersection(tag):
                raise ValueError(f"invalid element tag: {tag!r}")
            _VALIDATED_TAGS.add(tag)
        self.tag = tag
        self.text = text if type(text) is str or text is None else _coerce_text(text)
        self.children: List[Element] = list(children) if children else []
        self._size: Optional[int] = None
        if self.text is not None and self.children:
            raise ValueError(
                f"element <{tag}> cannot carry both text and children "
                "(mixed content is outside the paper's data model)"
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def append(self, child: "Element") -> None:
        """Add ``child`` as the last child of this element."""
        if self._size is not None:
            raise ValueError(f"element <{self.tag}> is frozen; cannot add children")
        if self.text is not None:
            raise ValueError(f"element <{self.tag}> has text; cannot add children")
        self.children.append(child)

    def extend(self, children: Iterable["Element"]) -> None:
        """Append every element of ``children`` in order."""
        for child in children:
            self.append(child)

    def copy(self) -> "Element":
        """Return a deep copy of this subtree (unfrozen).

        Bypasses ``__init__``: the source element already passed tag
        validation and text coercion, so the clone copies slots directly.
        """
        clone = Element.__new__(Element)
        clone.tag = self.tag
        clone.text = self.text
        clone.children = [c.copy() for c in self.children]
        clone._size = None
        return clone

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def child(self, tag: str) -> Optional["Element"]:
        """Return the first child with the given tag, or ``None``."""
        for c in self.children:
            if c.tag == tag:
                return c
        return None

    def find(self, steps: Sequence[str]) -> Optional["Element"]:
        """Follow a child-axis path given as a sequence of tag names.

        Returns the first element reached, or ``None`` when any step has
        no matching child.  An empty path returns ``self``.
        """
        node: Optional[Element] = self
        for step in steps:
            for candidate in node.children:
                if candidate.tag == step:
                    node = candidate
                    break
            else:
                return None
        return node

    def find_all(self, steps: Sequence[str]) -> List["Element"]:
        """Return every element reachable via the child-axis path."""
        frontier = [self]
        for step in steps:
            frontier = [c for node in frontier for c in node.children if c.tag == step]
            if not frontier:
                return []
        return frontier

    def value(self, steps: Sequence[str]) -> Optional[str]:
        """Return the text of the first element on ``steps``, or ``None``."""
        node = self.find(steps)
        return None if node is None else node.text

    def number(self, steps: Sequence[str]) -> Optional[float]:
        """Return the numeric value of the first element on ``steps``.

        Returns ``None`` when the path does not resolve or the text is
        not a number.
        """
        node = self.find(steps)
        if node is None or node.text is None:
            return None
        try:
            return float(node.text)
        except ValueError:
            return None

    def iter(self) -> Iterator["Element"]:
        """Depth-first pre-order iteration over this subtree."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    # ------------------------------------------------------------------
    # Size accounting (drives the traffic measurements)
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """``True`` once :meth:`freeze` pinned this node's size."""
        return self._size is not None

    def freeze(self) -> "Element":
        """Pin this subtree's serialized size and make it immutable.

        The streaming executor freezes every item at ingest and every
        operator output before transport accounting, so relays and
        multi-hop routes charge bytes without re-walking subtrees.  The
        cache can only be trusted on an immutable tree — a frozen
        element rejects :meth:`append`/:meth:`extend` — which is why
        freezing is explicit rather than implicit on first size query.
        Freezing is idempotent and returns ``self`` for chaining;
        already-frozen children are reused without descending into them
        — items from a compiled shape builder
        (:func:`repro.xmlkit.columns.compile_builder`) arrive with
        their text leaves born frozen, so freezing one visits its
        interior nodes only and adds pinned sizes.
        """
        if self._size is None:
            self._size = self._compute_size()
        return self

    def _compute_size(self) -> int:
        tag_len = len(self.tag.encode("utf-8"))
        if not self.children and self.text is None:
            # "<t/>"
            return tag_len + 3
        size = 2 * tag_len + 5  # "<t>" + "</t>"
        if self.text is not None:
            size += len(_escape_text(self.text).encode("utf-8"))
        for child in self.children:
            child_size = child._size
            if child_size is None:
                child_size = child._compute_size()
                child._size = child_size
            size += child_size
        return size

    def serialized_size(self) -> int:
        """Number of bytes of the canonical serialization of this subtree.

        Matches :func:`repro.xmlkit.serializer.serialize` with default
        options (compact, UTF-8) without building the string.  Frozen
        subtrees answer from their pinned size; unfrozen ones walk the
        tree (reusing any frozen descendants) without caching, since an
        unfrozen node may still be mutated.
        """
        if self._size is not None:
            return self._size
        tag_len = len(self.tag.encode("utf-8"))
        if not self.children and self.text is None:
            # "<t/>"
            return tag_len + 3
        size = 2 * tag_len + 5  # "<t>" + "</t>"
        if self.text is not None:
            size += len(_escape_text(self.text).encode("utf-8"))
        for child in self.children:
            size += child.serialized_size()
        return size

    # ------------------------------------------------------------------
    # Pickling (the sharded executor ships item batches across worker
    # process boundaries)
    # ------------------------------------------------------------------
    def __getstate__(self) -> tuple:
        """Compact slot state; keeps the pinned size of frozen trees so
        transport accounting on the receiving side stays identical."""
        return (self.tag, self.text, self.children, self._size)

    def __setstate__(self, state: tuple) -> None:
        self.tag, self.text, self.children, self._size = state

    # ------------------------------------------------------------------
    # Equality and display
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.tag == other.tag
            and self.text == other.text
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return hash((self.tag, self.text, tuple(self.children)))

    def __repr__(self) -> str:
        if self.text is not None:
            return f"Element({self.tag!r}, text={self.text!r})"
        if self.children:
            return f"Element({self.tag!r}, children={len(self.children)})"
        return f"Element({self.tag!r})"


def _escape_text(text: str) -> str:
    """Escape the three characters that must be escaped in text content."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def element(tag: str, *children: Element, text: Optional[Scalar] = None) -> Element:
    """Convenience constructor: ``element("a", element("b"), ...)``."""
    return Element(tag, text=text, children=children)
