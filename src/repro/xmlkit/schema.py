"""Element schemas (DTD tree structures) for stream item types.

The paper describes input streams by the tree structure of their DTD
(Section 1 shows the ``photon`` DTD).  A :class:`Schema` captures that
tree: which element paths exist below the item root, which are leaves,
and their expected occurrence.  Schemas feed three consumers:

* the workload generator, which synthesizes conforming items through
  the schema's compiled :meth:`Schema.builder`;
* the statistics catalog, which needs the set of projectable elements
  and their average sizes to evaluate the paper's ``size(p)`` formula;
* validation in tests (``Schema.validate``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .columns import Signature, compile_builder
from .element import Element
from .errors import XmlSchemaError
from .path import Path


@dataclass(frozen=True)
class SchemaNode:
    """One element declaration in a schema tree."""

    tag: str
    children: Tuple["SchemaNode", ...] = ()
    #: Leaves carry typed values; interior nodes carry structure only.
    value_type: Optional[str] = None  # "int" | "decimal" | "string" | None

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass
class Schema:
    """Tree-structured schema of one stream item type.

    Parameters
    ----------
    root:
        Declaration of the item root element (e.g. ``photon``).
    stream_tag:
        Tag of the enclosing stream element (e.g. ``photons``); items on
        the wire are children of a conceptual element with this tag.
    """

    root: SchemaNode
    stream_tag: str
    _paths: Dict[Path, SchemaNode] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._index(self.root, ())

    def _index(self, node: SchemaNode, prefix: Tuple[str, ...]) -> None:
        for child in node.children:
            child_prefix = prefix + (child.tag,)
            self._paths[Path(child_prefix)] = child
            self._index(child, child_prefix)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def paths(self) -> List[Path]:
        """All relative paths below the item root, in document order."""
        return list(self._paths)

    def leaf_paths(self) -> List[Path]:
        """All relative paths that address value-carrying leaves."""
        return [p for p, node in self._paths.items() if node.is_leaf]

    def node_at(self, path: Path) -> SchemaNode:
        """Schema node addressed by ``path`` (relative to the item root)."""
        try:
            return self._paths[path]
        except KeyError:
            raise XmlSchemaError(
                f"path {path} does not exist in schema of <{self.root.tag}>"
            ) from None

    def has_path(self, path: Path) -> bool:
        return path in self._paths

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def builder(self) -> Callable[..., Element]:
        """The compiled item constructor of this schema's shape:
        ``build(*texts)`` takes the canonical texts of
        :meth:`leaf_paths` in order (see
        :func:`repro.xmlkit.columns.compile_builder`).  ``int`` and
        ``decimal`` leaves are sized as plain ASCII, so their texts
        must be the ``str(int)`` / ``repr(float)`` forms."""

        def signature(node: SchemaNode) -> Signature:
            return (node.tag, tuple(signature(child) for child in node.children))

        plain = tuple(
            self._paths[path].value_type in ("int", "decimal")
            for path in self.leaf_paths()
        )
        return compile_builder(signature(self.root), plain)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, item: Element) -> None:
        """Check that ``item`` structurally conforms to this schema.

        Every element in the item must be declared, leaves must carry a
        value of the declared type, and interior nodes must not carry
        text.  Raises :class:`XmlSchemaError` on the first violation.
        """
        if item.tag != self.root.tag:
            raise XmlSchemaError(
                f"item root <{item.tag}> does not match schema root <{self.root.tag}>"
            )
        self._validate_node(item, self.root, item.tag)

    def _validate_node(self, elem: Element, decl: SchemaNode, where: str) -> None:
        if decl.is_leaf:
            if elem.children:
                raise XmlSchemaError(f"<{where}> must be a leaf")
            self._validate_value(elem.text, decl, where)
            return
        if elem.text is not None:
            raise XmlSchemaError(f"<{where}> must not carry text")
        declared = {child.tag: child for child in decl.children}
        for child in elem.children:
            child_decl = declared.get(child.tag)
            if child_decl is None:
                raise XmlSchemaError(f"undeclared element <{child.tag}> under <{where}>")
            self._validate_node(child, child_decl, f"{where}/{child.tag}")

    @staticmethod
    def _validate_value(text: Optional[str], decl: SchemaNode, where: str) -> None:
        if text is None:
            raise XmlSchemaError(f"leaf <{where}> carries no value")
        if decl.value_type == "int":
            try:
                int(text)
            except ValueError:
                raise XmlSchemaError(f"leaf <{where}> is not an int: {text!r}") from None
        elif decl.value_type == "decimal":
            try:
                float(text)
            except ValueError:
                raise XmlSchemaError(
                    f"leaf <{where}> is not a decimal: {text!r}"
                ) from None
        # "string" and None accept anything


def _leaf(tag: str, value_type: str) -> SchemaNode:
    return SchemaNode(tag, value_type=value_type)


#: The photon DTD from Section 1 of the paper::
#:
#:     photon
#:       phc | coord | en | det_time
#:       coord: cel (ra, dec) | det (dx, dy)
PHOTON_SCHEMA = Schema(
    root=SchemaNode(
        "photon",
        children=(
            _leaf("phc", "int"),
            SchemaNode(
                "coord",
                children=(
                    SchemaNode("cel", children=(_leaf("ra", "decimal"), _leaf("dec", "decimal"))),
                    SchemaNode("det", children=(_leaf("dx", "int"), _leaf("dy", "int"))),
                ),
            ),
            _leaf("en", "decimal"),
            _leaf("det_time", "decimal"),
        ),
    ),
    stream_tag="photons",
)
