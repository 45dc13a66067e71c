"""Lightweight XML substrate: element model, parser, serializer, paths, schemas.

This package replaces the XML machinery StreamGlobe took from its Java
environment.  Everything the rest of the reproduction needs from XML is
exported here:

>>> from repro.xmlkit import Element, parse, serialize, Path
>>> item = parse("<photon><en>1.5</en></photon>")
>>> Path("en").number(item)
1.5
>>> serialize(item)
'<photon><en>1.5</en></photon>'
"""

from .element import Element, element
from .errors import XmlError, XmlParseError, XmlPathError, XmlSchemaError
from .parser import parse, parse_stream
from .path import EMPTY_PATH, Path, parse_path
from .schema import PHOTON_SCHEMA, Schema, SchemaNode
from .serializer import pretty, serialize
from .transform import prune_to_paths
from .columns import Shape, ShapeNode, shape_of

__all__ = [
    "Shape",
    "ShapeNode",
    "shape_of",
    "Element",
    "element",
    "XmlError",
    "XmlParseError",
    "XmlPathError",
    "XmlSchemaError",
    "parse",
    "parse_stream",
    "Path",
    "parse_path",
    "EMPTY_PATH",
    "Schema",
    "SchemaNode",
    "PHOTON_SCHEMA",
    "pretty",
    "prune_to_paths",
    "serialize",
]
