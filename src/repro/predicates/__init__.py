"""Predicate normalization, graphs, and implication matching (Section 3.3).

>>> from fractions import Fraction
>>> from repro.xmlkit import Path
>>> from repro.predicates import normalize_comparison, PredicateGraph, match_predicates
>>> ra = Path("photons/photon/coord/cel/ra")
>>> g  = PredicateGraph(normalize_comparison(ra, "<=", None, Fraction(138)))
>>> g2 = PredicateGraph(normalize_comparison(ra, "<=", None, Fraction("135.5")))
>>> match_predicates(g, g2)   # 'ra <= 135.5' implies 'ra <= 138'
True
"""

from .atoms import (
    ZERO,
    ZERO_BOUND,
    Bound,
    NodeLabel,
    NormalizationError,
    NormalizedAtom,
    normalize_atom,
    normalize_comparison,
)
from .graph import PredicateGraph, UnsatisfiableError, graph_from_atoms, interned_graph_count
from .matching import match_predicates

__all__ = [
    "ZERO",
    "ZERO_BOUND",
    "Bound",
    "NodeLabel",
    "NormalizationError",
    "NormalizedAtom",
    "PredicateGraph",
    "UnsatisfiableError",
    "graph_from_atoms",
    "interned_graph_count",
    "match_predicates",
    "normalize_atom",
    "normalize_comparison",
]
