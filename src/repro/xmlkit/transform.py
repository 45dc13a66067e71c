"""Structural tree transforms shared by the engine and the cost model.

:func:`prune_to_paths` implements projection at the data level: keep
only the parts of an item that lie *on or below* a set of retained
paths, together with the interior elements needed to reach them.  The
projection kernel runs it on a row store (:mod:`repro.engine.columnar`)
and the measured size estimator (:mod:`repro.costmodel.statistics`) on
sample items beyond the sniffing bounds; everywhere else both prune the
item's shape with :meth:`repro.xmlkit.columns.ShapeNode.prune`, its
node-for-node mirror, so estimated and executed projections agree by
construction.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from .element import Element
from .path import Path


def prune_to_paths(root: Element, keep: Iterable[Path]) -> Optional[Element]:
    """Return a copy of ``root`` pruned to the ``keep`` paths.

    A path retains its whole subtree.  Paths are relative to ``root``
    (i.e. they do not include ``root.tag``).  Returns ``None`` when
    nothing is retained.
    """
    keep_steps = [tuple(path.steps) for path in keep]
    if any(not steps for steps in keep_steps):
        return root.copy()  # the empty path keeps the whole item
    return _prune(root, keep_steps)


def _prune(node: Element, keep: List[Tuple[str, ...]]) -> Optional[Element]:
    children: List[Element] = []
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
            children.append(child.copy())
        elif descend:
            pruned = _prune(child, descend)
            if pruned is not None:
                children.append(pruned)
    if not children:
        return None
    return Element(node.tag, children=children)
