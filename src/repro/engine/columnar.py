"""The engine's one batch form: a view over one of three stores.

Every batch in the engine answers one view API — ``len``, ``rows``,
``number_column(steps)``, ``derive(rows)``, ``project(keep)``,
``decode()``, ``serialized_bytes()``, ``shape_views()``, pickling and
``detached()`` — over one of three stores, chosen once, at ingest, from
the batch itself (:func:`encode_ingest`):

* :class:`ColumnBatch` — a struct-of-arrays view over a batch of
  *regular* items: at least :data:`AUTO_MIN_ROWS` rows that all share
  one interned shape (the photon workload).  The store holds lazily
  materialized flat columns, one per leaf element; projection swaps the
  view's *virtual shape* (pure metadata), trees are rebuilt only where
  a boundary needs them, and a view pickles as its shape signature plus
  its surviving leaf text columns, arriving over a store that holds no
  trees at all.
* :class:`GroupedBatch` — irregularity as a row property: the rows of a
  batch that mixes a *few* interned shapes (an optional leaf, two record
  types), in arrival order, each pointing into the shape store of its
  group.  Number columns are the groups' columns scattered back into
  arrival order, projection prunes each group's shape, and bytes,
  decoders and delivery counts are those of the per-group
  :class:`ColumnBatch` views.  Ships as its element list.
* :class:`RowBatch` — the same API over the frozen trees themselves,
  for everything else: small source batches, rows past the sniffing
  bounds, batches with too many shapes to amortize, and the element
  lists operators emit (``<agg>``, ``<window>``, UDF output).
  Number columns are gathered per path on first use and shared by every
  derived view, projection prunes each row, ``decode()`` is the
  surviving trees, and the view ships as its element list.

Operators are written once against this API (:mod:`.operators`):
selection refines the row vector with fused predicate comparisons
(:func:`repro.predicates.vectorized.filter_rows`), window and aggregate
operators gather the position/value columns and fold sequentially in
batch order, and delivery counting (:class:`DeliveryKernel`) exploits
that a restructured result count is structurally invariant across rows
of one interned shape.

**Byte identity.** Every number the executor accounts — produced
counts and bytes, per-stage input counts, delivery inputs and results,
exchange items/bytes — is integer-identical on every store
(``serialized_bytes`` reproduces the frozen-size formula; the count
kernel reproduces per-item ``len(build(item))``), so ``RunMetrics`` and
the obs epoch series do not depend on which store a batch landed in
(DESIGN.md §14).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

from ..wxquery import DirectElement, EnclosedExpr, Expr, IfExpr, SequenceExpr
from ..xmlkit import Element, Path, prune_to_paths
from ..xmlkit.columns import (
    Shape,
    ShapeNode,
    Signature,
    elements_from_columns,
    interned_shape,
    leaf_sizes,
    shape_for_signature,
    shapes_for_signatures,
    signature_of,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (restructure imports operators)
    from .restructure import Restructurer

#: Ingest only sniffs batches at least this large: tiny batches (the
#: materializing oracle pushes single items) don't amortize the
#: validation/extraction overhead and go to a row store unexamined.
AUTO_MIN_ROWS = 8

#: A stream batch anywhere in the engine: a view over one of the stores.
Batch = Union["ColumnBatch", "GroupedBatch", "RowBatch"]

#: Always-on plain-int counters (same idiom as the PR 4/5 cache
#: counters): bumped on the encode/decode/bypass paths, surfaced as
#: ``columnar.*`` recorder counters on traced runs and via
#: :func:`columnar_stats`.  Which store engaged: every sniffed batch
#: bumps exactly one of ``batches_encoded`` (one shape: a shape store),
#: ``batches_bypassed_shape`` (first row past the sniffing bounds or
#: the registry) and ``batches_bypassed_irregular`` (failed first-shape
#: validation); of the latter, ``batches_grouped`` landed in a grouped
#: store and the rest in a row store.
STATS: Dict[str, int] = {
    "batches_encoded": 0,
    "rows_encoded": 0,
    "batches_bypassed_shape": 0,
    "batches_bypassed_irregular": 0,
    "batches_grouped": 0,
    "rows_grouped": 0,
    "batches_decoded": 0,
    "rows_decoded": 0,
    "delivery_kernel_batches": 0,
    "delivery_kernel_fallbacks": 0,
}


def columnar_stats() -> Dict[str, int]:
    """Copy of the process-wide columnar counters."""
    return dict(STATS)


def reset_columnar_stats() -> None:
    """Zero the counters (test isolation)."""
    for key in STATS:
        STATS[key] = 0


# ----------------------------------------------------------------------
# The shape store and its column view
# ----------------------------------------------------------------------
def _parse_number(text: Optional[str]) -> Optional[float]:
    """Mirror :meth:`Element.number`: missing text or a non-float parse
    both yield ``None``."""
    if text is None:
        return None
    try:
        return float(text)
    except ValueError:
        return None


class _BatchStore:
    """Shared column storage for every view derived from one batch.

    Columns are materialized lazily (a select kernel touching two
    leaves never extracts the other seven) and indexed by *base* row
    position, so derived views with filtered row vectors share them.

    A store that arrived over the wire has ``elements is None`` and
    every text column of its shape prefilled; its views rebuild trees
    from the columns whenever a boundary asks for them.
    """

    __slots__ = ("shape", "elements", "_texts", "_numbers", "_sizes")

    def __init__(
        self,
        shape: Shape,
        elements: Optional[Tuple[Element, ...]],
        texts: Sequence[List[Optional[str]]] = (),
    ) -> None:
        self.shape = shape
        self.elements = elements
        self._texts: Dict[int, List[Optional[str]]] = dict(enumerate(texts))
        self._numbers: Dict[int, List[Optional[float]]] = {}
        self._sizes: Dict[int, List[int]] = {}

    def text_col(self, column: int) -> List[Optional[str]]:
        col = self._texts.get(column)
        if col is None:
            assert self.elements is not None  # tree-less stores arrive prefilled
            col = self.shape.extractor(column)(self.elements)
            self._texts[column] = col
        return col

    def number_col(self, column: int) -> List[Optional[float]]:
        col = self._numbers.get(column)
        if col is None:
            texts = self.text_col(column)
            try:
                col = list(map(float, cast("List[str]", texts)))
            except (ValueError, TypeError):  # a missing or non-numeric text
                col = [_parse_number(text) for text in texts]
            self._numbers[column] = col
        return col

    def size_col(self, leaf: ShapeNode) -> List[int]:
        column = leaf.column
        assert column is not None
        col = self._sizes.get(column)
        if col is None:
            col = leaf_sizes(self.text_col(column), leaf.tag_len)
            self._sizes[column] = col
        return col


class ColumnBatch:
    """A column view: shared store + row selection + virtual shape.

    ``rows`` holds *base* indices into the store (a ``range`` for a
    fresh batch, a filtered list after selection); ``vshape`` is the
    (possibly pruned) shape describing what each surviving row looks
    like.  Decoding materializes exactly the Element trees the tree
    path would have produced at the same pipeline point.
    """

    __slots__ = ("store", "rows", "vshape", "_decoded", "_bytes")

    def __init__(
        self, store: _BatchStore, rows: Sequence[int], vshape: ShapeNode
    ) -> None:
        self.store = store
        self.rows = rows
        self.vshape = vshape
        self._decoded: Optional[Tuple[Element, ...]] = None
        self._bytes: Optional[int] = None

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ColumnBatch rows={len(self.rows)} shape={self.vshape.tag!r} "
            f"columns={self.store.shape.column_count}>"
        )

    # ------------------------------------------------------------------
    # Derivation (kernel outputs)
    # ------------------------------------------------------------------
    def derive(self, rows: Sequence[int]) -> "ColumnBatch":
        """Same shape, refined row vector (selection output)."""
        return ColumnBatch(self.store, rows, self.vshape)

    def project(self, keep: Tuple[Tuple[str, ...], ...]) -> "ColumnBatch":
        """Same rows, virtual shape pruned to the ``keep`` step tuples
        (projection output).

        Pruning is structural, so one shape-level prune answers for
        every row: a ``None`` pruned shape means every item of this
        shape prunes to nothing (all rows dropped), anything else is a
        pure metadata change — no trees are built until a downstream
        boundary decodes, and byte accounting flows from the pruned
        shape's size columns, identical to freezing the pruned trees.
        """
        vshape = self.vshape.prune(keep)
        if vshape is None:
            return self.derive([])
        if vshape is self.vshape:
            return self
        return ColumnBatch(self.store, self.rows, vshape)

    def shape_views(self) -> Tuple["ColumnBatch", ...]:
        """The single-shape column views this batch consists of: itself."""
        return (self,)

    # ------------------------------------------------------------------
    # Column access (indexed by base row id)
    # ------------------------------------------------------------------
    def number_column(self, steps: Tuple[str, ...]) -> Optional[List[Optional[float]]]:
        """Numeric column for a child-axis path, or ``None`` when the
        path misses the shape or lands on an interior node — both mean
        every row evaluates to ``None``, exactly like
        ``Element.number`` on the row's tree."""
        node = self.vshape.resolve(steps)
        if node is None or node.column is None:
            return None
        return self.store.number_col(node.column)

    def text_column(self, steps: Tuple[str, ...]) -> Optional[List[Optional[str]]]:
        """Text column for a child-axis path (``None`` = all rows None)."""
        node = self.vshape.resolve(steps)
        if node is None or node.column is None:
            return None
        return self.store.text_col(node.column)

    # ------------------------------------------------------------------
    # Tree boundaries
    # ------------------------------------------------------------------
    def decode(self) -> Tuple[Element, ...]:
        """Materialize the Element trees of the surviving rows.

        An unprojected view returns the original (frozen-at-ingest)
        elements; a projected view — or any view of a store that
        arrived as columns — rebuilds exactly what ``prune_to_paths``
        produces per item, frozen so downstream accounting sees pinned
        sizes.  Cached — repeated boundaries (several per-item stages)
        decode once.
        """
        decoded = self._decoded
        if decoded is None:
            store = self.store
            elements = store.elements
            if elements is not None and self.vshape is store.shape.root:
                decoded = tuple(elements[i] for i in self.rows)
            else:
                build, cols = self._decoder()
                decoded = tuple(build(i, *cols) for i in self.rows)
            STATS["batches_decoded"] += 1
            STATS["rows_decoded"] += len(decoded)
            self._decoded = decoded
        return decoded

    def decode_row(self, base_index: int) -> Element:
        """Materialize a single row (kernel calibration)."""
        store = self.store
        if store.elements is not None and self.vshape is store.shape.root:
            return store.elements[base_index]
        build, cols = self._decoder()
        return build(base_index, *cols)

    def _decoder(self) -> Tuple[Callable[..., Element], List[list]]:
        """The virtual shape's compiled decoder and its arguments: the
        text columns, then the size columns, of the shape's leaves."""
        store = self.store
        leaves = self.vshape.size_info()[1]
        cols: List[list] = [store.text_col(leaf.column) for leaf in leaves]  # type: ignore[arg-type]
        cols += [store.size_col(leaf) for leaf in leaves]
        return self.vshape.decoder(), cols

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def serialized_bytes(self) -> int:
        """Total serialized size of the surviving rows.

        Integer-identical to summing ``Element.serialized_size()`` over
        :meth:`decode`: unprojected rows answer from their frozen
        sizes; projected rows combine the shape's static interior bytes
        with the per-leaf size columns (same formula, never an
        estimate).
        """
        total = self._bytes
        if total is None:
            store = self.store
            rows = self.rows
            elements = store.elements
            if elements is not None and self.vshape is store.shape.root:
                total = sum(elements[i].serialized_size() for i in rows)
            else:
                static, leaves = self.vshape.size_info()
                total = static * len(rows)
                for leaf in leaves:
                    total += sum(map(store.size_col(leaf).__getitem__, rows))
            self._bytes = total
        return total

    # ------------------------------------------------------------------
    # Pickling (sharded cut-edge exchange)
    # ------------------------------------------------------------------
    def wire(self) -> Tuple[Signature, int, List[List[Optional[str]]], int]:
        """Columns, not trees: the virtual shape's signature, the row
        count, its leaf text columns (document order) restricted to the
        surviving rows, and the serialized byte total."""
        store = self.store
        rows = self.rows
        columns = []
        for leaf in self.vshape.size_info()[1]:
            column = store.text_col(leaf.column)  # type: ignore[arg-type]
            if rows != range(len(column)):  # filtered: gather survivors
                column = [column[i] for i in rows]
            columns.append(column)
        return (self.vshape.signature(), len(rows), columns, self.serialized_bytes())

    def __reduce__(self) -> tuple:
        return (_arrive, self.wire())

    def detached(self) -> Batch:
        """This view as a consumer across a shard boundary will see it:
        the surviving columns only, none of the batch's trees.  What a
        cell parks in its outbox until the next barrier, so the parked
        rows do not keep their source documents alive."""
        return _arrive(*self.wire())


def _arrive(
    signature: Signature,
    count: int,
    columns: List[List[Optional[str]]],
    total_bytes: int,
) -> Batch:
    """Unpickle hook: a column view over a tree-less store.

    The shipped shape becomes the receiver's *root* shape (interned in
    the registry ``shape_of`` uses), so every kernel sees what it would
    see on a freshly encoded batch of the same items.  A full registry
    on the receiver yields the equal trees in a row store instead.
    """
    shape = shape_for_signature(signature)
    if shape is None:
        return RowBatch(elements_from_columns(signature, columns, count))
    batch = ColumnBatch(_BatchStore(shape, None, columns), range(count), shape.root)
    batch._bytes = total_bytes
    return batch


# ----------------------------------------------------------------------
# The grouped store and its view
# ----------------------------------------------------------------------
class _GroupedStore:
    """Rows in arrival order over a small set of interned shapes.

    Every base row carries a group id and its index inside that group;
    every group is a plain :class:`_BatchStore` over the group's
    elements, so columns, sizes and decoders are the per-shape ones.
    Number columns scattered back into base order are cached here and
    shared by every derived view and sibling trie stage.
    """

    __slots__ = ("groups", "group_of", "local", "_numbers")

    def __init__(
        self, shapes: Sequence[Shape], group_of: List[int], items: Sequence[Element]
    ) -> None:
        members: List[List[Element]] = [[] for _ in shapes]
        local: List[int] = []
        for item, group in zip(items, group_of):
            bucket = members[group]
            local.append(len(bucket))
            bucket.append(item)
        self.groups = tuple(
            _BatchStore(shape, tuple(bucket)) for shape, bucket in zip(shapes, members)
        )
        self.group_of = group_of
        self.local = local
        self._numbers: Dict[
            Tuple[Optional[int], ...], Optional[List[Optional[float]]]
        ] = {}

    def number_col(
        self, columns: Tuple[Optional[int], ...]
    ) -> Optional[List[Optional[float]]]:
        """The base-indexed number column made of leaf column
        ``columns[g]`` of every group ``g`` (``None``: the group has no
        such leaf, its rows read ``None``; no group has one, there is
        no column)."""
        try:
            return self._numbers[columns]
        except KeyError:
            pass
        parts = [
            None if column is None else group.number_col(column)
            for group, column in zip(self.groups, columns)
        ]
        col = self._numbers[columns] = (
            None
            if all(part is None for part in parts)
            else [
                None if (part := parts[group]) is None else part[index]
                for group, index in zip(self.group_of, self.local)
            ]
        )
        return col


class GroupedBatch:
    """A row-ordered interleave of single-shape column views.

    ``rows`` holds base indices in arrival order, as in the other two
    views — windows on a monotone reference element depend on it — and
    ``vshapes`` one (possibly pruned) virtual shape per group.  Only
    what has to respect that order is answered here; bytes, decoders
    and delivery counts come from the per-group :class:`ColumnBatch`
    views (:meth:`shape_views`).  A group that projection prunes to
    nothing loses its rows; its virtual shape is then moot and stays
    as it was.
    """

    __slots__ = ("store", "rows", "vshapes", "_views", "_decoded", "_bytes")

    def __init__(
        self,
        store: _GroupedStore,
        rows: Sequence[int],
        vshapes: Tuple[ShapeNode, ...],
    ) -> None:
        self.store = store
        self.rows = rows
        self.vshapes = vshapes
        self._views: Optional[List[ColumnBatch]] = None
        self._decoded: Optional[Tuple[Element, ...]] = None
        self._bytes: Optional[int] = None

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GroupedBatch rows={len(self.rows)} shapes={len(self.vshapes)}>"

    def derive(self, rows: Sequence[int]) -> "GroupedBatch":
        """Same shapes, refined row vector (selection output)."""
        return GroupedBatch(self.store, rows, self.vshapes)

    def project(self, keep: Tuple[Tuple[str, ...], ...]) -> "GroupedBatch":
        """One shape-level prune per group; the rows of a group that
        prunes to nothing are dropped, the rest keep their order."""
        pruned = [vshape.prune(keep) for vshape in self.vshapes]
        rows = self.rows
        if None in pruned:
            group_of = self.store.group_of
            rows = [i for i in rows if pruned[group_of[i]] is not None]
        vshapes = tuple(
            old if new is None else new for old, new in zip(self.vshapes, pruned)
        )
        return GroupedBatch(self.store, rows, vshapes)

    def number_column(self, steps: Tuple[str, ...]) -> Optional[List[Optional[float]]]:
        """The groups' number columns for a child-axis path, scattered
        into one base-indexed column: ``None`` on the rows of a group
        whose shape lacks the path (``Element.number`` on their trees),
        ``None`` altogether when every group lacks it."""
        columns = tuple(
            [
                None if (node := vshape.resolve(steps)) is None else node.column
                for vshape in self.vshapes
            ]
        )
        return self.store.number_col(columns)

    def shape_views(self) -> List[ColumnBatch]:
        """The surviving rows of each group as a view of the group's
        own store, group-local row vector and virtual shape (groups
        without a surviving row left out)."""
        return [view for view in self._group_views() if view.rows]

    def _group_views(self) -> List[ColumnBatch]:
        views = self._views
        if views is None:
            store = self.store
            group_of, local = store.group_of, store.local
            survivors: List[List[int]] = [[] for _ in store.groups]
            for i in self.rows:
                survivors[group_of[i]].append(local[i])
            views = self._views = [
                ColumnBatch(group, rows, vshape)
                for group, rows, vshape in zip(store.groups, survivors, self.vshapes)
            ]
        return views

    def decode(self) -> Tuple[Element, ...]:
        """Each group's decoded rows — the original elements of an
        unprojected group, rebuilt ones otherwise — merged back into
        ``rows`` order (cached)."""
        decoded = self._decoded
        if decoded is None:
            group_of = self.store.group_of
            parts = [
                iter(view.decode() if view.rows else ())
                for view in self._group_views()
            ]
            decoded = self._decoded = tuple(
                [next(parts[group_of[i]]) for i in self.rows]
            )
        return decoded

    def serialized_bytes(self) -> int:
        """The groups' serialized bytes, summed (cached)."""
        total = self._bytes
        if total is None:
            total = self._bytes = sum(
                [view.serialized_bytes() for view in self.shape_views()]
            )
        return total

    def __reduce__(self) -> tuple:
        """Ships as its element list, like a row store (no workload
        crosses a cut with irregular input)."""
        return (RowBatch, (list(self.decode()),))

    def detached(self) -> "RowBatch":
        """The surviving trees only, in a row store."""
        return RowBatch(self.decode())


# ----------------------------------------------------------------------
# The row store and its view
# ----------------------------------------------------------------------
class RowBatch:
    """The view API of :class:`ColumnBatch` over a row store.

    The store is what no interned shape describes — small source
    batches, batches of too many or unsniffable shapes,
    operator-emitted elements — kept as the trees
    themselves, frozen on the way in (sizes are pinned and the gathered
    columns cannot go stale), plus the number columns its consumers
    asked for.  A column is gathered over *all* rows on first use and
    indexed by base row position; derived views share trees and
    columns, so sibling stages of a prefix trie navigate each path once
    per batch instead of once per item and stage.
    """

    __slots__ = ("elements", "rows", "_numbers", "_decoded", "_bytes")

    def __init__(self, items: Iterable[Element]) -> None:
        self.elements = elements = tuple([item.freeze() for item in items])
        self.rows: Sequence[int] = range(len(elements))
        self._numbers: Dict[Tuple[str, ...], List[Optional[float]]] = {}
        self._decoded: Optional[Tuple[Element, ...]] = elements
        self._bytes: Optional[int] = None

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RowBatch rows={len(self.rows)} of {len(self.elements)}>"

    def derive(self, rows: Sequence[int]) -> "RowBatch":
        """Same store, refined row vector (selection output)."""
        view = RowBatch.__new__(RowBatch)
        view.elements = self.elements
        view.rows = rows
        view._numbers = self._numbers
        view._decoded = view._bytes = None
        return view

    def project(self, keep: Tuple[Tuple[str, ...], ...]) -> "RowBatch":
        """The surviving rows pruned to the ``keep`` step tuples, in a
        fresh store; rows that retain nothing are dropped."""
        paths = [Path(steps) for steps in keep]
        pruned = (prune_to_paths(item, paths) for item in self.decode())
        return RowBatch(item for item in pruned if item is not None)

    def shape_views(self) -> None:
        """No interned shape describes these rows."""
        return None

    def number_column(self, steps: Tuple[str, ...]) -> List[Optional[float]]:
        """``Element.number(steps)`` of every row of the store."""
        col = self._numbers.get(steps)
        if col is None:
            col = self._numbers[steps] = [
                element.number(steps) for element in self.elements
            ]
        return col

    def decode(self) -> Tuple[Element, ...]:
        """The trees of the surviving rows (cached)."""
        decoded = self._decoded
        if decoded is None:
            elements = self.elements
            decoded = self._decoded = tuple([elements[i] for i in self.rows])
        return decoded

    def serialized_bytes(self) -> int:
        """The pinned sizes of the surviving rows, summed (cached)."""
        total = self._bytes
        if total is None:
            total = self._bytes = sum(
                [item.serialized_size() for item in self.decode()]
            )
        return total

    def __reduce__(self) -> tuple:
        """Ships as its element list (pinned sizes included)."""
        return (RowBatch, (list(self.decode()),))

    def detached(self) -> "RowBatch":
        """A view that holds the surviving trees only: a filtered view
        leaves the rest of its batch and the gathered columns behind."""
        decoded = self.decode()
        return self if decoded is self.elements else RowBatch(decoded)


def batch_bytes(batch: Batch) -> int:
    """Serialized bytes of a batch.  A function of its own because the
    executor's byte accounting is timed under this name (sharebench
    wraps ``repro.engine.executor.batch_bytes``)."""
    return batch.serialized_bytes()


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode_batch(items: Sequence[Element]) -> Batch:
    """Pick the store of a sniffed batch, from its rows.

    A shape store when every row validates against the first row's
    shape.  A batch that does not is looked at row by row
    (:func:`_assign_shapes`) and becomes a grouped store when it
    qualifies, a row store otherwise — whole-batch either way, so batch
    order and per-stage input counts are those of the input.  Shapes
    are looked up while the batch is undecided and interned only once
    it is stored under them, all or none: the registry never evicts, so
    a batch that ends in a row store must leave nothing in it.
    """
    if not items:
        return RowBatch(items)
    first = signature_of(items[0])
    if first is None:
        STATS["batches_bypassed_shape"] += 1
        return RowBatch(items)
    shape = interned_shape(first)
    if shape is None or not all(map(shape.validator, items)):
        signatures, group_of = _assign_shapes(items)
        if len(signatures) != 1:
            return _encode_mixed(items, signatures, group_of)
        shape = shape_for_signature(first)
        if shape is None:  # one shape, new, and the registry is full
            STATS["batches_bypassed_shape"] += 1
            return RowBatch(items)
    STATS["batches_encoded"] += 1
    STATS["rows_encoded"] += len(items)
    store = _BatchStore(shape, tuple(items))
    return ColumnBatch(store, range(len(items)), shape.root)


def _assign_shapes(items: Sequence[Element]) -> Tuple[List[Signature], List[int]]:
    """Every row's shape: the signatures in order of first appearance
    and a group id per row — tried against the validators of the
    interned shapes this batch has met first, sniffed when none fits.

    No signatures at all when the batch stays whole in a row store: a
    row past the sniffing bounds, or more shapes than amortize — a
    second shape asks for a mean group of at least
    :data:`AUTO_MIN_ROWS` rows, the size below which sniffing is
    already known not to pay.
    """
    limit = max(1, len(items) // AUTO_MIN_ROWS)
    groups: Dict[Signature, int] = {}
    validators: List[Tuple[Callable[[Element], bool], int]] = []
    group_of: List[int] = []
    for item in items:
        for validate, group in validators:
            if validate(item):
                break
        else:
            signature = signature_of(item)
            if signature is None:
                return [], []
            known = groups.get(signature)
            if known is None:
                if len(groups) == limit:
                    return [], []
                known = groups[signature] = len(groups)
                shape = interned_shape(signature)
                if shape is not None:
                    validators.append((shape.validator, known))
            group = known
        group_of.append(group)
    return list(groups), group_of


def _encode_mixed(
    items: Sequence[Element], signatures: List[Signature], group_of: List[int]
) -> Batch:
    """The store of a batch that failed first-shape validation: grouped
    when its rows were assigned shapes the registry has room for."""
    STATS["batches_bypassed_irregular"] += 1
    shapes = shapes_for_signatures(signatures) if signatures else None
    if shapes is None:
        return RowBatch(items)
    STATS["batches_grouped"] += 1
    STATS["rows_grouped"] += len(items)
    store = _GroupedStore(shapes, group_of, items)
    return GroupedBatch(
        store, range(len(items)), tuple(shape.root for shape in shapes)
    )


def encode_ingest(batch: Sequence[Element]) -> Batch:
    """Pick the store of a batch entering the engine, from the batch."""
    if len(batch) < AUTO_MIN_ROWS:
        return RowBatch(batch)
    return encode_batch(batch)


# ----------------------------------------------------------------------
# The delivery count kernel
# ----------------------------------------------------------------------
def _expr_has_if(expr: Expr) -> bool:
    if isinstance(expr, IfExpr):
        return True
    if isinstance(expr, DirectElement):
        return any(_expr_has_if(piece) for piece in expr.content)
    if isinstance(expr, EnclosedExpr):
        return _expr_has_if(expr.body)
    if isinstance(expr, SequenceExpr):
        return any(_expr_has_if(piece) for piece in expr.items)
    return False


class DeliveryKernel:
    """Count a subscription's restructured results without building them.

    The executor only needs delivery *result counts* when no capture
    hook is installed (``_SingleDelivery``), and for an if-free return
    clause the count per item is structurally invariant across items of
    one shape: path outputs count matched nodes (structure), variable
    outputs count bindings (structure), constructors emit exactly one
    element.  So the kernel builds the result for *one* calibration row
    per shape and multiplies — per group of a grouped batch, one
    kernel batch per feed.

    Aggregate wire batches add a per-row emptiness test: an ``<agg>``
    item whose finalized value is ``None`` (empty window under
    avg/min/max) binds nothing and yields zero results — reproduced
    here from the count/value columns with the exact
    ``wire_to_partial``/``final`` rules.

    :meth:`count` returns ``None`` whenever it will not vouch for
    exactness (rows of no interned shape, conditional return clause,
    unparsable wire fields) — the caller then decodes and builds per
    item.
    """

    __slots__ = ("restructurer", "countable", "_const")

    def __init__(self, restructurer: Restructurer) -> None:
        self.restructurer = restructurer
        self.countable = not _expr_has_if(restructurer.analyzed.flwr.return_expr)
        #: Calibrated results-per-emitting-row, keyed by virtual shape.
        self._const: Dict[ShapeNode, int] = {}

    def count(self, batch: Batch) -> Optional[int]:
        views = batch.shape_views()
        if views is None:
            return None  # no interned shape to calibrate on; not a fallback
        if not self.countable:
            STATS["delivery_kernel_fallbacks"] += 1
            return None
        if not len(batch):
            return 0
        total = 0
        aggregating = bool(self.restructurer._aggregations)
        for view in views:
            # Mirror Restructurer._bind's mode split exactly.
            if aggregating and view.vshape.tag == "agg":
                result = self._count_aggregate(view)
            else:
                result = self._calibrated(view, view.rows[0]) * len(view)
            if result is None:
                STATS["delivery_kernel_fallbacks"] += 1
                return None
            total += result
        STATS["delivery_kernel_batches"] += 1
        return total

    def _calibrated(self, batch: ColumnBatch, base_row: int) -> int:
        const = self._const.get(batch.vshape)
        if const is None:
            const = len(self.restructurer.build(batch.decode_row(base_row)))
            self._const[batch.vshape] = const
        return const

    def _count_aggregate(self, batch: ColumnBatch) -> Optional[int]:
        """Rows whose finalized aggregate is non-``None``, times the
        calibrated per-row result count."""
        aggregation = self.restructurer._aggregations[0]
        function = aggregation.aggregate or "avg"
        rows = batch.rows
        if function in ("count", "sum"):
            # count -> float(count), sum -> total: never None.
            return self._calibrated(batch, rows[0]) * len(rows)
        count_col = batch.text_column(("count",))
        if count_col is None:
            return 0  # no <count> child: every partial parses to count=0
        try:
            counts = [int(text) if text else 0 for text in count_col]
        except ValueError:
            return None  # malformed wire item: let the per-item build raise
        if function == "avg":
            emitting = [i for i in rows if counts[i] > 0]
        else:  # min / max: also need the carried value element
            value_col = batch.text_column((function,))
            if value_col is None:
                return 0
            emitting = [
                i for i in rows if counts[i] > 0 and value_col[i] is not None
            ]
        if not emitting:
            return 0
        return self._calibrated(batch, emitting[0]) * len(emitting)
