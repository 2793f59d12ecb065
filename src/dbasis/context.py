"""Binary object/attribute tables and their reduction.

A table is a relation between objects (rows) and attributes (columns).
Rows and columns are stored twice, as integer bitmasks, so that both
support directions are single AND-folds over machine words.

Reduction clarifies the table (drops duplicate columns, then duplicate
rows), then keeps the columns with a down arrow and the rows with an up
arrow, in one pass.  What remains are the join-irreducible attributes
and meet-irreducible objects; the Galois lattice of the result is
isomorphic to the original one.  A ``ReductionRecord`` keeps enough
bookkeeping to translate rules computed on the reduced table back to
the original attribute set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence


class ParseError(ValueError):
    """Raised for malformed input tables."""


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(masks: Sequence[int], width: int) -> list[int]:
    """The ``width`` masks whose bit i of mask j is bit j of ``masks[i]``.

    Every mask must fit in ``width`` bits.  A mask with more ones than
    zeros is walked by its zeros, so no mask costs over width/2 steps.
    """
    full = (1 << width) - 1
    ones, zeros = [0] * width, [0] * width
    dense = 0
    for i, mask in enumerate(masks):
        bit = 1 << i
        if 2 * mask.bit_count() > width:
            dense |= bit
            for j in _bits(full ^ mask):
                zeros[j] |= bit
        else:
            for j in _bits(mask):
                ones[j] |= bit
    return [one | dense & ~zero for one, zero in zip(ones, zeros)]


def _strict_supersets(masks: Sequence[int], holders: Sequence[int]) -> list[int]:
    """Per mask, the index mask of the others containing it; ``holders[b]``
    is the index mask of the masks having bit b.

    Folding ``holders`` costs one step per set bit, comparing the masks
    pairwise one step per pair, so the cheaper of the two runs: a few
    long columns of a tall table are compared, many short rows folded.
    """
    if sum(m.bit_count() for m in masks) > len(masks) ** 2:
        return _supersets_pairwise(masks)
    return _supersets_by_bits(masks, holders)


def _supersets_by_bits(masks: Sequence[int],
                       holders: Sequence[int]) -> list[int]:
    """``_strict_supersets`` as the AND over each mask's bits b of
    ``holders[b]``."""
    everyone = (1 << len(masks)) - 1
    out = []
    for k, mk in enumerate(masks):
        fold = everyone & ~(1 << k)
        for b in _bits(mk):
            fold &= holders[b]
        out.append(fold)
    return out


def _supersets_pairwise(masks: Sequence[int]) -> list[int]:
    """``_strict_supersets`` by testing every pair of masks."""
    return [sum(1 << i for i, other in enumerate(masks)
                if i != k and mk & ~other == 0)
            for k, mk in enumerate(masks)]



@dataclass(frozen=True, init=False, repr=False)
class BinaryContext:
    """Immutable 0/1 table with labelled objects and attributes.

    Equality and the hash go by the labels and the rows; the columns and
    the label indexes are derived from them.
    """

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    row_masks: tuple[int, ...]
    column_masks: tuple[int, ...] = field(compare=False)
    object_index: dict[str, int] = field(compare=False)
    attribute_index: dict[str, int] = field(compare=False)

    def __init__(self, objects: Sequence[str], attributes: Sequence[str],
                 rows: Iterable[Iterable[int]]):
        objects, attributes = tuple(objects), tuple(attributes)
        m = len(attributes)
        row_masks = []
        for bits in rows:
            row = 0
            count = 0
            for j, bit in enumerate(bits):
                if bit not in (0, 1):
                    raise ParseError(f"matrix entry must be 0 or 1, got {bit!r}")
                if bit:
                    row |= 1 << j
                count += 1
            if count != m:
                raise ParseError(f"row has {count} entries, expected {m}")
            row_masks.append(row)
        if len(row_masks) != len(objects):
            raise ParseError("row count does not match object count")
        self._assign(objects, attributes, tuple(row_masks))

    @classmethod
    def _from_masks(cls, objects: Sequence[str], attributes: Sequence[str],
                    row_masks: Iterable[int]) -> "BinaryContext":
        """Table whose row i is the attribute mask ``row_masks[i]``; every
        mask must fit in ``len(attributes)`` bits."""
        ctx = cls.__new__(cls)
        ctx._assign(tuple(objects), tuple(attributes), tuple(row_masks))
        return ctx

    def _assign(self, objects: tuple[str, ...], attributes: tuple[str, ...],
                row_masks: tuple[int, ...]):
        if len(set(objects)) != len(objects):
            raise ParseError("duplicate object labels")
        if len(set(attributes)) != len(attributes):
            raise ParseError("duplicate attribute labels")
        set_field = object.__setattr__  # the fields are frozen
        set_field(self, "objects", objects)
        set_field(self, "attributes", attributes)
        set_field(self, "row_masks", row_masks)
        set_field(self, "column_masks",
                  tuple(_transpose(row_masks, len(attributes))))
        set_field(self, "object_index", {g: i for i, g in enumerate(objects)})
        set_field(self, "attribute_index",
                  {a: j for j, a in enumerate(attributes)})

    def bit(self, i: int, j: int) -> bool:
        return bool(self.row_masks[i] >> j & 1)

    def has(self, obj: str, attr: str) -> bool:
        return self.bit(self.object_index[obj], self.attribute_index[attr])

    def __repr__(self):
        return f"BinaryContext({len(self.objects)}x{len(self.attributes)})"

    # -- mask-level helpers ----------------------------------------------

    @staticmethod
    def _mask(index: dict[str, int], labels: Iterable[str], kind: str) -> int:
        mask = 0
        for x in labels:
            try:
                mask |= 1 << index[x]
            except KeyError:
                raise KeyError(f"unknown {kind} label: {x!r}") from None
        return mask

    def _attr_mask(self, labels: Iterable[str]) -> int:
        return self._mask(self.attribute_index, labels, "attribute")

    def _obj_mask(self, labels: Iterable[str]) -> int:
        return self._mask(self.object_index, labels, "object")

    def extent_mask(self, attr_mask: int) -> int:
        """Objects having every attribute in ``attr_mask``."""
        out = (1 << len(self.objects)) - 1
        for j in _bits(attr_mask):
            out &= self.column_masks[j]
        return out

    def intent_mask(self, obj_mask: int) -> int:
        """Attributes shared by every object in ``obj_mask``."""
        out = (1 << len(self.attributes)) - 1
        for i in _bits(obj_mask):
            out &= self.row_masks[i]
        return out

    def closure_mask(self, attr_mask: int) -> int:
        return self.intent_mask(self.extent_mask(attr_mask))

    def _attr_labels(self, mask: int) -> set[str]:
        return {self.attributes[j] for j in _bits(mask)}

    def _obj_labels(self, mask: int) -> set[str]:
        return {self.objects[i] for i in _bits(mask)}

    # -- support functions -------------------------------------------------

    def support_of_attributes(self, attrs: Iterable[str]) -> set[str]:
        """Objects that carry every attribute of the given set."""
        return self._obj_labels(self.extent_mask(self._attr_mask(attrs)))

    def support_of_objects(self, objs: Iterable[str]) -> set[str]:
        """Attributes shared by every object of the given set."""
        return self._attr_labels(self.intent_mask(self._obj_mask(objs)))

    def closure(self, attrs: Iterable[str]) -> set[str]:
        """All attributes implied by the given ones with confidence 1."""
        return self._attr_labels(self.closure_mask(self._attr_mask(attrs)))

    # -- restriction ------------------------------------------------------

    def restrict(self, obj_indices: Sequence[int],
                 attr_indices: Sequence[int]) -> "BinaryContext":
        """Sub-table on the given row/column indices (labels preserved)."""
        rows = _transpose([self.column_masks[j] for j in attr_indices],
                          len(self.objects))
        return BinaryContext._from_masks(
            [self.objects[i] for i in obj_indices],
            [self.attributes[j] for j in attr_indices],
            [rows[i] for i in obj_indices])


# -- parsing --------------------------------------------------------------


def parse_dense_csv(text: str) -> BinaryContext:
    """Dense format: header of attribute labels, then `label,0,1,...` rows."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty table")
    attributes = [tok.strip() for tok in lines[0].split(",")]
    if not attributes or any(not a for a in attributes):
        raise ParseError("empty attribute label in header")
    objects = []
    rows = []
    for ln in lines[1:]:
        toks = [tok.strip() for tok in ln.split(",")]
        if len(toks) != len(attributes) + 1:
            raise ParseError(
                f"row {len(objects) + 1} has {len(toks) - 1} entries, "
                f"expected {len(attributes)}")
        if not toks[0]:
            raise ParseError(f"row {len(objects) + 1} has an empty object label")
        objects.append(toks[0])
        row = 0
        for j, tok in enumerate(toks[1:]):
            if tok == "1":
                row |= 1 << j
            elif tok != "0":
                raise ParseError(f"matrix entry must be 0 or 1, got {tok!r}")
        rows.append(row)
    if not rows:
        raise ParseError("empty table")
    return BinaryContext._from_masks(objects, attributes, rows)


def parse_fimi(text: str) -> BinaryContext:
    """FIMI transactions: one line per object, space-separated item numbers."""
    transactions = []
    for lineno, ln in enumerate(text.splitlines(), start=1):
        toks = ln.split()
        # int() alone would also take '1_0', '+2' and non-ASCII digits
        if not (ln.isascii() and all(map(str.isdigit, toks))):
            raise ParseError(f"line {lineno}: items must be ASCII decimal "
                             "integers")
        items = set(map(int, toks))
        if 0 in items:
            raise ParseError(f"line {lineno}: item must be positive, got 0")
        transactions.append(items)
    while transactions and not transactions[-1]:
        transactions.pop()  # trailing blank lines are not transactions
    if not transactions:
        raise ParseError("empty table")
    universe = sorted(set().union(*transactions))
    attributes = [str(item) for item in universe]
    pos = {item: j for j, item in enumerate(universe)}
    objects = [str(i) for i in range(1, len(transactions) + 1)]
    rows = [sum(1 << pos[item] for item in items) for items in transactions]
    return BinaryContext._from_masks(objects, attributes, rows)


def parse_context(data: str | bytes | IO, input_format: str) -> BinaryContext:
    """Parse ``data`` (text, bytes or a file object) in the named format."""
    if hasattr(data, "read"):
        data = data.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    data = data.removeprefix("\ufeff")  # the byte-order mark Excel writes
    if input_format == "dense-csv":
        return parse_dense_csv(data)
    if input_format in ("fimi", "fimi-transactions"):
        return parse_fimi(data)
    raise ParseError(f"unknown input format: {input_format!r}")


# -- reduction --------------------------------------------------------------


@dataclass(frozen=True)
class ReductionRecord:
    """What was removed during reduction and how to restore it.

    ``attribute_substitutions`` maps each removed attribute ``a`` to a set
    ``X_a`` of kept attributes whose column intersection equals ``a``'s
    column (empty for full-ones columns).  Removed attributes whose
    closure is the entire attribute set are listed in
    ``saturated_attributes``; their substitution set is the full witness
    and carries no information beyond "everything".  The kept rows and
    columns are the reduced table's own.
    """

    attribute_substitutions: dict[str, frozenset[str]] = field(default_factory=dict)
    saturated_attributes: frozenset[str] = frozenset()


def _arrow_fold(ctx: BinaryContext) -> tuple[list[int], list[int]]:
    """Per row of a clarified table, the attributes it lacks that every
    strictly larger row holds (its up arrows); per column, the objects it
    lacks that every strictly larger column holds (its down arrows)."""
    rows, cols = ctx.row_masks, ctx.column_masks
    up_rows = [ctx.intent_mask(above) & ~rows[i]
               for i, above in enumerate(_strict_supersets(rows, cols))]
    down_cols = [ctx.extent_mask(above) & ~cols[j]
                 for j, above in enumerate(_strict_supersets(cols, rows))]
    return up_rows, down_cols


def reduce_context(ctx: BinaryContext) -> tuple[BinaryContext, ReductionRecord]:
    """Clarify the table, then keep the columns with a down arrow and the
    rows with an up arrow.

    Kept attributes are exactly the join irreducibles of the Galois
    lattice, kept objects the meet irreducibles; the reduced lattice is
    isomorphic to the original.  One pass suffices: dropping a
    reducible row or column changes neither the lattice nor which
    elements are irreducible, and never makes two distinct rows or
    columns equal.  Degenerate inputs may reduce to an empty table.
    """
    first_col: dict[int, int] = {}
    for j, col in enumerate(ctx.column_masks):
        first_col.setdefault(col, j)
    first_row: dict[int, int] = {}
    for i, row in enumerate(ctx.row_masks):
        first_row.setdefault(row, i)
    clarified = ctx.restrict(list(first_row.values()), list(first_col.values()))

    up_rows, down_cols = _arrow_fold(clarified)
    reduced = clarified.restrict([i for i, up in enumerate(up_rows) if up],
                                 [j for j, down in enumerate(down_cols) if down])

    kept_omask = sum(1 << ctx.object_index[g] for g in reduced.objects)
    kept_amask = sum(1 << ctx.attribute_index[a] for a in reduced.attributes)
    kept_col = {ctx.column_masks[ctx.attribute_index[a]] & kept_omask: a
                for a in reduced.attributes}

    subs: dict[str, frozenset[str]] = {}
    saturated = set()
    for j, label in enumerate(ctx.attributes):
        if label in reduced.attribute_index:
            continue
        col = ctx.column_masks[j] & kept_omask
        if col == kept_omask:
            subs[label] = frozenset()  # full column: member of closure(∅)
        elif col in kept_col:
            subs[label] = frozenset({kept_col[col]})
        else:
            witness = ctx.intent_mask(col) & kept_amask
            if witness == kept_amask:
                saturated.add(label)
            else:
                assert ctx.extent_mask(witness) & kept_omask == col, \
                    "removed column is not expressible"
            subs[label] = frozenset(ctx.attributes[w] for w in _bits(witness))

    return reduced, ReductionRecord(subs, frozenset(saturated))
