"""Binary object/attribute tables and their reduction.

A table is a relation between objects (rows) and attributes (columns).
Rows and columns are stored twice, as integer bitmasks, so that both
support directions are single AND-folds over machine words.

The bit work (transposes, superset folds, lists of set bits) runs in C
on packed bytes or ``bin`` strings where the input is dense and walks
the set bits where it is sparse, choosing per call or per mask from the
counts of set bits against cells.

Reduction clarifies the table (drops duplicate columns, then duplicate
rows), then keeps the columns with a down arrow and the rows with an up
arrow, in one pass.  What remains are the join-irreducible attributes
and meet-irreducible objects; the Galois lattice of the result is
isomorphic to the original one.  ``_reduce`` returns masks over the
input's columns that translate rules on the reduced table back to them;
``ReductionRecord`` is their label view, built only for the library.

The arrow relations live here too (``ArrowTable``, ``compute_arrows``):
the fold that picks the kept rows and columns, cut to them, is the
reduced table's arrows, so ``_reduce`` returns those with the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import compress, repeat
from operator import or_
from typing import IO, Iterable, Sequence


class ParseError(ValueError):
    """Raised for malformed input tables."""


class OracleSizeError(ValueError):
    """Input exceeds the hard limit of a brute-force oracle."""


# _BIT_DIGIT[k] maps each byte to the ASCII digit of its bit k, so one
# bytes.translate spells a column of packed rows; _DIGIT_BIT maps the
# ASCII digits to the bytes 0 and 1, as selectors for compress
_BIT_DIGIT = [(b"0" * (1 << k) + b"1" * (1 << k)) * (128 >> k) for k in range(8)]
_DIGIT_BIT = bytes.maketrans(b"01", b"\0\1")

# A bit-walk step costs about as much as 64 cells read as packed bytes.
# Transposing random tables of 300x300 to 2000x1000 (Python 3.11), the
# walk won from 60-90 cells per walk step up, the bytes below; on
# 20000x400, whose walk steps touch longer ints, the bytes won 1.7x at 69.
_CELLS_PER_STEP = 64


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _ones(mask: int):
    """The indices of ``mask``'s set bits, lowest first, as ``_bits``.

    Each ``_bits`` step does a few big-int operations over the whole
    mask, so a mask with a set bit in more than 1 of 16 places is read
    off its ``bin`` string in C instead.  Folding 64-bit words over the
    bits (Python 3.11), the string won from 1 bit in 16 on 6,000-bit
    masks (0.24 ms against 0.39 ms walked) but only from 1 in 8 on 200
    and 1,000 bits, where either way costs microseconds: the cut favours
    the long masks of tall tables.
    """
    n = mask.bit_length()
    if 16 * mask.bit_count() > n:
        return compress(range(n), bin(mask)[:1:-1].encode().translate(_DIGIT_BIT))
    return _bits(mask)


def _transpose(masks: Sequence[int], width: int) -> list[int]:
    """The ``width`` masks whose bit i of mask j is bit j of ``masks[i]``.

    Every mask must fit in ``width`` bits.  The cheaper of two forms
    runs: a walk costs a step per mask and per bit it visits (the mask's
    ones, or its zeros if it has more ones than zeros), the packed bytes
    1/``_CELLS_PER_STEP`` of a step per cell.  A tall dense table goes
    through the bytes, a wide sparse one is walked.
    """
    counts = list(map(int.bit_count, masks))
    walk = len(masks) + sum(map(min, counts, map(width.__sub__, counts)))
    if len(masks) * width < _CELLS_PER_STEP * walk:
        return _transpose_by_bytes(masks, width)
    return _transpose_by_walk(masks, width)


def _transpose_by_bytes(masks: Sequence[int], width: int) -> list[int]:
    """``_transpose`` in C: the masks packed into bytes, each column read
    as a strided slice of them, spelled in binary digits by
    ``bytes.translate`` and parsed back by ``int``."""
    nb = (width + 7) >> 3
    # the last mask first, so each column reads its high bit first
    data = b"".join(map(int.to_bytes, reversed(masks), repeat(nb),
                        repeat("little")))
    return [int(data[j >> 3::nb].translate(_BIT_DIGIT[j & 7]), 2)
            for j in range(width)] if masks else [0] * width


def _transpose_by_walk(masks: Sequence[int], width: int) -> list[int]:
    """``_transpose`` by walking each mask's ones, or its zeros when it
    has more ones than zeros."""
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

    The fold ANDs one holder per set bit, listed by ``_ones``; the
    pairwise test costs a step per pair of masks.  The one with fewer
    steps runs: the 40 long columns of a 6,000-row table are compared,
    its rows folded.
    """
    if sum(map(int.bit_count, masks)) > len(masks) ** 2:
        return _supersets_pairwise(masks)
    return _supersets_by_bits(masks, holders)


def _supersets_by_bits(masks: Sequence[int],
                       holders: Sequence[int]) -> list[int]:
    """``_strict_supersets`` as the AND over each mask's bits b of
    ``holders[b]``."""
    everyone = (1 << len(masks)) - 1
    out = []
    for k, mk in enumerate(masks):
        fold = everyone ^ (1 << k)
        for b in _ones(mk):
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
                    row_masks: Iterable[int],
                    column_masks: Iterable[int] | None = None
                    ) -> "BinaryContext":
        """Table whose row i is the attribute mask ``row_masks[i]``; every
        mask must fit in ``len(attributes)`` bits.  ``column_masks``, if
        given, must be their transpose."""
        ctx = cls.__new__(cls)
        ctx._assign(tuple(objects), tuple(attributes), tuple(row_masks),
                    column_masks)
        return ctx

    def _assign(self, objects: tuple[str, ...], attributes: tuple[str, ...],
                row_masks: tuple[int, ...],
                column_masks: Iterable[int] | None = None):
        if len(set(objects)) != len(objects):
            raise ParseError("duplicate object labels")
        if len(set(attributes)) != len(attributes):
            raise ParseError("duplicate attribute labels")
        set_field = object.__setattr__  # the fields are frozen
        set_field(self, "objects", objects)
        set_field(self, "attributes", attributes)
        set_field(self, "row_masks", row_masks)
        if column_masks is None:
            column_masks = _transpose(row_masks, len(attributes))
        set_field(self, "column_masks", tuple(column_masks))
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
        for j in _ones(attr_mask):
            out &= self.column_masks[j]
        return out

    def intent_mask(self, obj_mask: int) -> int:
        """Attributes shared by every object in ``obj_mask``."""
        out = (1 << len(self.attributes)) - 1
        for i in _ones(obj_mask):
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
        """Sub-table on the given row/column indices (labels preserved).

        Its rows are cut from the picked columns by a transpose, and its
        columns from its rows by another; keeping every column in order
        skips the first, and every row in order the second.
        """
        obj_indices, attr_indices = list(obj_indices), list(attr_indices)
        cols = [self.column_masks[j] for j in attr_indices]
        rows = (self.row_masks
                if attr_indices == list(range(len(self.attributes)))
                else _transpose(cols, len(self.objects)))
        return BinaryContext._from_masks(
            [self.objects[i] for i in obj_indices],
            [self.attributes[j] for j in attr_indices],
            [rows[i] for i in obj_indices],
            cols if obj_indices == list(range(len(self.objects))) else None)


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


# what is left of a valid FIMI text once its ASCII digits and the ASCII
# characters str.split takes for whitespace are deleted: nothing
_NOT_FIMI = str.maketrans("", "", "0123456789 \t\n\r\v\f\x1c\x1d\x1e\x1f")


def _check_fimi_lines(lines: Sequence[str]):
    """Raise for the first line holding a token that is not an ASCII
    decimal integer, or the item 0."""
    for lineno, ln in enumerate(lines, start=1):
        toks = ln.split()
        # int() alone would also take '1_0', '+2' and non-ASCII digits
        if not (ln.isascii() and all(map(str.isdigit, toks))):
            raise ParseError(f"line {lineno}: items must be ASCII decimal "
                             "integers")
        if 0 in map(int, toks):
            raise ParseError(f"line {lineno}: item must be positive, got 0")


def parse_fimi(text: str) -> BinaryContext:
    """FIMI transactions: one line per object, space-separated item numbers.

    The whole text is checked for stray characters at once, and each
    distinct token is read as a number once; the lines are only walked
    one by one to name the first bad line.
    """
    lines = text.splitlines()
    if not text.isascii() or text.translate(_NOT_FIMI):
        _check_fimi_lines(lines)
    transactions = list(map(str.split, lines))
    while transactions and not transactions[-1]:
        transactions.pop()  # trailing blank lines are not transactions
    if not transactions:
        raise ParseError("empty table")
    item = {tok: int(tok) for tok in set().union(*transactions)}
    if 0 in item.values():
        _check_fimi_lines(lines)
    universe = sorted(set(item.values()))
    attributes = [str(i) for i in universe]
    pos = {i: j for j, i in enumerate(universe)}
    bit = {tok: 1 << pos[i] for tok, i in item.items()}
    objects = [str(i) for i in range(1, len(transactions) + 1)]
    rows = [sum(map(bit.__getitem__, toks)) for toks in transactions]
    # a sum has as many ones as terms unless some item came twice in a
    # row ('3 3', or '1 01'); then OR the rows instead
    if list(map(int.bit_count, rows)) != list(map(len, transactions)):
        rows = [reduce(or_, map(bit.__getitem__, toks), 0)
                for toks in transactions]
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


def _lacked_by_all_above(masks: Sequence[int], holders: Sequence[int],
                         width: int) -> list[int]:
    """Per mask, the positions below ``width`` it lacks that every strictly
    larger mask holds; ``holders`` as in ``_strict_supersets``.

    Either AND the masks above, a step each, or test each lacked
    position b against them (no mask above lacks b), a step each; the
    fewer steps run.  A dense row of a tall table lacks a few columns and
    has many rows above it, a column the other way round.
    """
    everyone = (1 << len(masks)) - 1
    out = []
    for mk, above in zip(masks, _strict_supersets(masks, holders)):
        lack = ((1 << width) - 1) ^ mk
        if lack.bit_count() < above.bit_count():
            out.append(sum(1 << b for b in _bits(lack)
                           if not above & (everyone ^ holders[b])))
        else:
            for i in _ones(above):
                lack &= masks[i]
            out.append(lack)
    return out


def _arrow_fold(ctx: BinaryContext) -> tuple[list[int], list[int]]:
    """Per row of a clarified table, the attributes it lacks that every
    strictly larger row holds (its up arrows); per column, the objects it
    lacks that every strictly larger column holds (its down arrows).

    Both sides are one ``_lacked_by_all_above`` with rows and columns
    swapped, so each mask picks its own way: on a tall dense table the
    rows test their few lacked columns and the columns AND the few
    columns above them.
    """
    rows, cols = ctx.row_masks, ctx.column_masks
    return (_lacked_by_all_above(rows, cols, len(cols)),
            _lacked_by_all_above(cols, rows, len(rows)))


@dataclass(frozen=True)
class ArrowTable:
    """``up_cols[j]``, ``down_cols[j]``: object masks of column j's arrows;
    ``up`` and ``down`` are (attribute, object) views, read by
    ``perfbench/traced.py`` until the stats record replaces it."""

    attributes: tuple[str, ...]
    objects: tuple[str, ...]
    up_cols: tuple[int, ...]
    down_cols: tuple[int, ...]

    def _pairs(self, cols: Iterable[int]) -> frozenset[tuple[str, str]]:
        return frozenset((a, self.objects[i])
                         for a, col in zip(self.attributes, cols) for i in _bits(col))

    @property
    def up(self) -> frozenset[tuple[str, str]]:
        return self._pairs(self.up_cols)

    @property
    def down(self) -> frozenset[tuple[str, str]]:
        return self._pairs(self.down_cols)


def _check_clarified(ctx: BinaryContext):
    if len(set(ctx.row_masks)) != len(ctx.row_masks):
        raise ValueError("context has duplicate rows; reduce it first")
    if len(set(ctx.column_masks)) != len(ctx.column_masks):
        raise ValueError("context has duplicate columns; reduce it first")


def compute_arrows(ctx: BinaryContext) -> ArrowTable:
    """Up/down arrows of a reduced table.

    (j, i) gets an up arrow when row i is intent-maximal among rows
    lacking j, and a down arrow when no column strictly above j is also
    absent from row i; ``_arrow_fold`` computes both, as reduction does.
    ``BasisStream`` and ``dbasis arrows`` take the reduced table's arrows
    from ``_reduce`` instead of calling this.
    """
    _check_clarified(ctx)
    up_rows, down_cols = _arrow_fold(ctx)
    return ArrowTable(ctx.attributes, ctx.objects,
                      tuple(_transpose(up_rows, len(down_cols))),
                      tuple(down_cols))


def reduce_context(ctx: BinaryContext) -> tuple[BinaryContext, ReductionRecord]:
    """Clarify the table, then keep the columns with a down arrow and the
    rows with an up arrow.  The record labels ``_reduce``'s masks.

    Kept attributes are exactly the join irreducibles of the Galois
    lattice, kept objects the meet irreducibles; the reduced lattice is
    isomorphic to the original.  One pass suffices: dropping a
    reducible row or column changes neither the lattice nor which
    elements are irreducible, and never makes two distinct rows or
    columns equal.  Degenerate inputs may reduce to an empty table.
    """
    reduced, _, _, _, witness, saturated = _reduce(ctx)
    return reduced, _label_record(ctx, witness, saturated)


def _label_record(ctx: BinaryContext, witness: dict[int, int],
                  saturated: int) -> ReductionRecord:
    """The label view of ``_reduce``'s masks over ``ctx``'s columns."""
    return ReductionRecord({ctx.attributes[j]: frozenset(ctx._attr_labels(m))
                            for j, m in witness.items()},
                           frozenset(ctx._attr_labels(saturated)))


def _reduce(ctx: BinaryContext) -> tuple[
        BinaryContext, ArrowTable, list[int], list[int], dict[int, int], int]:
    """The reduced table, its ``compute_arrows``, the input's indices of
    the kept rows and columns (both increasing), each removed column's
    witness mask in column order, and the saturated columns' mask.

    The arrows are the reduction's own fold of the clarified table cut
    to the kept rows and columns, so the reduced table is not folded
    again.  A dropped row or column is the intersection of kept ones
    above it (or the full one), so it changes no arrow between kept ones.
    """
    first_col: dict[int, int] = {}
    for j, col in enumerate(ctx.column_masks):
        first_col.setdefault(col, j)
    first_row: dict[int, int] = {}
    for i, row in enumerate(ctx.row_masks):
        first_row.setdefault(row, i)
    clarified = ctx.restrict(list(first_row.values()), list(first_col.values()))

    up_rows, down_cols = _arrow_fold(clarified)
    kept_rows = [i for i, up in enumerate(up_rows) if up]
    kept_cols = [j for j, down in enumerate(down_cols) if down]
    reduced = clarified.restrict(kept_rows, kept_cols)
    up = _transpose([up_rows[i] for i in kept_rows], len(down_cols))
    down = [down_cols[j] for j in kept_cols]
    if len(kept_rows) < len(up_rows):
        down_rows = _transpose(down, len(up_rows))
        down = _transpose([down_rows[i] for i in kept_rows], len(kept_cols))
    arrows = ArrowTable(reduced.attributes, reduced.objects,
                        tuple(up[j] for j in kept_cols), tuple(down))

    # the clarified table keeps each row's and column's first copy, in
    # order, so the input's indices of the kept ones increase too
    rows = list(compress(first_row.values(), up_rows))
    cols = list(compress(first_col.values(), down_cols))
    kept_omask = sum(1 << i for i in rows)
    kept_amask = sum(1 << j for j in cols)
    kept_col = {ctx.column_masks[j] & kept_omask: j for j in cols}

    witness: dict[int, int] = {}
    saturated = 0
    for j in _ones(((1 << len(ctx.attributes)) - 1) ^ kept_amask):
        col = ctx.column_masks[j] & kept_omask
        if col == kept_omask:
            witness[j] = 0  # full column: member of closure(∅)
        elif col in kept_col:
            witness[j] = 1 << kept_col[col]
        else:
            witness[j] = ctx.intent_mask(col) & kept_amask
            if witness[j] == kept_amask:
                saturated |= 1 << j
            else:
                assert ctx.extent_mask(witness[j]) & kept_omask == col, \
                    "removed column is not expressible"

    return reduced, arrows, rows, cols, witness, saturated
