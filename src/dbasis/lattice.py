"""Orders and the D-relation of a reduced table.

On a reduced table the attributes are the join irreducibles of the
Galois lattice and the objects its meet irreducibles, so the orders
can be read off the table itself: a cell (i, j) holds a 1 exactly when
j's lattice element lies below i's.  The D-relation is read off its
``ArrowTable`` (``context`` computes it).  Everything here requires a
reduced context; duplicate rows or columns are rejected outright, full
irreducibility is the caller's contract.

Orders and sectors are stored as int bitmasks; their label forms
(``order.pairs()``, ``d.sectors``) are views built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import (ArrowTable, BinaryContext, _bits, _check_clarified,
                      _strict_supersets, _transpose)


@dataclass(frozen=True)
class PartialOrder:
    """``below_masks[k]`` masks the elements strictly below ``elements[k]``."""

    elements: tuple[str, ...]
    below_masks: tuple[int, ...]

    def _index_pairs(self, covers: bool) -> list[tuple[int, int]]:
        """Sorted strict pairs (lower, upper) of element indices; with
        ``covers`` only those with nothing strictly between."""
        out = []
        for up, below in enumerate(self.below_masks):
            if covers:
                for mid in _bits(below):
                    below &= ~self.below_masks[mid]
            out.extend((lo, up) for lo in _bits(below))
        return sorted(out)

    def pairs(self) -> set[tuple[str, str]]:
        """All strict pairs (lower, upper), as acceptance criterion 1 reads."""
        return {(self.elements[lo], self.elements[up])
                for lo, up in self._index_pairs(False)}


def attribute_order(ctx: BinaryContext) -> PartialOrder:
    """c <= a iff every object carrying a also carries c."""
    _check_clarified(ctx)
    return PartialOrder(ctx.attributes, tuple(
        _strict_supersets(ctx.column_masks, ctx.row_masks)))


def object_order(ctx: BinaryContext) -> PartialOrder:
    """i <= i' iff i's row is contained in i''s row (smaller intent = lower);
    only acceptance criterion 1 reads it."""
    _check_clarified(ctx)
    above = _strict_supersets(ctx.row_masks, ctx.column_masks)
    return PartialOrder(ctx.objects, tuple(_transpose(above, len(above))))


def up_objects(arrows: ArrowTable, b: str) -> set[str]:
    """M(b): the objects carrying an up arrow in b's column, as
    acceptance criterion 1 reads them."""
    if b not in arrows.attributes:
        raise KeyError(f"unknown attribute label: {b!r}")
    col = arrows.up_cols[arrows.attributes.index(b)]
    return {arrows.objects[i] for i in _bits(col)}


@dataclass(frozen=True)
class DRelation:
    """Attribute mask of each attribute's sector; ``sectors`` labels them
    for ``perfbench/traced.py`` until the stats record replaces it."""

    attributes: tuple[str, ...]
    sector_masks: tuple[int, ...]

    @property
    def sectors(self) -> dict[str, frozenset[str]]:
        return {b: frozenset(self.attributes[c] for c in _bits(mask))
                for b, mask in zip(self.attributes, self.sector_masks)}


def _sector_mask(arrows: ArrowTable, b: int) -> int:
    """Column b's sector as a column mask (see ``compute_d_relation``)."""
    up = arrows.up_cols[b]
    return sum(1 << c for c, down in enumerate(arrows.down_cols)
               if up & down) & ~(1 << b)


def compute_d_relation(arrows: ArrowTable) -> DRelation:
    """b D c iff some object has an up arrow for b and a down arrow for c.

    The relation is taken irreflexive: b itself never enters its own
    sector even when b carries both arrows at the same object.
    """
    return DRelation(arrows.attributes, tuple(
        _sector_mask(arrows, b) for b in range(len(arrows.up_cols))))


def render_arrow_table(ctx: BinaryContext, arrows: ArrowTable) -> str:
    """The reduced table with 1/0/up/down/both glyphs, for eyeballing."""
    widths = [max(len(a), 1) for a in ctx.attributes]
    w0 = max((len(g) for g in ctx.objects), default=1)
    lines = [" ".join([" " * w0] + [a.rjust(w) for a, w in zip(ctx.attributes, widths)])]
    for i, g in enumerate(ctx.objects):
        cells = []
        for j in range(len(ctx.attributes)):
            if ctx.bit(i, j):
                glyph = "1"
            else:
                u = arrows.up_cols[j] >> i & 1
                d = arrows.down_cols[j] >> i & 1
                glyph = "↕" if u and d else "↑" if u else "↓" if d else "0"
            cells.append(glyph.rjust(widths[j]))
        lines.append(" ".join([g.ljust(w0)] + cells))
    return "\n".join(lines)
