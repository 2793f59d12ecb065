import random

import pytest

from dbasis import (BasisStream, Hypergraph, attribute_order, compute_arrows,
                    compute_d_relation, minimize, object_order,
                    reduce_context, render_arrow_table, sector_hypergraph,
                    up_objects)
from dbasis.context import _label_record, _reduce
from dbasis.oracle import arrows_via_lattice, brute_d_sectors

from helpers import golden_context, random_context, reduced_golden_context


def test_attribute_order_golden():
    order = attribute_order(reduced_golden_context())
    assert order.pairs() == {("c1", "a1"), ("c1", "b"), ("c2", "a2"), ("c2", "b")}
    assert [(order.elements[lo], order.elements[up])
            for lo, up in order._index_pairs(True)] == [
        ("c1", "b"), ("c1", "a1"), ("c2", "b"), ("c2", "a2")]
    # elements b, a1, a2, c1, c2: c1 and c2 lie below b, c1 below a1,
    # c2 below a2, and nothing below c1 or c2
    assert order.below_masks == (0b11000, 0b01000, 0b10000, 0, 0)


def test_object_order_golden():
    order = object_order(reduced_golden_context())
    assert order.pairs() == {("4", "2")}


def test_orders_reject_unclarified_tables():
    ctx = golden_context()  # rows 4 and 5 coincide, u duplicates c1
    with pytest.raises(ValueError):
        attribute_order(ctx)
    with pytest.raises(ValueError):
        object_order(ctx)


def test_arrows_golden():
    arrows = compute_arrows(reduced_golden_context())
    assert arrows.up == frozenset({
        ("b", "1"), ("b", "3"), ("b", "4"),
        ("a1", "2"), ("a1", "3"),
        ("a2", "1"), ("a2", "2"),
        ("c1", "3"), ("c2", "1"),
    })
    assert arrows.down == frozenset({
        ("b", "4"),
        ("a1", "2"), ("a1", "4"),
        ("a2", "2"), ("a2", "4"),
        ("c1", "3"), ("c2", "1"),
    })
    # both arrows, per column b, a1, a2, c1, c2: objects 4, 2, 2, 3, 1
    assert [u & d for u, d in zip(arrows.up_cols, arrows.down_cols)] == [
        0b1000, 0b0010, 0b0010, 0b0100, 0b0001]


def test_arrows_sit_on_zero_cells():
    rng = random.Random(23)
    for _ in range(40):
        ctx, _ = reduce_context(random_context(rng, rng.randint(1, 7),
                                               rng.randint(1, 7)))
        arrows = compute_arrows(ctx)
        for attr, obj in arrows.up | arrows.down:
            assert not ctx.has(obj, attr)


def test_arrows_match_lattice_oracle():
    rng = random.Random(29)
    for _ in range(60):
        ctx, _ = reduce_context(random_context(rng, rng.randint(1, 7),
                                               rng.randint(1, 7),
                                               rng.choice([0.3, 0.5, 0.7])))
        arrows = compute_arrows(ctx)
        oracle_up, oracle_down = arrows_via_lattice(ctx)
        assert arrows.up == oracle_up
        assert arrows.down == oracle_down


def _arrows_by_cells(ctx):
    """The up and down (attribute, object) pairs of ``compute_arrows``'s
    docstring definitions, evaluated one cell at a time."""
    objs, attrs = ctx.objects, ctx.attributes
    rows, cols = ctx.row_masks, ctx.column_masks
    rows_above = [[k for k, rk in enumerate(rows)
                   if rk != r and rk & r == r] for r in rows]
    cols_above = [[k for k, ck in enumerate(cols)
                   if ck != c and ck & c == c] for c in cols]
    up, down = set(), set()
    for i, g in enumerate(objs):
        for j, a in enumerate(attrs):
            if ctx.has(g, a):
                continue
            # row i is intent-maximal among the rows lacking a
            if all(ctx.has(objs[k], a) for k in rows_above[i]):
                up.add((a, g))
            # no column strictly above a is absent from row i
            if all(ctx.has(g, attrs[k]) for k in cols_above[j]):
                down.add((a, g))
    return up, down


def test_wide_masks_match_per_cell_definitions():
    # Past 64 objects and 64 attributes every mask spans several machine
    # words.  The lattice oracle stops at 20 attributes, so the docstring
    # definitions are evaluated here one cell at a time.
    for seed in (41, 43):
        ctx, _ = reduce_context(random_context(random.Random(seed), 150, 120,
                                               0.04))
        objs, attrs = ctx.objects, ctx.attributes
        assert len(objs) > 64 and len(attrs) > 64
        up, down = _arrows_by_cells(ctx)
        arrows = compute_arrows(ctx)
        assert arrows.up == up
        assert arrows.down == down

        down_at = {g: set() for g in objs}
        for c, g in down:
            down_at[g].add(c)
        sectors = {b: set() for b in attrs}
        for b, g in up:
            sectors[b] |= down_at[g] - {b}
        d = compute_d_relation(arrows)
        assert d.sectors == sectors

        for b in attrs[::12]:
            labels = tuple(c for c in attrs if c in sectors[b])
            edges = [frozenset(v for v, c in enumerate(labels)
                               if not ctx.has(g, c))
                     for g in objs if (b, g) in up]
            expected = minimize(Hypergraph(len(labels), tuple(edges)))
            assert sector_hypergraph(ctx, arrows, d, b) == (expected, labels)


@pytest.mark.parametrize("shape", ["tall-dense", "wide-sparse"])
def test_arrows_of_tall_dense_and_wide_sparse_tables_match_the_definitions(
        shape):
    # the tall dense tables transpose through packed bytes and test each
    # row's few lacked columns; the wide sparse ones walk their bits
    rng = random.Random(53 if shape == "tall-dense" else 59)
    for _ in range(4):
        ctx = (random_context(rng, 300, rng.randint(10, 16), 0.85)
               if shape == "tall-dense"
               else random_context(rng, rng.randint(30, 60), 400, 0.015))
        reduced, cut = _reduce(ctx)[:2]
        arrows = compute_arrows(reduced)
        assert (arrows.up, arrows.down) == _arrows_by_cells(reduced)
        assert cut == arrows


def test_reduction_fold_cut_to_the_kept_table_gives_its_arrows():
    # BasisStream takes its arrows from the reduction's own fold of the
    # clarified table instead of folding the reduced one again, and its
    # rows and columns by the input's indices that _reduce returns
    rng = random.Random(61)
    cut_rows = cut_cols = 0
    for t in range(400):
        ctx = random_context(rng, rng.randint(0, 12), rng.randint(0, 10),
                             rng.choice([0.2, 0.5, 0.7, 0.9]))
        reduced, cut, rows, cols, witness, saturated = _reduce(ctx)
        assert rows == sorted(set(rows)) and cols == sorted(set(cols)), t
        assert ctx.restrict(rows, cols) == reduced, t
        assert ((reduced, _label_record(ctx, witness, saturated))
                == reduce_context(ctx)), t
        arrows = compute_arrows(reduced)
        assert cut == arrows, t
        if t % 40 == 0:
            assert BasisStream(ctx).arrows == arrows, t
        cut_rows += len(set(ctx.row_masks)) > len(reduced.objects)
        cut_cols += len(set(ctx.column_masks)) > len(reduced.attributes)
    assert cut_rows > 100 and cut_cols > 100


def test_up_objects_golden():
    arrows = compute_arrows(reduced_golden_context())
    assert up_objects(arrows, "b") == {"1", "3", "4"}
    assert up_objects(arrows, "c1") == {"3"}
    with pytest.raises(KeyError):
        up_objects(arrows, "zz")


def test_d_relation_golden():
    ctx = reduced_golden_context()
    d = compute_d_relation(compute_arrows(ctx))
    assert d.sectors == {
        "b": frozenset({"a1", "a2", "c1", "c2"}),
        "a1": frozenset({"a2", "c1"}),
        "a2": frozenset({"a1", "c2"}),
        "c1": frozenset(),
        "c2": frozenset(),
    }


def test_d_relation_is_irreflexive():
    rng = random.Random(31)
    for _ in range(40):
        ctx, _ = reduce_context(random_context(rng, rng.randint(1, 7),
                                               rng.randint(1, 7)))
        d = compute_d_relation(compute_arrows(ctx))
        for b, sector in d.sectors.items():
            assert b not in sector


def test_d_relation_contains_oracle_sectors():
    # Every attribute occurring in a surviving minimal cover of b must
    # show up in b's sector; the fast path may not be smaller.
    rng = random.Random(37)
    for _ in range(40):
        ctx, _ = reduce_context(random_context(rng, rng.randint(1, 6),
                                               rng.randint(1, 6),
                                               rng.choice([0.4, 0.6])))
        order = attribute_order(ctx)
        d = compute_d_relation(compute_arrows(ctx))
        oracle = brute_d_sectors(ctx, order)
        for b, sector in oracle.items():
            assert sector <= d.sectors[b]


def test_render_arrow_table_golden():
    ctx = reduced_golden_context()
    text = render_arrow_table(ctx, compute_arrows(ctx))
    assert text == (
        "  b a1 a2 c1 c2\n"
        "1 ↑  1  ↑  1  ↕\n"
        "2 1  ↕  ↕  1  1\n"
        "3 ↑  ↑  1  ↕  1\n"
        "4 ↕  ↓  ↓  1  1"
    )
