import pickle
import random

import pytest

from dbasis import (BinaryContext, ParseError, ReductionRecord, parse_context,
                    parse_dense_csv, parse_fimi, reduce_context)
from dbasis import context
from dbasis.context import (_bits, _lacked_by_all_above, _ones,
                            _strict_supersets, _supersets_by_bits,
                            _supersets_pairwise, _transpose,
                            _transpose_by_bytes, _transpose_by_walk)
from dbasis.oracle import enumerate_concepts

from helpers import (GOLDEN_CSV, GOLDEN_OBJECTS, GOLDEN_ROWS, golden_context,
                     random_context)


def test_parse_dense_csv_golden():
    ctx = parse_dense_csv(GOLDEN_CSV)
    assert ctx.objects == ("1", "2", "3", "4", "5", "6")
    assert ctx.attributes == ("b", "a1", "a2", "c1", "c2", "u", "v")
    assert ctx.has("2", "b")
    assert not ctx.has("1", "b")
    assert ctx == golden_context()


def test_parse_dense_csv_tolerates_whitespace_and_blank_lines():
    ctx = parse_dense_csv(" x , y \n\n o1 , 1 , 0 \n")
    assert ctx.attributes == ("x", "y")
    assert ctx.has("o1", "x") and not ctx.has("o1", "y")


def test_parse_dense_csv_single_cell():
    ctx = parse_dense_csv("a\no,1\n")
    assert len(ctx.objects) == 1 and len(ctx.attributes) == 1
    assert ctx.bit(0, 0)


@pytest.mark.parametrize("text", [
    "",
    "a,b\n",
    "a,b\no1,1\n",          # short row
    "a,b\no1,1,0,1\n",      # long row
    "a,b\no1,1,2\n",        # bad entry
    "a,,b\no1,1,0,1\n",     # empty header label
    "a,b\n,1,0\nx,0,1\n",    # empty object label
])
def test_parse_dense_csv_rejects(text):
    with pytest.raises(ParseError):
        parse_dense_csv(text)


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        BinaryContext(["o", "o"], ["a"], [[1], [0]])
    with pytest.raises(ValueError):
        BinaryContext(["o"], ["a", "a"], [[1, 0]])


def test_parse_fimi_basic():
    ctx = parse_fimi("1 3\n2\n")
    assert ctx.attributes == ("1", "2", "3")
    assert ctx.objects == ("1", "2")
    assert ctx.has("1", "1") and ctx.has("1", "3") and ctx.has("2", "2")
    assert not ctx.has("1", "2")


def test_parse_fimi_trailing_blanks_and_interior_empty():
    ctx = parse_fimi("5\n\n7\n\n\n")
    # the interior blank line is a transaction with no items
    assert ctx.objects == ("1", "2", "3")
    assert ctx.attributes == ("5", "7")
    assert not any(ctx.has("2", a) for a in ctx.attributes)


@pytest.mark.parametrize("text", [
    "x y\n", "1 -2\n", "0\n", "", "\n\n",
    "1_0 2\n", "+2\n", "\u0663\n",  # int() would read these as 10, 2 and 3
])
def test_parse_fimi_rejects(text):
    with pytest.raises(ParseError):
        parse_fimi(text)


def _parse_fimi_line_by_line(text):
    """The rows and item labels of a FIMI text, read one line at a time."""
    rows = [set(map(int, ln.split())) for ln in text.splitlines()]
    while rows and not rows[-1]:
        rows.pop()
    universe = sorted(set().union(*rows))
    return ([sum(1 << universe.index(i) for i in row) for row in rows],
            tuple(map(str, universe)))


@pytest.mark.parametrize("text", [
    "1 01 001\n2\n",              # one item under three spellings
    "3 1\t2\x0b4\x0c5\x1c6\x1d7\x1e8\x1f9\r10\r\n11\n",
    "1\x852\u20283\u20294\n",      # line breaks only splitlines knows
    "12 3 3 12\n\n7\n\n",
])
def test_parse_fimi_reads_separators_and_spellings_as_a_line_walk_does(text):
    ctx = parse_fimi(text)
    rows, attributes = _parse_fimi_line_by_line(text)
    assert ctx.row_masks == tuple(rows)
    assert ctx.attributes == attributes


def test_parse_fimi_names_the_first_bad_line():
    for text, line in (("1\n2 0\n3 x\n", 2), ("1\n2 x\n0\n", 2),
                       ("1\n\n00\n", 3), ("1\xa02\n", 1),
                       ("1\n2\n3 -4\n", 3)):
        with pytest.raises(ParseError, match=f"^line {line}: "):
            parse_fimi(text)


def test_parse_context_dispatch():
    assert parse_context(GOLDEN_CSV, "dense-csv") == golden_context()
    assert parse_context(GOLDEN_CSV.encode(), "dense-csv") == golden_context()
    assert parse_context("1 2\n", "fimi") == parse_context("1 2\n", "fimi-transactions")
    with pytest.raises(ParseError):
        parse_context("x", "tsv")


def test_parse_context_strips_one_byte_order_mark():
    bom = "\ufeff"
    assert parse_context(bom + GOLDEN_CSV, "dense-csv") == golden_context()
    assert parse_context((bom + GOLDEN_CSV).encode(), "dense-csv") == golden_context()
    assert parse_context(bom + "1 2\n", "fimi") == parse_context("1 2\n", "fimi")


def test_every_constructor_gives_an_equal_record():
    ctx = golden_context()
    everything = range(len(ctx.objects)), range(len(ctx.attributes))
    for other in (BinaryContext._from_masks(ctx.objects, ctx.attributes,
                                            ctx.row_masks),
                  parse_context(GOLDEN_CSV, "dense-csv"),
                  ctx.restrict(*everything)):
        assert other == ctx and hash(other) == hash(ctx)
        assert other.column_masks == ctx.column_masks
    # the same rows as FIMI transactions, whose items are the columns 1..7
    items = [str(j) for j in range(1, len(ctx.attributes) + 1)]
    fimi = "".join(" ".join(a for a, bit in zip(items, row) if bit) + "\n"
                   for row in GOLDEN_ROWS)
    by_fimi = parse_context(fimi, "fimi")
    same = BinaryContext(GOLDEN_OBJECTS, items, GOLDEN_ROWS)
    assert by_fimi == same and hash(by_fimi) == hash(same)
    assert by_fimi.row_masks == ctx.row_masks and by_fimi != ctx
    # equality goes by the labels and every row
    assert ctx != ctx.restrict(range(len(ctx.objects) - 1), everything[1])
    assert ctx != BinaryContext._from_masks(
        ctx.objects, ctx.attributes, ctx.row_masks[:-1] + (0,))
    assert ctx != (ctx.objects, ctx.attributes, ctx.row_masks)


def test_pickle_round_trip_keeps_every_field():
    ctx = golden_context()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(ctx, protocol))
        assert back == ctx and hash(back) == hash(ctx)
        assert back.column_masks == ctx.column_masks
        assert back.object_index == ctx.object_index
        assert back.attribute_index == ctx.attribute_index


def test_fields_are_read_only():
    ctx = golden_context()
    for name in ("objects", "column_masks"):
        with pytest.raises(AttributeError):
            setattr(ctx, name, ())
    assert ctx == golden_context() and ctx.column_masks


def test_supports_golden():
    ctx = golden_context()
    assert ctx.support_of_attributes({"c1"}) == {"1", "2", "4", "5", "6"}
    assert ctx.support_of_attributes({"c1"}) == ctx.support_of_attributes({"u"})
    assert ctx.support_of_attributes(set()) == set(ctx.objects)
    assert ctx.support_of_attributes({"v"}) == {"6"}
    assert ctx.support_of_objects({"6"}) == set(ctx.attributes)
    assert ctx.closure({"v"}) == set(ctx.attributes)
    assert ctx.closure({"u"}) == {"c1", "u"}


def test_unknown_labels_raise():
    ctx = golden_context()
    with pytest.raises(KeyError):
        ctx.support_of_attributes({"zz"})
    with pytest.raises(KeyError):
        ctx.support_of_objects({"99"})


def test_closure_is_a_closure_operator():
    rng = random.Random(7)
    for _ in range(30):
        ctx = random_context(rng, rng.randint(1, 7), rng.randint(1, 7))
        attrs = list(ctx.attributes)
        x = {a for a in attrs if rng.random() < 0.4}
        y = x | {a for a in attrs if rng.random() < 0.3}
        cx, cy = ctx.closure(x), ctx.closure(y)
        assert x <= cx
        assert cx <= cy
        assert ctx.closure(cx) == cx


def test_restrict():
    ctx = golden_context()
    sub = ctx.restrict([0, 2], [1, 3])
    assert sub.objects == ("1", "3")
    assert sub.attributes == ("a1", "c1")
    assert sub.has("1", "a1") and sub.has("1", "c1")
    assert not sub.has("3", "a1")


def test_restrict_wide_table_cell_by_cell():
    # Past 64 rows and 64 columns, in shuffled order, so every mask spans
    # several machine words and no index keeps its position; then with
    # no rows and with no columns kept.
    rng = random.Random(17)
    ctx = random_context(rng, 150, 130, 0.5)
    obj_idx = rng.sample(range(150), 100)
    attr_idx = rng.sample(range(130), 90)
    # every column or every row in order takes a shortcut; test it too
    for objs, attrs in ((obj_idx, attr_idx), ([], attr_idx), (obj_idx, []),
                        (obj_idx, range(130)), (range(150), attr_idx),
                        (range(150), range(130)), (range(150), [])):
        sub = ctx.restrict(objs, attrs)
        assert sub.objects == tuple(ctx.objects[i] for i in objs)
        assert sub.attributes == tuple(ctx.attributes[j] for j in attrs)
        assert len(sub.row_masks) == len(objs)
        assert len(sub.column_masks) == len(attrs)
        for k, i in enumerate(objs):
            for l, j in enumerate(attrs):
                assert sub.bit(k, l) == ctx.bit(i, j)
                assert bool(sub.column_masks[l] >> k & 1) == ctx.bit(i, j)
        assert all(r >> len(attrs) == 0 for r in sub.row_masks)
        assert all(c >> len(objs) == 0 for c in sub.column_masks)


# -- reduction ---------------------------------------------------------------


def _fixpoint_reduction(ctx):
    """Reference reduction on label sets, repeated until nothing changes.

    Each pass drops duplicate columns, then duplicate rows (the first
    label of each stays), then every column that is the intersection of
    the columns strictly containing it, then every such row.
    """
    objs, attrs = list(ctx.objects), list(ctx.attributes)

    def extents():
        return {a: frozenset(g for g in objs if ctx.has(g, a)) for a in attrs}

    def intents():
        return {g: frozenset(a for a in attrs if ctx.has(g, a)) for g in objs}

    def first_of_each(sets):
        seen = {}
        for x, s in sets.items():
            seen.setdefault(s, x)
        return list(seen.values())

    def irreducible(sets, universe):
        return [x for x, s in sets.items() if frozenset(universe).intersection(
            *(t for t in sets.values() if t > s)) != s]

    while True:
        before = (objs, attrs)
        attrs = first_of_each(extents())
        objs = first_of_each(intents())
        attrs = irreducible(extents(), objs)
        objs = irreducible(intents(), attrs)
        if (objs, attrs) == before:
            break

    ext = extents()
    subs, saturated = {}, set()
    for a in ctx.attributes:
        if a in attrs:
            continue
        col = frozenset(g for g in objs if ctx.has(g, a))
        dups = [b for b in attrs if ext[b] == col]
        if col == frozenset(objs):
            subs[a] = frozenset()
        elif dups:
            subs[a] = frozenset(dups[:1])
        else:
            subs[a] = frozenset(b for b in attrs if col <= ext[b])
            if subs[a] == frozenset(attrs):
                saturated.add(a)
    reduced = BinaryContext(objs, attrs, [[int(ctx.has(g, a)) for a in attrs]
                                          for g in objs])
    return reduced, ReductionRecord(subs, frozenset(saturated))


def _wide_reducible_context(rng):
    # 100x90 at density 0.5 is irreducible with high probability; added
    # columns and rows are intersections or copies of random pairs, so
    # the reduction has work to do on both sides and keeps >64 of each.
    base = [[int(rng.random() < 0.5) for _ in range(90)] for _ in range(100)]
    for _ in range(20):
        a, b = rng.sample(range(90), 2)
        if rng.random() < 0.2:
            b = a
        for row in base:
            row.append(row[a] & row[b])
    for _ in range(20):
        r1, r2 = rng.sample(base[:100], 2)
        base.append([x & y for x, y in zip(r1, r2)] if rng.random() < 0.8
                    else list(r1))
    rng.shuffle(base)
    perm = rng.sample(range(110), 110)
    return BinaryContext([f"o{i}" for i in range(120)],
                         [f"a{j}" for j in range(110)],
                         [[row[j] for j in perm] for row in base])


def test_strict_supersets_by_bits_and_pairwise_agree():
    # _strict_supersets runs whichever form is cheaper, so both must give
    # the same masks, for empty and equal masks too
    rng = random.Random(29)
    pairwise_picked = 0
    for t in range(400):
        width = rng.randint(0, 40)
        n = rng.randint(0, 12)
        masks = []
        for _ in range(n):  # some subsets and supersets of earlier masks
            base = rng.choice(masks) if masks else 0
            masks.append(rng.choice([base & rng.getrandbits(width),
                                     base | rng.getrandbits(width),
                                     rng.getrandbits(width)]))
        if masks:
            masks[rng.randrange(n)] = 0
            masks.append(rng.choice(masks))
            masks.insert(rng.randrange(len(masks)), 0)
        holders = _transpose(masks, width)
        want = [sum(1 << i for i, other in enumerate(masks)
                    if i != k and mk | other == other)
                for k, mk in enumerate(masks)]
        assert _supersets_by_bits(masks, holders) == want, t
        assert _supersets_pairwise(masks) == want, t
        assert _strict_supersets(masks, holders) == want, t
        pairwise_picked += sum(m.bit_count() for m in masks) > len(masks) ** 2
    assert 40 < pairwise_picked < 360


def _transpose_by_cells(masks, width):
    return [sum((m >> j & 1) << i for i, m in enumerate(masks))
            for j in range(width)]


def _random_masks(rng, n, width, density):
    return [sum(1 << j for j in range(width) if rng.random() < density)
            for _ in range(n)]


def test_transpose_forms_match_the_per_cell_reference(monkeypatch):
    # no masks, width 0 and 1, widths on and off a byte boundary, all-zero
    # and all-one masks, then random ones sparse and dense enough for
    # both sides of the switch
    rng = random.Random(31)
    shapes = [([], 0), ([], 1), ([], 9), ([0], 0), ([0, 0, 0], 0),
              ([0], 1), ([1], 1), ([1, 0, 1], 1)]
    for width in (1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 130, 700):
        for n in (1, 2, 8, 9, 70):
            shapes.append(([0] * n, width))
            shapes.append(([(1 << width) - 1] * n, width))
            for density in (0.003, 0.02, 0.5, 0.97):
                shapes.append((_random_masks(rng, n, width, density), width))
    picked = []
    for form in ("_transpose_by_bytes", "_transpose_by_walk"):
        monkeypatch.setattr(context, form, lambda masks, width, f=getattr(
            context, form): picked.append(f.__name__) or f(masks, width))
    for masks, width in shapes:
        want = _transpose_by_cells(masks, width)
        assert _transpose_by_bytes(masks, width) == want, (masks, width)
        assert _transpose_by_walk(masks, width) == want, (masks, width)
        assert _transpose(masks, width) == want, (masks, width)
        assert _transpose(want, len(masks)) == list(masks)
    assert picked.count("_transpose_by_bytes") > 100
    assert picked.count("_transpose_by_walk") > 50
    # a tall dense table goes through the bytes, a wide sparse one walks
    picked.clear()
    _transpose(_random_masks(rng, 300, 40, 0.85), 40)
    _transpose(_random_masks(rng, 40, 2000, 0.002), 2000)
    assert picked == ["_transpose_by_bytes", "_transpose_by_walk"]


def test_ones_lists_the_set_bits_on_both_sides_of_its_switch():
    rng = random.Random(37)
    masks = [0, 1, 2, 3, 1 << 200, (1 << 200) - 1, (1 << 64) | 1]
    for width in (1, 8, 17, 64, 65, 300, 2000):
        for density in (0.01, 0.05, 0.07, 0.2, 0.9):
            masks += _random_masks(rng, 3, width, density)
    forms = set()
    for m in masks:
        ones = _ones(m)
        forms.add(type(ones).__name__)
        assert list(ones) == [j for j in range(m.bit_length()) if m >> j & 1]
        assert list(_ones(m)) == list(_bits(m))
    assert forms == {"generator", "compress"}


def test_superset_fold_and_up_arrows_match_per_bit_references():
    # masks from 1 bit in 200 to nearly full, so the fold walks some masks
    # and reads others off their bin string, and each mask's lacked
    # positions are tested against the masks above it or those are AND-ed
    rng = random.Random(41)
    tested = folded = 0
    for t in range(250):
        width = rng.choice([1, 9, 12, 40, 200])
        n = rng.randint(0, 40)
        # one density for the whole table (a dense one has many masks
        # above each), or one per mask
        table_density = rng.choice([0.8, 0.9, None])
        masks = []
        for _ in range(n):
            base = rng.choice(masks) if masks else 0
            density = table_density or rng.choice([0.005, 0.1, 0.9])
            fresh = _random_masks(rng, 1, width, density)[0]
            masks.append(rng.choice([base | fresh, base & fresh, fresh]))
        holders = _transpose_by_cells(masks, width)
        above = [sum(1 << i for i, other in enumerate(masks)
                     if i != k and mk & ~other == 0)
                 for k, mk in enumerate(masks)]
        assert _supersets_by_bits(masks, holders) == above, t
        # the arrow fold's tables are clarified: no two masks equal
        distinct = list(dict.fromkeys(masks))
        holders = _transpose_by_cells(distinct, width)
        above = _supersets_pairwise(distinct)
        want = [sum(1 << b for b in range(width) if not mk >> b & 1
                    and all(distinct[i] >> b & 1 for i in _bits(up)))
                for mk, up in zip(distinct, above)]
        assert _lacked_by_all_above(distinct, holders, width) == want, t
        for mk, up in zip(distinct, above):
            lack = width - mk.bit_count()
            tested += lack < up.bit_count()
            folded += lack >= up.bit_count()
    assert tested > 100 and folded > 100


def test_reduce_golden():
    reduced, record = reduce_context(golden_context())
    assert reduced.objects == ("1", "2", "3", "4")
    assert reduced.attributes == ("b", "a1", "a2", "c1", "c2")
    assert record.attribute_substitutions == {"u": frozenset({"c1"}),
                                              "v": frozenset({"b", "a1", "a2", "c1", "c2"})}
    assert record.saturated_attributes == frozenset({"v"})
    # row 5 repeats row 4 on the kept columns; row 6 repeats no kept row
    def kept_part(g):
        return golden_context().support_of_objects({g}) & set(reduced.attributes)
    assert kept_part("5") == reduced.support_of_objects({"4"})
    assert all(kept_part("6") != reduced.support_of_objects({g})
               for g in reduced.objects)
    # bits survive the projection
    for obj in reduced.objects:
        for attr in reduced.attributes:
            assert reduced.has(obj, attr) == golden_context().has(obj, attr)


def test_reduce_is_idempotent_on_golden():
    reduced, _ = reduce_context(golden_context())
    again, record = reduce_context(reduced)
    assert again == reduced  # no row removed either
    assert not record.attribute_substitutions


def test_reduce_full_column_yields_empty_substitution():
    ctx = BinaryContext(["x", "y"], ["p", "q"], [[1, 1], [1, 0]])
    reduced, record = reduce_context(ctx)
    assert "p" not in reduced.attributes
    assert record.attribute_substitutions["p"] == frozenset()


def test_reduce_duplicate_column_points_at_representative():
    ctx = BinaryContext(["x", "y", "z"], ["p", "q", "r"],
                        [[1, 1, 0], [0, 0, 1], [1, 1, 1]])
    reduced, record = reduce_context(ctx)
    assert record.attribute_substitutions.get("q") == frozenset({"p"})
    assert "p" in reduced.attributes


def test_reduce_preserves_concept_count():
    rng = random.Random(11)
    for _ in range(40):
        ctx = random_context(rng, rng.randint(1, 7), rng.randint(1, 7),
                             rng.choice([0.3, 0.5, 0.7]))
        reduced, record = reduce_context(ctx)
        assert len(enumerate_concepts(ctx)) == len(enumerate_concepts(reduced))
        # substitutions really reproduce the removed column's support
        for attr, sub in record.attribute_substitutions.items():
            if attr in record.saturated_attributes:
                continue
            assert (ctx.support_of_attributes(sub)
                    == ctx.support_of_attributes({attr}))


def test_reduce_random_is_fully_reduced():
    rng = random.Random(13)
    for _ in range(40):
        ctx = random_context(rng, rng.randint(1, 6), rng.randint(1, 6))
        reduced, _ = reduce_context(ctx)
        again, record = reduce_context(reduced)
        assert again == reduced  # no row removed either
        assert not record.attribute_substitutions


def test_reduce_matches_the_fixpoint_reference():
    rng = random.Random(19)
    tables = [random_context(rng, rng.randint(0, 9), rng.randint(0, 8),
                             rng.choice([0.2, 0.4, 0.6, 0.8]))
              for _ in range(400)]
    tables += [random_context(rng, n, m) for n in (0, 1, 2) for m in (0, 1, 2)]
    for ctx in tables:
        assert reduce_context(ctx) == _fixpoint_reduction(ctx)


def test_reduce_wide_table_matches_the_fixpoint_reference():
    ctx = _wide_reducible_context(random.Random(23))
    reduced, record = reduce_context(ctx)
    assert len(reduced.objects) > 64 and len(reduced.attributes) > 64
    assert record.attribute_substitutions
    assert len(reduced.objects) < len(ctx.objects)
    assert (reduced, record) == _fixpoint_reduction(ctx)


@pytest.mark.parametrize("shape", ["tall-dense", "wide-sparse"])
def test_reduction_of_tall_dense_and_wide_sparse_tables_matches_the_fixpoint(
        shape):
    # tall dense tables transpose through packed bytes, wide sparse rows
    # are walked; both have rows and columns to drop
    rng = random.Random(43 if shape == "tall-dense" else 47)
    dropped_rows = dropped_cols = 0
    for _ in range(6):
        if shape == "tall-dense":
            n, m, density = 240, rng.randint(8, 14), 0.8
        else:
            n, m, density = rng.randint(20, 40), 500, 0.012
        rows = [[int(rng.random() < density) for _ in range(m)]
                for _ in range(n)]
        for row in rows:  # columns that are intersections of two others
            row += [row[a] & row[b] for a, b in ((0, 1), (2, 3), (1, 4))]
        ctx = BinaryContext([f"o{i}" for i in range(n)],
                            [f"a{j}" for j in range(m + 3)], rows)
        reduced, record = reduce_context(ctx)
        assert (reduced, record) == _fixpoint_reduction(ctx)
        dropped_rows += len(reduced.objects) < len(ctx.objects)
        dropped_cols += len(reduced.attributes) < len(ctx.attributes)
    assert dropped_rows and dropped_cols
