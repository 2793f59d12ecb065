import contextlib
import dataclasses
import itertools
import multiprocessing
import os
import random
import signal
import subprocess
import sys
from fractions import Fraction

import pytest

import dbasis.basis
import dbasis.context
from dbasis import (BasisStream, BinaryContext, EmptySectorError,
                    Implication, RuleQuery, attribute_order, binary_part,
                    compute_arrows, compute_basis, compute_d_relation,
                    dualize_streaming, evaluation_order, expand_to_original,
                    leave_k_out_rules, measure, object_order, ordered_closure,
                    reduce_context, refine_to_d_basis, sector_hypergraph)
from dbasis.basis import (BASIS_KINDS, _in_d_basis, _sector_edges,
                          _sector_rules, canonical_sort, format_rule_jsonl,
                          format_rule_text, leave_k_out_groups)
from dbasis.dualization import _minimal, _transversals
from dbasis.oracle import brute_min_covers, replacement_excluded, rule_metrics

from helpers import (GOLDEN_CSV, golden_context, packed_lines,
                     random_context, reduced_golden_context,
                     sector_candidates)


def rule_key(r):
    return (frozenset(r.premise), r.conclusion)


def test_implication_rejects_conclusion_in_premise():
    with pytest.raises(ValueError):
        Implication(frozenset({"a"}), "a")


def test_implication_equality_ignores_metrics():
    a = Implication(frozenset({"x"}), "y", support=3)
    b = Implication(frozenset({"x"}), "y", support=5, in_d_basis=False)
    assert a == b
    assert len({a, b}) == 1


def test_implication_confidence_follows_its_counts():
    r = Implication(frozenset({"x"}), "y", support=1, premise_support=2)
    assert r.confidence == Fraction(1, 2)
    vacuous = Implication(frozenset({"x"}), "y", support=0, premise_support=0)
    assert vacuous.confidence == Fraction(1)
    assert dataclasses.replace(r, support=2).confidence == Fraction(1)
    assert dataclasses.replace(r, premise_support=4).confidence == Fraction(1, 4)


def test_measure_golden():
    ctx = golden_context()
    r = measure(ctx, {"a1", "c2"}, "b")
    assert (r.support, r.premise_support, r.confidence) == (1, 1, Fraction(1))
    r = measure(ctx, {"b"}, "a1")
    assert (r.support, r.premise_support, r.confidence) == (1, 2, Fraction(1, 2))
    r = measure(ctx, set(), "c1")
    assert (r.support, r.premise_support) == (5, 6)


def test_measure_vacuous_premise():
    ctx = BinaryContext(["x"], ["p", "q"], [[0, 1]])
    r = measure(ctx, {"p"}, "q")
    assert r.premise_support == 0 and r.confidence == Fraction(1)


def test_rule_query_validation():
    with pytest.raises(ValueError):
        RuleQuery(basis_kind="fancy")
    with pytest.raises(ValueError):
        RuleQuery(min_support=-1)
    # checked against the table when a stream is built, before it yields
    ctx = golden_context()
    with pytest.raises(KeyError):
        BasisStream(ctx, RuleQuery(target="zz"))
    with pytest.raises(ValueError):
        BasisStream(ctx, RuleQuery(min_support=7))
    with pytest.raises(ValueError):
        BasisStream(ctx, worker_count=-1)


def test_sector_hypergraph_golden():
    ctx = reduced_golden_context()
    arrows = compute_arrows(ctx)
    d = compute_d_relation(arrows)
    h, labels = sector_hypergraph(ctx, arrows, d, "b")
    assert labels == ("a1", "a2", "c1", "c2")
    assert set(h.edges) == {frozenset({1, 3}), frozenset({0, 2}),
                            frozenset({0, 1})}
    with pytest.raises(EmptySectorError):
        sector_hypergraph(ctx, arrows, d, "c1")
    with pytest.raises(KeyError):
        sector_hypergraph(ctx, arrows, d, "zz")


def test_binary_part_golden():
    ctx = reduced_golden_context()
    rules = binary_part(ctx, attribute_order(ctx))
    assert {rule_key(r) for r in rules} == {
        (frozenset({"b"}), "c1"), (frozenset({"a1"}), "c1"),
        (frozenset({"b"}), "c2"), (frozenset({"a2"}), "c2")}
    assert all(r.in_d_basis for r in rules)


def test_binary_part_full_includes_transitive_pairs():
    # chain: r < q < p (columns nested)
    ctx = BinaryContext(["1", "2", "3"], ["p", "q", "r"],
                        [[1, 1, 1], [0, 1, 1], [0, 0, 1]])
    order = attribute_order(ctx)
    covers = {rule_key(r) for r in binary_part(ctx, order)}
    everything = {rule_key(r) for r in binary_part(ctx, order, full=True)}
    assert covers == {(frozenset({"p"}), "q"), (frozenset({"q"}), "r")}
    assert everything == covers | {(frozenset({"p"}), "r")}


def covering(pairs, elements):
    """The pairs with no element strictly between."""
    return {(lo, up) for lo, up in pairs
            if not any((lo, z) in pairs and (z, up) in pairs for z in elements)}


def test_order_pairs_covers_and_binary_part_match_the_definition():
    rng = random.Random(97)
    seen_transitive = False
    for _ in range(60):
        ctx, _ = reduce_context(random_context(rng, rng.randint(2, 9),
                                               rng.randint(2, 10),
                                               rng.choice([0.3, 0.5, 0.7])))
        attrs, objs = ctx.attributes, ctx.objects
        ext = {a: ctx.support_of_attributes({a}) for a in attrs}
        intent = {g: ctx.support_of_objects({g}) for g in objs}
        # c lies below a when every object carrying a carries c; object g
        # lies below h when g's row is contained in h's
        attr_pairs = {(c, a) for c in attrs for a in attrs if ext[a] < ext[c]}
        obj_pairs = {(g, h) for g in objs for h in objs if intent[g] < intent[h]}
        idx = ctx.attribute_index
        for order, pairs in ((attribute_order(ctx), attr_pairs),
                             (object_order(ctx), obj_pairs)):
            covers = covering(pairs, order.elements)
            assert order.pairs() == pairs
            pos = {x: k for k, x in enumerate(order.elements)}
            assert order._index_pairs(True) == sorted(
                (pos[lo], pos[up]) for lo, up in covers)
            seen_transitive |= covers != pairs
        order = attribute_order(ctx)
        for full in (False, True):
            rules = binary_part(ctx, order, full=full)
            want = attr_pairs if full else covering(attr_pairs, attrs)
            assert [rule_key(r) for r in rules] == [
                (frozenset({up}), lo) for lo, up in
                sorted(want, key=lambda p: (idx[p[0]], idx[p[1]]))]
            assert all(r.support == r.premise_support == len(ext[up])
                       and r.confidence == 1 and r.in_d_basis
                       for r in rules for up in r.premise)
    assert seen_transitive


def sector_job(ctx, arrows, d, bj):
    """Column bj's job for ``_sector_rules`` on ctx itself: its edges,
    their up-arrow rows, and bj."""
    pairs = _sector_edges(ctx.row_masks, arrows.up_cols[bj],
                          d.sector_masks[bj])
    return [e for e, _ in pairs], [row for _, row in pairs], bj


def sector_keys(ctx, arrows, d, b):
    """(premise labels, conclusion label) of the kernel's rules for b,
    measured on ctx itself."""
    labels, cols = ctx.attributes, ctx.column_masks
    below = attribute_order(ctx).below_masks
    return [(frozenset(labels[j] for j in xs), labels[c])
            for c, xs, _, _ in _sector_rules(
                cols, below, 0,
                sector_job(ctx, arrows, d, ctx.attribute_index[b]))]


def test_a_stream_builds_no_label_record(monkeypatch):
    # the stream reads the reduction's masks; only reduce_context and
    # compute_basis's result.record build the label view
    ctx = random_context(random.Random(59), 37, 400, 0.015)
    record = compute_basis(ctx).record
    assert record.saturated_attributes and len(
        record.attribute_substitutions) > len(record.saturated_attributes)

    def refuse(*args, **kwargs):
        raise AssertionError("a ReductionRecord was built")

    monkeypatch.setattr(dbasis.context, "ReductionRecord", refuse)
    for query in (RuleQuery(), RuleQuery(target="a1")):
        stream = BasisStream(ctx, query)
        assert sum(map(len, stream)) > 0
        assert not hasattr(stream, "record")


def test_compute_basis_builds_its_record_on_first_read(monkeypatch):
    ctx = random_context(random.Random(59), 37, 400, 0.015)
    calls = []
    real = dbasis.basis._label_record

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dbasis.basis, "_label_record", counted)
    result = compute_basis(ctx, RuleQuery(target="a7"))
    assert result.packed and not calls
    assert result.record == reduce_context(ctx)[1]
    assert result.record is result.record and len(calls) == 1


def test_stream_jobs_are_the_reduced_tables_own_on_the_original_columns():
    # BasisStream builds each job on the original columns; moving the
    # reduced table's own job there, bit j to orig[j], must give it
    rng = random.Random(103)
    tables = [random_context(rng, rng.randint(5, 40), rng.randint(50, 160),
                             0.015) for _ in range(200)]
    tables.append(random_context(random.Random(59), 37, 400, 0.015))
    most_removed = 0
    for t, ctx in enumerate(tables):
        reduced, _ = reduce_context(ctx)
        arrows = compute_arrows(reduced)
        d = compute_d_relation(arrows)
        orig = [ctx.attribute_index[a] for a in reduced.attributes]

        def move(mask):
            return sum(1 << orig[j] for j in range(len(orig)) if mask >> j & 1)

        jobs = {}
        for bj, c in enumerate(orig):
            pairs = _sector_edges(reduced.row_masks, arrows.up_cols[bj],
                                  d.sector_masks[bj])
            jobs[c] = ([move(e) for e, _ in pairs],
                       [move(row) for _, row in pairs], c)
        below = [0] * len(ctx.attributes)
        for k, mask in enumerate(attribute_order(reduced).below_masks):
            below[orig[k]] = move(mask)
        stream = BasisStream(ctx)
        assert stream._sectors == jobs, t
        assert list(stream._sectors) == orig, t
        assert stream._below == below, t
        most_removed += 2 * len(orig) < len(ctx.attributes)
    assert most_removed > len(tables) // 2


def test_sector_rules_golden():
    ctx = reduced_golden_context()
    arrows = compute_arrows(ctx)
    d = compute_d_relation(arrows)
    rules_b = sector_keys(ctx, arrows, d, "b")
    assert {c for _, c in rules_b} == {"b"}
    covers_b = {premise for premise, _ in rules_b}
    assert covers_b == {frozenset({"a1", "a2"}), frozenset({"a1", "c2"}),
                        frozenset({"a2", "c1"})}
    covers_a1 = {premise for premise, _ in sector_keys(ctx, arrows, d, "a1")}
    assert covers_a1 == {frozenset({"a2", "c1"})}
    assert sector_keys(ctx, arrows, d, "c1") == []


def test_sector_rules_full_column_gives_empty_premise():
    ctx = BinaryContext(["x", "y"], ["p", "q"], [[1, 1], [1, 0]])
    reduced, _ = reduce_context(ctx)
    # p is gone after reduction; build the sector on an unreduced-but-
    # clarified variant instead
    ctx2 = BinaryContext(["x"], ["p"], [[1]])
    arrows = compute_arrows(ctx2)
    d = compute_d_relation(arrows)
    assert sector_keys(ctx2, arrows, d, "p") == [(frozenset(), "p")]


def clarified(ctx):
    """ctx with the first copy of each row and of each column."""
    rows = {m: i for i, m in reversed(list(enumerate(ctx.row_masks)))}
    cols = {m: j for j, m in reversed(list(enumerate(ctx.column_masks)))}
    return ctx.restrict(sorted(rows.values()), sorted(cols.values()))


def test_no_sector_has_a_one_column_transversal():
    # the D-relation keeps every one-column cover out of a sector (see
    # _sector_rules), which is why no filter drops singletons there
    rng = random.Random(67)
    unreduced = 0
    for t in range(300):
        ctx = (with_reducible_rows_and_columns(rng) if t % 2 else
               random_context(rng, rng.randint(1, 8), rng.randint(1, 8),
                              rng.choice((0.3, 0.5, 0.7))))
        for edges, _, _ in BasisStream(ctx)._sectors.values():
            assert all(len(xs) >= 2 for xs, _, _ in _transversals(edges)), t
        # the argument needs a clarified table only, not a reduced one
        ctx = clarified(ctx)
        unreduced += (len(reduce_context(ctx)[0].attributes)
                      < len(ctx.attributes))
        arrows = compute_arrows(ctx)
        d = compute_d_relation(arrows)
        cols = ctx.column_masks
        below = attribute_order(ctx).below_masks
        for bj in range(len(cols)):
            for _, xs, _, _ in _sector_rules(
                    cols, below, 0, sector_job(ctx, arrows, d, bj)):
                assert len(xs) != 1, (t, bj, xs)
    assert unreduced > 100


def with_reducible_rows_and_columns(rng):
    """A random table plus a duplicate row, an intersection row, a
    duplicate column and a meet column, rows and columns shuffled."""
    base = random_context(rng, rng.randint(5, 8), rng.randint(5, 8),
                          rng.choice((0.4, 0.6)))
    rows = [[int(base.bit(i, j)) for j in range(len(base.attributes))]
            for i in range(len(base.objects))]
    a, b = rng.sample(range(len(rows)), 2)
    rows += [rows[a][:], [x & y for x, y in zip(rows[a], rows[b])]]
    p, q = rng.sample(range(len(base.attributes)), 2)
    rows = [row + [row[p], row[p] & row[q]] for row in rows]
    rng.shuffle(rows)
    perm = rng.sample(range(len(rows[0])), len(rows[0]))
    return BinaryContext([f"o{i}" for i in range(len(rows))],
                         [f"a{j}" for j in range(len(perm))],
                         [[row[j] for j in perm] for row in rows])


def with_order_pairs(rng):
    """A random table plus columns that each hold an earlier column and
    some more rows, so that many columns lie below others."""
    n = rng.randint(6, 10)
    cols = [[int(rng.random() < 0.35) for _ in range(n)]
            for _ in range(rng.randint(4, 8))]
    for _ in range(rng.randint(6, 12)):
        cols.append([x | (rng.random() < 0.25) for x in rng.choice(cols)])
    rng.shuffle(cols)
    return BinaryContext([f"o{i}" for i in range(n)],
                         [f"a{j}" for j in range(len(cols))],
                         [[int(col[i]) for col in cols] for i in range(n)])


def test_sector_edges_keep_one_edge_per_up_arrow_row():
    # b's up-arrow rows g, h are incomparable: above a column in h but not
    # in g, a maximal column that g lacks has a down arrow at g, so it is
    # in b's sector and in g's edge but not h's.  The edges are thus an
    # antichain, so _sector_edges keeps them all, in _minimal's order.
    rng = random.Random(71)
    several = 0  # columns with two or more up-arrow rows
    for t in range(400):
        ctx, _ = reduce_context(
            with_reducible_rows_and_columns(rng) if t % 2 else
            random_context(rng, rng.randint(2, 10), rng.randint(2, 10),
                           rng.choice((0.3, 0.5, 0.7))))
        arrows = compute_arrows(ctx)
        d = compute_d_relation(arrows)
        for bj, sector in enumerate(d.sector_masks):
            up = arrows.up_cols[bj]
            pairs = _sector_edges(ctx.row_masks, up, sector)
            edges = [e for e, _ in pairs]
            assert len(edges) == up.bit_count(), (t, bj)
            assert sorted(edges) == sorted(
                sector & ~ctx.row_masks[i] for i in range(len(ctx.objects))
                if up >> i & 1), (t, bj)
            # each edge with its own up-arrow row, in the search's order
            assert sorted(row for _, row in pairs) == sorted(
                ctx.row_masks[i] for i in range(len(ctx.objects))
                if up >> i & 1), (t, bj)
            assert all(e == sector & ~row for e, row in pairs), (t, bj)
            assert edges == _minimal(edges), (t, bj)
            several += up.bit_count() > 1
    assert several > 900


def test_search_flags_match_the_refinement_formula_and_the_oracle():
    # The search flags a transversal from its critical edges and the
    # good-edge masks; _in_d_basis and the oracle's exhaustive
    # down-replacement flag it from closures.  Tables with many order
    # pairs have many sector vertices with columns below them; a third
    # of the tables also have removed columns.
    rng = random.Random(89)
    checked = refined = pairs = 0
    for t in range(360):
        ctx = [with_order_pairs, with_reducible_rows_and_columns,
               lambda rng: random_context(rng, rng.randint(5, 10),
                                          rng.randint(6, 14), 0.7)][t % 3](rng)
        stream = BasisStream(ctx)
        reduced, order = stream.reduced, stream.order
        ridx = reduced.attribute_index
        # the extent of the columns strictly below each column
        down = [reduced.extent_mask(below) for below in order.below_masks]
        labels, cols = ctx.attributes, ctx.column_masks
        pairs += sum(below.bit_count() for below in order.below_masks)
        want = {}  # (conclusion, premise) -> flag, from the floor-0 run
        for floor in range(3):
            for edges, rows, c in stream._sectors.values():
                rules = _sector_rules(cols, stream._below, floor,
                                      (edges, rows, c))
                # without good masks the same search flags every one True
                plain = list(_transversals(edges, cols, cols[c], floor, {}))
                assert [(tuple(sorted(xs)), ext) for xs, ext, _ in plain] == [
                    (xs, ext) for _, xs, ext, _ in rules], (t, floor, c)
                assert all(flag for _, _, flag in plain), (t, floor, c)
                for _, xs, _, flag in rules:
                    if floor:
                        assert flag == want[c, xs], (t, floor, c, xs)
                        continue
                    premise = frozenset(labels[x] for x in xs)
                    assert flag == _in_d_basis(
                        reduced.column_masks, down, ridx[labels[c]],
                        [ridx[a] for a in premise]), (t, c, xs)
                    assert flag != replacement_excluded(
                        reduced, order, premise, labels[c]), (t, c, xs)
                    want[c, xs] = flag
                    checked += 1
                    refined += not flag
    assert checked > 8000 and refined > 1500 and pairs > 1800


def public_rebuild_lines(ctx, query, jsonl):
    """The output lines of a plain run, rebuilt one public function at a
    time: binary part, per-sector hypergraph and streamed dualization
    measured on ctx, refinement, expansion, filters, sort, formatter."""
    reduced, record = reduce_context(ctx)
    order = attribute_order(reduced)
    arrows = compute_arrows(reduced)
    d = compute_d_relation(arrows)
    rules = binary_part(reduced, order, metrics_ctx=ctx)
    full = (1 << len(reduced.objects)) - 1
    for b in reduced.attributes:
        if query.target not in (None, b):
            continue
        if reduced.column_masks[reduced.attribute_index[b]] == full:
            rules.append(measure(ctx, frozenset(), b))
            continue
        try:
            h, labels = sector_hypergraph(reduced, arrows, d, b)
        except EmptySectorError:
            continue

        def sink(t, labels=labels, b=b):
            if len(t) >= 2:
                rules.append(measure(ctx, frozenset(labels[v] for v in t), b))

        dualize_streaming(h, sink)
    rules = refine_to_d_basis(reduced, order, rules)
    rules = expand_to_original(record, rules, metrics_ctx=ctx)
    rules = [r for r in canonical_sort(rules, ctx)
             if r.support >= query.min_support and r.in_d_basis
             and query.target in (None, r.conclusion)]
    fmt = format_rule_jsonl if jsonl else format_rule_text
    return [fmt(r, ctx.attribute_index) for r in rules]


def test_public_function_rebuild_matches_the_pipeline():
    # expand_to_original turns its label record into the masks the stream
    # reads; the small wide sparse tables after the first 30 add many
    # saturated removed columns to the others
    rng = random.Random(101)
    saturated = unsaturated = 0
    for t in range(36):
        ctx = (with_reducible_rows_and_columns(rng) if t < 30
               else random_context(rng, rng.randint(6, 12),
                                   rng.randint(30, 60), 0.05))
        target = rng.choice(ctx.attributes)
        for query in (RuleQuery(), RuleQuery(min_support=2),
                      RuleQuery(target=target)):
            result = compute_basis(ctx, query)
            for jsonl in (False, True):
                assert (public_rebuild_lines(ctx, query, jsonl)
                        == packed_lines(ctx, result.packed, jsonl)
                        ), (t, query, jsonl)
        record = result.record
        saturated += len(record.saturated_attributes)
        unsaturated += (len(record.attribute_substitutions)
                        - len(record.saturated_attributes))
    assert saturated >= 100 and unsaturated >= 100


def test_packed_metrics_match_a_recount_on_reducible_tables():
    # the sector search starts from the conclusion's column, so each
    # premise extent it emits is right only if every rule is exact
    rng = random.Random(103)
    for t in range(30):
        ctx = with_reducible_rows_and_columns(rng)
        cols = ctx.column_masks
        queries = [RuleQuery(min_support=floor, basis_kind=kind)
                   for kind in ("d-basis", "minimal-covers")
                   for floor in range(3)]
        queries.append(RuleQuery(target=rng.choice(ctx.attributes)))
        for query in queries:
            result = compute_basis(ctx, query)
            for c, xs, ext, _ in result.packed:
                assert ext == ctx.extent_mask(sum(1 << x for x in xs)), t
                assert ext & ~cols[c] == 0, t
            for r in result.rules:
                assert ((r.support, r.premise_support, r.confidence)
                        == rule_metrics(ctx, r.premise, r.conclusion)), t


def test_refine_golden_flags():
    ctx = reduced_golden_context()
    order = attribute_order(ctx)
    rules = binary_part(ctx, order) + sector_candidates(ctx)
    refined = refine_to_d_basis(ctx, order, rules)
    flags = {rule_key(r): r.in_d_basis for r in refined}
    assert flags[(frozenset({"a1", "a2"}), "b")] is False
    assert flags[(frozenset({"a1", "c2"}), "b")] is True
    assert flags[(frozenset({"a2", "c1"}), "b")] is True
    assert flags[(frozenset({"a2", "c1"}), "a1")] is True
    assert sum(not v for v in flags.values()) == 1


def test_refine_keeps_binary_and_empty_premise_rules():
    # down-replacement would drop a binary rule x -> b, since b is below
    # x; refinement never tests a premise shorter than 2
    ctx = reduced_golden_context()
    order = attribute_order(ctx)
    rules = [dataclasses.replace(r, in_d_basis=False)
             for r in binary_part(ctx, order)]
    rules += [measure(ctx, frozenset(), b, in_d_basis=False)
              for b in ctx.attributes]
    refined = refine_to_d_basis(ctx, order, rules)
    assert len(refined) == len(rules) > len(ctx.attributes)
    assert all(r.in_d_basis for r in refined)


def test_refine_rejects_an_order_of_other_elements():
    # the order's masks index ctx's columns, so another order cannot stand in
    ctx = reduced_golden_context()
    with pytest.raises(ValueError):
        refine_to_d_basis(ctx, object_order(ctx), [])


def test_refine_matches_exhaustive_replacement():
    rng = random.Random(43)
    for _ in range(40):
        ctx, _ = reduce_context(random_context(rng, rng.randint(1, 6),
                                               rng.randint(1, 6),
                                               rng.choice([0.4, 0.6])))
        order = attribute_order(ctx)
        for r in refine_to_d_basis(ctx, order, sector_candidates(ctx)):
            expected = not replacement_excluded(ctx, order, r.premise,
                                                r.conclusion)
            assert r.in_d_basis == expected, (r.premise, r.conclusion)


def test_expand_golden():
    ctx = golden_context()
    reduced, record = reduce_context(ctx)
    order = attribute_order(reduced)
    rules = binary_part(reduced, order, metrics_ctx=ctx)
    rules += sector_candidates(reduced)
    rules = refine_to_d_basis(reduced, order, rules)
    expanded = expand_to_original(record, rules, metrics_ctx=ctx)
    keys = {rule_key(r) for r in expanded}
    assert (frozenset({"c1"}), "u") in keys
    assert (frozenset({"u"}), "c1") in keys
    for x in ["b", "a1", "a2", "c1", "c2", "u"]:
        assert (frozenset({"v"}), x) in keys
    assert not any(r.conclusion == "v" for r in expanded)
    assert len(expanded) == 17  # 9 reduced-table rules + 2 + 6


def test_compute_basis_golden_exact():
    ctx = golden_context()
    result = compute_basis(ctx)
    got = [(sorted(r.premise), r.conclusion, r.support, str(r.confidence))
           for r in result.rules]
    assert got == [
        (["v"], "b", 1, "1"),
        (["a1", "c2"], "b", 1, "1"),
        (["a2", "c1"], "b", 1, "1"),
        (["v"], "a1", 1, "1"),
        (["a2", "c1"], "a1", 1, "1"),
        (["v"], "a2", 1, "1"),
        (["a1", "c2"], "a2", 1, "1"),
        (["b"], "c1", 2, "1"),
        (["a1"], "c1", 2, "1"),
        (["u"], "c1", 5, "1"),
        (["v"], "c1", 1, "1"),
        (["b"], "c2", 2, "1"),
        (["a2"], "c2", 2, "1"),
        (["v"], "c2", 1, "1"),
        (["c1"], "u", 5, "1"),
        (["v"], "u", 1, "1"),
    ]
    assert len(result.packed) == 16
    assert all(r[3] for r in result.packed)
    candidates = compute_basis(ctx, RuleQuery(basis_kind="minimal-covers"))
    assert len(candidates.packed) == 17
    assert sum(not r[3] for r in candidates.packed) == 1
    assert result.sector_counts == {"b": 3, "a1": 1, "a2": 1, "c1": 0, "c2": 0}


def test_compute_basis_minimal_covers_kind():
    ctx = golden_context()
    result = compute_basis(ctx, RuleQuery(basis_kind="minimal-covers"))
    assert len(result.rules) == 17
    flagged = [r for r in result.rules if not r.in_d_basis]
    assert [rule_key(r) for r in flagged] == [(frozenset({"a1", "a2"}), "b")]


def test_compute_basis_target_matches_filtered_full_run():
    ctx = golden_context()
    full = compute_basis(ctx)
    for target in ctx.attributes:
        got = compute_basis(ctx, RuleQuery(target=target)).rules
        want = [r for r in full.rules if r.conclusion == target]
        assert got == want
        assert [r.support for r in got] == [r.support for r in want]
    # wide sparse tables lose most of their columns, many of them
    # saturated (an all-zero column is), each of which has a rule for
    # every other column; a targeted run builds only its target's rules
    rng = random.Random(67)
    removed = {True: 0, False: 0}  # saturated or not -> columns
    targeted = {True: 0, False: 0}  # target saturated or not -> runs
    for t in range(40):
        ctx = random_context(rng, rng.randint(6, 20), rng.randint(30, 80),
                             rng.choice([0.03, 0.05, 0.1]))
        _, record = reduce_context(ctx)
        saturated = record.saturated_attributes
        for a in record.attribute_substitutions:
            removed[a in saturated] += 1
        targets = rng.sample(ctx.attributes, 5)
        for kind, floor, full_binary in itertools.product(
                BASIS_KINDS, (0, 1), (False, True)):
            full = compute_basis(ctx, RuleQuery(min_support=floor,
                                                basis_kind=kind),
                                 full_binary=full_binary).packed
            for target in targets:
                c = ctx.attribute_index[target]
                got = compute_basis(ctx, RuleQuery(target, floor, kind),
                                    full_binary=full_binary).packed
                assert got == [r for r in full if r[0] == c], (t, target)
                targeted[target in saturated] += 1
    assert min(removed.values()) > 300 and min(targeted.values()) > 300


def test_compute_basis_min_support():
    ctx = golden_context()
    result = compute_basis(ctx, RuleQuery(min_support=2))
    assert all(r.support >= 2 for r in result.rules)
    keys = {rule_key(r) for r in result.rules}
    assert (frozenset({"b"}), "c1") in keys
    assert (frozenset({"v"}), "b") not in keys
    with pytest.raises(ValueError):
        compute_basis(ctx, RuleQuery(min_support=7))
    with pytest.raises(KeyError):
        compute_basis(ctx, RuleQuery(target="zz"))


def worker_tables_and_queries():
    """Tables whose reduction drops columns, i.e. whose column map is not
    the identity, each with a plain, a floored and a targeted query of
    both basis kinds."""
    rng = random.Random(47)
    tables = [golden_context()] + [with_reducible_rows_and_columns(rng)
                                   for _ in range(3)]
    for ctx in tables:
        target = rng.choice(ctx.attributes)
        yield ctx, [RuleQuery(basis_kind=kind, **extra)
                    for extra in ({}, {"min_support": 2}, {"target": target})
                    for kind in BASIS_KINDS]


def test_compute_basis_worker_counts_agree():
    # the flags are computed inside the workers, so compare whole packed
    # rules (metrics and flags too); the minimal-covers runs hold the
    # candidates, flagged False ones included
    remapped = 0
    for ctx, queries in worker_tables_and_queries():
        for query in queries:
            base = compute_basis(ctx, query, worker_count=1)
            remapped += base.reduced.attributes != ctx.attributes
            for workers in (2, 3):
                alt = compute_basis(ctx, query, worker_count=workers)
                assert alt.packed == base.packed
                assert alt.sector_counts == base.sector_counts
    assert remapped


def test_stream_applies_the_basis_kind_and_counts_the_candidates():
    refined = 0
    for ctx, queries in worker_tables_and_queries():
        for d_query, mc_query in zip(queries[::2], queries[1::2]):
            for workers in (1, 2, 3):
                d_stream = BasisStream(ctx, d_query, worker_count=workers)
                mc_stream = BasisStream(ctx, mc_query, worker_count=workers)
                d_groups, mc_groups = list(d_stream), list(mc_stream)
                kept = [[r for r in g if r[3]] for g in mc_groups]
                assert d_groups == [g for g in kept if g]
                mc_rules = [r for g in mc_groups for r in g]
                for stream in (d_stream, mc_stream):
                    assert stream.candidate_count == len(mc_rules)
                    assert stream.refined_count == sum(
                        not r[3] for r in mc_rules)
                    assert stream.sector_counts == mc_stream.sector_counts
                refined += mc_stream.refined_count
        for query in queries:
            assert (list(leave_k_out_groups(ctx, 0, query))
                    == list(BasisStream(ctx, query)))
    assert refined


def test_stream_groups_concatenate_to_compute_basis():
    for ctx, queries in worker_tables_and_queries():
        runs = [(query, False) for query in queries] + [(RuleQuery(), True)]
        for query, full in runs:
            base = compute_basis(ctx, query, full_binary=full)
            for workers in (1, 2, 3):
                stream = BasisStream(ctx, query, worker_count=workers,
                                     full_binary=full)
                groups = list(stream)
                assert [r for g in groups for r in g] == base.packed
                conclusions = [g[0][0] for g in groups]
                assert conclusions == sorted(set(conclusions))
                for g in groups:
                    assert all(r[0] == g[0][0] for r in g)
                    assert g == sorted(g, key=lambda r: (len(r[1]), r[1]))
                assert stream.sector_counts == base.sector_counts


def test_stream_dualizes_no_sector_ahead_of_its_group(monkeypatch):
    calls = []
    real = dbasis.basis._sector_rules

    def counted(cols, below, min_support, sector):
        calls.append(sector[2])
        return real(cols, below, min_support, sector)

    monkeypatch.setattr(dbasis.basis, "_sector_rules", counted)
    rng = random.Random(61)
    for ctx in [golden_context()] + [with_reducible_rows_and_columns(rng)
                                     for _ in range(5)]:
        calls.clear()
        stream = BasisStream(ctx)
        sectors = sorted(ctx.attribute_index[b]
                         for b in stream.reduced.attributes)
        for g in stream:
            # every sector of a column up to this one, and none past it
            assert calls == [c for c in sectors if c <= g[0][0]]
        assert calls == sectors


def busy_workers_table():
    """A table each of whose two workers has over 350 kB of covers left
    to send when the first group arrives, more than a pipe buffers, so
    neither can have finished its share."""
    return random_context(random.Random(5), 18, 36, 0.4)


def started_workers(groups):
    """The worker processes that the first group of ``groups`` started."""
    before = set(multiprocessing.active_children())
    next(groups)
    return set(multiprocessing.active_children()) - before


def test_closing_a_stream_early_terminates_its_workers():
    groups = iter(BasisStream(busy_workers_table(), worker_count=2))
    workers = started_workers(groups)
    assert len(workers) == 2
    groups.close()
    for w in workers:
        w.join(timeout=30)
        assert not w.is_alive()


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block after ``seconds``, so a hang fails."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_a_killed_worker_makes_the_stream_raise():
    ctx = busy_workers_table()
    total = len(list(BasisStream(ctx)))
    groups = iter(BasisStream(ctx, worker_count=2))
    workers = started_workers(groups)
    victim = min(workers, key=lambda w: w.pid)
    os.kill(victim.pid, signal.SIGKILL)
    rest = []
    with deadline(60), pytest.raises(RuntimeError, match="exited with code"):
        for group in groups:
            rest.append(group)
    assert 1 + len(rest) < total
    for w in workers:
        w.join(timeout=30)
        assert not w.is_alive()


def test_a_failing_worker_makes_the_stream_raise():
    ctx = busy_workers_table()
    stream = BasisStream(ctx, worker_count=2)
    # the last sector's job names a column past the table
    last = max(stream._sectors)
    edges, rows, _ = stream._sectors[last]
    stream._sectors[last] = (edges, rows, len(ctx.attributes))
    groups = []
    with deadline(60), pytest.raises(IndexError):
        for group in stream:
            groups.append(group)
    assert groups and groups[-1][0][0] < last


@pytest.mark.skipif(sys.platform != "linux",
                    reason="workers are forked on Linux only")
def test_workers_are_forked_whatever_the_start_method():
    # a fresh interpreter whose global start method is spawn (Python
    # 3.14 defaults to forkserver on Linux): the stream still forks its
    # two workers, counted at os.fork, and gives the serial run's rules
    script = (
        "import multiprocessing, os, random\n"
        "from dbasis import compute_basis\n"
        "from helpers import random_context\n"
        "multiprocessing.set_start_method('spawn')\n"
        "forks, fork = [], os.fork\n"
        "def counted():\n"
        "    pid = fork()\n"
        "    if pid:\n"
        "        forks.append(pid)\n"
        "    return pid\n"
        "os.fork = counted\n"
        "ctx = random_context(random.Random(5), 10, 12, 0.4)\n"
        "serial = compute_basis(ctx).packed\n"
        "assert compute_basis(ctx, worker_count=2).packed == serial\n"
        "print(len(forks), multiprocessing.get_start_method())\n")
    src = os.path.dirname(os.path.dirname(dbasis.basis.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2 spawn\n"


def test_a_serial_run_never_imports_multiprocessing():
    # a fresh interpreter, since this module imports it itself
    script = ("import sys, dbasis\n"
              f"ctx = dbasis.parse_context({GOLDEN_CSV!r}, 'dense-csv')\n"
              "assert dbasis.compute_basis(ctx).rules\n"
              "print(sorted(m for m in sys.modules\n"
              "             if m.split('.')[0] == 'multiprocessing'))\n")
    src = os.path.dirname(os.path.dirname(dbasis.basis.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_column_and_row_order_never_reach_the_output():
    # The dualizer branches in the reduced table's column order, so a
    # shuffled table must give the same rules.
    rng = random.Random(53)
    dropped_columns = 0
    for t in range(30):
        ctx = with_reducible_rows_and_columns(rng)
        # of duplicate columns the first is kept and its label would
        # follow the order, so keep one copy of each
        n = len(ctx.objects)
        first = {c: j for j, c in reversed(list(enumerate(ctx.column_masks)))}
        ctx = ctx.restrict(range(n), sorted(first.values()))
        m = len(ctx.attributes)
        shuffled = ctx.restrict(rng.sample(range(n), n), rng.sample(range(m), m))
        for query in (RuleQuery(), RuleQuery(min_support=2),
                      RuleQuery(basis_kind="minimal-covers")):
            base = compute_basis(ctx, query)
            alt = compute_basis(shuffled, query)
            assert ({rule_row(r) for r in alt.rules}
                    == {rule_row(r) for r in base.rules}), (t, query)
            assert alt.sector_counts == base.sector_counts, (t, query)
        dropped_columns += len(base.reduced.attributes) < m
    assert dropped_columns > 20


def rule_row(r):
    return (r.premise, r.conclusion, r.support, r.premise_support,
            r.confidence, r.in_d_basis)


def test_support_floor_prunes_without_changing_the_output():
    # the floor cuts the dualizer's search; the result must be the
    # unfloored run filtered afterwards, metrics and flags included
    rng = random.Random(61)
    for t in range(40):
        ctx = random_context(rng, rng.randint(8, 16), rng.randint(6, 12))
        bases = {kind: compute_basis(ctx, RuleQuery(basis_kind=kind))
                 for kind in BASIS_KINDS}
        top = max(r.support for r in bases["minimal-covers"].rules)
        floors = range(min(top + 1, len(ctx.objects)) + 1)
        for k in floors:
            got = {kind: compute_basis(ctx, RuleQuery(min_support=k,
                                                      basis_kind=kind))
                   for kind in BASIS_KINDS}
            for kind, base in bases.items():
                assert ([rule_row(r) for r in got[kind].rules]
                        == [rule_row(r) for r in base.rules
                            if r.support >= k]), (t, k, kind)
            # the sector covers meet the floor without a later filter
            stream = BasisStream(ctx, RuleQuery(min_support=k))
            cols = ctx.column_masks
            for edges, rows, c in stream._sectors.values():
                for r in _sector_rules(cols, stream._below, k,
                                       (edges, rows, c)):
                    assert (r[2] & cols[c]).bit_count() >= k, (t, k, r)
            if t % 8 == 0:
                parallel = compute_basis(
                    ctx, RuleQuery(min_support=k, basis_kind="minimal-covers"),
                    worker_count=2)
                assert ([rule_row(r) for r in parallel.rules]
                        == [rule_row(r) for r in got["minimal-covers"].rules]
                        ), (t, k)


def closure_reference_flags(ctx, order, rules):
    aidx = ctx.attribute_index
    flags = []
    for r in rules:
        pmask = sum(1 << aidx[a] for a in r.premise)
        bbit = 1 << aidx[r.conclusion]
        flags.append(len(r.premise) < 2 or not any(
            ctx.closure_mask((pmask & ~(1 << aidx[x]))
                             | order.below_masks[aidx[x]]) & bbit
            for x in r.premise))
    return flags


def test_refine_matches_a_closure_reference():
    rng = random.Random(67)
    # column indices past 64 in premises, conclusions and down-sets
    wide, _ = reduce_context(random_context(random.Random(71), 20, 110, 0.6))
    assert len(wide.attributes) >= 70
    tables = (reduce_context(random_context(rng, rng.randint(6, 14),
                                            rng.randint(7, 12),
                                            rng.choice([0.4, 0.6])))[0]
              for _ in range(60))
    checked = 0
    wide_flags = []
    for ctx in itertools.chain(tables, [wide]):
        if len(ctx.attributes) < 3:
            continue
        order = attribute_order(ctx)
        rules = []
        for _ in range(200 if ctx is wide else 30):
            size = rng.randint(2, min(6, len(ctx.attributes) - 1))
            b, *premise = rng.sample(ctx.attributes, size + 1)
            rules.append(measure(ctx, premise, b))
        flags = [r.in_d_basis for r in refine_to_d_basis(ctx, order, rules)]
        assert flags == closure_reference_flags(ctx, order, rules)
        checked += len(rules)
        if ctx is wide:
            wide_flags = flags
    assert checked >= 1000
    assert True in wide_flags and False in wide_flags


def test_pipeline_flags_match_exhaustive_replacement_on_unreduced_tables():
    # the pipeline refines on the original table's columns; a meet column
    # and a copy placed first shift every kept attribute's index there
    rng = random.Random(89)
    flags = []
    for _ in range(40):
        base = random_context(rng, rng.randint(5, 9), rng.randint(4, 7),
                              rng.choice([0.4, 0.6]))
        rows = [[int(base.bit(i, 0) and base.bit(i, 1)), int(base.bit(i, 2))]
                + [int(base.bit(i, j)) for j in range(len(base.attributes))]
                for i in range(len(base.objects))]
        ctx = BinaryContext(base.objects, ["m", "c", *base.attributes], rows)
        result = compute_basis(ctx, RuleQuery(basis_kind="minimal-covers"))
        kept = set(result.reduced.attributes)
        for r in result.rules:
            if len(r.premise) >= 2 and r.premise <= kept:
                assert r.in_d_basis == (not replacement_excluded(
                    result.reduced, result.order, r.premise, r.conclusion))
                flags.append(r.in_d_basis)
    assert len(flags) >= 100 and False in flags


def test_compute_basis_degenerate_tables():
    ones = BinaryContext(["x", "y"], ["p", "q"], [[1, 1], [1, 1]])
    result = compute_basis(ones)
    assert {rule_key(r) for r in result.rules} == {(frozenset(), "p"),
                                                   (frozenset(), "q")}
    # empty columns coincide, so the duplicate-collapse pair comes back
    # out; both rules hold vacuously (their premises select no rows)
    zeros = BinaryContext(["x", "y"], ["p", "q"], [[0, 0], [0, 0]])
    zrules = compute_basis(zeros).rules
    assert {rule_key(r) for r in zrules} == {(frozenset({"q"}), "p"),
                                             (frozenset({"p"}), "q")}
    assert all(r.support == 0 and r.confidence == 1 for r in zrules)
    cell = BinaryContext(["o"], ["a"], [[1]])
    assert [rule_key(r) for r in compute_basis(cell).rules] == [(frozenset(), "a")]


def test_pipeline_covers_match_oracle_on_randoms():
    rng = random.Random(53)
    for _ in range(30):
        ctx, _ = reduce_context(random_context(rng, rng.randint(1, 6),
                                               rng.randint(1, 6),
                                               rng.choice([0.4, 0.6])))
        order = attribute_order(ctx)
        d = compute_d_relation(compute_arrows(ctx))
        by_conclusion = {b: [] for b in ctx.attributes}
        for r in sector_candidates(ctx):
            by_conclusion[r.conclusion].append(r)
        for b, rules in by_conclusion.items():
            got = {frozenset(r.premise) for r in rules if len(r.premise) >= 2}
            legal = {X for X in brute_min_covers(ctx, b)
                     if len(X) >= 2 and X <= d.sectors[b]}
            assert got == legal, (b, got, legal)
            survivors_fast = {
                frozenset(r.premise)
                for r in refine_to_d_basis(ctx, order, rules)
                if r.in_d_basis and len(r.premise) >= 2}
            survivors_brute = {
                X for X in brute_min_covers(ctx, b)
                if len(X) >= 2 and not replacement_excluded(ctx, order, X, b)}
            assert survivors_fast == survivors_brute, b


# -- ordered directness -------------------------------------------------------


def all_subsets(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield {items[k] for k in range(len(items)) if mask >> k & 1}


def test_ordered_closure_golden_all_subsets():
    ctx = reduced_golden_context()
    result = compute_basis(ctx)
    ordered = evaluation_order(result.rules, result.order)
    for x in all_subsets(ctx.attributes):
        assert ordered_closure(ordered, x) == ctx.closure(x), x


def test_ordered_closure_random_reduced_tables():
    rng = random.Random(59)
    for _ in range(25):
        ctx, _ = reduce_context(random_context(rng, rng.randint(1, 7),
                                               rng.randint(1, 7),
                                               rng.choice([0.3, 0.5])))
        result = compute_basis(ctx)
        ordered = evaluation_order(result.rules, result.order)
        for _ in range(20):
            x = {a for a in ctx.attributes if rng.random() < 0.35}
            assert ordered_closure(ordered, x) == ctx.closure(x), (x, ordered)


def test_ordered_closure_on_original_attributes():
    # On the unreduced universe the one-pass closure recovers the table
    # closure except for saturated removed attributes, which no rule
    # concludes.
    rng = random.Random(61)
    tables = [golden_context()]
    tables += [random_context(rng, rng.randint(2, 7), rng.randint(2, 7),
                              rng.choice([0.3, 0.5, 0.8]))
               for _ in range(25)]
    for ctx in tables:
        result = compute_basis(ctx)
        ordered = evaluation_order(result.rules, result.order)
        saturated = set(result.record.saturated_attributes)
        for _ in range(15):
            x = {a for a in ctx.attributes if rng.random() < 0.3}
            got = ordered_closure(ordered, x)
            want = ctx.closure(x)
            assert got <= want, (x, got - want)
            assert want - got <= saturated - x, (x, want, got)


def test_evaluation_order_puts_binary_before_nonbinary():
    ctx = reduced_golden_context()
    result = compute_basis(ctx)
    ordered = evaluation_order(result.rules, result.order)
    sizes = [len(r.premise) for r in ordered]
    first_nonbinary = next(i for i, s in enumerate(sizes) if s > 1)
    assert all(s > 1 for s in sizes[first_nonbinary:])


# -- leave-k-out --------------------------------------------------------------


def test_leave_k_out_validation():
    ctx = golden_context()
    with pytest.raises(ValueError):
        leave_k_out_rules(ctx, 4)
    with pytest.raises(ValueError):
        leave_k_out_rules(ctx, -1)
    tiny = BinaryContext(["x"], ["p"], [[1]])
    with pytest.raises(ValueError):
        leave_k_out_rules(tiny, 1)


def test_leave_zero_is_the_exact_pipeline():
    ctx = golden_context()
    exact = compute_basis(ctx).rules
    lko = leave_k_out_rules(ctx, 0)
    aidx = ctx.attribute_index
    assert [format_rule_text(r, aidx) for r in lko] == \
        [format_rule_text(r, aidx) for r in exact]


def test_leave_one_out_tiny_hand_case():
    ctx = BinaryContext(["o1", "o2", "o3"], ["p", "q"],
                        [[1, 1], [1, 1], [1, 0]])
    rules = leave_k_out_rules(ctx, 1)
    # p -> q and q -> p collapse into the empty-premise survivors; the
    # q rule scrapes by with confidence 2/3, exactly the k=1 floor here
    assert [rule_key(r) for r in rules] == [(frozenset(), "p"),
                                            (frozenset(), "q")]
    assert [r.support for r in rules] == [3, 2]
    assert rules[1].confidence == Fraction(2, 3)


def test_leave_one_out_golden_properties():
    ctx = golden_context()
    rules = leave_k_out_rules(ctx, 1)
    keys = [rule_key(r) for r in rules]
    assert len(set(keys)) == len(keys)
    n = len(ctx.objects)
    all_attr_idx = list(range(len(ctx.attributes)))
    for r in rules:
        assert r.confidence >= Fraction(n - 1, n)
        exact_somewhere = False
        for drop in range(n):
            sub = ctx.restrict([i for i in range(n) if i != drop], all_attr_idx)
            check = measure(sub, r.premise, r.conclusion)
            if check.confidence == 1 and check.premise_support > 0:
                exact_somewhere = True
                break
        assert exact_somewhere or r.premise_support == 0, rule_key(r)
    # premise-minimality per conclusion
    for r in rules:
        for other in rules:
            if other.conclusion == r.conclusion and other.premise < r.premise:
                pytest.fail(f"{rule_key(other)} subsumes {rule_key(r)}")


def test_leave_one_out_random_confidence_floor():
    rng = random.Random(67)
    for _ in range(5):
        ctx = random_context(rng, 6, 6, 0.5)
        n = len(ctx.objects)
        for r in leave_k_out_rules(ctx, 1):
            assert r.confidence >= Fraction(n - 1, n)


def test_leave_one_out_floors_come_before_premise_minimality():
    # On this 7x10 table the sub-table rules a9 -> a1 (confidence 2/3
    # on the full table) and, with minimal-covers, a2 a6 -> a7 and
    # a2 a10 -> a7 (1/2) fail the 6/7 floor; they must not remove the
    # larger premises of their conclusions that pass it.
    rng = random.Random(41)
    for _ in range(21):
        ctx = random_context(rng, rng.randint(6, 8), rng.randint(8, 10), 0.5)
    assert (len(ctx.objects), len(ctx.attributes)) == (7, 10)
    assert (frozenset({"a8", "a9"}), "a1") in {
        rule_key(r) for r in compute_basis(ctx).rules}
    for kind in ("d-basis", "minimal-covers"):
        keys = {rule_key(r)
                for r in leave_k_out_rules(ctx, 1, RuleQuery(basis_kind=kind))}
        assert (frozenset({"a8", "a9"}), "a1") in keys, kind
        assert (frozenset({"a2", "a6", "a10"}), "a7") in keys, kind


def test_leave_two_out_runs():
    ctx = golden_context()
    rules = leave_k_out_rules(ctx, 2)
    n = len(ctx.objects)
    assert all(r.confidence >= Fraction(n - 2, n) for r in rules)


def metrics(r):
    return (r.premise, r.conclusion, r.support, r.premise_support,
            r.confidence, r.in_d_basis)


def leave_k_out_reference(ctx, k, query):
    """The leave-k-out scheme from the library's objects: every
    sub-table's basis, flags OR-ed per rule, the support and (n-k)/n
    floors, then a pairwise premise minimality filter per conclusion
    over the rules that pass them."""
    n, m = len(ctx.objects), len(ctx.attributes)
    sub_query = RuleQuery(target=query.target, basis_kind=query.basis_kind)
    flags = {}
    for dropped in itertools.combinations(range(n), k):
        sub = ctx.restrict([i for i in range(n) if i not in dropped],
                           list(range(m)))
        for r in compute_basis(sub, sub_query).rules:
            key = rule_key(r)
            flags[key] = flags.get(key, False) or r.in_d_basis
    passing = [r for r in (measure(ctx, p, c, flag)
                           for (p, c), flag in flags.items())
               if r.support >= query.min_support
               and r.confidence >= Fraction(n - k, n)]
    out = [r for r in passing
           if not any(o.conclusion == r.conclusion and o.premise < r.premise
                      for o in passing)]
    return canonical_sort(out, ctx)


def test_leave_k_out_matches_a_pairwise_reference():
    # tables with a duplicate row and an intersection row, so sub-tables
    # reduce differently and the merge sees the same rule many times
    rng = random.Random(41)
    queries = [RuleQuery(), RuleQuery(basis_kind="minimal-covers"),
               RuleQuery(min_support=2),
               RuleQuery(min_support=2, basis_kind="minimal-covers"),
               RuleQuery(target="a2"),
               RuleQuery(target="a1", min_support=2)]
    seen = {"dropped": False, "refined": False, "inexact": False}
    for t in range(10):
        base = random_context(rng, rng.randint(6, 7), rng.randint(8, 10),
                              rng.choice((0.5, 0.6)))
        rows = [[int(base.bit(i, j)) for j in range(len(base.attributes))]
                for i in range(len(base.objects))]
        a, b = rng.sample(range(len(rows)), 2)
        rows += [rows[a][:], [x & y for x, y in zip(rows[a], rows[b])]]
        rng.shuffle(rows)
        ctx = BinaryContext([f"o{i}" for i in range(len(rows))],
                            list(base.attributes), rows)
        for k in (1, 2):
            got = [leave_k_out_rules(ctx, k, query) for query in queries]
            for query, rules in zip(queries, got):
                assert [metrics(r) for r in rules] == [
                    metrics(r) for r in leave_k_out_reference(ctx, k, query)
                ], (t, k, query)
            seen["dropped"] |= got[0] != got[1]
            seen["refined"] |= any(not r.in_d_basis for r in got[1])
            seen["inexact"] |= any(r.confidence < 1 for r in got[0])
    assert all(seen.values()), seen


# -- rendering ----------------------------------------------------------------


def test_format_rule_text():
    ctx = golden_context()
    r = measure(ctx, {"c2", "a1"}, "b")
    assert format_rule_text(r, ctx.attribute_index) == \
        "a1 c2 -> b [support=1, confidence=1, d_basis=true]"
    empty = measure(ctx, set(), "c1")
    assert format_rule_text(empty, ctx.attribute_index) == \
        "-> c1 [support=5, confidence=5/6, d_basis=true]"


def test_format_rule_jsonl():
    import json
    ctx = golden_context()
    r = measure(ctx, {"b"}, "a1")
    doc = json.loads(format_rule_jsonl(r, ctx.attribute_index))
    assert doc == {"premise": ["b"], "conclusion": "a1", "support": 1,
                   "premise_support": 2, "confidence_num": 1,
                   "confidence_den": 2, "in_d_basis": True}


def test_canonical_sort_is_by_conclusion_then_premise():
    ctx = golden_context()
    rules = [measure(ctx, {"v"}, "u"), measure(ctx, {"b"}, "c1"),
             measure(ctx, set(), "c1")]
    ordered = canonical_sort(rules, ctx)
    assert [r.conclusion for r in ordered] == ["c1", "c1", "u"]
    assert ordered[0].premise == frozenset()
    # 110 columns: label order (a107 < a2) is not column order
    rng = random.Random(73)
    wide = random_context(rng, 20, 110, 0.6)
    few = wide.attributes[:4] + wide.attributes[-4:]
    rules = [measure(wide, premise, b)
             for b, *premise in (rng.sample(few, rng.randint(1, 4))
                                 for _ in range(300))]
    aidx = wide.attribute_index
    keys = [(aidx[r.conclusion], len(r.premise),
             sorted(aidx[p] for p in r.premise))
            for r in canonical_sort(rules, wide)]
    assert keys == sorted(keys)
    assert keys[-1][0] >= 64
