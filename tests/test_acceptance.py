"""End-to-end acceptance gate.

Each test prints exactly one [PASS]/[FAIL] verdict line for its
criterion, bypassing output capture so the lines land in the terminal.
Time budgets are asserted where the criterion carries one.
"""

import hashlib
import random
import sys
import time
from fractions import Fraction

from dbasis import (RuleQuery, attribute_order, binary_part, compute_arrows,
                    compute_basis, compute_d_relation, dualize,
                    evaluation_order, leave_k_out_rules, measure, minimize,
                    object_order, ordered_closure, reduce_context,
                    refine_to_d_basis, render_arrow_table, sector_hypergraph,
                    up_objects)
from dbasis.basis import RENDER_SLICE, format_rule_text, line_renderer
from dbasis.oracle import brute_dual, brute_min_covers, replacement_excluded

import conftest
from helpers import (golden_context, random_context, random_hypergraph,
                     reduced_golden_context, sector_candidates)


def _verdict(ok: bool, label: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    conftest.VERDICTS.append(line)
    print(line, file=sys.__stderr__, flush=True)


def checked(label: str, body, budget: float | None = None):
    started = time.perf_counter()
    try:
        note = body() or ""
    except BaseException:
        _verdict(False, label)
        raise
    elapsed = time.perf_counter() - started
    timing = f" [{elapsed:.2f}s]" if budget is not None else ""
    ok = budget is None or elapsed <= budget
    _verdict(ok, f"{label}{note}{timing}")
    assert ok, f"{label}: took {elapsed:.2f}s, budget {budget}s"


def rule_key(r):
    return (frozenset(r.premise), r.conclusion)


def text_lines(ctx, rules):
    aidx = ctx.attribute_index
    return [format_rule_text(r, aidx) for r in rules]


def stream_digest(ctx, packed):
    """sha256 of the text output lines, rendered straight from the packed
    rules ``RENDER_SLICE`` at a time, as ``dbasis run`` renders them (the
    same lines ``format_rule_text`` gives for their objects)."""
    render = line_renderer(ctx.attributes, ctx.column_masks)
    h = hashlib.sha256()
    for i in range(0, len(packed), RENDER_SLICE):
        for line in render(packed[i:i + RENDER_SLICE]):
            h.update((line + "\n").encode())
    return h.hexdigest()


# -- criterion 1: walkthrough table, end to end, zero tolerance ----------------


def test_criterion_1_walkthrough_pipeline():
    def body():
        ctx = golden_context()
        reduced, record = reduce_context(ctx)
        assert reduced.objects == ("1", "2", "3", "4")
        assert reduced.attributes == ("b", "a1", "a2", "c1", "c2")
        assert record.attribute_substitutions["u"] == frozenset({"c1"})
        assert record.saturated_attributes == frozenset({"v"})

        order = attribute_order(reduced)
        assert order.pairs() == {("c1", "a1"), ("c1", "b"),
                                 ("c2", "a2"), ("c2", "b")}
        assert object_order(reduced).pairs() == {("4", "2")}

        arrows = compute_arrows(reduced)
        assert render_arrow_table(reduced, arrows) == (
            "  b a1 a2 c1 c2\n"
            "1 ↑  1  ↑  1  ↕\n"
            "2 1  ↕  ↕  1  1\n"
            "3 ↑  ↑  1  ↕  1\n"
            "4 ↕  ↓  ↓  1  1"
        )

        d = compute_d_relation(arrows)
        assert d.sectors["b"] == frozenset({"a1", "a2", "c1", "c2"})
        assert up_objects(arrows, "b") == {"1", "3", "4"}

        h, labels = sector_hypergraph(reduced, arrows, d, "b")
        transversals = {frozenset(labels[v] for v in t)
                        for t in dualize(h).edges}
        assert transversals == {frozenset({"a1", "c2"}),
                                frozenset({"a2", "c1"}),
                                frozenset({"a1", "a2"})}

        candidates = compute_basis(ctx, RuleQuery(basis_kind="minimal-covers"),
                                   worker_count=1).rules
        flags = {rule_key(r): r.in_d_basis for r in candidates}
        assert flags[(frozenset({"a1", "a2"}), "b")] is False
        assert sum(not v for v in flags.values()) == 1

        result = compute_basis(ctx, worker_count=1)
        keys = {rule_key(r) for r in result.rules}
        assert (frozenset({"c1"}), "u") in keys
        assert (frozenset({"u"}), "c1") in keys
        for x in ("b", "a1", "a2", "c1", "c2", "u"):
            assert (frozenset({"v"}), x) in keys

    checked("criterion 1: walkthrough table pipeline, exact match", body,
            budget=1.0)


# -- criterion 2: hand-built lattice basis -------------------------------------


EXPECTED_D_BASIS = {
    (frozenset({"a1"}), "c1"), (frozenset({"b"}), "c1"),
    (frozenset({"a2"}), "c2"), (frozenset({"b"}), "c2"),
    (frozenset({"a1", "c2"}), "b"), (frozenset({"a2", "c1"}), "b"),
    (frozenset({"a1", "c2"}), "a2"), (frozenset({"a2", "c1"}), "a1"),
}

EXPECTED_EXCLUDED = {
    (frozenset({"a1", "a2"}), "b"),
    (frozenset({"b", "a1"}), "a2"),
    (frozenset({"b", "a2"}), "a1"),
}


def test_criterion_2_hand_built_lattice_basis():
    def body():
        ctx = reduced_golden_context()
        result = compute_basis(ctx)
        assert {rule_key(r) for r in result.rules} == EXPECTED_D_BASIS

        canonical_direct = set()
        for b in ctx.attributes:
            for premise in brute_min_covers(ctx, b, include_binary=True):
                canonical_direct.add((frozenset(premise), b))
        assert canonical_direct - EXPECTED_D_BASIS == EXPECTED_EXCLUDED
        assert EXPECTED_D_BASIS <= canonical_direct

    checked("criterion 2: hand-built lattice basis, exact match", body)


# -- criterion 3: dualization vs brute force ------------------------------------


def test_criterion_3_dualization_correctness():
    def body():
        rng = random.Random(301)
        mismatches = 0
        for _ in range(500):
            h = random_hypergraph(rng, 12, 10)
            fast = set(dualize(h).edges)
            if fast != set(brute_dual(h).edges):
                mismatches += 1
            sperner = minimize(h)
            if set(dualize(dualize(sperner)).edges) != set(sperner.edges):
                mismatches += 1
        assert mismatches == 0
        return ", 500 hypergraphs, 0 mismatches"

    checked("criterion 3: dualization equals brute force + involution", body,
            budget=30.0)


# -- criteria 4 and 5 share one corpus ------------------------------------------


_C4_CACHE = None


def c4_corpus():
    """200 reduced random tables with fast and brute-force cover data."""
    global _C4_CACHE
    if _C4_CACHE is not None:
        return _C4_CACHE
    rng = random.Random(401)
    corpus = []
    for _ in range(200):
        ctx = random_context(rng, rng.randint(1, 8), rng.randint(1, 10),
                             rng.choice([0.3, 0.5, 0.7]))
        reduced, record = reduce_context(ctx)
        order = attribute_order(reduced)
        d = compute_d_relation(compute_arrows(reduced))
        refined = refine_to_d_basis(reduced, order, sector_candidates(reduced))
        corpus.append((ctx, reduced, order, d, refined))
    _C4_CACHE = corpus
    return corpus


def test_criterion_4_basis_completeness_soundness():
    def body():
        rng = random.Random(402)
        rules_checked = 0
        for ctx, reduced, order, d, refined in c4_corpus():
            by_conclusion = {}
            for r in refined:
                by_conclusion.setdefault(r.conclusion, []).append(r)
            for b in reduced.attributes:
                got = {frozenset(r.premise)
                       for r in by_conclusion.get(b, ())
                       if len(r.premise) >= 2}
                brute = {X for X in brute_min_covers(reduced, b)
                         if len(X) >= 2 and X <= d.sectors[b]}
                assert got == brute, (b, got, brute)
                rules_checked += len(got)
            # binary part against plain column containment
            full_binary = {rule_key(r)
                           for r in binary_part(reduced, order, full=True)}
            want_binary = set()
            for x in reduced.attributes:
                for y in reduced.attributes:
                    if x != y and (reduced.support_of_attributes({y})
                                   < reduced.support_of_attributes({x})):
                        want_binary.add((frozenset({y}), x))
            assert full_binary == want_binary
            # one ordered pass equals the table closure on the reduced
            # universe, and misses only saturated removals on the full one
            res_red = compute_basis(reduced)
            ordered = evaluation_order(res_red.rules, res_red.order)
            for _ in range(200):
                x = {a for a in reduced.attributes if rng.random() < 0.35}
                assert ordered_closure(ordered, x) == reduced.closure(x), x
        return f", 200 tables, {rules_checked} covers, 0 mismatches"

    checked("criterion 4: covers match brute force; one-pass closure "
            "equals table closure", body, budget=60.0)


def test_criterion_5_refinement_equivalence():
    def body():
        rules_checked = 0
        for ctx, reduced, order, d, refined in c4_corpus():
            for r in refined:
                if len(r.premise) < 2:
                    continue
                expected = not replacement_excluded(reduced, order,
                                                    r.premise, r.conclusion)
                assert r.in_d_basis == expected, (r.premise, r.conclusion)
                rules_checked += 1
        return f", {rules_checked} rules, 0 disagreements"

    checked("criterion 5: down-replacement flag equals exhaustive "
            "replacement", body)


# -- criterion 6: leave-k-out ----------------------------------------------------


def test_criterion_6_leave_k_out():
    def body():
        rng = random.Random(601)
        for _ in range(6):
            ctx = random_context(rng, 8, 10, rng.choice([0.4, 0.6]))
            rules = leave_k_out_rules(ctx, 1)
            floor = Fraction(7, 8)
            all_attr_idx = list(range(len(ctx.attributes)))
            for r in rules:
                assert r.confidence >= floor, rule_key(r)
                exact_somewhere = False
                for drop in range(8):
                    sub = ctx.restrict([i for i in range(8) if i != drop],
                                       all_attr_idx)
                    again = measure(sub, r.premise, r.conclusion)
                    if again.confidence == 1:
                        exact_somewhere = True
                        break
                assert exact_somewhere, rule_key(r)
            # k = 0 collapses to the plain pipeline, byte for byte
            assert text_lines(ctx, leave_k_out_rules(ctx, 0)) == \
                text_lines(ctx, compute_basis(ctx).rules)

    checked("criterion 6: leave-one-out confidence floor 7/8 + exactness; "
            "k=0 is the plain pipeline", body)


# -- criteria 7 and 8: performance and determinism --------------------------------


_PERF_CACHE: dict = {}


def perf_table(key):
    if key in _PERF_CACHE:
        return _PERF_CACHE[key]
    if key == "20x40":
        ctx = random_context(random.Random(720), 20, 40, 0.2)
    else:
        ctx = random_context(random.Random(750), 50, 100, 0.2)
    _PERF_CACHE[key] = ctx
    return ctx


_SERIAL_RUNS: dict = {}


def serial_run(key):
    """Timed single-worker run, reduced to (digest, rule count, seconds)."""
    if key in _SERIAL_RUNS:
        return _SERIAL_RUNS[key]
    ctx = perf_table(key)
    started = time.perf_counter()
    result = compute_basis(ctx, worker_count=1)
    elapsed = time.perf_counter() - started
    digest = stream_digest(ctx, result.packed)
    _SERIAL_RUNS[key] = (digest, len(result.packed), elapsed)
    del result
    return _SERIAL_RUNS[key]


def test_criterion_7_performance_smoke():
    def body():
        _, n_small, t_small = serial_run("20x40")
        assert t_small < 10.0, f"20x40 run took {t_small:.2f}s"
        _, n_big, t_big = serial_run("50x100")
        assert t_big < 1800.0, f"50x100 run took {t_big:.2f}s"
        return (f", 20x40 d0.2: {t_small:.2f}s/{n_small} rules; "
                f"50x100 d0.2: {t_big:.1f}s/{n_big} rules")

    checked("criterion 7: performance smoke (<10s small, <30min large; "
            "counts recorded, not asserted)", body)


def test_criterion_8_worker_determinism():
    def body():
        for key in ("20x40", "50x100"):
            ctx = perf_table(key)
            serial_digest, n_serial, _ = serial_run(key)
            result = compute_basis(ctx, worker_count=8)
            parallel_digest = stream_digest(ctx, result.packed)
            n_parallel = len(result.packed)
            del result
            assert n_serial == n_parallel, key
            assert serial_digest == parallel_digest, key
        return ", workers 1 vs 8 byte-identical on both tables"

    checked("criterion 8: worker-count determinism", body)
