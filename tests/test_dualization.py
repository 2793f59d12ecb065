import random
import sys

import pytest

from dbasis import Hypergraph, dualize, dualize_streaming, format_edge_list, minimize, parse_edge_list
from dbasis.context import _transpose
from dbasis.dualization import _transversals
from dbasis.oracle import berge_dual, brute_dual

from helpers import random_hypergraph


def edge_sets(h):
    return set(h.edges)


def test_hypergraph_validates():
    with pytest.raises(ValueError):
        Hypergraph(2, (frozenset({2}),))
    with pytest.raises(ValueError):
        Hypergraph(-1, ())
    h = Hypergraph.from_edges([[0, 1], [1]])
    assert h.vertex_count == 2
    assert Hypergraph.from_edges([], vertex_count=3).vertex_count == 3


def test_minimize_absorbs_and_dedups():
    h = Hypergraph.from_edges([[0, 1, 2], [0, 1], [1, 0], [2]])
    assert edge_sets(minimize(h)) == {frozenset({0, 1}), frozenset({2})}
    with pytest.raises(ValueError):
        minimize(Hypergraph(1, (frozenset(),)))


def test_dualize_known_cases():
    tri = Hypergraph.from_edges([[0, 1], [1, 2], [0, 2]])
    assert edge_sets(dualize(tri)) == {frozenset({0, 1}), frozenset({1, 2}),
                                       frozenset({0, 2})}
    single = Hypergraph.from_edges([[0, 1, 2]])
    assert edge_sets(dualize(single)) == {frozenset({0}), frozenset({1}),
                                          frozenset({2})}
    disjoint = Hypergraph.from_edges([[0], [1, 2]])
    assert edge_sets(dualize(disjoint)) == {frozenset({0, 1}), frozenset({0, 2})}


def test_dualize_degenerate_conventions():
    edgeless = Hypergraph(3, ())
    top = dualize(edgeless)
    assert top.edges == (frozenset(),)
    assert dualize(top).edges == ()
    with pytest.raises(ValueError):
        dualize(Hypergraph.from_edges([[0], []]))


def test_dualize_output_is_canonical_and_sperner():
    rng = random.Random(3)
    for _ in range(50):
        h = random_hypergraph(rng, 8, 6)
        d = dualize(h)
        assert list(d.edges) == sorted(d.edges, key=lambda t: (len(t), sorted(t)))
        for e in d.edges:
            for f in d.edges:
                assert e == f or not e <= f


def test_dualize_matches_both_oracles():
    rng = random.Random(5)
    for _ in range(200):
        h = random_hypergraph(rng, 9, 7)
        fast = edge_sets(dualize(h))
        assert fast == edge_sets(brute_dual(h))
        assert fast == edge_sets(berge_dual(h))


def test_double_dual_is_identity_on_sperner_inputs():
    rng = random.Random(9)
    for _ in range(100):
        h = minimize(random_hypergraph(rng, 8, 6))
        assert edge_sets(dualize(dualize(h))) == edge_sets(h)


def test_streaming_matches_batch_and_is_deterministic():
    rng = random.Random(17)
    for _ in range(40):
        h = random_hypergraph(rng, 8, 6)
        seen = []
        n = dualize_streaming(h, seen.append)
        assert n == len(seen) == len(dualize(h).edges)
        assert set(seen) == edge_sets(dualize(h))
        again = []
        dualize_streaming(h, again.append)
        assert seen == again


def test_streaming_sink_exception_propagates():
    h = Hypergraph.from_edges([[0, 1]])

    class Stop(Exception):
        pass

    def sink(t):
        raise Stop

    with pytest.raises(Stop):
        dualize_streaming(h, sink)


def edge_masks(h):
    return [sum(1 << v for v in e) for e in h.edges]


def has_good_critical_edges(edges, xs, good):
    """Every vertex x of xs has an edge that only x hits among xs and
    that good[x] holds (every edge when good lacks x)."""
    for x in xs:
        others = sum(1 << v for v in xs if v != x)
        g = good.get(x, -1)
        if not any(g >> k & 1 and e >> x & 1 and not e & others
                   for k, e in enumerate(edges)):
            return False
    return True


def check_kernel(h, want, rng):
    """The kernel on h yields each transversal of ``want`` once, carries
    the extents of random masks, flags by random good-edge masks, and
    filters that sequence by a floor.  The yielded tuples are kept as
    they are, so a search that reused or changed one after yielding it
    would fail here."""
    edges = edge_masks(h)
    plain = [xs for xs, ext, flag in _transversals(edges)]
    assert all(type(xs) is tuple for xs in plain)
    assert len(plain) == len(set(map(frozenset, plain)))
    assert set(map(frozenset, plain)) == want
    # no good masks: every edge is good, and every flag True
    assert all(flag for _, _, flag in _transversals(edges))
    good = {v: rng.getrandbits(len(edges)) for v in range(h.vertex_count)
            if rng.random() < 0.6}
    flagged = list(_transversals(edges, good=good))
    assert [xs for xs, _, _ in flagged] == plain
    assert [flag for _, _, flag in flagged] == [
        has_good_critical_edges(edges, xs, good) for xs in plain]
    masks = [rng.getrandbits(12) for _ in range(h.vertex_count)]
    start, within = rng.getrandbits(12) | 0xF00, rng.getrandbits(12)
    carried = list(_transversals(edges, masks=masks, start=start, good=good))
    assert [(xs, flag) for xs, _, flag in carried] == [
        (xs, flag) for xs, _, flag in flagged]
    for xs, ext, _ in carried:
        want_ext = start
        for v in xs:
            want_ext &= masks[v]
        assert ext == want_ext
    for floor in range(within.bit_count() + 2):
        got = list(_transversals(edges, masks=masks, start=start & within,
                                 floor=floor, good=good))
        assert got == [(xs, ext & within, flag) for xs, ext, flag in carried
                       if (ext & within).bit_count() >= floor]


def test_floor_emits_exactly_the_unpruned_transversals_meeting_it():
    rng = random.Random(29)
    for _ in range(80):
        h = random_hypergraph(rng, 9, 7)
        check_kernel(h, edge_sets(dualize(h)), rng)


def test_kernel_on_hypergraphs_deep_enough_to_reject_redundant_children():
    # 10-14 vertices and 12-30 edges of 2-5 vertices: transversals of 4
    # or more vertices, so chosen vertices lose critical edges deep in
    # the search and children are rejected there
    rng = random.Random(31)
    for _ in range(200):
        nv = rng.randint(10, 14)
        h = Hypergraph.from_edges(
            [rng.sample(range(nv), rng.randint(2, 5))
             for _ in range(rng.randint(12, 30))], vertex_count=nv)
        want = edge_sets(berge_dual(h))
        assert max(map(len, want)) >= 4
        check_kernel(h, want, rng)


def test_single_edge_gives_one_vertex_leaves_at_the_root():
    assert list(_transversals([0b111])) == [((0,), 0, True), ((1,), 0, True),
                                            ((2,), 0, True)]
    masks = [0b001, 0b011, 0b111]
    assert list(_transversals([0b111], masks=masks, start=0b111,
                              floor=2)) == [((1,), 0b011, True),
                                            ((2,), 0b111, True)]
    assert list(_transversals([0b111], masks=masks, start=0b111,
                              floor=3)) == [((2,), 0b111, True)]
    # a root leaf's one critical edge is the edge itself
    assert list(_transversals([0b111], good={0: 0, 2: 1})) == [
        ((0,), 0, False), ((1,), 0, True), ((2,), 0, True)]


def test_floor_argument_checks():
    assert list(_transversals([], masks=[1, 2], start=3, floor=3)) == []
    assert list(_transversals([], masks=[1, 2], start=3, floor=2)) == [
        ((), 3, True)]
    assert list(_transversals([])) == [((), 0, True)]


def test_kernel_emits_vertex_ids_and_no_transversal_of_an_empty_edge():
    got = [sorted(xs) for xs, _, _ in _transversals([0b011, 0b110])]
    assert sorted(got) == [[0, 2], [1]]
    assert list(_transversals([0b1, 0])) == []
    assert list(_transversals([0])) == []


def test_vertex_ids_past_bit_64_and_128():
    rng = random.Random(67)
    for _ in range(60):
        edges = [frozenset(rng.sample(range(201), rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 6))]
        edges.append(frozenset({rng.randint(129, 200)}))
        h = Hypergraph.from_edges(edges)
        want = edge_sets(berge_dual(h))
        # the kernel on the ids as given; the library renumbers them
        assert {frozenset(xs)
                for xs, _, _ in _transversals(edge_masks(h))} == want
        assert edge_sets(dualize(h)) == want
        seen = []
        assert dualize_streaming(h, seen.append) == len(want)
        assert set(seen) == want
        assert any(max(t) >= 128 for t in seen)


def test_deep_transversal_does_not_exhaust_the_stack(monkeypatch):
    # the search's depth is its own stack's, so it never needs the
    # process-wide recursion limit raised (a setting other threads share)
    def refuse(limit):
        raise AssertionError("the dualizer changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    h = Hypergraph.from_edges([[v] for v in range(1100)])
    assert dualize(h).edges == (frozenset(range(1100)),)
    assert dualize_streaming(h, lambda t: None) == 1


def test_masks_are_as_wide_as_the_vertices_that_occur(monkeypatch):
    widths = []

    def transpose(masks, width):
        widths.append(width)
        return _transpose(masks, width)

    monkeypatch.setattr("dbasis.dualization._transpose", transpose)
    h = parse_edge_list("999983\n1 2\n1 999983 7\n")
    assert format_edge_list(minimize(h)) == "999983\n1 2\n"
    assert format_edge_list(dualize(h)) == "1 999983\n2 999983\n"
    # the search transposes over the four vertices that occur, not a
    # million bits
    assert widths == [4]


def test_edge_list_round_trip():
    h = Hypergraph.from_edges([[2, 0], [1]])
    text = format_edge_list(h)
    assert text == "0 2\n1\n"
    assert edge_sets(parse_edge_list(text)) == edge_sets(h)


@pytest.mark.parametrize("text", [
    "0 x\n", "-1\n", "0\n\n1\n",
    "1_0\n", "+2\n", "\u0663 1\n",  # int() would read these as 10, 2 and 3
])
def test_parse_edge_list_rejects(text):
    with pytest.raises(ValueError):
        parse_edge_list(text)
