import random

import pytest

from dbasis import Hypergraph, dualize, dualize_streaming, format_edge_list, minimize, parse_edge_list
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


def test_floor_emits_exactly_the_unpruned_transversals_meeting_it():
    rng = random.Random(29)
    for _ in range(80):
        h = random_hypergraph(rng, 9, 7)
        masks = [rng.getrandbits(12) for _ in range(h.vertex_count)]
        start, within = rng.getrandbits(12) | 0xF00, rng.getrandbits(12)
        plain = []
        dualize_streaming(h, plain.append)
        carried = []
        dualize_streaming(h, lambda t, ext: carried.append((t, ext)),
                          vertex_masks=masks, start_mask=start)
        assert [t for t, _ in carried] == plain
        for t, ext in carried:
            want = start
            for v in t:
                want &= masks[v]
            assert ext == want
        for floor in range(within.bit_count() + 2):
            got = []
            n = dualize_streaming(h, lambda t, ext: got.append((t, ext)),
                                  vertex_masks=masks, start_mask=start,
                                  floor=floor, floor_mask=within)
            assert got == [(t, ext) for t, ext in carried
                           if (ext & within).bit_count() >= floor]
            assert n == len(got)


def test_floor_argument_checks():
    h = Hypergraph.from_edges([[0, 1]])
    with pytest.raises(ValueError):
        dualize_streaming(h, print, floor=1)
    with pytest.raises(ValueError):
        dualize_streaming(h, print, vertex_masks=[1])
    edgeless = Hypergraph(2, ())
    seen = []

    def sink(t, ext):
        seen.append((t, ext))

    assert dualize_streaming(edgeless, sink, vertex_masks=[1, 2],
                             start_mask=3, floor=3, floor_mask=7) == 0
    assert dualize_streaming(edgeless, sink, vertex_masks=[1, 2],
                             start_mask=3, floor=2, floor_mask=7) == 1
    assert seen == [(frozenset(), 3)]


def test_edge_list_round_trip():
    h = Hypergraph.from_edges([[2, 0], [1]])
    text = format_edge_list(h)
    assert text == "0 2\n1\n"
    assert edge_sets(parse_edge_list(text)) == edge_sets(h)


@pytest.mark.parametrize("text", ["0 x\n", "-1\n", "0\n\n1\n"])
def test_parse_edge_list_rejects(text):
    with pytest.raises(ValueError):
        parse_edge_list(text)
