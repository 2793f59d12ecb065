"""Hypergraph dualization: enumeration of all minimal transversals.

One kernel, ``_transversals``, does every search.  It takes the edges
as int masks over vertex ids and is a depth-first search in the style
of MMCS (Murakami & Uno, "Efficient algorithms for dualizing
large-scale hypergraphs", 2014).  It grows a partial transversal one
vertex at a time, always branching on a still-uncovered edge, and keeps
for every chosen vertex the set of edges only it hits (its critical
edges).  Each node skips, by one mask, the branch candidates that hit
every critical edge of some chosen vertex, so every emitted set is
minimal by construction, and emits a child that covers the last edges
in place, without recursing.  The candidate-set bookkeeping guarantees
each minimal transversal is emitted exactly once.

The search can also carry an extent: each node holds a start mask
AND-ed with the chosen vertices' masks (in the rule pipeline, the
conclusion's column and the premise columns of the original table).
A transversal below a node is a superset of the node's chosen set, so
its extent is a subset of the node's and the bit count only falls along
a branch.  A branch whose count has dropped below a floor is cut: nothing
it could emit would reach the floor, and the other branches go on.

``Hypergraph`` and its frozenset edges are the library and CLI edge:
``minimize``, ``dualize_streaming`` and ``dualize`` convert to masks,
run the same ``_minimal`` and ``_transversals`` the rule pipeline runs
on its sector masks, and convert back.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .context import _bits, _transpose


@dataclass(frozen=True)
class Hypergraph:
    """Vertices 0..vertex_count-1 and a tuple of edges (frozensets)."""

    vertex_count: int
    edges: tuple[frozenset[int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "edges",
                           tuple(frozenset(e) for e in self.edges))
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        for e in self.edges:
            for v in e:
                if not 0 <= v < self.vertex_count:
                    raise ValueError(f"vertex {v} out of range 0..{self.vertex_count - 1}")

    @classmethod
    def from_edges(cls, edges: Iterable[Iterable[int]],
                   vertex_count: int | None = None) -> "Hypergraph":
        es = tuple(frozenset(e) for e in edges)
        if vertex_count is None:
            vertex_count = max((max(e) + 1 for e in es if e), default=0)
        return cls(vertex_count, es)


def _edge_masks(h: Hypergraph, op: str) -> list[int]:
    if any(not e for e in h.edges):
        raise ValueError(f"{op}: empty edge (its dual would be empty)")
    return [sum(1 << v for v in e) for e in h.edges]


def _minimal(edges: Iterable[int]) -> list[int]:
    """The distinct inclusion-minimal masks, by size then vertex order."""
    # bin(e)[:1:-1] spells e's bits lowest first, so among masks of one
    # size the vertex order is the reverse string order (and cheap)
    ordered = sorted(set(edges), key=lambda e: bin(e)[:1:-1], reverse=True)
    ordered.sort(key=int.bit_count)
    kept: list[int] = []
    for e in ordered:
        if all(k & ~e for k in kept):
            kept.append(e)
    return kept


def minimize(h: Hypergraph) -> Hypergraph:
    """Drop duplicate and containing edges; sort by size then vertex order."""
    return Hypergraph(h.vertex_count, tuple(
        frozenset(_bits(e)) for e in _minimal(_edge_masks(h, "minimize"))))


def _transversals(edges: Sequence[int],
                  emit: Callable[[list[int], int], object],
                  masks: Sequence[int] | None = None, start: int = 0,
                  floor: int = 0) -> int:
    """Call ``emit(chosen, extent)`` per minimal transversal; return how many.

    ``edges`` are vertex masks; an edge 0 has no transversal and no
    edge gives the empty one.  ``chosen`` lists the transversal's
    vertices; it is the search's own list, so the sink copies what it
    keeps.  The extent is ``start`` AND-ed with the chosen vertices'
    ``masks`` (0 by default).  Only transversals with at least ``floor``
    extent bits are emitted, in the order they come without a floor.

    Per node a ``forbid`` mask skips the children that would leave a
    chosen vertex redundant, and a child that covers every edge is a leaf.
    """
    if start.bit_count() < floor:
        return 0
    chosen: list[int] = []
    if not edges:
        emit(chosen, start)
        return 1
    n = max(edges).bit_length()
    vert_edges = _transpose(edges, n)
    masks = [0] * n if masks is None else masks
    count = 0

    def walk(uncov: int, cand: int, ext: int, crit: list[int]):
        # crit[k]: the edges only chosen[k] hits; uncov is never 0 here
        nonlocal count
        # take an uncovered edge with the fewest remaining candidates
        best_c = -1
        best_n = n + 1
        rest = uncov
        while rest:
            low = rest & -rest
            rest ^= low
            c = edges[low.bit_length() - 1] & cand
            k = c.bit_count()
            if k < best_n:
                best_n, best_c = k, c
                if k == 0:
                    return  # edge can no longer be hit
        cand &= ~best_c
        # forbid: the candidates hitting every critical edge of some
        # chosen vertex, which adding would leave that vertex redundant
        forbid = 0
        for cu in crit:
            f = best_c
            while cu and f:
                low = cu & -cu
                cu ^= low
                f &= edges[low.bit_length() - 1]
            forbid |= f
        todo = best_c & ~forbid
        while todo:
            low = todo & -todo
            todo ^= low
            v = low.bit_length() - 1
            ne = ext & masks[v]
            # below the floor no transversal under v reaches it
            if ne.bit_count() >= floor:
                ve = vert_edges[v]
                left = uncov & ~ve
                chosen.append(v)
                if left:
                    kept = [cu & ~ve for cu in crit]
                    kept.append(uncov & ve)
                    # the earlier branch candidates, taken or skipped,
                    # stay available to the later branches
                    walk(left, cand | best_c & (low - 1), ne, kept)
                else:
                    count += 1
                    emit(chosen, ne)
                chosen.pop()

    # a chosen vertex keeps a critical edge of its own, so the depth is
    # at most the edge count
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + len(edges))
    try:
        walk((1 << len(edges)) - 1, (1 << n) - 1, start, [])
    finally:
        sys.setrecursionlimit(limit)
    return count


def dualize_streaming(h: Hypergraph,
                      sink: Callable[[frozenset[int]], object]) -> int:
    """Feed every minimal transversal to ``sink``; return how many.

    Memory stays proportional to the recursion depth; nothing is
    materialized here, so the consumer decides what to keep.  An
    exception raised by the sink aborts the enumeration and propagates.
    Emission order is deterministic (a fixed DFS order, not sorted).
    """
    edges = _minimal(_edge_masks(h, "dualize_streaming"))
    return _transversals(edges, lambda xs, _ext: sink(frozenset(xs)))


def dualize(h: Hypergraph) -> Hypergraph:
    """The dual hypergraph: all minimal transversals, canonically sorted.

    Conventions at the degenerate ends: the dual of an edgeless
    hypergraph is the single empty transversal, and dualizing that
    single-empty-edge hypergraph yields the edgeless one back, keeping
    dualize an involution.  Any other empty edge is rejected.
    """
    if h.edges == (frozenset(),):
        return Hypergraph(h.vertex_count, ())
    out: list[frozenset[int]] = []
    dualize_streaming(h, out.append)
    out.sort(key=lambda t: (len(t), sorted(t)))
    return Hypergraph(h.vertex_count, tuple(out))


def parse_edge_list(text: str) -> Hypergraph:
    """One edge per line, space-separated vertex indices.  A text of
    exactly one empty line is the single empty edge (the dual of no
    edges, as ``format_edge_list`` writes it); other blank lines fail."""
    lines = text.splitlines()
    if lines == [""]:
        return Hypergraph(0, (frozenset(),))
    edges = []
    for lineno, ln in enumerate(lines, start=1):
        toks = ln.split()
        if not toks:
            raise ValueError(f"line {lineno}: empty edge")
        # int() alone would also take '1_0', '+2' and non-ASCII digits
        if not (ln.isascii() and all(map(str.isdigit, toks))):
            raise ValueError(f"line {lineno}: vertex indices must be ASCII "
                             "decimal integers")
        edges.append(frozenset(map(int, toks)))
    return Hypergraph.from_edges(edges)


def format_edge_list(h: Hypergraph) -> str:
    return "".join(" ".join(str(v) for v in sorted(e)) + "\n" for e in h.edges)
