"""Hypergraph dualization: enumeration of all minimal transversals.

One kernel, ``_transversals``, does every search.  It takes the edges
as int masks over vertex ids and is a depth-first search in the style
of MMCS (Murakami & Uno, "Efficient algorithms for dualizing
large-scale hypergraphs", 2014), run as a generator over an explicit
stack of plain node tuples, so no recursion limit bounds its depth.
It grows a partial transversal one vertex at a time, always branching
on a still-uncovered edge, and keeps for every chosen vertex the set of
edges only it hits (its critical edges).  Each node skips, by one mask,
the branch candidates that hit every critical edge of some chosen
vertex, so every transversal is minimal by construction.  The
candidate-set bookkeeping gives each minimal transversal exactly once.

Most transversals are leaf children of a few nodes: a candidate that
hits every uncovered edge (one AND over them, taken while the branch
edge is picked) covers the last edges and needs no node of its own.  So
the kernel yields one item per node with leaf children, ``(chosen, ext,
leaves, flagged)``, whose mask ``leaves`` stands for the transversals
``chosen + (v,)``, and pushes only the other candidates.  A consumer
builds what a node's transversals share once and finishes each leaf
with a few int operations; ``dualize_streaming`` expands the leaves in
ascending v, the order the search finds them in.

Each transversal comes with a flag read off the same critical edges:
given per edge the vertices it is good for, it is True iff every chosen
vertex has a good critical edge.  The rule pipeline marks an edge good
for x when its up-arrow row holds every column below x, which makes the
flag the D-basis flag (Adaricheva, Nation & Rand, "Ordered direct
implicational basis of a finite closure system", 2013).  A leaf's
critical edges are the uncovered ones, so one OR of their good masks
and one more mask per node, of the children that would leave a chosen
vertex without a good critical edge, give the node's ``flagged`` leaves.

The search can also carry an extent: each node holds a start mask
AND-ed with the chosen vertices' masks (in the rule pipeline, the
conclusion's column and the premise columns of the original table).
A transversal below a node is a superset of the node's chosen set, so
its extent is a subset of the node's and the bit count only falls along
a branch.  A branch whose count has dropped below a floor is cut: nothing
it could yield would reach the floor, and the other branches go on.

``Hypergraph`` and its frozenset edges are the library and CLI edge:
``minimize``, ``dualize_streaming`` and ``dualize`` convert to masks,
run ``_minimal`` (which puts the edges in the ``_search_order`` the rule
pipeline gives its sector masks) and the same ``_transversals``, and
convert back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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


def _edge_masks(h: Hypergraph, op: str) -> tuple[list[int], list[int]]:
    """``ids`` and the edges as masks whose bit k is vertex ``ids[k]``:
    the vertices that occur, in order, so a mask is as wide as their
    count, not the largest id."""
    if any(not e for e in h.edges):
        raise ValueError(f"{op}: empty edge (its dual would be empty)")
    ids = sorted(set().union(*h.edges))
    rank = {v: k for k, v in enumerate(ids)}
    return ids, [sum(1 << rank[v] for v in e) for e in h.edges]


def _search_order(edges: Iterable[int]) -> list[int]:
    """The masks by size, then vertex list: the order the search
    branches best in."""
    # bin(e)[:1:-1] spells e's bits lowest first, so among masks of one
    # size the vertex order is the reverse string order (and cheap)
    ordered = sorted(edges, key=lambda e: bin(e)[:1:-1], reverse=True)
    ordered.sort(key=int.bit_count)
    return ordered


def _minimal(edges: Iterable[int]) -> list[int]:
    """The distinct inclusion-minimal masks, in ``_search_order``."""
    kept: list[int] = []
    for e in _search_order(set(edges)):
        if all(k & ~e for k in kept):
            kept.append(e)
    return kept


def minimize(h: Hypergraph) -> Hypergraph:
    """Drop duplicate and containing edges; sort by size then vertex order."""
    ids, edges = _edge_masks(h, "minimize")
    return Hypergraph(h.vertex_count, tuple(
        frozenset(ids[k] for k in _bits(e)) for e in _minimal(edges)))


def _transversals(edges: Sequence[int], masks: Sequence[int] | None = None,
                  start: int = 0, floor: int = 0,
                  good: Sequence[int] | None = None
                  ) -> Iterator[tuple[tuple[int, ...], int, int, int]]:
    """Yield ``(chosen, extent, leaves, flagged)`` per search node with
    leaf children.

    ``edges`` are vertex masks; an edge 0 has no transversal.  Each
    vertex v of the mask ``leaves`` gives the minimal transversal
    ``chosen + (v,)``: ``chosen`` is a tuple of the node's vertices, in
    the order the search took them.  The node's extent is ``start``
    AND-ed with the chosen vertices' ``masks`` (0 by default), so the
    transversal's is ``extent & masks[v]``.  Only transversals with at
    least ``floor`` extent bits are given, in the order they come without
    a floor, which expands each item's leaves in ascending v.  No edge
    gives the one item ``((), start, 0, 0)``: no leaf, and its empty
    chosen set is the one transversal, flagged True.

    ``good`` holds per edge the mask of the vertices it is good for
    (without it, every edge is good for every vertex).  ``flagged``, a part of
    ``leaves``, marks the transversals each of whose vertices has a good
    critical edge.  (In the rule pipeline an edge is good for x when its
    up-arrow row holds every column below x, and the flag is the D-basis
    flag.)

    Per node a ``forbid`` mask skips the children that would leave a
    chosen vertex redundant.  The leaves are the other candidates that
    hit every uncovered edge; only the rest are pushed.  A leaf's critical
    edges are the uncovered ones, so it is flagged when one of them is
    good for it and it is not in ``kill``, built like ``forbid``: the
    candidates that would leave a chosen vertex without a good critical
    edge.
    """
    if start.bit_count() < floor:
        return
    if not edges:
        yield (), start, 0, 0
        return
    n = max(edges).bit_length()
    vert_edges = _transpose(edges, n)
    every = (1 << n) - 1
    # the edges good for each vertex that some edge is not good for
    good_of = {}
    if good is not None:
        vertices = 0
        for e in edges:
            vertices |= e
        missing = 0
        for g in good:
            missing |= vertices & ~g
        good_of = {x: sum(1 << k for k, g in enumerate(good) if g >> x & 1)
                   for x in _bits(missing)}
    masks = [0] * n if masks is None else masks
    # a node: chosen, uncovered edges (never 0), candidates, extent, and
    # crit[k], the edges only chosen[k] hits
    stack = [((), (1 << len(edges)) - 1, every, start, [])]
    while stack:
        chosen, uncov, cand, ext, crit = stack.pop()
        # take an uncovered edge with the fewest remaining candidates,
        # and AND the uncovered edges into hit, the vertices on all of them
        best_c = -1
        best_n = n + 1
        hit = every
        rest = uncov
        while rest:
            low = rest & -rest
            rest ^= low
            e = edges[low.bit_length() - 1]
            hit &= e
            c = e & cand
            k = c.bit_count()
            if k < best_n:
                best_n, best_c = k, c
                if k == 0:
                    break
        if best_n == 0:
            continue  # that edge can no longer be hit
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
        # the leaves cover the last edges; only the rest of todo is pushed
        todo = best_c & ~forbid
        leaves = todo & hit
        todo ^= leaves
        if floor:
            # below the floor no transversal under v reaches it
            rest = leaves
            leaves = 0
            while rest:
                low = rest & -rest
                rest ^= low
                if (ext & masks[low.bit_length() - 1]).bit_count() >= floor:
                    leaves |= low
        if leaves:
            # with every edge good for every vertex, each leaf is flagged
            flagged = leaves
            if good_of:
                # ghit: the vertices some uncovered edge, a critical edge
                # of each leaf, is good for
                ghit = 0
                rest = uncov
                while rest:
                    low = rest & -rest
                    rest ^= low
                    ghit |= good[low.bit_length() - 1]
                # kill: the candidates hitting every good critical edge
                # of some chosen vertex; when all its critical edges are
                # good those are in forbid
                kill = 0
                for x, cu in zip(chosen, crit):
                    g = cu & good_of.get(x, cu)
                    if g != cu:
                        f = best_c
                        while g and f:
                            low = g & -g
                            g ^= low
                            f &= edges[low.bit_length() - 1]
                        kill |= f
                flagged &= ghit & ~kill
            yield chosen, ext, leaves, flagged
        while todo:
            low = todo & -todo
            todo ^= low
            v = low.bit_length() - 1
            ne = ext & masks[v]
            if ne.bit_count() >= floor:
                ve = vert_edges[v]
                kept = [cu & ~ve for cu in crit]
                kept.append(uncov & ve)
                # the earlier branch candidates, taken or skipped, stay
                # available to the later branches
                stack.append((chosen + (v,), uncov & ~ve,
                              cand | best_c & (low - 1), ne, kept))


def dualize_streaming(h: Hypergraph,
                      sink: Callable[[frozenset[int]], object]) -> int:
    """Feed every minimal transversal to ``sink``; return how many.

    Nothing is materialized here beyond the search's stack of pending
    nodes, so the consumer decides what to keep.  An exception raised
    by the sink aborts the enumeration and propagates.  Emission order
    is deterministic (a fixed depth-first order, not sorted).
    """
    ids, edges = _edge_masks(h, "dualize_streaming")
    count = 0
    for chosen, _ext, leaves, _flagged in _transversals(_minimal(edges)):
        if not leaves:  # no edge: the empty transversal
            sink(frozenset())
            count += 1
        for v in _bits(leaves):
            sink(frozenset(ids[k] for k in chosen + (v,)))
            count += 1
    return count


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
