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
vertex, so every yielded set is minimal by construction, and yields a
child that covers the last edges in place, without pushing it.  The
candidate-set bookkeeping yields each minimal transversal exactly once.

Each transversal comes with a flag read off the same critical edges:
given a mask of "good" edges per vertex, it is True iff every chosen
vertex has a good critical edge.  The rule pipeline marks an edge good
for x when its up-arrow row holds every column below x, which makes the
flag the D-basis flag (Adaricheva, Nation & Rand, "Ordered direct
implicational basis of a finite closure system", 2013).  The children
that would lose that property are found by one more mask per node, built
at the node's first leaf, so the flag costs one mask test per leaf.

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
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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
                  good: Mapping[int, int] | None = None
                  ) -> Iterator[tuple[tuple[int, ...], int, bool]]:
    """Yield ``(chosen, extent, flag)`` per minimal transversal.

    ``edges`` are vertex masks; an edge 0 has no transversal and no
    edge gives the empty one.  ``chosen`` is a tuple of the
    transversal's vertices, in the order the search took them.  The
    extent is ``start`` AND-ed with the chosen vertices' ``masks`` (0 by
    default).  Only transversals with at least ``floor`` extent bits are
    yielded, in the order they come without a floor.

    ``good`` maps a vertex to a mask over edge positions, the edges good
    for it; a vertex it lacks has every edge good.  The flag is True iff
    every chosen vertex has a good critical edge, so without ``good``
    every flag is True.  (In the rule pipeline an edge is good for x
    when its up-arrow row holds every column below x, and the flag is
    the D-basis flag.)

    Per node a ``forbid`` mask skips the children that would leave a
    chosen vertex redundant, and a child that covers every edge is a
    leaf.  At the node's first leaf that meets the floor a ``kill`` mask,
    built like ``forbid``, takes the children that would leave a chosen
    vertex of ``good`` without a good critical edge.
    """
    if start.bit_count() < floor:
        return
    if not edges:
        yield (), start, True
        return
    good = good or {}
    n = max(edges).bit_length()
    vert_edges = _transpose(edges, n)
    masks = [0] * n if masks is None else masks
    # a node: chosen, uncovered edges (never 0), candidates, extent, and
    # crit[k], the edges only chosen[k] hits
    stack = [((), (1 << len(edges)) - 1, (1 << n) - 1, start, [])]
    while stack:
        chosen, uncov, cand, ext, crit = stack.pop()
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
        todo = best_c & ~forbid
        kill = None  # built at the first leaf: most nodes have none
        while todo:
            low = todo & -todo
            todo ^= low
            v = low.bit_length() - 1
            ne = ext & masks[v]
            # below the floor no transversal under v reaches it
            if ne.bit_count() >= floor:
                ve = vert_edges[v]
                left = uncov & ~ve
                if left:
                    kept = [cu & ~ve for cu in crit]
                    kept.append(uncov & ve)
                    # the earlier branch candidates, taken or skipped,
                    # stay available to the later branches
                    stack.append((chosen + (v,), left,
                                  cand | best_c & (low - 1), ne, kept))
                    continue
                if kill is None:
                    # kill: the candidates hitting every good critical
                    # edge of some chosen vertex; for a vertex good lacks
                    # those are in forbid, so only good's vertices count
                    kill = 0
                    for x, cu in zip(chosen, crit):
                        if x in good:
                            cu &= good[x]
                            f = best_c
                            while cu and f:
                                e = cu & -cu
                                cu ^= e
                                f &= edges[e.bit_length() - 1]
                            kill |= f
                # v's critical edges are the uncovered ones
                g = good.get(v)
                yield (chosen + (v,), ne,
                       not kill & low and (g is None or uncov & g != 0))


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
    for chosen, _ext, _flag in _transversals(_minimal(edges)):
        sink(frozenset(ids[k] for k in chosen))
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
