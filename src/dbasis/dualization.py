"""Hypergraph dualization: enumeration of all minimal transversals.

The enumerator is a depth-first search in the style of the MMCS family.
It grows a partial transversal one vertex at a time, always branching on
a still-uncovered edge, and keeps for every chosen vertex the set of
edges only it hits (its critical edges).  A branch is cut as soon as a
chosen vertex loses its last critical edge, so every emitted set is
minimal by construction, and the candidate-set bookkeeping guarantees
each minimal transversal is emitted exactly once.

Duplicate work on containment-ordered edges is avoided by minimizing
input families first; ``minimize`` is cheap and callers are expected to
run it (the in-package callers do).

The search can also carry an extent: every vertex has a mask (in the
rule pipeline, its attribute's column of objects) and each node holds
the AND of the chosen vertices' masks.  Since a transversal below a node
is a superset of the node's chosen set, its extent is a subset of the
node's, so a count of extent bits is monotone along a branch.  A branch
whose count has already dropped below a floor is cut: nothing it could
emit would reach the floor, and the other branches are unaffected.
"""

from __future__ import annotations

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


def _check_no_empty_edge(h: Hypergraph, op: str):
    if any(not e for e in h.edges):
        raise ValueError(f"{op}: empty edge (its dual would be empty)")


def minimize(h: Hypergraph) -> Hypergraph:
    """Drop duplicate and containing edges; sort by size then vertex order."""
    _check_no_empty_edge(h, "minimize")
    edges = sorted(set(h.edges), key=lambda e: (len(e), sorted(e)))
    kept: list[frozenset[int]] = []
    for e in edges:
        if not any(k <= e for k in kept):
            kept.append(e)
    return Hypergraph(h.vertex_count, tuple(kept))


def _enumerate(h: Hypergraph, emit: Callable[[frozenset[int], int], object],
               masks: Sequence[int], start: int, floor: int, within: int) -> int:
    n = h.vertex_count
    edges = [sum(1 << v for v in e) for e in h.edges]
    m = len(edges)
    vert_edges = _transpose(edges, n)
    # branch on frequent vertices first; output order stays deterministic
    rank = sorted(range(n), key=lambda v: (-vert_edges[v].bit_count(), v))
    rank_of = {v: r for r, v in enumerate(rank)}

    crit: dict[int, int] = {}
    chosen: list[int] = []
    count = 0

    def walk(uncov: int, cand: int, ext: int):
        nonlocal count
        if not uncov:
            count += 1
            emit(frozenset(chosen), ext)
            return
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
        for v in sorted(_bits(best_c), key=rank_of.__getitem__):
            ne = ext & masks[v]
            if (ne & within).bit_count() < floor:
                cand |= 1 << v  # no transversal below v reaches the floor
                continue
            ve = vert_edges[v]
            saved = []
            ok = True
            for u in chosen:
                cu = crit[u]
                ncu = cu & ~ve
                if ncu != cu:
                    saved.append((u, cu))
                    crit[u] = ncu
                    if not ncu:
                        ok = False
            if ok:
                crit[v] = uncov & ve
                chosen.append(v)
                walk(uncov & ~ve, cand, ne)
                chosen.pop()
                del crit[v]
            for u, cu in saved:
                crit[u] = cu
            cand |= 1 << v  # earlier choices stay available to later branches

    walk((1 << m) - 1, (1 << n) - 1, start)
    return count


def dualize_streaming(h: Hypergraph, sink: Callable[..., object], *,
                      vertex_masks: Sequence[int] | None = None,
                      start_mask: int = 0, floor: int = 0,
                      floor_mask: int = 0) -> int:
    """Feed every minimal transversal to ``sink``; return how many.

    Memory stays proportional to the recursion depth; nothing is
    materialized here, so the consumer decides what to keep.  An
    exception raised by the sink aborts the enumeration and propagates.
    Emission order is deterministic (a fixed DFS order, not sorted).

    Without ``vertex_masks`` the sink is called as ``sink(transversal)``.
    With them (one int per vertex) the search carries the extent of the
    chosen set, ``start_mask`` AND-ed with its vertices' masks, and calls
    ``sink(transversal, extent)``.  Only transversals with at least
    ``floor`` extent bits inside ``floor_mask`` are emitted, and a branch
    is cut as soon as its chosen set falls below the floor: each
    transversal under it is a superset of that set, so its extent is a
    subset and falls below the floor too.  The surviving transversals
    come in the same order as without a floor.
    """
    _check_no_empty_edge(h, "dualize_streaming")
    if vertex_masks is None:
        if floor:
            raise ValueError("dualize_streaming: a floor needs vertex_masks")
        vertex_masks, emit = [0] * h.vertex_count, lambda t, _ext: sink(t)
    elif len(vertex_masks) != h.vertex_count:
        raise ValueError("dualize_streaming: one mask per vertex is needed")
    else:
        emit = sink
    if (start_mask & floor_mask).bit_count() < floor:
        return 0
    if not h.edges:
        emit(frozenset(), start_mask)
        return 1
    return _enumerate(h, emit, vertex_masks, start_mask, floor, floor_mask)


def dualize(h: Hypergraph) -> Hypergraph:
    """The dual hypergraph: all minimal transversals, canonically sorted.

    Conventions at the degenerate ends: the dual of an edgeless
    hypergraph is the single empty transversal, and dualizing that
    single-empty-edge hypergraph yields the edgeless one back, keeping
    dualize an involution.  Any other empty edge is rejected.
    """
    if h.edges == (frozenset(),):
        return Hypergraph(h.vertex_count, ())
    _check_no_empty_edge(h, "dualize")
    if not h.edges:
        return Hypergraph(h.vertex_count, (frozenset(),))
    out: list[frozenset[int]] = []
    dualize_streaming(h, out.append)
    out.sort(key=lambda t: (len(t), sorted(t)))
    return Hypergraph(h.vertex_count, tuple(out))


def parse_edge_list(text: str) -> Hypergraph:
    """One edge per line, space-separated vertex indices."""
    edges = []
    for lineno, ln in enumerate(text.splitlines(), start=1):
        toks = ln.split()
        if not toks:
            raise ValueError(f"line {lineno}: empty edge")
        try:
            edge = frozenset(int(t) for t in toks)
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer vertex") from None
        if any(v < 0 for v in edge):
            raise ValueError(f"line {lineno}: negative vertex index")
        edges.append(edge)
    return Hypergraph.from_edges(edges)


def format_edge_list(h: Hypergraph) -> str:
    return "".join(" ".join(str(v) for v in sorted(e)) + "\n" for e in h.edges)
