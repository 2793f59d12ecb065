"""Shared fixtures-in-plain-code for the test modules."""

from __future__ import annotations

import random

from dbasis import BinaryContext, Hypergraph, RuleQuery, compute_basis
from dbasis.basis import line_renderer

# The 6x7 walkthrough table.  Rows 5 and 4 coincide, row 6 is the unit
# of every closure, column u duplicates c1's support, and column v is
# held by row 6 alone.
GOLDEN_CSV = """\
b,a1,a2,c1,c2,u,v
1,0,1,0,1,0,1,0
2,1,0,0,1,1,1,0
3,0,0,1,0,1,0,0
4,0,0,0,1,1,1,0
5,0,0,0,1,1,1,0
6,1,1,1,1,1,1,1
"""

GOLDEN_ROWS = [
    [0, 1, 0, 1, 0, 1, 0],
    [1, 0, 0, 1, 1, 1, 0],
    [0, 0, 1, 0, 1, 0, 0],
    [0, 0, 0, 1, 1, 1, 0],
    [0, 0, 0, 1, 1, 1, 0],
    [1, 1, 1, 1, 1, 1, 1],
]

GOLDEN_ATTRS = ["b", "a1", "a2", "c1", "c2", "u", "v"]
GOLDEN_OBJECTS = ["1", "2", "3", "4", "5", "6"]


def golden_context() -> BinaryContext:
    return BinaryContext(GOLDEN_OBJECTS, GOLDEN_ATTRS, GOLDEN_ROWS)


def reduced_golden_context() -> BinaryContext:
    # what reduce_context(golden_context()) keeps, built directly
    return BinaryContext(
        ["1", "2", "3", "4"],
        ["b", "a1", "a2", "c1", "c2"],
        [
            [0, 1, 0, 1, 0],
            [1, 0, 0, 1, 1],
            [0, 0, 1, 0, 1],
            [0, 0, 0, 1, 1],
        ],
    )


def random_context(rng: random.Random, n_objects: int, n_attrs: int,
                   density: float = 0.4) -> BinaryContext:
    rows = [[1 if rng.random() < density else 0 for _ in range(n_attrs)]
            for _ in range(n_objects)]
    return BinaryContext([f"o{i}" for i in range(1, n_objects + 1)],
                         [f"a{j}" for j in range(1, n_attrs + 1)], rows)


def random_hypergraph(rng: random.Random, max_vertices: int = 12,
                      max_edges: int = 10) -> Hypergraph:
    nv = rng.randint(1, max_vertices)
    ne = rng.randint(0, max_edges)
    edges = []
    for _ in range(ne):
        size = rng.randint(1, nv)
        edges.append(frozenset(rng.sample(range(nv), size)))
    return Hypergraph.from_edges(edges, vertex_count=nv)


def packed_lines(ctx: BinaryContext, packed, jsonl: bool = False) -> list:
    """Packed rules over ``ctx``'s columns as the output lines
    ``dbasis run`` prints for them."""
    return line_renderer(ctx.attributes, ctx.column_masks, jsonl)(packed)


def sector_candidates(reduced: BinaryContext) -> list:
    """The sector rules of a reduced table, from the pipeline: every
    minimal-covers candidate that is not an order pair (a reduced table
    has no removed attribute, hence no expansion rule)."""
    result = compute_basis(reduced, RuleQuery(basis_kind="minimal-covers"))
    assert result.reduced == reduced
    return [r for r in result.rules if len(r.premise) != 1]
