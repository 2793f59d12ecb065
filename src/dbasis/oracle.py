"""Definition-level reference implementations.

The tests check the fast paths against them, and ``dbasis concepts``
lists a small table's closed sets with ``enumerate_concepts``; ``dbasis
run`` never imports this module.  Everything here is exponential and
guarded by hard size limits (``OracleSizeError``, which lives in
``context`` so the CLI can catch it without loading this module).  None
of it shares code with the fast paths it is used to check: concepts come
from subset enumeration, duals from testing all vertex subsets or from
edge-by-edge multiplication, covers from minimality checks over the
powerset, and arrows from the lattice itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .context import BinaryContext, OracleSizeError, _bits
from .dualization import Hypergraph


@dataclass(frozen=True)
class Concept:
    extent: frozenset[str]
    intent: frozenset[str]


def enumerate_concepts(ctx: BinaryContext) -> list[Concept]:
    """All formal concepts, by closing every attribute subset (<= 20 attrs)."""
    m = len(ctx.attributes)
    if m > 20:
        raise OracleSizeError(f"enumerate_concepts limited to 20 attributes, got {m}")
    seen = set()
    out = []
    for mask in range(1 << m):
        extent = ctx.extent_mask(mask)
        intent = ctx.intent_mask(extent)
        if intent not in seen:
            seen.add(intent)
            out.append(Concept(frozenset(ctx._obj_labels(extent)),
                               frozenset(ctx._attr_labels(intent))))
    out.sort(key=lambda c: (len(c.intent), sorted(c.intent)))
    return out


def brute_dual(h: Hypergraph) -> Hypergraph:
    """Minimal transversals by checking every vertex subset (<= 20 vertices)."""
    n = h.vertex_count
    if n > 20:
        raise OracleSizeError(f"brute_dual limited to 20 vertices, got {n}")
    edges = [sum(1 << v for v in e) for e in h.edges]
    if not edges:
        return Hypergraph(n, (frozenset(),))
    hits = [s for s in range(1 << n) if all(s & e for e in edges)]
    hitset = set(hits)
    minimal = []
    for s in hits:
        if all((s & ~(1 << v)) not in hitset for v in _bits(s)):
            minimal.append(frozenset(_bits(s)))
    minimal.sort(key=lambda t: (len(t), sorted(t)))
    return Hypergraph(n, tuple(minimal))


def _absorb(family: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    sets = sorted(set(family), key=len)
    kept: list[frozenset[int]] = []
    for s in sets:
        if not any(k <= s for k in kept):
            kept.append(s)
    return kept


def berge_dual(h: Hypergraph) -> Hypergraph:
    """Edge-by-edge transversal multiplication with absorption."""
    partial: list[frozenset[int]] = [frozenset()]
    for e in h.edges:
        partial = _absorb(t | {v} for t in partial for v in e)
    partial.sort(key=lambda t: (len(t), sorted(t)))
    return Hypergraph(h.vertex_count, tuple(partial))


def brute_min_covers(ctx: BinaryContext, b: str, *,
                     include_binary: bool = False) -> list[frozenset[str]]:
    """Inclusion-minimal premises X with b in closure(X), b not in X.

    With ``include_binary`` false only premises of size >= 2 are
    returned.  When b already lies in closure(∅) the sole minimal
    premise is the empty set and ``[frozenset()]`` is returned
    regardless of the flag.  Limited to 12 attributes.
    """
    m = len(ctx.attributes)
    if m > 12:
        raise OracleSizeError(f"brute_min_covers limited to 12 attributes, got {m}")
    bj = ctx.attribute_index[b]
    bbit = 1 << bj
    if ctx.closure_mask(0) & bbit:
        return [frozenset()]
    others = [j for j in range(m) if j != bj]
    covers = []
    for size in range(1, len(others) + 1):
        if size == 1 and not include_binary:
            continue
        for combo in itertools.combinations(others, size):
            mask = sum(1 << j for j in combo)
            if not ctx.closure_mask(mask) & bbit:
                continue
            if any(ctx.closure_mask(mask & ~(1 << j)) & bbit for j in combo):
                continue  # not minimal
            covers.append(frozenset(ctx.attributes[j] for j in combo))
    covers.sort(key=lambda c: (len(c), sorted(c)))
    return covers


def arrows_via_lattice(ctx: BinaryContext):
    """Arrow relations read off the concept lattice itself.

    An up arrow at (attribute j, object i) means object i's element is
    maximal among elements not above j's element; a down arrow means
    j's element is minimal among elements not below i's element.
    Returns two sets of (attribute, object) label pairs.
    """
    m = len(ctx.attributes)
    if m > 20:
        raise OracleSizeError(f"arrows_via_lattice limited to 20 attributes, got {m}")
    closed = set()
    for mask in range(1 << m):
        closed.add(ctx.closure_mask(mask))
    elements = sorted(closed)
    up = set()
    down = set()
    for j, attr in enumerate(ctx.attributes):
        beta = ctx.closure_mask(1 << j)
        for i, obj in enumerate(ctx.objects):
            if ctx.bit(i, j):
                continue
            mu = ctx.row_masks[i]
            if all(beta & x == beta
                   for x in elements if x & mu == mu and x != mu):
                up.add((attr, obj))
            if all(x & mu == x
                   for x in elements if x & beta == x and x != beta):
                down.add((attr, obj))
    return up, down


def closure_from_rules(rules, attrs: Iterable[str]) -> set[str]:
    """Fixpoint closure of an attribute set under a list of implications."""
    out = set(attrs)
    changed = True
    while changed:
        changed = False
        for rule in rules:
            if rule.conclusion not in out and rule.premise <= out:
                out.add(rule.conclusion)
                changed = True
    return out


def replacement_excluded(ctx: BinaryContext, order, premise: frozenset[str],
                         conclusion: str) -> bool:
    """Exhaustive down-replacement test for membership in the D-basis.

    The rule is excluded when some premise attribute x can be replaced
    by a set Y that x implies, where Y alone does not imply x back,
    without breaking the rule.  Tries every subset of the attributes
    strictly below x (singleton closures coincide with the order, and
    any Y containing x itself fails the Y-does-not-imply-x condition).
    """
    for x in premise:
        rest = premise - {x}
        mask = order.below_masks[order.elements.index(x)]
        below = sorted(order.elements[k] for k in _bits(mask))
        for size in range(len(below) + 1):
            for combo in itertools.combinations(below, size):
                if x in ctx.closure(combo):
                    continue
                if conclusion in ctx.closure(rest | set(combo)):
                    return True
    return False


def brute_d_sectors(ctx: BinaryContext, order) -> dict[str, frozenset[str]]:
    """D-relation read off brute-force minimal covers, per its definition.

    For each attribute b the sector is the union of premises of
    non-binary minimal covers of b that survive exhaustive
    down-replacement.
    """
    sectors = {}
    for b in ctx.attributes:
        members: set[str] = set()
        for premise in brute_min_covers(ctx, b):
            if premise and not replacement_excluded(ctx, order, premise, b):
                members |= premise
        sectors[b] = frozenset(members)
    return sectors


def rule_metrics(ctx: BinaryContext, premise: Iterable[str], conclusion: str):
    """(support, premise_support, confidence) counted straight off the table."""
    premise = set(premise)
    sup_rows = [g for g in ctx.objects
                if premise <= ctx.support_of_objects([g])]
    hit_rows = [g for g in sup_rows
                if conclusion in ctx.support_of_objects([g])]
    if not sup_rows:
        return len(hit_rows), 0, Fraction(1)
    return len(hit_rows), len(sup_rows), Fraction(len(hit_rows), len(sup_rows))
