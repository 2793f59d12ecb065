"""Extraction of exact implication bases from a binary table.

The pipeline: reduce the table, compute arrows and the D-relation, then
for each attribute b dualize the sector hypergraph whose minimal
transversals are exactly the minimal non-binary premises implying b.
A final refinement pass flags the rules that survive down-replacement
(the D-basis proper), and removed attributes are translated back in.

All rule metrics (support, confidence) are counted on the original
table, never the reduced one.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Mapping

from .context import BinaryContext, ReductionRecord, _bits, reduce_context
from .dualization import Hypergraph, dualize_streaming, minimize
from .lattice import (ArrowTable, DRelation, PartialOrder, attribute_order,
                      compute_arrows, compute_d_relation)


class EmptySectorError(ValueError):
    """The attribute has no nontrivial covers (its sector is empty)."""


BASIS_KINDS = ("d-basis", "minimal-covers")


@dataclass(frozen=True)
class Implication:
    """A rule premise -> conclusion with metrics from the original table.

    Metrics and the D-basis flag do not participate in equality, so two
    measurements of the same rule compare (and hash) equal.
    """

    premise: frozenset[str]
    conclusion: str
    support: int = field(default=0, compare=False)
    premise_support: int = field(default=0, compare=False)
    confidence: Fraction = field(default=Fraction(1), compare=False)
    in_d_basis: bool = field(default=True, compare=False)

    def __post_init__(self):
        if self.conclusion in self.premise:
            raise ValueError("conclusion cannot appear in the premise")


def measure(ctx: BinaryContext, premise: Iterable[str], conclusion: str,
            in_d_basis: bool = True) -> Implication:
    """Build a rule with support counted on ``ctx``.

    A premise no row satisfies gets confidence 1 by convention (the
    rule holds vacuously).
    """
    premise = frozenset(premise)
    ext = ctx.extent_mask(ctx._attr_mask(premise))
    return _rule(premise, conclusion, ext,
                 ctx.column_masks[ctx.attribute_index[conclusion]], in_d_basis)


def _rule(premise: frozenset[str], conclusion: str, ext: int, col: int,
          in_d_basis: bool = True) -> Implication:
    """The rule whose premise has extent ``ext`` and conclusion column ``col``."""
    psup = ext.bit_count()
    sup = (ext & col).bit_count()
    conf = Fraction(1) if psup == 0 else Fraction(sup, psup)
    return Implication(premise, conclusion, support=sup, premise_support=psup,
                       confidence=conf, in_d_basis=in_d_basis)


@dataclass(frozen=True)
class RuleQuery:
    """What to extract: target attribute, support floor, basis kind."""

    target: str | None = None
    min_support: int = 0
    basis_kind: str = "d-basis"

    def __post_init__(self):
        if self.basis_kind not in BASIS_KINDS:
            raise ValueError(f"basis_kind must be one of {BASIS_KINDS}")
        if self.min_support < 0:
            raise ValueError("min_support must be non-negative")


# -- sector extraction -------------------------------------------------------


def sector_hypergraph(ctx: BinaryContext, arrows: ArrowTable, d: DRelation,
                      b: str) -> tuple[Hypergraph, tuple[str, ...]]:
    """The dualization instance for attribute b.

    Vertices are b's sector (labels returned alongside, in column
    order); for every object m with an up arrow at b the edge is the
    part of the sector NOT held by m.  A transversal therefore meets
    every such object's complement, which is exactly the condition for
    the premise to imply b.
    """
    if b not in ctx.attribute_index:
        raise KeyError(f"unknown attribute label: {b!r}")
    bj = ctx.attribute_index[b]
    sector = d.sector_masks[bj]
    if not sector:
        raise EmptySectorError(f"attribute {b!r} has no nontrivial covers")
    labels = tuple(ctx.attributes[c] for c in _bits(sector))
    vid = {c: k for k, c in enumerate(_bits(sector))}
    edges = []
    for i in _bits(arrows.up_cols[bj]):
        uncovered = sector & ~ctx.row_masks[i]
        assert uncovered, "an up-arrow object holds the whole sector"
        edges.append(frozenset(vid[c] for c in _bits(uncovered)))
    assert edges, "nonempty sector without up arrows"
    return minimize(Hypergraph(len(labels), tuple(edges))), labels


def binary_part(ctx: BinaryContext, order: PartialOrder, *,
                full: bool = False,
                metrics_ctx: BinaryContext | None = None) -> list[Implication]:
    """Binary rules of the attribute order: upper -> lower.

    By default only covering pairs are emitted; ``full`` adds the
    transitive pairs as well.
    """
    metrics = metrics_ctx or ctx
    pairs = sorted(order.pairs(),
                   key=lambda p: (ctx.attribute_index[p[0]],
                                  ctx.attribute_index[p[1]])) if full else order.covers()
    return [measure(metrics, frozenset({up}), lo) for lo, up in pairs]


def extract_sector(ctx: BinaryContext, arrows: ArrowTable, d: DRelation,
                   b: str, query: RuleQuery | None = None, *,
                   metrics_ctx: BinaryContext | None = None) -> list[Implication]:
    """Minimal non-binary covers of b, streamed out of the dualizer.

    Singleton transversals are order pairs and are left to the binary
    part.  The search carries each premise's extent in the metrics
    table (the original one in the pipeline), so the rules are measured
    from it, and the ``min_support`` floor of the query cuts every
    branch whose premise is already supported by fewer objects.
    """
    metrics = metrics_ctx or ctx
    min_support = query.min_support if query else 0
    bj = ctx.attribute_index[b]
    if ctx.column_masks[bj] == (1 << len(ctx.objects)) - 1:
        # full column: the empty premise already implies b
        rule = measure(metrics, frozenset(), b)
        return [rule] if rule.support >= min_support else []
    try:
        h, labels = sector_hypergraph(ctx, arrows, d, b)
    except EmptySectorError:
        return []
    rules: list[Implication] = []
    cols, midx = metrics.column_masks, metrics.attribute_index
    bcol = cols[midx[b]]

    def sink(transversal: frozenset[int], ext: int):
        if len(transversal) > 1:
            premise = frozenset(labels[v] for v in transversal)
            rules.append(_rule(premise, b, ext, bcol))

    dualize_streaming(h, sink, vertex_masks=[cols[midx[a]] for a in labels],
                      start_mask=(1 << len(metrics.objects)) - 1,
                      floor=min_support, floor_mask=bcol)
    return rules


# -- refinement ---------------------------------------------------------------


def refine_to_d_basis(ctx: BinaryContext, order: PartialOrder,
                      rules: Iterable[Implication]) -> list[Implication]:
    """Flag each rule's D-basis membership; nothing is deleted.

    A non-binary rule X -> b is out when replacing some x in X by all
    attributes strictly below x still yields b.  Binary and
    empty-premise rules always stay in.  ``order`` is ctx's own.
    """
    if order.elements != ctx.attributes:
        raise ValueError("order is not the attribute order of ctx")
    aidx, cols = ctx.attribute_index, ctx.column_masks
    # b is in the closure of a set iff the set's extent lies in b's column;
    # the extent of X - x + below(x) is ext(X - x) & ext(below(x))
    below_ext = [ctx.extent_mask(m) for m in order.below_masks]
    everyone = (1 << len(ctx.objects)) - 1
    out = []
    for r in rules:
        if len(r.premise) < 2:
            out.append(r if r.in_d_basis else replace(r, in_d_basis=True))
            continue
        xs = [aidx[x] for x in r.premise]
        suf = [everyone] * (len(xs) + 1)
        for i in range(len(xs) - 1, -1, -1):
            suf[i] = suf[i + 1] & cols[xs[i]]
        outside_b = ~cols[aidx[r.conclusion]]
        pre = everyone
        excluded = False
        for i, x in enumerate(xs):
            if pre & suf[i + 1] & below_ext[x] & outside_b == 0:
                excluded = True
                break
            pre &= cols[x]
        out.append(replace(r, in_d_basis=not excluded))
    return out


# -- re-expansion -------------------------------------------------------------


def expand_to_original(record: ReductionRecord, rules: Iterable[Implication],
                       *, metrics_ctx: BinaryContext) -> list[Implication]:
    """Translate a basis over the reduced attributes back to all of them.

    Every removed attribute a with substitution X_a contributes
    X_a -> a plus the unit rules a -> x for x in X_a (so ∅ -> a for a
    full-ones column).  A removed attribute whose closure was the whole
    attribute set instead contributes a -> x for every other original
    attribute; note such an attribute is reachable as a conclusion only
    through those of its rules, i.e. not at all, matching the
    reduction's bookkeeping.  Rules are measured on ``metrics_ctx``.
    """
    out = list(rules)
    subs = record.attribute_substitutions
    aidx = metrics_ctx.attribute_index
    for a in sorted(subs, key=aidx.__getitem__):
        if a in record.saturated_attributes:
            for x in metrics_ctx.attributes:
                if x != a:
                    out.append(measure(metrics_ctx, {a}, x))
        else:
            x_a = subs[a]
            out.append(measure(metrics_ctx, x_a, a))
            for x in sorted(x_a, key=aidx.__getitem__):
                out.append(measure(metrics_ctx, {a}, x))
    return out


# -- closure evaluation --------------------------------------------------------


def ordered_closure(rules: Iterable[Implication], attrs: Iterable[str]) -> set[str]:
    """One left-to-right pass; each rule fires at most once.

    Reproduces the table closure when the rules are a D-basis arranged
    by ``evaluation_order`` (binary before non-binary, higher premises
    first within the binary block).
    """
    out = set(attrs)
    for r in rules:
        if r.conclusion not in out and r.premise <= out:
            out.add(r.conclusion)
    return out


def evaluation_order(rules: Iterable[Implication],
                     order: PartialOrder) -> list[Implication]:
    """Arrange rules so a single ordered pass computes closures.

    Blocks: empty premises, then rules whose premise mentions a removed
    attribute, then binary rules over kept attributes with higher
    premises first, then non-binary covers, and last the rules that
    conclude removed attributes.
    """
    known = set(order.elements)
    idx = {a: k for k, a in enumerate(order.elements)}

    def key(r: Implication):
        if not r.premise:
            block, depth = 0, 0
        elif not r.premise <= known:
            block, depth = 1, 0
        elif r.conclusion in known and len(r.premise) == 1:
            (x,) = r.premise
            block, depth = 2, -order.below_masks[idx[x]].bit_count()
        elif r.conclusion in known:
            block, depth = 3, 0
        else:
            block, depth = 4, 0
        big = len(idx)
        prem = tuple(sorted((idx.get(p, big), p) for p in r.premise))
        return (block, depth, prem, idx.get(r.conclusion, big), r.conclusion)

    return sorted(rules, key=key)


# -- the assembled pipeline -----------------------------------------------------


def canonical_sort(rules: Iterable[Implication],
                   ctx: BinaryContext) -> list[Implication]:
    """Sort by conclusion column, premise size, then premise columns."""
    aidx = ctx.attribute_index
    return sorted(rules, key=lambda r: (aidx[r.conclusion], len(r.premise),
                                        tuple(sorted(aidx[p] for p in r.premise))))


@dataclass
class BasisResult:
    """Everything the pipeline produced, plus the intermediate objects."""

    rules: list[Implication]
    candidates: list[Implication]  # before the basis-kind filter
    original: BinaryContext
    reduced: BinaryContext
    record: ReductionRecord
    order: PartialOrder
    arrows: ArrowTable
    d_relation: DRelation
    sector_counts: dict[str, int]

    @property
    def minimal_covers_count(self) -> int:
        return len(self.candidates)

    @property
    def refined_away_count(self) -> int:
        return sum(not r.in_d_basis for r in self.candidates)

    @property
    def d_basis_count(self) -> int:
        return self.minimal_covers_count - self.refined_away_count

    def summary_lines(self) -> list[str]:
        lines = [
            f"table: {len(self.original.objects)} objects x "
            f"{len(self.original.attributes)} attributes",
            f"reduced: {len(self.reduced.objects)} objects x "
            f"{len(self.reduced.attributes)} attributes",
        ]
        for b, k in self.sector_counts.items():
            lines.append(f"sector {b}: {k} covers")
        lines.append(f"minimal covers: {self.minimal_covers_count}"
                     f" (d-basis {self.d_basis_count},"
                     f" refined away {self.refined_away_count})")
        lines.append(f"rules emitted: {len(self.rules)}")
        return lines


_PAYLOAD = None


def _init_worker(payload):
    global _PAYLOAD
    _PAYLOAD = payload


def _sector_job(b: str):
    reduced, arrows, d, query, original = _PAYLOAD
    return b, extract_sector(reduced, arrows, d, b, query, metrics_ctx=original)


def compute_basis(ctx: BinaryContext, query: RuleQuery | None = None, *,
                  worker_count: int = 1,
                  full_binary: bool = False) -> BasisResult:
    """Run the whole pipeline on an (arbitrary) table.

    ``worker_count`` parallelizes sector dualization; results are merged
    in a fixed order, so the output is identical for any count.  0
    picks the machine's CPU count; a negative count is rejected.  A
    target in the query restricts dualization to that attribute's sector.
    """
    query = query or RuleQuery()
    if worker_count < 0:
        raise ValueError("worker_count must be non-negative")
    if query.min_support > len(ctx.objects):
        raise ValueError("min_support exceeds the number of objects")
    if query.target is not None and query.target not in ctx.attribute_index:
        raise KeyError(f"unknown attribute label: {query.target!r}")

    reduced, record = reduce_context(ctx)
    order = attribute_order(reduced)
    arrows = compute_arrows(reduced)
    d = compute_d_relation(arrows)

    rules = binary_part(reduced, order, full=full_binary, metrics_ctx=ctx)

    if query.target is None:
        sector_attrs = list(reduced.attributes)
    else:
        sector_attrs = [query.target] if query.target in reduced.attribute_index else []

    if worker_count == 0:
        worker_count = os.cpu_count() or 1
    sector_counts: dict[str, int] = {}
    if worker_count > 1 and len(sector_attrs) > 1:
        payload = (reduced, arrows, d, query, ctx)
        with multiprocessing.Pool(processes=min(worker_count, len(sector_attrs)),
                                  initializer=_init_worker,
                                  initargs=(payload,)) as pool:
            produced = dict(pool.map(_sector_job, sector_attrs))
    else:
        produced = {b: extract_sector(reduced, arrows, d, b, query,
                                      metrics_ctx=ctx)
                    for b in sector_attrs}
    for b in sector_attrs:
        sector_counts[b] = len(produced[b])
        rules.extend(produced[b])

    rules = refine_to_d_basis(reduced, order, rules)
    rules = expand_to_original(record, rules, metrics_ctx=ctx)
    rules = [r for r in rules if r.support >= query.min_support]
    if query.target is not None:
        rules = [r for r in rules if r.conclusion == query.target]
    candidates = canonical_sort(rules, ctx)
    if query.basis_kind == "d-basis":
        kept = [r for r in candidates if r.in_d_basis]
    else:
        kept = list(candidates)
    return BasisResult(rules=kept, candidates=candidates, original=ctx,
                       reduced=reduced, record=record, order=order,
                       arrows=arrows, d_relation=d, sector_counts=sector_counts)


def leave_k_out_rules(ctx: BinaryContext, k: int,
                      query: RuleQuery | None = None) -> list[Implication]:
    """High-confidence rules via the row-subset scheme.

    Runs the exact pipeline on every table missing k rows, re-measures
    every rule on the full table, keeps premise-minimal rules per
    conclusion, and filters to confidence >= (n-k)/n.  k = 0 is exactly
    the plain pipeline.
    """
    query = query or RuleQuery()
    if not 0 <= k <= 3:
        raise ValueError("k must be between 0 and 3")
    n = len(ctx.objects)
    if n < k + 1:
        raise ValueError("the table must keep at least one row")
    if k == 0:
        return compute_basis(ctx, query).rules
    sub_query = RuleQuery(target=query.target, min_support=0,
                          basis_kind=query.basis_kind)
    all_attrs = list(range(len(ctx.attributes)))
    merged: dict[tuple[frozenset[str], str], bool] = {}
    for dropped in itertools.combinations(range(n), k):
        keep = [i for i in range(n) if i not in dropped]
        sub = ctx.restrict(keep, all_attrs)
        for r in compute_basis(sub, sub_query).rules:
            key = (r.premise, r.conclusion)
            merged[key] = merged.get(key, False) or r.in_d_basis
    remeasured = [measure(ctx, premise, conclusion, in_d_basis=flag)
                  for (premise, conclusion), flag in merged.items()]
    kept: list[Implication] = []
    for r in sorted(remeasured,
                    key=lambda r: (len(r.premise),
                                   tuple(sorted(r.premise)), r.conclusion)):
        if not any(other.conclusion == r.conclusion and other.premise < r.premise
                   for other in kept):
            kept.append(r)
    threshold = Fraction(n - k, n)
    kept = [r for r in kept
            if r.confidence >= threshold and r.support >= query.min_support]
    return canonical_sort(kept, ctx)


# -- rendering -----------------------------------------------------------------


def format_rule_text(rule: Implication, attr_index: Mapping[str, int]) -> str:
    premise = " ".join(sorted(rule.premise, key=attr_index.__getitem__))
    head = f"{premise} -> " if premise else "-> "
    flag = "true" if rule.in_d_basis else "false"
    return (f"{head}{rule.conclusion} [support={rule.support}, "
            f"confidence={rule.confidence}, d_basis={flag}]")


def format_rule_jsonl(rule: Implication, attr_index: Mapping[str, int]) -> str:
    return json.dumps({
        "premise": sorted(rule.premise, key=attr_index.__getitem__),
        "conclusion": rule.conclusion,
        "support": rule.support,
        "premise_support": rule.premise_support,
        "confidence_num": rule.confidence.numerator,
        "confidence_den": rule.confidence.denominator,
        "in_d_basis": rule.in_d_basis,
    }, ensure_ascii=False)
