"""Extraction of exact implication bases from a binary table.

The pipeline: reduce the table, compute arrows and the D-relation, then
for each attribute b dualize the sector hypergraph whose minimal
transversals are exactly the minimal non-binary premises implying b.
The dualizer flags each transversal as it yields it, from its critical
edges, by whether it survives down-replacement (the D-basis proper; see
``_sector_rules``), and removed attributes are translated back in.

Inside the pipeline a rule is a packed tuple ``(conclusion, premise,
ext, in_d_basis)``: the conclusion's column index in the original table,
the premise as a sorted tuple of original column indices, the premise's
extent (object mask) in the original table, and the D-basis flag (True
for binary and expansion rules).  Support is ``popcount(ext &
col[conclusion])`` and premise support ``popcount(ext)``, so every
metric is counted on the original table, never the reduced one.
``BasisStream`` applies the whole query (target, support floor, basis
kind) and yields the rules it emits one conclusion at a time, which is
the output order; ``compute_basis`` collects them.  Leave-k-out merges
its sub-tables' streams and yields packed groups in that order too, with
no global sort.  Rules become ``Implication`` objects only at the
library edge, and an object builds its ``Fraction`` confidence from its
two counts only when a caller reads it (``fractions`` is imported then,
so a run never loads it).  Output lines of both modes are formatted
straight from the ints by one renderer (``line_renderer``) that spells
each label once per run; ``dbasis run`` renders and writes each group
``RENDER_SLICE`` lines at a time, one string per slice.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from contextlib import closing
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import itemgetter
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, Mapping,
                    Sequence)

from .context import (ArrowTable, BinaryContext, ReductionRecord, _bits,
                      _label_record, _ones, _reduce)
from .dualization import Hypergraph, _minimal, _search_order, _transversals
from .lattice import DRelation, PartialOrder, _sector_mask, attribute_order

if TYPE_CHECKING:
    from fractions import Fraction

# (conclusion, premise, ext, in_d_basis)
Flagged = tuple[int, tuple[int, ...], int, bool]
_PREMISE = itemgetter(1)


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
    in_d_basis: bool = field(default=True, compare=False)

    def __post_init__(self):
        if self.conclusion in self.premise:
            raise ValueError("conclusion cannot appear in the premise")

    @property
    def confidence(self) -> Fraction:
        """support / premise_support, derived and never stored; 1 when
        no row has the premise."""
        from fractions import Fraction
        return Fraction(*_ratio(self.support, self.premise_support))


def _ratio(sup: int, psup: int) -> tuple[int, int]:
    """Confidence sup/psup in lowest terms; 1 when no row has the premise."""
    if sup == psup or psup == 0:
        return 1, 1
    g = math.gcd(sup, psup)
    return sup // g, psup // g


def _implications(ctx: BinaryContext,
                  rules: Iterable[Flagged]) -> list[Implication]:
    """Rules (packed tuples over ``ctx``'s columns) as objects."""
    labels, cols = ctx.attributes, ctx.column_masks
    return [Implication(frozenset(labels[j] for j in xs), labels[c],
                        (ext & cols[c]).bit_count(), ext.bit_count(), flag)
            for c, xs, ext, flag in rules]


def measure(ctx: BinaryContext, premise: Iterable[str], conclusion: str,
            in_d_basis: bool = True) -> Implication:
    """Build a rule with support counted on ``ctx``.

    A premise no row satisfies gets confidence 1 by convention (the
    rule holds vacuously).
    """
    premise = frozenset(premise)
    ext = ctx.extent_mask(ctx._attr_mask(premise))
    col = ctx.column_masks[ctx.attribute_index[conclusion]]
    return Implication(premise, conclusion, (ext & col).bit_count(),
                       ext.bit_count(), in_d_basis)


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


def _sector_edges(rows: Sequence[int], up: int,
                  sector: int) -> list[tuple[int, int]]:
    """A column's dualization instance: ``sector`` is its sector mask and
    ``up`` masks its up-arrow rows among ``rows``.  The edges are masks
    over the rows' columns, each paired with its up-arrow row.

    For every object with an up arrow at the column the edge is the part
    of the sector NOT held by it.  A transversal therefore meets every
    such object's complement, which is exactly the condition for the
    premise to imply the column's attribute.  Distinct up-arrow rows give
    distinct edges, already an antichain, so none is dropped; they come
    in ``_search_order``.
    """
    row_of = {sector & ~rows[i]: rows[i] for i in _bits(up)}
    return [(e, row_of[e]) for e in _search_order(row_of)]


def sector_hypergraph(ctx: BinaryContext, arrows: ArrowTable, d: DRelation,
                      b: str) -> tuple[Hypergraph, tuple[str, ...]]:
    """The dualization instance for attribute b, as a label view.

    Vertices are b's sector (labels returned alongside, in column
    order); the edges are ``_sector_edges`` renumbered to them.
    """
    if b not in ctx.attribute_index:
        raise KeyError(f"unknown attribute label: {b!r}")
    bj = ctx.attribute_index[b]
    sector = list(_bits(d.sector_masks[bj]))
    if not sector:
        raise EmptySectorError(f"attribute {b!r} has no nontrivial covers")
    vid = {c: k for k, c in enumerate(sector)}
    edges = [frozenset(vid[c] for c in _bits(e)) for e, _ in _sector_edges(
        ctx.row_masks, arrows.up_cols[bj], d.sector_masks[bj])]
    return (Hypergraph(len(sector), tuple(edges)),
            tuple(ctx.attributes[c] for c in sector))


def _binary_rules(order: PartialOrder, full: bool, orig: Sequence[int],
                  cols: Sequence[int],
                  conclusions: Sequence[int]) -> list[Flagged]:
    """Order pairs as rules upper -> lower that conclude one of the
    columns ``conclusions``; ``orig`` maps the order's elements to the
    columns ``cols`` of the metrics table."""
    return [(orig[lo], (orig[up],), cols[orig[up]], True)
            for lo, up in order._index_pairs(not full)
            if orig[lo] in conclusions]


def binary_part(ctx: BinaryContext, order: PartialOrder, *,
                full: bool = False,
                metrics_ctx: BinaryContext | None = None) -> list[Implication]:
    """Binary rules of the attribute order: upper -> lower.

    By default only covering pairs are emitted; ``full`` adds the
    transitive pairs as well.
    """
    metrics = metrics_ctx or ctx
    return _implications(metrics, _binary_rules(
        order, full, [metrics.attribute_index[a] for a in ctx.attributes],
        metrics.column_masks, range(len(metrics.attributes))))


def _good_edges(edges: Sequence[int], rows: Sequence[int],
                below: Sequence[int]) -> dict[int, int]:
    """``good[x]``: the mask of the edges whose up-arrow row (``rows``, in
    edge order) holds every column below x, for each vertex x of the
    edges that some edge is not good for."""
    vertices = 0
    for e in edges:
        vertices |= e
    every = (1 << len(edges)) - 1
    good = {}
    for x in _bits(vertices):
        if below[x]:
            g = sum(1 << k for k, row in enumerate(rows)
                    if not below[x] & ~row)
            if g != every:
                good[x] = g
    return good


def _sector_rules(cols: Sequence[int], below: Sequence[int], min_support: int,
                  sector: tuple[list[int], list[int], int]) -> list[Flagged]:
    """Minimal non-binary covers of column ``bo`` as flagged rules, where
    ``sector`` is ``(edges, rows, bo)``: the edges and their up-arrow
    rows over the columns ``cols``, whose ``below`` masks the columns
    strictly below each.  The search starts from ``cols[bo]``, which
    holds every premise's extent since the rules are exact, and cuts
    each branch below ``min_support`` objects.

    X -> b survives down-replacement iff each x in X has a critical edge
    whose row holds below(x): every row lacking b lies in an up-arrow
    row of b, and such a row holds X - x and lacks x exactly when its
    edge is critical for x.  So the search flags each rule."""
    edges, rows, bo = sector
    # no transversal is a singleton {c}: every up-arrow row of b, and so
    # every row lacking b, would lack c, so col(c) ⊊ col(b); yet c is in
    # the sector only for an object with an up arrow at b (so lacking b)
    # and a down arrow at c (so in every column strictly above col(c),
    # col(b) among them).  A full column has no up arrow, hence no edge,
    # and gets the empty premise.
    return [(bo, tuple(sorted(premise)), ext, flag)
            for premise, ext, flag in _transversals(
                edges, cols, cols[bo], min_support,
                _good_edges(edges, rows, below))]


# -- refinement ---------------------------------------------------------------


def _in_d_basis(cols: Sequence[int], down: Sequence[int], b: int,
                xs: Sequence[int]) -> bool:
    """Does xs -> b survive down-replacement?  The empty premise does.

    b is in the closure of a set iff the set's extent lies in b's column,
    and the extent of X - x + below(x) is ext(X - x) & down[x], where
    down[x] is the extent of the columns strictly below x.  It needs no
    sector: the pipeline's search reaches the same flags from its
    critical edges.
    """
    # suf[i]: extent of xs[i:]; pre: extent of xs[:i]; -1 is every object
    # (down[x] is a finite mask, so the test below stays finite)
    suf = [-1] * (len(xs) + 1)
    for i in range(len(xs) - 1, 0, -1):
        suf[i] = suf[i + 1] & cols[xs[i]]
    outside_b = ~cols[b]
    pre = -1
    for i, x in enumerate(xs):
        if pre & suf[i + 1] & down[x] & outside_b == 0:
            return False
        pre &= cols[x]
    return True


def refine_to_d_basis(ctx: BinaryContext, order: PartialOrder,
                      rules: Iterable[Implication]) -> list[Implication]:
    """Flag each rule's D-basis membership; nothing is deleted.

    A non-binary rule X -> b is out when replacing some x in X by all
    attributes strictly below x still yields b.  Binary and
    empty-premise rules always stay in.  ``order`` is ctx's own.
    """
    if order.elements != ctx.attributes:
        raise ValueError("order is not the attribute order of ctx")
    cols, aidx = ctx.column_masks, ctx.attribute_index
    down = [ctx.extent_mask(below) for below in order.below_masks]
    return [Implication(r.premise, r.conclusion, r.support, r.premise_support,
                        len(r.premise) < 2 or _in_d_basis(
                            cols, down, aidx[r.conclusion],
                            [aidx[x] for x in r.premise]))
            for r in rules]


# -- re-expansion -------------------------------------------------------------


def _expansion_rules(witness: Mapping[int, int], saturated: int,
                     metrics: BinaryContext,
                     conclusions: Sequence[int]) -> list[Flagged]:
    """``expand_to_original``'s rules that conclude one of the columns
    ``conclusions`` (in column order) of ``metrics``, read off
    ``_reduce``'s ``witness`` and ``saturated`` masks over its columns."""
    cols = metrics.column_masks
    out: list[Flagged] = []
    for j, mask in witness.items():
        if saturated >> j & 1:
            out += [(x, (j,), cols[j], True) for x in conclusions if x != j]
        else:
            xs = tuple(_bits(mask))
            if j in conclusions:
                out.append((j, xs, metrics.extent_mask(mask), True))
            out += [(x, (j,), cols[j], True) for x in xs if x in conclusions]
    return out


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
    The record becomes ``_reduce``'s masks here, at the library's edge.
    """
    aidx, subs = metrics_ctx.attribute_index, record.attribute_substitutions
    witness = {aidx[a]: metrics_ctx._attr_mask(subs[a])
               for a in sorted(subs, key=aidx.__getitem__)}
    saturated = metrics_ctx._attr_mask(record.saturated_attributes)
    return list(rules) + _implications(metrics_ctx, _expansion_rules(
        witness, saturated, metrics_ctx, range(len(metrics_ctx.attributes))))


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


def _premise_order(group: Iterable[Flagged]) -> list[Flagged]:
    """One conclusion's rules by premise size, then premise columns.  Its
    premises are distinct, so a size's rules sort on them alone: a C key
    comparing int tuples, not the rule tuples, which is three times as
    fast."""
    by_size: dict[int, list[Flagged]] = {}
    for r in group:
        by_size.setdefault(len(r[1]), []).append(r)
    out: list[Flagged] = []
    for size in sorted(by_size):
        out += sorted(by_size[size], key=_PREMISE)
    return out


def canonical_sort(rules: Iterable[Implication],
                   ctx: BinaryContext) -> list[Implication]:
    """Sort by conclusion column, premise size, then premise columns."""
    aidx = ctx.attribute_index
    return sorted(rules, key=lambda r: (aidx[r.conclusion], len(r.premise),
                                        sorted(aidx[p] for p in r.premise)))


def _check_query(ctx: BinaryContext, query: RuleQuery):
    if query.min_support > len(ctx.objects):
        raise ValueError("min_support exceeds the number of objects")
    if query.target is not None and query.target not in ctx.attribute_index:
        raise KeyError(f"unknown attribute label: {query.target!r}")


def _by_conclusion(rules: Iterable[Flagged]) -> dict[int, list[Flagged]]:
    out: dict[int, list[Flagged]] = {}
    for r in rules:
        out.setdefault(r[0], []).append(r)
    return out


def _work(job: Callable, jobs: Sequence, send) -> None:
    """A sector worker: sends ``job(j)`` for each of ``jobs`` in turn down
    the pipe end ``send``, and a failure as (exception, its traceback)."""
    try:
        for j in jobs:
            send.send(job(j))
    except Exception as exc:
        import traceback
        send.send((exc, traceback.format_exc()))


def _in_workers(job: Callable, jobs: Sequence, procs: int) -> Iterator:
    """``map(job, jobs)`` in ``procs`` worker processes that this
    generator owns, each with one pipe.  Worker w runs jobs w, w + procs,
    ... and sends each result as soon as it has it; job j is read from
    worker j mod procs, so the results come in job order whatever procs
    is.  A worker blocks while its pipe is full, so it runs about one job
    ahead of the consumer.  A worker that fails or dies makes the
    generator raise; closing it terminates and joins every worker."""
    # imported here, so a serial run never loads it.  The start method is
    # fork on Linux whatever the interpreter's default (Python 3.14's is
    # forkserver there), and the platform's default elsewhere: a worker
    # that starts a fresh interpreter imports dbasis before its first
    # job, which costs more than dualizing the dense-minsup-par table's
    # sectors
    import multiprocessing
    mp = multiprocessing.get_context(
        "fork" if sys.platform == "linux" else None)
    workers = []
    try:
        for w in range(procs):
            recv, send = mp.Pipe(duplex=False)
            worker = mp.Process(
                target=_work, args=(job, jobs[w::procs], send), daemon=True)
            worker.start()
            workers.append((worker, recv))
            # the worker now holds the only write end, so its death reads
            # as end of file, and no later worker inherits it
            send.close()
        for j in range(len(jobs)):
            worker, recv = workers[j % procs]
            try:
                got = recv.recv()
            except (EOFError, OSError):  # OSError: cut off mid-message
                worker.join()
                raise RuntimeError(
                    f"sector worker {worker.pid} exited with code "
                    f"{worker.exitcode} before sending job {j}") from None
            if isinstance(got, tuple):
                exc, trace = got
                raise exc from RuntimeError(
                    f"in sector worker {worker.pid}:\n{trace}")
            yield got
    finally:
        for worker, _ in workers:
            worker.terminate()
        for worker, recv in workers:
            worker.join()
            recv.close()


class BasisStream:
    """The pipeline on one table, yielding its rules a conclusion at a time.

    Construction checks the query and does every step before dualization:
    reduction, the attribute order, arrows, and the sector edges of the
    columns it dualizes.  Iterating yields the rules the query emits as
    packed rules over the original table's columns, one non-empty group
    per conclusion in column order.  A group holds the binary rules, the
    sector's covers and the expansion rules that conclude its column,
    after the target and support filters, bucketed by premise size and
    each bucket sorted on the premise columns (``_premise_order``); so
    the groups concatenate to the canonical order, and a consumer that
    drops each group holds one group at a time.
    Under ``d-basis`` the covers flagged False are dropped here, the one
    place the basis kind is applied; ``minimal-covers`` keeps them.

    Serially each sector is dualized when its group is due.  With
    ``worker_count`` > 1 that many worker processes (at most one per
    sector) share the sectors round robin, each about one sector ahead
    of the consumer (``_in_workers``); the iterator owns them, so
    closing it early terminates them.  0 picks the machine's CPU count;
    a negative count is rejected.  On Linux the workers are forked,
    whatever start method the caller set, so a caller that runs other
    threads should pass ``worker_count=1``: a forked child holds a copy
    of any lock another thread held at the fork.
    ``sector_counts`` maps each dualized sector's attribute to its
    number of covers, in column order, as the iteration reaches it.
    ``candidate_count`` counts the rules before the basis kind is applied
    and ``refined_count`` the covers flagged False among them, so both
    kinds report the same two numbers; they restart with each iteration.
    """

    def __init__(self, ctx: BinaryContext, query: RuleQuery | None = None, *,
                 worker_count: int = 1, full_binary: bool = False):
        query = query or RuleQuery()
        if worker_count < 0:
            raise ValueError("worker_count must be non-negative")
        _check_query(ctx, query)
        self.original, self.query = ctx, query
        self.worker_count = worker_count or os.cpu_count() or 1
        (self.reduced, self.arrows, kept_rows, orig,
         self._witness, self._saturated) = _reduce(ctx)
        self.order = attribute_order(self.reduced)
        self.sector_counts: dict[str, int] = {}
        self.candidate_count = self.refined_count = 0

        cols = ctx.column_masks
        # the conclusions the query asks for, in column order
        self._targets = (range(len(cols)) if query.target is None
                         else [ctx.attribute_index[query.target]])
        # the binary and expansion rules that meet the floor; the sector
        # covers meet it by construction
        self._binary_and_expansion = _by_conclusion(
            r for r in _binary_rules(self.order, full_binary, orig, cols,
                                     self._targets)
            + _expansion_rules(self._witness, self._saturated, ctx,
                               self._targets)
            if (r[2] & cols[r[0]]).bit_count() >= query.min_support)
        # a mask over the reduced columns moves onto the original ones a
        # set bit at a time: lift[k] is reduced column k's original bit
        lift = [1 << c for c in orig]
        # below[c]: the columns strictly below column c (0 if removed)
        self._below = [0] * len(cols)
        for k, below in enumerate(self.order.below_masks):
            self._below[orig[k]] = sum(map(lift.__getitem__, _ones(below)))
        # conclusion column -> its job: (edges, their up-arrow rows,
        # column), built on the original columns.  Reduction only drops
        # rows and columns, so a reduced row is its input row cut to the
        # kept columns.  orig is increasing, so the edges come in the
        # reduced table's order and the sectors in column order.
        kept = sum(lift)
        rows = [ctx.row_masks[i] & kept for i in kept_rows]
        self._sectors = {}
        for bj, c in enumerate(orig):
            if c in self._targets:
                sector = sum(map(lift.__getitem__,
                                 _ones(_sector_mask(self.arrows, bj))))
                pairs = _sector_edges(rows, self.arrows.up_cols[bj], sector)
                self._sectors[c] = ([e for e, _ in pairs],
                                    [row for _, row in pairs], c)

    def __iter__(self) -> Iterator[list[Flagged]]:
        job = partial(_sector_rules, self.original.column_masks, self._below,
                      self.query.min_support)
        jobs = list(self._sectors.values())
        procs = min(self.worker_count, len(jobs))
        if procs > 1:
            with closing(_in_workers(job, jobs, procs)) as produced:
                yield from self._groups(produced)
        else:
            yield from self._groups(map(job, jobs))

    def _groups(self, produced: Iterator[list[Flagged]]
                ) -> Iterator[list[Flagged]]:
        labels = self.original.attributes
        keep_refined = self.query.basis_kind == "minimal-covers"
        self.candidate_count = self.refined_count = 0
        for c in self._targets:
            group = list(self._binary_and_expansion.get(c, ()))
            self.candidate_count += len(group)
            if c in self._sectors:
                covers = next(produced)
                self.sector_counts[labels[c]] = len(covers)
                # binary and expansion rules are always in the D-basis,
                # so only covers are refined away
                kept = [r for r in covers if r[3]]
                self.candidate_count += len(covers)
                self.refined_count += len(covers) - len(kept)
                group += covers if keep_refined else kept
            if group:
                yield _premise_order(group)


@dataclass
class BasisResult:
    """Everything the pipeline produced, plus the intermediate objects.

    ``packed`` holds the rules the query emits, in canonical order, as
    packed rules over the original table's columns: ``(conclusion,
    premise, ext, in_d_basis)``; ``line_renderer`` prints them.  ``rules``
    is the same list as ``Implication`` objects, and ``record`` the
    reduction's ``ReductionRecord`` read off ``_reduce``'s ``witness``
    and ``saturated`` masks, each built on first access.
    """

    packed: list[Flagged]
    original: BinaryContext
    reduced: BinaryContext
    witness: dict[int, int]
    saturated: int
    order: PartialOrder
    arrows: ArrowTable
    sector_counts: dict[str, int]

    @cached_property
    def rules(self) -> list[Implication]:
        return _implications(self.original, self.packed)

    @cached_property
    def record(self) -> ReductionRecord:
        return _label_record(self.original, self.witness, self.saturated)


def compute_basis(ctx: BinaryContext, query: RuleQuery | None = None, *,
                  worker_count: int = 1,
                  full_binary: bool = False) -> BasisResult:
    """Run the whole pipeline on an (arbitrary) table: every group of a
    ``BasisStream``, kept in one list.

    ``worker_count`` parallelizes sector dualization; results are merged
    in a fixed order, so the output is identical for any count.  0
    picks the machine's CPU count; a negative count is rejected.  A
    target in the query restricts dualization to that attribute's sector.
    """
    stream = BasisStream(ctx, query, worker_count=worker_count,
                         full_binary=full_binary)
    packed = [r for group in stream for r in group]
    return BasisResult(packed=packed, original=ctx, reduced=stream.reduced,
                       witness=stream._witness, saturated=stream._saturated,
                       order=stream.order, arrows=stream.arrows,
                       sector_counts=stream.sector_counts)


def leave_k_out_count(ctx: BinaryContext, k: int, query: RuleQuery) -> int:
    """How many sub-tables leave-k-out runs, C(n, k), after checking k
    and the query against ``ctx``."""
    if not 0 <= k <= 3:
        raise ValueError("k must be between 0 and 3")
    n = len(ctx.objects)
    if n < k + 1:
        raise ValueError("the table must keep at least one row")
    _check_query(ctx, query)
    return math.comb(n, k)


def leave_k_out_groups(ctx: BinaryContext, k: int,
                       query: RuleQuery | None = None
                       ) -> Iterator[list[Flagged]]:
    """High-confidence rules via the row-subset scheme, packed and
    grouped by conclusion in column order; a group may be empty.

    Runs the exact pipeline on every table missing k rows, merges the
    rules their streams emit (a rule is in the D-basis when some
    sub-table says so), re-measures them on the full table, keeps those
    with confidence >= (n-k)/n and the support floor, and of these the
    premise-minimal ones per conclusion, by premise size, then premise
    columns.  Every sub-table runs before the first group.  k = 0 is
    exactly the plain pipeline's groups.
    """
    query = query or RuleQuery()
    leave_k_out_count(ctx, k, query)
    if k == 0:
        yield from BasisStream(ctx, query)
        return
    sub_query = RuleQuery(target=query.target, basis_kind=query.basis_kind)
    n = len(ctx.objects)
    cols = ctx.column_masks
    # sub-tables keep every column, so their indices are ctx's;
    # conclusion -> premise mask -> flag
    merged: dict[int, dict[int, bool]] = {}
    for dropped in itertools.combinations(range(n), k):
        sub = ctx.restrict([i for i in range(n) if i not in dropped],
                           range(len(cols)))
        for group in BasisStream(sub, sub_query):
            flags = merged.setdefault(group[0][0], {})
            for _, xs, _, flag in group:
                mask = sum(1 << x for x in xs)
                flags[mask] = flags.get(mask, False) or flag
    for c in range(len(cols)):
        flags = merged.pop(c, {})
        exts = {}
        for mask in flags:
            ext = ctx.extent_mask(mask)
            sup, psup = (ext & cols[c]).bit_count(), ext.bit_count()
            # confidence sup/psup >= (n-k)/n, and 1 for an empty extent
            if sup >= query.min_support and sup * n >= (n - k) * psup:
                exts[mask] = ext
        # a premise that fails the floors must not hide a larger one
        yield [(c, tuple(_bits(mask)), exts[mask], flags[mask])
               for mask in _minimal(exts)]


def leave_k_out_rules(ctx: BinaryContext, k: int,
                      query: RuleQuery | None = None) -> list[Implication]:
    """``leave_k_out_groups``, flattened into ``Implication`` objects."""
    return _implications(ctx, itertools.chain.from_iterable(
        leave_k_out_groups(ctx, k, query)))


# -- rendering -----------------------------------------------------------------

# lines rendered and written as one string by ``dbasis run``; bounds the
# string when one conclusion holds every rule
RENDER_SLICE = 2048


def line_renderer(labels: Sequence[str], cols: Sequence[int],
                  jsonl: bool = False
                  ) -> Callable[[Iterable[Flagged]], list[str]]:
    """A function from packed rules to their output lines, for rules over
    the columns ``cols`` (object masks) named ``labels``.  It spells each
    label once, here, so a run builds one."""
    premise, conclusion = _spellings(labels, jsonl)
    line = _jsonl_line if jsonl else _text_line
    name = premise.__getitem__

    def render(rules: Iterable[Flagged]) -> list[str]:
        return [line(map(name, xs), conclusion[c], (ext & cols[c]).bit_count(),
                     ext.bit_count(), flag) for c, xs, ext, flag in rules]

    return render


def _spellings(labels: Sequence[str], jsonl: bool
               ) -> tuple[list[str], Sequence[str]]:
    """Each label as a line spells it in a premise and as a conclusion."""
    if jsonl:
        names = [json.dumps(a, ensure_ascii=False) for a in labels]
        return names, names
    return [a + " " for a in labels], labels


def _text_line(premise: Iterable[str], conclusion: str, sup: int, psup: int,
               flag: bool) -> str:
    if sup == psup:  # every rule of a plain run
        conf = 1
    else:
        num, den = _ratio(sup, psup)
        conf = num if den == 1 else f"{num}/{den}"
    return (f"{''.join(premise)}-> {conclusion} [support={sup}, "
            f"confidence={conf}, d_basis={'true' if flag else 'false'}]")


def _jsonl_line(premise: Iterable[str], conclusion: str, sup: int, psup: int,
                flag: bool) -> str:
    num, den = (1, 1) if sup == psup else _ratio(sup, psup)
    return (f'{{"premise": [{", ".join(premise)}], "conclusion": {conclusion}, '
            f'"support": {sup}, "premise_support": {psup}, '
            f'"confidence_num": {num}, "confidence_den": {den}, '
            f'"in_d_basis": {"true" if flag else "false"}}}')


def _rule_fields(rule: Implication, attr_index: Mapping[str, int],
                 jsonl: bool) -> tuple:
    """``rule``'s line fields, spelled as ``line_renderer`` spells them,
    its premise in ``attr_index``'s column order."""
    names, last = _spellings(
        [*sorted(rule.premise, key=attr_index.__getitem__), rule.conclusion],
        jsonl)
    return (names[:-1], last[-1], rule.support, rule.premise_support,
            rule.in_d_basis)


def format_rule_text(rule: Implication, attr_index: Mapping[str, int]) -> str:
    return _text_line(*_rule_fields(rule, attr_index, False))


def format_rule_jsonl(rule: Implication, attr_index: Mapping[str, int]) -> str:
    return _jsonl_line(*_rule_fields(rule, attr_index, True))
