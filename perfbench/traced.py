"""Traced rebuild of `dbasis run` from the package's public functions.

Usage (with the package's ``src`` directory on PYTHONPATH):

    python3 perfbench/traced.py TABLE FORMAT OUTPUT MIN_SUPPORT TARGET \
        WORKERS SPANS_JSON

TARGET is ``-`` for none.  The script repeats what `dbasis run` does for
a plain D-basis query, one public call at a time and in one process:
``parse_context``, ``reduce_context``, ``attribute_order``,
``compute_arrows``, ``compute_d_relation``, ``binary_part``, then per
sector ``sector_hypergraph``, ``dualize_streaming`` with ``measure`` in
its sink, then ``refine_to_d_basis``, ``expand_to_original``,
``canonical_sort`` and the formatter.  Each call is wrapped in a span
(name, start, end, parent); the spans stay in memory and are written to
SPANS_JSON at the end, together with counters, the sha256 of the
rendered rule stream, and the wall time and rule count of one
``compute_basis`` call with WORKERS processes.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from dbasis import (EmptySectorError, RuleQuery, attribute_order,
                    binary_part, compute_arrows, compute_basis,
                    compute_d_relation, dualize_streaming, expand_to_original,
                    measure, parse_context, reduce_context, refine_to_d_basis,
                    sector_hypergraph)
from dbasis.basis import canonical_sort, format_rule_jsonl, format_rule_text


class Tracer:
    """Spans as dicts: name, start, end, parent index, extra fields."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **fields):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None, **fields}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def traced_run(tr: Tracer, table: Path, fmt: str, output: str,
               query: RuleQuery) -> tuple[str, dict]:
    """Return the stream digest and the counters."""
    counters: dict[str, float] = {}
    with tr.span("cli.run"):
        with tr.span("context.parse"):
            ctx = parse_context(table.read_bytes(), fmt)
        with tr.span("basis.compute_basis"):
            with tr.span("context.reduce"):
                reduced, record = reduce_context(ctx)
            counters["context.reduced_objects"] = len(reduced.objects)
            counters["context.reduced_attributes"] = len(reduced.attributes)
            with tr.span("lattice.order"):
                order = attribute_order(reduced)
            with tr.span("lattice.arrows"):
                arrows = compute_arrows(reduced)
            with tr.span("lattice.d_relation"):
                d = compute_d_relation(arrows)
            counters["lattice.up_arrows"] = len(arrows.up)
            counters["lattice.down_arrows"] = len(arrows.down)
            counters["lattice.sector_vertices"] = sum(
                len(s) for s in d.sectors.values())
            with tr.span("basis.binary"):
                rules = binary_part(reduced, order, metrics_ctx=ctx)

            if query.target is None:
                sector_attrs = list(reduced.attributes)
            elif query.target in reduced.attribute_index:
                sector_attrs = [query.target]
            else:
                sector_attrs = []
            full = (1 << len(reduced.objects)) - 1
            sectors = edges = transversals = largest = 0
            for b in sector_attrs:
                with tr.span("basis.sector", attribute=b):
                    if reduced.column_masks[reduced.attribute_index[b]] == full:
                        rule = measure(ctx, frozenset(), b)
                        if rule.support >= query.min_support:
                            rules.append(rule)
                        continue
                    try:
                        with tr.span("basis.sector_hypergraph"):
                            h, labels = sector_hypergraph(reduced, arrows, d, b)
                    except EmptySectorError:
                        continue
                    sectors += 1
                    edges += len(h.edges)
                    sink_s = 0.0

                    def sink(t, labels=labels, b=b):
                        nonlocal sink_s
                        t0 = time.perf_counter()
                        if len(t) >= 2:
                            rule = measure(ctx, frozenset(labels[v] for v in t), b)
                            if rule.support >= query.min_support:
                                rules.append(rule)
                        sink_s += time.perf_counter() - t0

                    with tr.span("dualization.dualize_streaming") as rec:
                        n = dualize_streaming(h, sink)
                    rec["sink_s"] = sink_s
                    rec["transversals"] = n
                    transversals += n
                    largest = max(largest, n)
            counters["basis.sectors"] = sectors
            counters["basis.sector_edges"] = edges
            counters["dualization.transversals"] = transversals
            counters["dualization.largest_sector_transversals"] = largest

            with tr.span("basis.refine"):
                rules = refine_to_d_basis(reduced, order, rules)
            with tr.span("basis.expand"):
                rules = expand_to_original(record, rules, metrics_ctx=ctx)
            with tr.span("basis.sort"):
                rules = [r for r in rules if r.support >= query.min_support]
                if query.target is not None:
                    rules = [r for r in rules if r.conclusion == query.target]
                candidates = canonical_sort(rules, ctx)
                kept = [r for r in candidates if r.in_d_basis]
            counters["basis.candidates"] = len(candidates)
            counters["basis.rules_kept"] = len(kept)
            kept_attrs = reduced.attribute_index
            counters["basis.sector_rules_kept"] = sum(
                len(r.premise) >= 2 and r.conclusion in kept_attrs for r in kept)
        with tr.span("cli.render"):
            fmt_rule = format_rule_jsonl if output == "jsonl" else format_rule_text
            aidx = ctx.attribute_index
            digest = hashlib.sha256()
            for r in kept:
                digest.update((fmt_rule(r, aidx) + "\n").encode())
    return digest.hexdigest(), counters


def main(argv: list[str]) -> int:
    table, fmt, output, min_support, target, workers, spans_path = argv
    query = RuleQuery(target=None if target == "-" else target,
                      min_support=int(min_support))
    tr = Tracer()
    digest, counters = traced_run(tr, Path(table), fmt, output, query)
    ctx = parse_context(Path(table).read_bytes(), fmt)
    t0 = time.perf_counter()
    result = compute_basis(ctx, query, worker_count=int(workers))
    compute_basis_s = time.perf_counter() - t0
    Path(spans_path).write_text(json.dumps({
        "digest": digest, "counters": counters,
        "compute_basis_s": compute_basis_s,
        "compute_basis_rules": len(result.rules), "spans": tr.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
