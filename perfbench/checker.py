"""Independent checker for `dbasis run` rule streams (stdlib only).

It shares no code with dbasis: it reads the raw table itself, parses the
rule stream (text or jsonl) itself, and recounts everything from the rows.

Checks, in order:

1. every rule's support, premise support (jsonl only) and confidence,
   recounted from the rows; no rule appears twice; the conclusion is not
   in the premise;
2. every rule is exact (confidence 1), meets the support floor, concludes
   the target when there is one, and is flagged as a D-basis rule;
3. minimality, for every rule concluding an attribute that survives
   reduction: no premise attribute can be dropped with the rule still
   holding, and (D-basis) none can be replaced by the surviving
   attributes strictly below it;
4. completeness, on probe sets X whose extent meets the floor (seeded
   random sets and a seeded sample of the emitted premises): for every
   conclusion b outside X, b is in the table closure of X if and only if
   some emitted rule for b has its premise inside that closure.
   Attributes whose own closure is the whole attribute set are skipped:
   the reduction makes them unreachable as conclusions;
5. exhaustiveness: for every conclusion that survives reduction, the
   emitted premises made of surviving attributes are exactly the D-basis
   premises the checker enumerates from the table with its own search.
   Rules with a removed attribute (the reduction's expansion rules) are
   covered by checks 1-4 only.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

MAX_ERRORS = 10
RANDOM_PROBES = 300  # seeded random probe sets for check 4
PREMISE_PROBES = 300  # seeded sample of emitted premises for check 4


def popcount(x: int) -> int:
    return x.bit_count()


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class Table:
    """Columns as object bitmasks, rows as attribute bitmasks."""

    labels: list[str]  # attribute labels in column order
    cols: list[int]
    rows: list[int]

    def __post_init__(self):
        self.index = {a: j for j, a in enumerate(self.labels)}
        self.all_objects = (1 << len(self.rows)) - 1
        self.all_attrs = (1 << len(self.labels)) - 1

    def extent(self, attrs: int) -> int:
        out = self.all_objects
        for j in bits(attrs):
            out &= self.cols[j]
        return out

    def intent(self, objs: int) -> int:
        return sum(1 << j for j, c in enumerate(self.cols) if c & objs == objs)

    def survivors(self) -> int:
        """Attributes a reduction keeps: the first of each set of equal
        columns, unless the column is the intersection of the columns
        strictly containing it (the full column counts as one)."""
        keep = 0
        first: dict[int, int] = {}
        for j, c in enumerate(self.cols):
            if c in first:
                continue
            first[c] = j
            above = self.all_objects
            for c2 in self.cols:
                if c2 != c and c2 & c == c:
                    above &= c2
            if above != c:
                keep |= 1 << j
        return keep


def read_table(text: str, fmt: str) -> Table:
    """Dense CSV (header of labels, then ``object,0,1,...``) or FIMI
    transactions (one line of positive item numbers per object)."""
    if fmt == "dense-csv":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        labels = [t.strip() for t in lines[0].split(",")]
        rows = []
        for ln in lines[1:]:
            cells = [t.strip() for t in ln.split(",")[1:]]
            if len(cells) != len(labels):
                raise ValueError(f"bad table row: {ln!r}")
            rows.append(sum(1 << j for j, t in enumerate(cells) if t == "1"))
    elif fmt == "fimi-transactions":
        transactions = [{int(t) for t in ln.split()} for ln in text.splitlines()]
        while transactions and not transactions[-1]:
            transactions.pop()
        items = sorted(set().union(*transactions))
        labels = [str(x) for x in items]
        pos = {x: j for j, x in enumerate(items)}
        rows = [sum(1 << pos[x] for x in t) for t in transactions]
    else:
        raise ValueError(f"unknown table format {fmt!r}")
    cols = [0] * len(labels)
    for i, row in enumerate(rows):
        for j in bits(row):
            cols[j] |= 1 << i
    return Table(labels, cols, rows)


class Rule(NamedTuple):
    premise: tuple[str, ...]
    conclusion: str
    support: int
    premise_support: int | None  # the text format does not carry it
    confidence: Fraction
    in_d_basis: bool


def parse_text_rule(line: str) -> Rule:
    # "a b -> c [support=3, confidence=1, d_basis=true]"
    head, sep, tail = line.partition(" [")
    lhs, arrow, concl = head.rpartition("->")
    if not sep or not arrow or not tail.endswith("]"):
        raise ValueError(f"malformed rule line: {line!r}")
    fields = dict(kv.split("=", 1) for kv in tail[:-1].split(", "))
    return Rule(tuple(lhs.split()), concl.strip(), int(fields["support"]), None,
                _fraction(fields["confidence"]), fields["d_basis"] == "true")


@lru_cache(maxsize=4096)
def _fraction(text: str) -> Fraction:
    return Fraction(text)


def parse_jsonl_rule(line: str) -> Rule:
    doc = json.loads(line)
    return Rule(tuple(doc["premise"]), doc["conclusion"], doc["support"],
                doc["premise_support"],
                Fraction(doc["confidence_num"], doc["confidence_den"]),
                doc["in_d_basis"])


def read_rules(text: str, output: str) -> list[Rule]:
    parse = parse_jsonl_rule if output == "jsonl" else parse_text_rule
    return [parse(ln) for ln in text.splitlines() if ln]


def minimal_covers(vertices: int, up_rows: list[int], cols: list[int],
                   col_b: int, floor: int) -> list[int]:
    """Every inclusion-minimal Y inside ``vertices`` with b in cl(Y) and
    support(Y + b) >= floor.

    Y implies b exactly when it meets ``vertices - row`` for each row
    lacking b; only the inclusion-maximal such rows (``up_rows``) matter.
    The search branches on the first unmet edge: vertex k of that edge is
    taken with vertices 1..k-1 of it excluded.  A branch ends as soon as
    some chosen vertex no longer has an edge that only it meets, or the
    support falls below the floor, since no superset can then qualify.
    """
    edges: list[int] = []
    for e in sorted({vertices & ~r for r in up_rows}, key=popcount):
        if not e:
            return []
        if not any(k & e == k for k in edges):
            edges.append(e)
    meets = {v: 0 for v in bits(vertices)}  # vertex -> edges it meets
    for k, e in enumerate(edges):
        for v in bits(e):
            meets[v] |= 1 << k
    every = (1 << len(edges)) - 1
    out: list[int] = []

    def walk(chosen: list[int], hit: int, hit_twice: int, allowed: int,
             ext: int):
        unmet = every & ~hit
        if not unmet:
            out.append(sum(1 << v for v in chosen))
            return
        k = (unmet & -unmet).bit_length() - 1
        for v in bits(edges[k] & allowed):
            mv = meets[v]
            twice = hit_twice | (hit & mv)
            once = (hit | mv) & ~twice
            ext_v = ext & cols[v]
            if (popcount(ext_v) >= floor
                    and all(meets[u] & once for u in chosen)):
                walk(chosen + [v], hit | mv, twice, allowed, ext_v)
            allowed &= ~(1 << v)

    walk([], 0, 0, vertices, col_b)
    return out


def random_probes(table: Table, rng: random.Random, count: int, floor: int,
                  target: int | None) -> list[int]:
    """Seeded attribute sets whose extent meets the floor: small subsets
    of random rows, and now and then of the whole attribute set."""
    probes = []
    avoid = 0 if target is None else 1 << target
    for _ in range(count * 20):
        if len(probes) == count:
            break
        if rng.random() < 0.2:
            pool = table.all_attrs
        else:
            pool = table.rows[rng.randrange(len(table.rows))]
        choices = list(bits(pool & ~avoid))
        if not choices:
            continue
        x = sum(1 << j for j in rng.sample(choices, min(len(choices),
                                                        rng.randint(1, 4))))
        if popcount(table.extent(x)) >= floor:
            probes.append(x)
    return probes


def _maximal(masks: list[int]) -> list[int]:
    """The inclusion-maximal masks of a list sorted by size, largest first."""
    kept: list[int] = []
    for m in masks:
        if not any(k & m == m for k in kept):
            kept.append(m)
    return kept


def check(table: Table, rules: list[Rule], *, floor: int = 0,
          target: str | None = None, seed: int = 0) -> list[str]:
    """Return a list of problems (empty when the stream passes)."""
    errors: list[str] = []

    def fail(msg: str) -> bool:
        errors.append(msg)
        return len(errors) >= MAX_ERRORS

    def show(mask: int) -> str:
        return "{" + " ".join(table.labels[j] for j in bits(mask)) + "}"

    idx = table.index
    cols = table.cols
    target_j = None
    if target is not None:
        if target not in idx:
            return [f"target {target!r} is not an attribute of the table"]
        target_j = idx[target]

    # 1 + 2: per-rule recount, exactness, floor, target
    emitted: set[tuple[int, int]] = set()
    by_conclusion: dict[int, list[int]] = {}
    for r in rules:
        try:
            pmask = sum(1 << idx[a] for a in r.premise)
            b = idx[r.conclusion]
        except KeyError as exc:
            if fail(f"unknown attribute {exc.args[0]!r} in {r}"):
                return errors
            continue
        if len(set(r.premise)) != len(r.premise) or pmask >> b & 1:
            if fail(f"malformed premise in {r}"):
                return errors
            continue
        if (pmask, b) in emitted:
            if fail(f"duplicate rule {r}"):
                return errors
            continue
        emitted.add((pmask, b))
        ext = table.extent(pmask)
        psup = popcount(ext)
        sup = popcount(ext & cols[b])
        conf = Fraction(1) if psup == 0 else Fraction(sup, psup)
        if r.support != sup:
            bad = f"support {r.support} != recounted {sup}"
        elif r.premise_support is not None and r.premise_support != psup:
            bad = f"premise support {r.premise_support} != recounted {psup}"
        elif r.confidence != conf:
            bad = f"confidence {r.confidence} != recounted {conf}"
        elif conf != 1:
            bad = "rule is not exact"
        elif sup < floor:
            bad = f"support below the floor {floor}"
        elif target_j is not None and b != target_j:
            bad = f"conclusion is not the target {target!r}"
        elif not r.in_d_basis:
            bad = "rule not flagged as a D-basis rule"
        else:
            bad = ""
        if bad and fail(f"{bad}: {r}"):
            return errors
        by_conclusion.setdefault(b, []).append(pmask)
    if errors:
        return errors

    survivors = table.survivors()
    below_ext = []  # extent of the surviving attributes strictly below x
    for cx in cols:
        ext = table.all_objects
        for j in bits(survivors):
            if cols[j] != cx and cols[j] & cx == cx:
                ext &= cols[j]
        below_ext.append(ext)

    def refinable(premise: int, b: int) -> str | None:
        """The premise attribute whose removal, or whose replacement by
        the attributes strictly below it, still yields b."""
        members = list(bits(premise))
        prefix = [table.all_objects]
        for j in members:
            prefix.append(prefix[-1] & cols[j])
        suffix = table.all_objects
        outside_b = ~cols[b]
        for k in range(len(members) - 1, -1, -1):
            rest = prefix[k] & suffix
            x = members[k]
            if not rest & outside_b:
                return f"holds without {table.labels[x]}"
            if (len(members) > 1 and premise & ~survivors == 0
                    and not rest & below_ext[x] & outside_b):
                return (f"holds with {table.labels[x]} replaced by the "
                        "attributes below it")
            suffix &= cols[x]
        return None

    # 3: minimality of rules concluding a surviving attribute
    for pmask, b in emitted:
        if survivors >> b & 1 and pmask:
            why = refinable(pmask, b)
            if why and fail(f"not minimal: {show(pmask)} -> "
                            f"{table.labels[b]} {why}"):
                return errors

    # 4: completeness.  Soundness ("some premise inside cl(X) => b in
    # cl(X)") already follows from every rule being exact, so only the
    # other direction is searched here.
    for prems in by_conclusion.values():
        prems.sort(key=popcount)
    unreachable = 0
    for j, c in enumerate(cols):
        if table.intent(c) == table.all_attrs:
            unreachable |= 1 << j
    checked_b = table.all_attrs if target_j is None else 1 << target_j
    checked_b &= ~unreachable
    rng = random.Random(f"checker:{seed}")
    probes = random_probes(table, rng, RANDOM_PROBES, floor, target_j)
    premises = sorted({p for p, _ in emitted})
    probes.extend(rng.sample(premises, min(len(premises), PREMISE_PROBES)))
    wants: dict[int, int] = {}  # closure -> conclusions to find inside it
    for x in probes:
        closure = table.intent(table.extent(x))
        wants[closure] = wants.get(closure, 0) | (closure & ~x & checked_b)
    for closure, want in wants.items():
        outside = ~closure
        for b in bits(want):
            if not any(not p & outside for p in by_conclusion.get(b, ())):
                if fail(f"incomplete: {table.labels[b]} is in the closure "
                        f"{show(closure)} but no emitted rule for it has its "
                        "premise there"):
                    return errors
    if errors:
        return errors

    # 5: for each surviving conclusion, the emitted premises over the
    # surviving attributes are exactly the D-basis premises enumerated
    # from the table: the minimal ones that pass the refinement test, or
    # covering pairs when binary, and meet the floor.
    rows = sorted({r & survivors for r in table.rows}, key=popcount,
                  reverse=True)
    for b in bits(checked_b & survivors):
        lacking = _maximal([r for r in rows if not r >> b & 1])
        above_b = [j for j in bits(survivors)
                   if j != b and cols[j] & cols[b] == cols[j]]
        expected = set()
        for y in minimal_covers(survivors & ~(1 << b), lacking, cols,
                                cols[b], floor):
            if popcount(y) == 1:
                (x,) = bits(y)
                # binary rules are emitted for covering pairs only
                if any(cols[x] != cols[j] and cols[j] & cols[x] == cols[x]
                       for j in above_b if j != x):
                    continue
            elif refinable(y, b):
                continue
            expected.add(y)
        found = {p for p in by_conclusion.get(b, ()) if not p & ~survivors}
        for y in sorted(expected - found):
            if fail(f"missing rule {show(y)} -> {table.labels[b]}"):
                return errors
        for y in sorted(found - expected):
            if fail(f"rule {show(y)} -> {table.labels[b]} is not in the "
                    "D-basis"):
                return errors
    return errors
    return errors
