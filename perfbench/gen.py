"""Seeded input tables for the benchmark workloads (stdlib only).

Usage: python3 perfbench/gen.py --seed N --out DIR

Writes one input file per workload into DIR and prints their paths.  The
same seed always gives the same bytes.

Each workload has one base table, drawn once from ``random.Random`` seeded
with the workload's name.  The seed then draws a random order of the rows
and a random relabelling of the columns (the target column of
``sparse-target`` keeps its label).  So every seed gives the same lattice,
and the same amount of work up to the order the program meets it in,
while the bytes the program reads, and the rule stream, differ.  Fresh
random tables of these sizes differ in work by 20-30% from one to the
next, more than any bound a regression check could use.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Shape:
    """A table as column-index sets per row; ``pinned`` columns keep
    their label under relabelling."""

    columns: int
    rows: list[set[int]]
    pinned: frozenset[int] = frozenset()


def dense(rng: random.Random, n_objects: int, n_attrs: int,
          density: float) -> Shape:
    return Shape(n_attrs, [{j for j in range(n_attrs) if rng.random() < density}
                           for _ in range(n_objects)])


def sparse_target(rng: random.Random) -> Shape:
    """1500 rows of 3-12 columns out of 500, plus column 500 (item 501)
    in all rows but 15."""
    n, items, without = 1500, 500, 15
    rows = [set(rng.sample(range(items), rng.randint(3, 12))) for _ in range(n)]
    lacking = set(rng.sample(range(n), without))
    for i, row in enumerate(rows):
        if i not in lacking:
            row.add(items)
    return Shape(items + 1, rows, frozenset({items}))


def tall_reduce(rng: random.Random) -> Shape:
    """6000 rows of 30-38 columns out of 40."""
    return Shape(40, [set(rng.sample(range(40), rng.randint(30, 38)))
                      for _ in range(6000)])


def dense_csv(shape: Shape) -> str:
    """Header ``a1..am``, rows ``o1..on`` of 0/1 cells."""
    lines = [",".join(f"a{j}" for j in range(1, shape.columns + 1))]
    for i, row in enumerate(shape.rows, start=1):
        lines.append(f"o{i}," + ",".join("1" if j in row else "0"
                                         for j in range(shape.columns)))
    return "\n".join(lines) + "\n"


def fimi(shape: Shape) -> str:
    """One line per row, column j written as item j+1."""
    return "".join(" ".join(str(j + 1) for j in sorted(row)) + "\n"
                   for row in shape.rows)


def shuffled(shape: Shape, rng: random.Random) -> Shape:
    """Rows in a random order, unpinned columns randomly relabelled."""
    free = [j for j in range(shape.columns) if j not in shape.pinned]
    image = free[:]
    rng.shuffle(image)
    relabel = dict(zip(free, image)) | {j: j for j in shape.pinned}
    rows = [{relabel[j] for j in row} for row in shape.rows]
    rng.shuffle(rows)
    return Shape(shape.columns, rows, shape.pinned)


@dataclass(frozen=True)
class TableSpec:
    file_name: str
    input_format: str  # as `dbasis run --format` takes it
    make: Callable[[random.Random], Shape]
    render: Callable[[Shape], str]


TABLES = {
    "dense-full": TableSpec("dense-full.csv", "dense-csv",
                            lambda rng: dense(rng, 30, 60, 0.2), dense_csv),
    "dense-minsup-par": TableSpec("dense-minsup-par.csv", "dense-csv",
                                  lambda rng: dense(rng, 40, 80, 0.2), dense_csv),
    "sparse-target": TableSpec("sparse-target.dat", "fimi-transactions",
                               sparse_target, fimi),
    "tall-reduce": TableSpec("tall-reduce.dat", "fimi-transactions",
                             tall_reduce, fimi),
}


def write_table(name: str, seed: int, out_dir: Path) -> Path:
    """Write workload ``name``'s table for ``seed`` into ``out_dir``."""
    spec = TABLES[name]
    base = spec.make(random.Random(name))
    table = shuffled(base, random.Random(f"{name}:{seed}"))
    path = out_dir / spec.file_name
    path.write_text(spec.render(table), encoding="utf-8")
    return path


def main() -> None:
    ap = argparse.ArgumentParser(description="write the benchmark's tables")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    for name in TABLES:
        print(write_table(name, args.seed, args.out))


if __name__ == "__main__":
    main()
