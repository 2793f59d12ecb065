"""Self-test of the independent checker (stdlib only).

Usage, from the repository root:

    python3 perfbench/selftest.py --seed N [--workload NAME]

For each workload it generates the table, runs `dbasis run` once, and
requires the checker to accept the stream as it is and to reject each of
four corrupted copies:

- ``support+1``: one rule's support changed by one;
- ``dropped``: one rule removed.  It is drawn from the rules whose
  attributes all survive reduction, the rules the checker enumerates
  itself (every rule of three workloads, all but the expansion rules of
  one removed attribute on ``dense-full``);
- ``extra-attribute``: one premise given an attribute it did not have.
  It is drawn from the rules concluding a surviving attribute, which the
  minimality check covers;
- ``inexact``: one rule x -> b added whose confidence is below 1, with
  its metrics recounted correctly.

Every choice is drawn from ``random.Random`` seeded with the seed.  Exits
0 when all verdicts are as required.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from checker import Rule, popcount  # noqa: E402


def render(rule: Rule, output: str, psup: int) -> str:
    if output == "jsonl":
        return json.dumps({
            "premise": list(rule.premise), "conclusion": rule.conclusion,
            "support": rule.support, "premise_support": psup,
            "confidence_num": rule.confidence.numerator,
            "confidence_den": rule.confidence.denominator,
            "in_d_basis": rule.in_d_basis})
    head = " ".join(rule.premise) + " -> " if rule.premise else "-> "
    flag = "true" if rule.in_d_basis else "false"
    return (f"{head}{rule.conclusion} [support={rule.support}, "
            f"confidence={rule.confidence}, d_basis={flag}]")


def corruptions(table: checker.Table, lines: list[str], output: str,
                wl: run.Workload, rng: random.Random) -> dict[str, list[str]]:
    rules = checker.read_rules("\n".join(lines), output)
    idx = table.index
    survivors = table.survivors()

    def mask(labels) -> int:
        return sum(1 << idx[a] for a in labels)

    def psup(r: Rule) -> int:
        return popcount(table.extent(mask(r.premise)))

    out = {}
    k = rng.randrange(len(rules))
    r = rules[k]
    out["support+1"] = lines[:k] + [
        render(r._replace(support=r.support + 1), output, psup(r))] + lines[k + 1:]

    droppable = [i for i, r in enumerate(rules)
                 if mask(r.premise + (r.conclusion,)) & ~survivors == 0]
    k = rng.choice(droppable)
    out["dropped"] = lines[:k] + lines[k + 1:]

    widenable = [i for i, r in enumerate(rules)
                 if survivors >> idx[r.conclusion] & 1]
    k = rng.choice(widenable)
    r = rules[k]
    spare = [a for a in table.labels if a not in r.premise and a != r.conclusion]
    wider = tuple(sorted(r.premise + (rng.choice(spare),), key=idx.__getitem__))
    ext = table.extent(mask(wider))
    col_b = table.cols[idx[r.conclusion]]
    r = r._replace(premise=wider, support=popcount(ext & col_b))
    out["extra-attribute"] = lines[:k] + [render(r, output, popcount(ext))] + lines[k + 1:]

    conclusions = [wl.target] if wl.target else table.labels
    pairs = []
    for b in conclusions:
        col_b = table.cols[idx[b]]
        for x in table.labels:
            ext = table.cols[idx[x]]
            if x != b and ext & ~col_b and popcount(ext & col_b) >= max(1, wl.min_support):
                pairs.append((x, b))
    x, b = rng.choice(pairs)
    ext = table.cols[idx[x]]
    sup = popcount(ext & table.cols[idx[b]])
    bad = Rule((x,), b, sup, popcount(ext), Fraction(sup, popcount(ext)), True)
    k = rng.randrange(len(lines) + 1)
    out["inexact"] = lines[:k] + [render(bad, output, popcount(ext))] + lines[k:]
    return out


def selftest(name: str, seed: int, work: Path) -> bool:
    wl = run.WORKLOADS[name]
    fmt = gen.TABLES[name].input_format
    path = gen.write_table(name, seed, work)
    proc = subprocess.run(
        [sys.executable, "-m", "dbasis", "run", *wl.flags(fmt), str(path)],
        env=run.child_env(), check=True, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    table = checker.read_table(path.read_text(encoding="utf-8"), fmt)

    def verdict(stream: list[str]) -> list[str]:
        return checker.check(table, checker.read_rules("\n".join(stream), wl.output),
                             floor=wl.min_support, target=wl.target, seed=seed)

    ok = True
    errors = verdict(lines)
    print(f"{name}: clean stream of {len(lines)} rules: "
          f"{'rejected: ' + errors[0] if errors else 'accepted'}")
    ok &= not errors
    rng = random.Random(f"selftest:{name}:{seed}")
    for label, stream in corruptions(table, lines, wl.output, wl, rng).items():
        errors = verdict(stream)
        print(f"{name}: {label}: "
              f"{'rejected: ' + errors[0] if errors else 'ACCEPTED'}")
        ok &= bool(errors)
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description="self-test of the checker")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", choices=[*run.WORKLOADS, "all"],
                    default="all")
    args = ap.parse_args()
    names = list(run.WORKLOADS) if args.workload == "all" else [args.workload]
    work = HERE / "work" / f"selftest-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    ok = all([selftest(name, args.seed, work) for name in names])
    for f in work.iterdir():
        f.unlink()
    work.rmdir()
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
