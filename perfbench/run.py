"""Benchmark of `dbasis run` on four seeded tables (stdlib only).

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or ``all`` to run each in turn.  The
table is generated from the seed, then `dbasis run` is invoked on it as a
child process, one invocation at a time (a closed loop with one client),
until S seconds have passed; the last invocation is always completed.
The first rule stream is checked by the independent checker and every
later one must have the same sha256.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics (medians over the run's invocations).  With
``--trace 1`` a traced rebuild of the pipeline (traced.py) also runs once,
its stream digest must equal the CLI's, and the JSON object carries the
per-layer metrics.  A readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import gen  # noqa: E402

SETUP_REPS = 9
SETUP_CODE = ("import sys, dbasis; "
              "dbasis.parse_context(open(sys.argv[1], 'rb').read(), sys.argv[2])")


@dataclass(frozen=True)
class Workload:
    output: str = "text"
    min_support: int = 0
    target: str | None = None
    workers: int = 1

    def flags(self, fmt: str) -> list[str]:
        out = ["--format", fmt, "--output", self.output,
               "--workers", str(self.workers)]
        if self.min_support:
            out += ["--min-support", str(self.min_support)]
        if self.target is not None:
            out += ["--target", self.target]
        return out


WORKLOADS = {
    "dense-full": Workload(),
    "dense-minsup-par": Workload(output="jsonl", min_support=2, workers=2),
    "sparse-target": Workload(target="501"),
    "tall-reduce": Workload(),
}


@dataclass
class Invocation:
    exit_code: int
    run_s: float
    first_rule_s: float
    cpu_s: float
    peak_rss_mb: float
    digest: str
    stream: bytes = field(repr=False)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    # output never depends on string hashing; fixing it keeps the work
    # done by set iteration the same from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def invoke(argv: list[str], err_path: Path, keep: bool) -> Invocation:
    """Spawn, drain stdout through a pipe, reap with the tree's rusage.

    ``os.wait4`` reports the child's CPU time and peak RSS including the
    pool workers it reaped; ru_maxrss is the largest single process.
    """
    with open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=child_env())
    first = None
    digest = hashlib.sha256()
    chunks = []
    try:
        fd = proc.stdout.fileno()
        while chunk := os.read(fd, 1 << 16):
            if first is None:
                first = time.perf_counter()
            digest.update(chunk)
            if keep:
                chunks.append(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        ended = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return Invocation(proc.returncode, ended - started,
                      (first or ended) - started,
                      usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024, digest.hexdigest(),
                      b"".join(chunks))


def timed_child(argv: list[str]) -> float:
    started = time.perf_counter()
    subprocess.run(argv, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - started


def per_layer(trace: dict, spawned: float,
              run_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced run's spans and counters.

    ``spawned`` is when the traced child was started; span times come from
    the same monotonic clock, so spawn to the end of rendering is
    comparable with ``run_s`` (spawn to exit of `dbasis run`).
    """
    spans = trace["spans"]

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    sink_s = sum(s["sink_s"] for s in spans
                 if s["name"] == "dualization.dualize_streaming")
    c = trace["counters"]
    rendered = next(s["end"] for s in spans if s["name"] == "cli.run")
    return {
        "context.parse_s": (total("context.parse"), "s"),
        "context.reduce_s": (total("context.reduce"), "s"),
        "context.reduced_objects": (c["context.reduced_objects"], "count"),
        "context.reduced_attributes": (c["context.reduced_attributes"], "count"),
        "lattice.order_s": (total("lattice.order"), "s"),
        "lattice.arrows_s": (total("lattice.arrows"), "s"),
        "lattice.d_relation_s": (total("lattice.d_relation"), "s"),
        "lattice.up_arrows": (c["lattice.up_arrows"], "count"),
        "lattice.down_arrows": (c["lattice.down_arrows"], "count"),
        "lattice.sector_vertices": (c["lattice.sector_vertices"], "count"),
        "basis.sector_build_s": (total("basis.sector_hypergraph"), "s"),
        "basis.sector_edges": (c["basis.sector_edges"], "count"),
        "basis.sectors": (c["basis.sectors"], "count"),
        "dualization.dualize_s": (
            total("dualization.dualize_streaming") - sink_s, "s"),
        "dualization.transversals": (c["dualization.transversals"], "count"),
        "dualization.largest_sector_transversals": (
            c["dualization.largest_sector_transversals"], "count"),
        "basis.binary_s": (total("basis.binary"), "s"),
        "basis.measure_s": (sink_s, "s"),
        "basis.refine_s": (total("basis.refine"), "s"),
        "basis.expand_s": (total("basis.expand"), "s"),
        "basis.sort_s": (total("basis.sort"), "s"),
        "basis.candidates": (c["basis.candidates"], "count"),
        "basis.rules_kept": (c["basis.rules_kept"], "count"),
        "basis.kept_per_transversal": (
            c["basis.sector_rules_kept"] / max(1, c["dualization.transversals"]),
            "ratio"),
        "basis.compute_basis_s": (trace["compute_basis_s"], "s"),
        "cli.render_s": (total("cli.render"), "s"),
        "trace.overhead_s": (rendered - spawned - run_s, "s"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    fmt = gen.TABLES[name].input_format
    work = HERE / "work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        table = gen.write_table(name, seed, work)
        py = sys.executable
        setup = [timed_child([py, "-c", SETUP_CODE, str(table), fmt])
                 for _ in range(SETUP_REPS)]

        argv = [py, "-m", "dbasis", "run", *wl.flags(fmt), str(table)]
        runs: list[Invocation] = []
        reference = None  # the first stream that came back
        started = time.perf_counter()
        while True:
            runs.append(invoke(argv, work / "stderr.txt",
                               keep=reference is None))
            if reference is None and runs[-1].exit_code == 0:
                reference = runs[-1]
            if time.perf_counter() - started >= seconds:
                break
        good = [r for r in runs if r.exit_code == 0]
        attempted, failed = len(runs), len(runs) - len(good)
        if reference is None:
            raise RuntimeError("every invocation failed: "
                               + (work / "stderr.txt").read_text()[-2000:])
        ref_table = checker.read_table(table.read_text(encoding="utf-8"), fmt)
        try:
            rules = checker.read_rules(reference.stream.decode("utf-8"),
                                       wl.output)
        except (ValueError, KeyError) as exc:
            rules, problems = [], [f"unreadable rule stream: {exc}"]
        else:
            problems = checker.check(ref_table, rules, floor=wl.min_support,
                                     target=wl.target, seed=seed)
        problems += [f"invocation {k} gave another stream"
                     for k, r in enumerate(good) if r.digest != reference.digest]

        run_s = statistics.median(r.run_s for r in good)
        metrics: dict[str, tuple[float, str]]
        if trace:
            spans_path = work / "spans.json"
            attempted += 1
            spawned = time.perf_counter()
            subprocess.run([py, str(HERE / "traced.py"), str(table), fmt,
                            wl.output, str(wl.min_support), wl.target or "-",
                            str(wl.workers), str(spans_path)],
                           env=child_env(), check=True)
            traced = json.loads(spans_path.read_text())
            if traced["digest"] != reference.digest:
                problems.append("traced rebuild gave another stream")
            if traced["compute_basis_rules"] != traced["counters"]["basis.rules_kept"]:
                problems.append("compute_basis and the traced rebuild "
                                "kept different numbers of rules")
            metrics = per_layer(traced, spawned, run_s)
        else:
            metrics = {
                "run_s": (run_s, "s"),
                "first_rule_s": (statistics.median(r.first_rule_s for r in good), "s"),
                "cpu_s": (statistics.median(r.cpu_s for r in good), "s"),
                "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in good), "MB"),
                "setup_s": (statistics.median(setup), "s"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems[:10]:
        print(f"perfbench: {name}: {p}", file=sys.stderr)
    print(f"{name} seed={seed}: {len(runs)} invocations ({failed} failed), "
          f"{len(rules)} rules, stream sha256 {reference.digest}; checks: "
          f"checker on the first stream, digest on {len(good) - 1} more"
          f"{', traced rebuild digest' if trace else ''}: "
          f"{'FAILED' if problems else 'ok'}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"  {key:42s} {value:14.6g} {unit}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description="benchmark of dbasis run")
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "dbasis" / "__init__.py").is_file():
        print(f"perfbench: no dbasis sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace))
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
