import hashlib
import io
import json
import os
import random
import select
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import dbasis.cli
from dbasis import (BasisStream, BinaryContext, RuleQuery, compute_arrows,
                    compute_basis, leave_k_out_rules, parse_context,
                    reduce_context, render_arrow_table)
from dbasis.basis import (_implications, format_rule_jsonl,
                          format_rule_text, leave_k_out_groups)
from dbasis.cli import build_parser, main

from helpers import GOLDEN_CSV, packed_lines, random_context

GOLDEN_TEXT_RULES = [
    "v -> b [support=1, confidence=1, d_basis=true]",
    "a1 c2 -> b [support=1, confidence=1, d_basis=true]",
    "a2 c1 -> b [support=1, confidence=1, d_basis=true]",
    "v -> a1 [support=1, confidence=1, d_basis=true]",
    "a2 c1 -> a1 [support=1, confidence=1, d_basis=true]",
    "v -> a2 [support=1, confidence=1, d_basis=true]",
    "a1 c2 -> a2 [support=1, confidence=1, d_basis=true]",
    "b -> c1 [support=2, confidence=1, d_basis=true]",
    "a1 -> c1 [support=2, confidence=1, d_basis=true]",
    "u -> c1 [support=5, confidence=1, d_basis=true]",
    "v -> c1 [support=1, confidence=1, d_basis=true]",
    "b -> c2 [support=2, confidence=1, d_basis=true]",
    "a2 -> c2 [support=2, confidence=1, d_basis=true]",
    "v -> c2 [support=1, confidence=1, d_basis=true]",
    "c1 -> u [support=5, confidence=1, d_basis=true]",
    "v -> u [support=1, confidence=1, d_basis=true]",
]


def write_csv(ctx, path):
    lines = [",".join(ctx.attributes)] + [
        ",".join([g] + [str(int(ctx.bit(i, j)))
                        for j in range(len(ctx.attributes))])
        for i, g in enumerate(ctx.objects)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.csv"
    path.write_text(GOLDEN_CSV)
    return str(path)


def test_run_text_output(golden_file, capsys):
    assert main(["run", golden_file]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == GOLDEN_TEXT_RULES
    assert "reduced: 4 objects x 5 attributes" in captured.err
    assert "minimal covers: 17 (d-basis 16, refined away 1)" in captured.err


def test_run_jsonl_output(golden_file, capsys):
    assert main(["run", golden_file, "--output", "jsonl"]) == 0
    lines = capsys.readouterr().out.splitlines()
    docs = [json.loads(ln) for ln in lines]
    assert len(docs) == 16
    assert docs[0] == {"premise": ["v"], "conclusion": "b", "support": 1,
                       "premise_support": 1, "confidence_num": 1,
                       "confidence_den": 1, "in_d_basis": True}
    assert all(set(d) == {"premise", "conclusion", "support",
                          "premise_support", "confidence_num",
                          "confidence_den", "in_d_basis"} for d in docs)


def test_run_minimal_covers(golden_file, capsys):
    assert main(["run", golden_file, "--basis", "minimal-covers"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 17
    assert "a1 a2 -> b [support=1, confidence=1, d_basis=false]" in out


def test_run_summary_under_minimal_covers_and_target(golden_file, capsys):
    # both kinds count the same candidates; only what is emitted differs
    assert main(["run", golden_file, "--basis", "minimal-covers"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert "minimal covers: 17 (d-basis 16, refined away 1)" in err
    assert "rules emitted: 17" in err
    for kind, emitted in (("d-basis", 3), ("minimal-covers", 4)):
        assert main(["run", golden_file, "--target", "b",
                     "--basis", kind]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [ln for ln in err if ln.startswith("sector ")] == [
            "sector b: 3 covers"]
        assert "minimal covers: 4 (d-basis 3, refined away 1)" in err
        assert f"rules emitted: {emitted}" in err


def test_run_target(golden_file, capsys):
    assert main(["run", golden_file, "--target", "b"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [ln for ln in GOLDEN_TEXT_RULES if "-> b " in ln]


def test_run_unknown_target(golden_file, capsys):
    # rejected before the first rule prints
    for workers in ("1", "2"):
        assert main(["run", golden_file, "--target", "zz",
                     "--workers", workers]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "zz" in captured.err


def test_run_min_support(golden_file, capsys):
    assert main(["run", golden_file, "--min-support", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [ln for ln in GOLDEN_TEXT_RULES
                   if "support=2" in ln or "support=5" in ln]


def test_run_min_support_too_large(golden_file, capsys):
    for workers in ("1", "2"):
        assert main(["run", golden_file, "--min-support", "7",
                     "--workers", workers]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "min_support exceeds the number of objects" in captured.err


def test_run_leave_out(golden_file, capsys):
    assert main(["run", golden_file, "--leave-out", "1"]) == 0
    captured = capsys.readouterr()
    assert "(leave-1-out)" in captured.err
    assert captured.out
    assert main(["run", golden_file, "--leave-out", "5"]) == 2


def test_run_leave_out_announces_its_sub_tables(golden_file, capsys):
    # C(6, 2) tables missing two of the six rows, said before they run
    assert main(["run", golden_file, "--leave-out", "2"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "leave-2-out: 15 sub-tables"
    assert main(["run", golden_file, "--leave-out", "4"]) == 2
    assert "sub-tables" not in capsys.readouterr().err


def test_run_leave_out_rejects_flags_it_cannot_honour(golden_file, capsys):
    assert main(["run", golden_file, "--leave-out", "1", "--workers", "2"]) == 2
    assert "leave-K-out" in capsys.readouterr().err
    assert main(["run", golden_file, "--leave-out", "1", "--full-binary"]) == 2
    assert "leave-K-out" in capsys.readouterr().err


def test_run_leave_out_rejects_min_support_above_the_row_count(golden_file,
                                                              capsys):
    # the same check and exit code as without --leave-out
    assert main(["run", golden_file, "--min-support", "100"]) == 2
    plain = capsys.readouterr()
    assert main(["run", golden_file, "--min-support", "100",
                 "--leave-out", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == plain.out == ""
    assert captured.err == plain.err
    assert "min_support exceeds the number of objects" in captured.err


def test_run_leave_out_checks_the_target_before_announcing(golden_file,
                                                          capsys):
    assert main(["run", golden_file, "--target", "zz", "--leave-out", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sub-tables" not in captured.err
    assert "zz" in captured.err


def test_run_rejects_negative_workers(golden_file, capsys):
    assert main(["run", golden_file, "--workers", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "worker_count" in captured.err


def test_run_leave_out_zero_matches_plain(golden_file, capsys):
    assert main(["run", golden_file, "--leave-out", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == GOLDEN_TEXT_RULES


def test_run_workers_do_not_change_stdout(golden_file, capsys):
    assert main(["run", golden_file, "--workers", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(["run", golden_file, "--workers", "8"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel == "\n".join(GOLDEN_TEXT_RULES) + "\n"


def test_run_minimal_covers_bytes_on_a_table_with_many_lower_columns(
        tmp_path, capsys):
    # 38 of the 51 reduced columns have a column below them, so the
    # search flags many covers False through a chosen vertex's critical
    # edges, not only through the last vertex's; the digest and counts
    # were recorded from the per-rule refinement pass
    path = write_csv(random_context(random.Random(2), 16, 60, 0.8),
                     tmp_path / "lower.csv")
    assert main(["run", "--basis", "minimal-covers", path]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == (
        "14f97486f9381a746139c412f82668b312c21d203c1dc6fdedf569b610f87b4d")
    assert ("minimal covers: 10696 (d-basis 7963, refined away 2733)\n"
            in captured.err)


def test_run_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\no1,1,2\n")
    assert main(["run", str(bad)]) == 2
    assert "0 or 1" in capsys.readouterr().err


def test_run_rejects_a_fimi_item_that_is_not_ascii_decimal(tmp_path, capsys):
    bad = tmp_path / "bad.dat"
    bad.write_text("1 2\n1_0 2\n")
    assert main(["run", str(bad), "--format", "fimi"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_run_missing_file(capsys):
    assert main(["run", "/nonexistent/table.csv"]) == 2


def fake_stdin(data: bytes, encoding: str = "utf-8") -> io.TextIOWrapper:
    """A text-mode stdin over ``data`` that decodes it as ``encoding``."""
    return io.TextIOWrapper(io.BytesIO(data), encoding=encoding)


def test_run_fimi_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", fake_stdin(b"1 2\n2 3\n"))
    assert main(["run", "-", "--format", "fimi-transactions"]) == 0
    out = capsys.readouterr().out
    assert "2" in out


def test_inputs_with_a_byte_order_mark(tmp_path, monkeypatch, capsys):
    table = tmp_path / "bom.csv"
    table.write_text(GOLDEN_CSV, encoding="utf-8-sig")
    assert main(["run", str(table), "--target", "b"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        ln for ln in GOLDEN_TEXT_RULES if "-> b " in ln]
    fimi = tmp_path / "bom.dat"
    fimi.write_text("1 2\n2 3\n", encoding="utf-8-sig")
    assert main(["run", str(fimi), "--format", "fimi", "--target", "2"]) == 0
    plain = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", fake_stdin("\ufeff1 2\n2 3\n".encode()))
    assert main(["run", "-", "--format", "fimi", "--target", "2"]) == 0
    assert capsys.readouterr().out == plain
    assert plain.startswith("-> 2 ")
    # the CLI decodes a table only in parse_context, which drops one
    # mark: a second one stays in the first label, by either route
    twice = ("\ufeff\ufeff" + GOLDEN_CSV).encode("utf-8")
    ctx = parse_context(twice, "dense-csv")
    assert ctx.attributes[0] == "\ufeffb"
    table.write_bytes(twice)
    assert main(["run", str(table)]) == 0
    assert capsys.readouterr().out.splitlines() == packed_lines(
        ctx, compute_basis(ctx).packed)
    monkeypatch.setattr(sys, "stdin", fake_stdin(twice))
    assert main(["arrows", "-"]) == 0
    reduced, _ = reduce_context(ctx)
    assert capsys.readouterr().out == render_arrow_table(
        reduced, compute_arrows(reduced)) + "\n"


def test_stdin_is_utf8_whatever_the_locale_decodes(tmp_path, monkeypatch,
                                                    capsys):
    # with a latin-1 locale the byte-order mark and a non-ASCII label
    # must still read as from a file path, for every subcommand
    table = GOLDEN_CSV.replace("c2", "c\u00e9")
    cases = [(["run"], table), (["run", "--output", "jsonl"], table),
             (["arrows"], table),
             (["concepts"], "p,q\nx\u00e9,1,1\ny,1,0\n"),
             (["dualize"], "0 1\n1 2\n0 2\n")]
    for (command, *opts), text in cases:
        path = tmp_path / "input"
        path.write_bytes(("\ufeff" + text).encode("utf-8"))
        assert main([command, str(path), *opts]) == 0
        from_path = capsys.readouterr().out
        monkeypatch.setattr(sys, "stdin", fake_stdin(path.read_bytes(),
                                                     "latin-1"))
        assert main([command, "-", *opts]) == 0
        assert capsys.readouterr().out == from_path, command
        if command != "dualize":
            assert "\u00e9" in from_path, command
    monkeypatch.setattr(sys, "stdin", fake_stdin(
        ("\ufeff" + table).encode("utf-8"), "latin-1"))
    assert main(["run", "-"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        ln.replace("c2", "c\u00e9") for ln in GOLDEN_TEXT_RULES]


def test_dualize_subcommand(tmp_path, capsys):
    edges = tmp_path / "h.txt"
    edges.write_text("0 1\n1 2\n0 2\n")
    assert main(["dualize", str(edges)]) == 0
    assert capsys.readouterr().out == "0 1\n0 2\n1 2\n"


def test_dualize_subcommand_on_a_deep_transversal(tmp_path, capsys):
    edges = tmp_path / "h.txt"
    edges.write_text("".join(f"{v}\n" for v in range(1100)))
    assert main(["dualize", str(edges)]) == 0
    assert capsys.readouterr().out == " ".join(map(str, range(1100))) + "\n"


def test_dualize_reads_back_its_own_output_on_no_edges(tmp_path, capsys):
    # no edges -> the single empty transversal -> no edges again
    edges = tmp_path / "h.txt"
    edges.write_text("")
    assert main(["dualize", str(edges)]) == 0
    dual = capsys.readouterr().out
    assert dual == "\n"
    edges.write_text(dual)
    assert main(["dualize", str(edges)]) == 0
    assert capsys.readouterr().out == ""


def test_dualize_rejects_blank_line(tmp_path, capsys):
    edges = tmp_path / "h.txt"
    edges.write_text("0 1\n\n2\n")
    assert main(["dualize", str(edges)]) == 2
    assert "empty edge" in capsys.readouterr().err


def test_arrows_subcommand(golden_file, capsys):
    assert main(["arrows", golden_file]) == 0
    out = capsys.readouterr().out
    assert out == (
        "  b a1 a2 c1 c2\n"
        "1 ↑  1  ↑  1  ↕\n"
        "2 1  ↕  ↕  1  1\n"
        "3 ↑  ↑  1  ↕  1\n"
        "4 ↕  ↓  ↓  1  1\n"
    )


def test_arrows_subcommand_prints_the_reduced_tables_own_arrows(tmp_path,
                                                                capsys):
    # the subcommand cuts the reduction's fold instead of folding the
    # reduced table again; the arrows must be the reduced table's own
    rng = random.Random(113)
    dropped_both = 0
    for t in range(60):
        n, m = rng.randint(3, 14), rng.randint(3, 14)
        ctx = random_context(rng, n, m, rng.choice((0.3, 0.5, 0.7)))
        reduced, _ = reduce_context(ctx)
        dropped_both += (len(reduced.objects) < n
                         and len(reduced.attributes) < m)
        assert main(["arrows", write_csv(ctx, tmp_path / f"{t}.csv")]) == 0
        assert capsys.readouterr().out == render_arrow_table(
            reduced, compute_arrows(reduced)) + "\n", t
    assert dropped_both > 10


def test_concepts_subcommand(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("p,q\nx,1,1\ny,1,0\n")
    assert main(["concepts", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["{x y}\t{p}", "{x}\t{p q}"]


def test_concepts_size_guard(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    attrs = ",".join(f"a{j}" for j in range(21))
    path.write_text(attrs + "\no," + ",".join("1" * 21) + "\n")
    assert main(["concepts", str(path)]) == 4


def test_importing_the_cli_loads_neither_the_oracle_nor_fractions():
    # a fresh interpreter, since this module imports both itself; the
    # oracle's size error lives in context, so the CLI catches it unloaded
    script = (
        "import sys, dbasis.cli\n"
        "print(sorted({'dbasis.oracle', 'fractions'} & set(sys.modules)))\n"
        "import dbasis, dbasis.oracle\n"
        "from fractions import Fraction\n"
        "assert dbasis.OracleSizeError is dbasis.oracle.OracleSizeError\n"
        "assert 'OracleSizeError' in dbasis.__all__\n"
        "conf = dbasis.Implication(frozenset({'a'}), 'b', 2, 4).confidence\n"
        "assert type(conf) is Fraction and conf == Fraction(1, 2), conf\n")
    src = os.path.dirname(os.path.dirname(dbasis.cli.__file__))
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_run_config_defaults():
    args = build_parser().parse_args(["run", "x"])
    assert args.format == "dense-csv"
    assert args.basis == "d-basis"
    assert args.workers == 1
    assert args.leave_out == 0


def test_parser_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2


def test_console_entry_point(golden_file):
    proc = subprocess.run(
        [sys.executable, "-m", "dbasis", "run", golden_file],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == GOLDEN_TEXT_RULES
    assert "elapsed:" in proc.stderr


def test_stdout_is_utf8_whatever_the_locale(tmp_path):
    # under the POSIX locale without UTF-8 mode Python's stdout is ASCII;
    # labels and arrow glyphs must still go out as the UTF-8 bytes of a
    # UTF-8 locale
    path = tmp_path / "u.csv"
    path.write_bytes("α,é,c\no1,1,0,0\no2,0,1,0\no3,0,0,1\no4,1,1,0\n"
                     .encode("utf-8"))
    posix = {"LC_ALL": "POSIX", "LANG": "POSIX", "PYTHONCOERCECLOCALE": "0",
             "PYTHONUTF8": "0"}

    def stdout(args, env):
        proc = subprocess.run(
            [sys.executable, "-m", "dbasis", *args, str(path)],
            capture_output=True, env={**os.environ, **env}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    for args, glyph in ((["run"], "é c -> α"),
                        (["run", "--output", "jsonl"], '"α"'),
                        (["arrows"], "↕"), (["concepts"], "{α é}")):
        want = stdout(args, {"PYTHONUTF8": "1"})
        assert glyph.encode("utf-8") in want
        assert stdout(args, posix) == want, args


@pytest.mark.parametrize("args,want_err", [
    (["--workers", "1"], b""),
    (["--workers", "2"], b""),
    (["--leave-out", "1"], b"leave-1-out: 14 sub-tables\n"),
], ids=["1", "2", "leave-out"])
def test_reader_closing_early_is_not_an_error(tmp_path, args, want_err):
    # about 270 kB of rules in either mode, far more than a pipe buffers,
    # so the writer is still printing when the reader hangs up (``dbasis
    # run t | head``); stderr reaches end of file only once no sector
    # worker holds it open
    path = write_csv(random_context(random.Random(5), 14, 28, 0.4),
                     tmp_path / "big.csv")
    proc = subprocess.Popen(
        [sys.executable, "-m", "dbasis", "run", path, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline().endswith(b"]\n")
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = read_to_eof(proc.stderr, timeout=60)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == want_err
    assert code == 0


def read_to_eof(pipe, timeout):
    """What ``pipe`` gives until every writer has closed it; fails after
    ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    chunks = []
    while True:
        left = deadline - time.monotonic()
        assert left > 0 and select.select([pipe], [], [], left)[0], \
            "a writer still holds the pipe open"
        chunk = os.read(pipe.fileno(), 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


RUN_OPTIONS = [
    [],
    ["--basis", "minimal-covers"],
    ["--min-support", "2"],
    ["--target", "a3"],
    ["--full-binary"],
    ["--workers", "2"],
    ["--basis", "minimal-covers", "--min-support", "2", "--target", "a3",
     "--full-binary", "--workers", "2"],
    ["--leave-out", "1"],
    ["--leave-out", "1", "--basis", "minimal-covers", "--min-support", "2"],
    # every conclusion but a3 gets an empty group, which prints nothing
    ["--leave-out", "1", "--target", "a3"],
]


def library_lines(ctx, args):
    """What the library's rules give through the rule formatters."""
    ns = build_parser().parse_args(["run", "-", *args])
    query = RuleQuery(target=ns.target, min_support=ns.min_support,
                      basis_kind=ns.basis)
    if ns.leave_out:
        rules = leave_k_out_rules(ctx, ns.leave_out, query)
    else:
        rules = compute_basis(ctx, query, full_binary=ns.full_binary).rules
    fmt = format_rule_jsonl if ns.output == "jsonl" else format_rule_text
    return [fmt(r, ctx.attribute_index) for r in rules]


def test_run_stdout_is_the_formatted_library_rules(tmp_path, capsys):
    # the CLI renders its packed rules itself, a slice at a time; they
    # must print as the library's Implication objects do, byte for byte
    rng = random.Random(83)
    seen = []
    for t, density in enumerate((0.45, 0.7, 0.45, 0.7)):
        path = write_csv(random_context(rng, rng.randint(6, 12),
                                        rng.randint(6, 10), density),
                         tmp_path / f"t{t}.csv")
        ctx = parse_context(Path(path).read_text(), "dense-csv")
        for output in ("text", "jsonl"):
            for opts in RUN_OPTIONS:
                args = [*opts, "--output", output]
                assert main(["run", path, *args]) == 0
                want = library_lines(ctx, args)
                assert capsys.readouterr().out == "".join(
                    line + "\n" for line in want), (t, args)
                seen += want
    text = [ln for ln in seen if ln.endswith("]")]
    assert any("d_basis=false" in ln for ln in text)
    assert any("confidence=1," not in ln for ln in text)
    assert any(json.loads(ln)["confidence_den"] > 1
               for ln in seen if ln.startswith("{"))


class Writes:
    """An output stream that keeps each ``write`` apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_run_writes_once_per_slice_of_a_group(tmp_path, monkeypatch):
    # the bytes do not depend on the slice size, a group of n rules takes
    # ceil(n / slice) writes, and an empty group none
    rng = random.Random(97)
    path = write_csv(random_context(rng, 9, 8, 0.5), tmp_path / "t.csv")
    ctx = parse_context(Path(path).read_text(), "dense-csv")
    for opts in ([], ["--leave-out", "1", "--target", "a3"]):
        args = build_parser().parse_args(["run", path, *opts])
        query = RuleQuery(target=args.target)
        groups = (list(leave_k_out_groups(ctx, 1, query)) if args.leave_out
                  else list(BasisStream(ctx, query)))
        texts = set()
        for size in (1, 2, 3, 2048):
            monkeypatch.setattr(dbasis.cli, "RENDER_SLICE", size)
            out = Writes()
            assert dbasis.cli.run(args, out, io.StringIO()) == 0
            assert len(out.writes) == sum(-(-len(g) // size) for g in groups)
            assert all(w.endswith("]\n") and "\n\n" not in w
                       for w in out.writes)
            texts.add("".join(out.writes))
        assert len(texts) == 1, opts
        assert any(not g for g in groups) == bool(args.leave_out)


# labels that JSON escapes, and characters outside ASCII that it keeps
ODD_LABELS = ['say "hi"', "back\\slash", 'both \\"', "naïve", "日本語", "😀",
              "tab\tin", "line\u2028sep"]


def test_labels_render_as_spelled_in_both_formats():
    rng = random.Random(90)
    seen, inexact = set(), False
    for density in (0.6, 0.8):
        base = random_context(rng, 10, len(ODD_LABELS), density)
        ctx = BinaryContext(base.objects, ODD_LABELS, [
            [int(base.bit(i, j)) for j in range(len(ODD_LABELS))]
            for i in range(len(base.objects))])
        labels, cols = ctx.attributes, ctx.column_masks
        # all candidates, refined-away ones included, and the leave-one-out
        # rules, whose confidences can go below 1
        packed = compute_basis(ctx,
                               RuleQuery(basis_kind="minimal-covers")).packed
        packed += [r for g in leave_k_out_groups(ctx, 1) for r in g]
        text = packed_lines(ctx, packed)
        jsonl = packed_lines(ctx, packed, jsonl=True)
        assert len(text) == len(jsonl) == len(packed)
        # the Implication formatters spell a rule as the renderer does
        rules = _implications(ctx, packed)
        assert [format_rule_text(r, ctx.attribute_index)
                for r in rules] == text
        assert [format_rule_jsonl(r, ctx.attribute_index)
                for r in rules] == jsonl
        for (c, xs, ext, flag), t, j in zip(packed, text, jsonl):
            premise = [labels[x] for x in xs]
            sup, psup = (ext & cols[c]).bit_count(), ext.bit_count()
            num, den = (Fraction(sup, psup) if psup else Fraction(1)
                        ).as_integer_ratio()
            conf = str(num) if den == 1 else f"{num}/{den}"
            assert t == (f"{' '.join([*premise, '->'])} {labels[c]} "
                         f"[support={sup}, confidence={conf}, "
                         f"d_basis={str(flag).lower()}]")
            doc = json.loads(j)
            assert (doc["premise"], doc["conclusion"], doc["support"],
                    doc["premise_support"], doc["confidence_num"],
                    doc["confidence_den"], doc["in_d_basis"]) == (
                        premise, labels[c], sup, psup, num, den, flag)
            # the standard library's own spelling, byte for byte
            assert j == json.dumps(doc, ensure_ascii=False)
            seen.update(premise, [labels[c]])
            inexact |= sup < psup
    assert seen == set(ODD_LABELS) and inexact


def test_render_line_confidences():
    # the renderer counts support and premise support off a rule's
    # extent; these extents are picked for their counts over column r,
    # which holds objects 0-5 of 11
    ctx = BinaryContext([f"o{i}" for i in range(11)], ["p", "q", "r"],
                        [[0, 0, int(i < 6)] for i in range(11)])
    assert packed_lines(ctx, [(2, (0, 1), 0b11110000, False),  # objects 4-7
                              (2, (), 0b111000000, True),      # objects 6-8
                              (2, (0,), 0, True)]) == [
        "p q -> r [support=2, confidence=1/2, d_basis=false]",
        "-> r [support=0, confidence=0, d_basis=true]",
        "p -> r [support=0, confidence=1, d_basis=true]"]
    docs = [json.loads(line) for line in packed_lines(
        ctx, [(2, (0,), (1 << 9) - 1, True),    # objects 0-8
              (2, (), 0b11111000000, True)],    # objects 6-10
        jsonl=True)]
    assert docs[0] == {
        "premise": ["p"], "conclusion": "r", "support": 6,
        "premise_support": 9, "confidence_num": 2, "confidence_den": 3,
        "in_d_basis": True}
    assert docs[1]["confidence_num"] == 0
