"""Command-line behaviour: exit codes, verdict lines, determinism."""

import errno
import gc
import os
import pathlib
import random
import subprocess
import sys

import pytest

import certprep
from certprep import cli

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden.wcnf"


def run_cli(*args):
    return cli.main([str(a) for a in args])


def preprocess_golden(tmp_path, *extra):
    out = tmp_path / "out.wcnf"
    proof = tmp_path / "proof.pbp"
    code = run_cli("preprocess", GOLDEN, "-o", out, "-p", proof, *extra)
    return code, out, proof


def test_preprocess_writes_output_and_proof(tmp_path, capsys):
    code, out, proof = preprocess_golden(tmp_path)
    assert code == 0
    assert out.read_text() == (DATA / "golden.out.wcnf").read_text()
    assert proof.read_text() == (DATA / "golden.pbp").read_text()
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["clauses: 5 -> 4", "vars: 5 -> 7", "proof lines: 68"]


def test_preprocess_is_deterministic(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    _, out1, proof1 = preprocess_golden(tmp_path / "a")
    _, out2, proof2 = preprocess_golden(tmp_path / "b")
    assert out1.read_bytes() == out2.read_bytes()
    assert proof1.read_bytes() == proof2.read_bytes()


def test_preprocess_no_techniques_round_trips(tmp_path, capsys):
    code, out, proof = preprocess_golden(tmp_path, "--techniques=")
    assert code == 0
    assert out.read_text() == GOLDEN.read_text()
    capsys.readouterr()
    assert run_cli("check", GOLDEN, proof, out) == 0


# A run that changes nothing writes the input's clauses back, hard clauses
# first, each with its literals in input order, repeats kept, and each
# weight as its value: not the input's bytes.
UNCHANGED_CURRENT = ("c a comment\n3 -2 1 0\nh 2  1 1 0\n007 4 0\n"
                     "h -3 1 -3 0\n5 2 -4 2 0\n")
UNCHANGED_LEGACY = ("c a comment\np wcnf 4 5 10\n3 -2 1 0\n10 2  1 1 0\n"
                    "007 4 0\n12 -3 1 -3 0\n5 2 -4 2 0\n")
UNCHANGED_OUTPUT = "h 2 1 1 0\nh -3 1 -3 0\n3 -2 1 0\n7 4 0\n5 2 -4 2 0\n"


@pytest.mark.parametrize("text", [UNCHANGED_CURRENT, UNCHANGED_LEGACY],
                         ids=["current", "legacy"])
def test_unchanged_run_writes_the_input_clauses_back(tmp_path, capsys, text):
    src = tmp_path / "in.wcnf"
    src.write_text(text)
    out, proof = tmp_path / "out.wcnf", tmp_path / "proof.pbp"
    assert run_cli("preprocess", src, "-o", out, "-p", proof,
                   "--techniques=") == 0
    assert out.read_text() == UNCHANGED_OUTPUT
    assert capsys.readouterr().out == (
        "clauses: 5 -> 5\nvars: 4 -> 4\nproof lines: 7\n")
    assert run_cli("check", src, proof, out) == 0


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_unchanged_run_reads_a_pipe_once(tmp_path, capsys):
    """A pipe, such as a shell's `<(zcat in.wcnf.gz)`, reads once: its
    clauses are kept for the output of a run that changes nothing."""
    r, w = os.pipe()
    os.write(w, UNCHANGED_CURRENT.encode())
    os.close(w)
    out, proof = tmp_path / "out.wcnf", tmp_path / "proof.pbp"
    try:
        assert run_cli("preprocess", "/dev/fd/%d" % r, "-o", out,
                       "-p", proof, "--techniques=") == 0
    finally:
        os.close(r)
    assert out.read_text() == UNCHANGED_OUTPUT
    assert capsys.readouterr().out == (
        "clauses: 5 -> 5\nvars: 4 -> 4\nproof lines: 7\n")


def test_input_rewritten_during_the_run_is_an_error(tmp_path, capsys,
                                                    monkeypatch):
    """A run that changes nothing reads its input file again for the
    output; a file that then reads otherwise fails the run, which leaves no
    output or proof file."""
    from certprep import preprocess

    src = tmp_path / "in.wcnf"
    src.write_text(UNCHANGED_CURRENT)
    finish = preprocess.Preprocessor.finish

    def rewritten_first(self):
        src.write_text(UNCHANGED_CURRENT.replace("007 4 0\n", ""))
        return finish(self)
    monkeypatch.setattr(preprocess.Preprocessor, "finish", rewritten_first)
    out, proof = tmp_path / "out.wcnf", tmp_path / "proof.pbp"
    assert run_cli("preprocess", src, "-o", out, "-p", proof,
                   "--techniques=") == 2
    captured = capsys.readouterr()
    assert captured.err == "error: %s changed while it was read\n" % src
    assert captured.out == ""
    assert not out.exists() and not proof.exists()


def test_output_in_a_missing_directory_leaves_no_proof(tmp_path, capsys):
    """The output file is created after the proof is written: a run that
    cannot create it exits 2 and removes the proof it wrote."""
    out, proof = tmp_path / "missing" / "out.wcnf", tmp_path / "proof.pbp"
    assert run_cli("preprocess", GOLDEN, "-o", out, "-p", proof) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_write_error_in_the_output_leaves_neither_file(tmp_path, capsys,
                                                      monkeypatch):
    """A write that fails after the output's first line exits 2 and
    removes both the output and the proof."""
    write = cli.write_wcnf

    def failing(inst, fh):
        def clauses():
            yield next(iter(inst))
            raise OSError(errno.ENOSPC, "No space left on device")
        write(clauses(), fh)
    monkeypatch.setattr(cli, "write_wcnf", failing)
    code, out, proof = preprocess_golden(tmp_path)
    assert code == 2
    assert capsys.readouterr().err == (
        "error: [Errno 28] No space left on device\n")
    assert not out.exists() and not proof.exists()


def test_failed_close_of_the_output_leaves_neither_file(tmp_path, capsys,
                                                       monkeypatch):
    """The output's last block is written when the file is closed: a close
    that fails fails the run as a failed write does."""
    out = tmp_path / "out.wcnf"

    def opening(path, mode="r"):
        fh = open(path, mode)
        if path == str(out):
            close = fh.close

            def failing_close():
                close()
                raise OSError(errno.EIO, "Input/output error")
            fh.close = failing_close
        return fh
    monkeypatch.setattr(cli, "open", opening, raising=False)
    code, out, proof = preprocess_golden(tmp_path)
    assert code == 2
    assert capsys.readouterr().err == "error: [Errno 5] Input/output error\n"
    assert not out.exists() and not proof.exists()


def test_failed_run_never_removes_a_device(tmp_path, capsys, monkeypatch):
    """A run that fails after writing its proof to the null device leaves
    the device alone: only a regular file the run wrote is removed."""
    from certprep import preprocess

    src = tmp_path / "in.wcnf"
    src.write_text(UNCHANGED_CURRENT)
    finish = preprocess.Preprocessor.finish

    def rewritten_first(self):
        src.write_text(UNCHANGED_CURRENT.replace("007 4 0\n", ""))
        return finish(self)
    monkeypatch.setattr(preprocess.Preprocessor, "finish", rewritten_first)
    removed = []
    monkeypatch.setattr(os, "remove", removed.append)
    out = tmp_path / "out.wcnf"
    assert run_cli("preprocess", src, "-o", out, "-p", os.devnull,
                   "--techniques=") == 2
    assert capsys.readouterr().err == (
        "error: %s changed while it was read\n" % src)
    assert os.devnull not in removed
    assert not out.exists()


# Paths that name one file twice, as (arguments after the input "in.wcnf",
# the roles of the two, the path named second).  "link.wcnf" is a hard link
# to the input and "old.pbp" a file from an earlier run.
ONE_FILE_TWICE = [
    (("-o", "out.wcnf", "-p", "in.wcnf", "--techniques="),
     "input", "proof", "in.wcnf"),
    (("-o", "out.wcnf", "-p", "in.wcnf"), "input", "proof", "in.wcnf"),
    (("-o", "x", "-p", "x"), "output", "proof", "x"),
    (("-o", "old.pbp", "-p", "old.pbp"), "output", "proof", "old.pbp"),
    (("-o", "in.wcnf", "-p", "proof.pbp"), "input", "output", "in.wcnf"),
    (("-o", "out.wcnf", "-p", "link.wcnf"), "input", "proof", "link.wcnf"),
]


@pytest.mark.parametrize("args, first, second, named", ONE_FILE_TWICE,
                         ids=["proof-on-input-unchanged", "proof-on-input",
                              "new-file", "old-file", "output-on-input",
                              "hard-link"])
def test_preprocess_refuses_one_file_named_twice(tmp_path, capsys,
                                                 monkeypatch, args, first,
                                                 second, named):
    """The input, the output and the proof must be three files: otherwise
    the run exits 2 before it writes anything, and every file stays as it
    was."""
    monkeypatch.chdir(tmp_path)
    src = tmp_path / "in.wcnf"
    src.write_bytes(GOLDEN.read_bytes())
    os.link(src, tmp_path / "link.wcnf")
    (tmp_path / "old.pbp").write_text("kept\n")
    assert run_cli("preprocess", "in.wcnf", *args) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: the %s and the %s are the same file: "
                            "%s\n" % (first, second, named))
    assert captured.out == ""
    assert src.read_bytes() == GOLDEN.read_bytes()
    assert (tmp_path / "old.pbp").read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "in.wcnf", "link.wcnf", "old.pbp"]


def test_preprocess_may_discard_output_and_proof_alike(capsys):
    """A file that is not a regular one, such as the null device, may take
    both the output and the proof."""
    assert run_cli("preprocess", GOLDEN, "-o", os.devnull,
                   "-p", os.devnull) == 0
    assert capsys.readouterr().out.splitlines()[0] == "clauses: 5 -> 4"


def test_preprocess_missing_input(tmp_path, capsys):
    code = run_cli("preprocess", tmp_path / "absent.wcnf",
                   "-o", tmp_path / "o", "-p", tmp_path / "p")
    assert code == 2
    assert capsys.readouterr().err


def test_preprocess_bad_technique_name(tmp_path, capsys):
    code, _, _ = preprocess_golden(tmp_path, "--techniques=up,bogus")
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_preprocess_rounds_flag(tmp_path, capsys):
    code, out, proof = preprocess_golden(tmp_path, "--rounds", 1)
    assert code == 0
    capsys.readouterr()
    assert run_cli("check", GOLDEN, proof, out) == 0
    assert capsys.readouterr().out == "s VERIFIED OUTPUT EQUIOPTIMAL\n"
    code, _, _ = preprocess_golden(tmp_path, "--rounds", 0)
    assert code == 2
    assert capsys.readouterr().err == "error: rounds must be >= 1\n"


def test_preprocess_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.wcnf"
    bad.write_text("h 1 2\n")
    code = run_cli("preprocess", bad, "-o", tmp_path / "o",
                   "-p", tmp_path / "p")
    assert code == 2


def test_malformed_input_writes_neither_file(tmp_path, capsys):
    """The input is read whole before the proof file is created, so a
    malformed line leaves no output or proof, and a proof file that was
    already there stays as it was."""
    bad = tmp_path / "bad.wcnf"
    bad.write_text("h 1 2 0\nh 1 x 0\n3 1 0\n")
    out, proof = tmp_path / "out.wcnf", tmp_path / "proof.pbp"
    assert run_cli("preprocess", bad, "-o", out, "-p", proof) == 2
    assert capsys.readouterr().err == "error: line 2: bad literal 'x'\n"
    assert not out.exists() and not proof.exists()
    proof.write_text("kept\n")
    assert run_cli("preprocess", bad, "-o", out, "-p", proof) == 2
    assert proof.read_text() == "kept\n" and not out.exists()


def test_check_verified(tmp_path, capsys):
    _, out, proof = preprocess_golden(tmp_path)
    capsys.readouterr()
    assert run_cli("check", GOLDEN, proof, out) == 0
    stdout = capsys.readouterr().out
    assert stdout.endswith("s VERIFIED OUTPUT EQUIOPTIMAL\n")


def test_check_rejects_tampered_proof(tmp_path, capsys):
    _, out, proof = preprocess_golden(tmp_path)
    text = proof.read_text().replace("pol 1 2 +", "pol 1 1 +")
    tampered = tmp_path / "tampered.pbp"
    tampered.write_text(text)
    capsys.readouterr()
    assert run_cli("check", GOLDEN, tampered, out) == 1
    stdout = capsys.readouterr().out
    assert stdout.startswith("s REJECTED ")


@pytest.mark.parametrize("steps", [
    ["pol 1 1 *", "delc 1", "delc 5"],
    ["pol 1 1 *", "delc 1 ; x3 -> 0", "delc 5"],
    ["red +1 x1 +1 x2 >= 1 ; x3 -> 0", "delc 1", "delc 5"],
])
def test_check_rejects_a_hard_clause_dropped_through_a_copy(tmp_path, capsys,
                                                            steps):
    """The golden input without h 1 2 0 has optimum 0, not 1: a derived copy
    of that clause must not justify deleting it from the core."""
    out = tmp_path / "out.wcnf"
    out.write_text(GOLDEN.read_text().replace("h 1 2 0\n", ""))
    proof = tmp_path / "proof.pbp"
    proof.write_text("\n".join(
        ["pseudo-Boolean proof version 2.0", "f 4", *steps,
         "output EQUIOPTIMAL", "conclusion NONE",
         "end pseudo-Boolean proof", ""]))
    assert run_cli("opt", out) == 0 and capsys.readouterr().out == "o 0\n"
    assert run_cli("check", GOLDEN, proof, out) == 1
    assert capsys.readouterr().out.startswith("s REJECTED 4: line 4: ")


def test_check_rejects_a_red_subproof(tmp_path, capsys):
    """A ``; begin`` after a witness is a malformed trailer, not a block."""
    lines = (DATA / "golden.pbp").read_text().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("red "))
    lines[first] = lines[first].rstrip("\n") + " ; begin\n"
    proof = tmp_path / "begin.pbp"
    proof.write_text("".join(lines))
    capsys.readouterr()
    assert run_cli("check", GOLDEN, proof, DATA / "golden.out.wcnf") == 1
    assert capsys.readouterr().out == (
        "s REJECTED %d: line %d: red: malformed trailer\n"
        % (first + 1, first + 1))
    assert first + 1 == 15


@pytest.mark.parametrize("level", ["DERIVABLE", "EQUISATISFIABLE"])
def test_check_rejects_every_other_output_level(tmp_path, capsys, level):
    """EQUIOPTIMAL is the one output level: any other is rejected at its
    line, like an unknown word."""
    proof = tmp_path / "level.pbp"
    proof.write_text((DATA / "golden.pbp").read_text().replace(
        "output EQUIOPTIMAL", "output " + level))
    capsys.readouterr()
    assert run_cli("check", GOLDEN, proof, DATA / "golden.out.wcnf") == 1
    assert capsys.readouterr().out == (
        "s REJECTED 66: line 66: unknown output level %r\n" % level)


@pytest.mark.parametrize("line", [
    "%s 1 2 0" % ("9" * 5000), "3 -%s 2 0" % ("1" * 5000)],
    ids=["weight", "literal"])
def test_preprocess_names_a_number_past_the_int_limit(tmp_path, capsys, line):
    bad = tmp_path / "bad.wcnf"
    bad.write_text("h 1 2 0\n%s\n" % line)
    code = run_cli("preprocess", bad, "-o", tmp_path / "o",
                   "-p", tmp_path / "p")
    assert code == 2
    assert capsys.readouterr().err == (
        "error: line 2: number of 5000 digits (at most 4300)\n")


def test_weight_with_leading_zeros_reads_as_its_value(tmp_path, capsys):
    src = tmp_path / "zeros.wcnf"
    src.write_text("h 1 2 0\n%s7 -1 -2 0\n" % ("0" * 5000))
    out, proof = tmp_path / "out.wcnf", tmp_path / "proof.pbp"
    assert run_cli("preprocess", src, "-o", out, "-p", proof) == 0
    assert out.read_text() == "7 -1 0\n"
    capsys.readouterr()
    assert run_cli("check", src, proof, out) == 0
    assert capsys.readouterr().out == "s VERIFIED OUTPUT EQUIOPTIMAL\n"


def test_check_rejects_wrong_output(tmp_path, capsys):
    # claiming the unpreprocessed input as the result must fail
    _, out, proof = preprocess_golden(tmp_path)
    capsys.readouterr()
    assert run_cli("check", GOLDEN, proof, GOLDEN) == 1
    assert capsys.readouterr().out.startswith("s REJECTED ")


def test_check_wrong_arity(tmp_path, capsys):
    _, out, proof = preprocess_golden(tmp_path)
    capsys.readouterr()
    assert run_cli("check", GOLDEN, proof) == 2


def test_check_missing_file(tmp_path, capsys):
    _, out, proof = preprocess_golden(tmp_path)
    capsys.readouterr()
    assert run_cli("check", GOLDEN, tmp_path / "nope.pbp", out) == 2


def test_check_undecodable_proof_is_an_io_error(tmp_path, capsys):
    # the bad bytes sit past the first read chunk, so the checker has
    # already been fed lines when decoding fails
    _, out, proof = preprocess_golden(tmp_path)
    header, preamble, rest = proof.read_bytes().split(b"\n", 2)
    bad = tmp_path / "bad.pbp"
    bad.write_bytes(header + b"\n" + preamble + b"\n" + b"* padding\n" * 4000
                    + b"* \xff\xfe\n" + rest)
    capsys.readouterr()
    assert run_cli("check", GOLDEN, bad, out) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out


def test_check_reports_a_malformed_output_before_the_proof(tmp_path,
                                                          capsys):
    """The output is read before the proof replays: a malformed output
    line exits 2 with its line-numbered message, even with a bad or missing
    proof, and a malformed input is reported before a malformed output."""
    _, out, proof = preprocess_golden(tmp_path)
    bad_out = tmp_path / "bad.out.wcnf"
    bad_out.write_text(out.read_text() + "h 2 x 0\n")
    bad_proof = tmp_path / "bad.pbp"
    bad_proof.write_text("not a proof\n")
    bad_in = tmp_path / "bad.wcnf"
    bad_in.write_text("h 1 0\n3 1_0 0\n")
    n = len(out.read_text().splitlines()) + 1
    capsys.readouterr()
    for pf in (proof, bad_proof, tmp_path / "absent.pbp"):
        assert run_cli("check", GOLDEN, pf, bad_out) == 2
        assert capsys.readouterr() == (
            "", "error: line %d: bad literal 'x'\n" % n)
    assert run_cli("check", bad_in, bad_proof, bad_out) == 2
    assert capsys.readouterr() == ("", "error: line 2: bad literal '1_0'\n")


def test_check_verifies_a_shuffled_output(tmp_path, capsys):
    """The output is compared as a set of clauses: shuffling its lines, and
    the literals within each line, keeps it verified."""
    _, out, proof = preprocess_golden(tmp_path)
    rng = random.Random(5)
    lines = out.read_text().splitlines()
    for _ in range(5):
        rng.shuffle(lines)
        shuffled = []
        for line in lines:
            head, *lits, end = line.split()
            rng.shuffle(lits)
            shuffled.append(" ".join([head] + lits + [end]))
        out.write_text("\n".join(shuffled) + "\n")
        capsys.readouterr()
        assert run_cli("check", GOLDEN, proof, out) == 0
        assert capsys.readouterr().out == "s VERIFIED OUTPUT EQUIOPTIMAL\n"


def loaded_modules(argv, names):
    """Run `cli.main(argv)` in a fresh interpreter: which of `names` are
    loaded after `from certprep import cli`, which after the command, and
    its exit code."""
    script = (
        "import sys\n"
        "from certprep import cli\n"
        "names = %r\n"
        "before = [m for m in names if m in sys.modules]\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(before, [m for m in names if m in sys.modules], code)\n"
        % (names,))
    src = os.path.dirname(os.path.dirname(certprep.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", script] + [str(a) for a in argv],
                         capture_output=True, text=True, env=env, check=True)
    return res.stdout.splitlines()[-1]


def test_check_does_not_load_the_preprocessor():
    """`certprep check` imports neither the preprocessor nor the modules
    only it uses, before or after checking the golden proof."""
    others = ("certprep.preprocess", "certprep.sat", "certprep.writer")
    argv = ["check", GOLDEN, DATA / "golden.pbp", DATA / "golden.out.wcnf"]
    assert loaded_modules(argv, others) == "[] [] 0"


@pytest.mark.parametrize("extra, loaded", [
    ((), "[]"),
    (("--techniques=dup,up,trim",), "['certprep.sat']"),
])
def test_preprocess_loads_the_oracle_only_for_it(tmp_path, extra, loaded):
    """`certprep preprocess` never imports the checker, and imports the SAT
    oracle only when a technique that calls it is selected."""
    argv = ["preprocess", GOLDEN, "-o", tmp_path / "out.wcnf",
            "-p", tmp_path / "proof.pbp", *extra]
    names = ("certprep.checker", "certprep.sat")
    assert loaded_modules(argv, names) == "[] %s 0" % loaded


def test_opt_reports_optimum(capsys):
    assert run_cli("opt", GOLDEN) == 0
    assert capsys.readouterr().out == "o 1\n"


def test_opt_on_preprocessed_output(tmp_path, capsys):
    _, out, _ = preprocess_golden(tmp_path)
    capsys.readouterr()
    assert run_cli("opt", out) == 0
    assert capsys.readouterr().out == "o 1\n"


def test_opt_infeasible(tmp_path, capsys):
    bad = tmp_path / "unsat.wcnf"
    bad.write_text("h 1 0\nh -1 0\n")
    assert run_cli("opt", bad) == 0
    assert capsys.readouterr().out == "s INFEASIBLE\n"


def test_opt_bound_exceeded(capsys):
    assert run_cli("opt", GOLDEN, "--bound", "2") == 3
    err = capsys.readouterr().err
    assert "brute force" in err


def test_no_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 2


def test_bve_with_a_live_tautology_keeps_the_optimum(tmp_path, capsys):
    """Without `taut`, the hard tautology (x1 v x5 v ~x5) is dropped at the
    switch to stage 4 instead of reading as the clause (x1), so bve no
    longer derives the unit x4 (cost 1 where the optimum is 0)."""
    inp = tmp_path / "in.wcnf"
    inp.write_text("h 1 5 -5 0\nh -1 4 0\n1 -4 0\n1 -5 0\n")
    out, proof = tmp_path / "out.wcnf", tmp_path / "proof.pbp"
    assert run_cli("preprocess", inp, "-o", out, "-p", proof,
                   "--techniques=bve") == 0
    capsys.readouterr()
    assert run_cli("check", inp, proof, out) == 0
    assert capsys.readouterr().out == "s VERIFIED OUTPUT EQUIOPTIMAL\n"
    assert run_cli("opt", out) == 0
    assert capsys.readouterr().out == "o 0\n"


@pytest.fixture
def odd_gc_threshold():
    """A generation-0 threshold no code sets on its own, restored after."""
    old = gc.get_threshold()
    gc.set_threshold(1234, 7, 9)
    yield (1234, 7, 9)
    gc.set_threshold(*old)


def test_cli_restores_the_gc_threshold_on_every_exit(tmp_path, capsys,
                                                     monkeypatch,
                                                     odd_gc_threshold):
    """The CLI raises the generation-0 threshold for its command only, and
    puts back what it found after exit 0, 1 (rejected) and 2 (malformed
    input or usage)."""
    during = []
    check = cli.check_wcnf_proof

    def recording_check(*args):
        during.append(gc.get_threshold())
        return check(*args)
    monkeypatch.setattr(cli, "check_wcnf_proof", recording_check)
    code, out, proof = preprocess_golden(tmp_path)
    assert code == 0 and gc.get_threshold() == odd_gc_threshold
    assert run_cli("check", GOLDEN, proof, out) == 0
    assert during == [(cli.GC_THRESHOLD, 7, 9)]
    assert gc.get_threshold() == odd_gc_threshold
    tampered = tmp_path / "tampered.pbp"
    tampered.write_text(proof.read_text().replace("output EQUIOPTIMAL",
                                                  "output DERIVABLE"))
    assert run_cli("check", GOLDEN, tampered, out) == 1
    assert gc.get_threshold() == odd_gc_threshold
    bad = tmp_path / "bad.wcnf"
    bad.write_text("h 1 x 0\n")
    assert run_cli("preprocess", bad, "-o", out, "-p", proof) == 2
    assert gc.get_threshold() == odd_gc_threshold
    assert run_cli("check", bad, proof, out) == 2
    assert gc.get_threshold() == odd_gc_threshold
    assert run_cli("check", GOLDEN) == 2
    assert gc.get_threshold() == odd_gc_threshold
    assert "bad literal 'x'" in capsys.readouterr().err


def test_library_calls_leave_the_gc_threshold_alone(odd_gc_threshold):
    from certprep import preprocess
    from certprep.checker import check_wcnf_proof
    from certprep.wcnf import parse_wcnf

    inst = parse_wcnf(GOLDEN.read_text())
    out, proof, _ = preprocess.run(inst)
    assert gc.get_threshold() == odd_gc_threshold
    verdict = check_wcnf_proof(inst, proof.splitlines(), out)
    assert verdict.accepted and verdict.level == "EQUIOPTIMAL"
    assert gc.get_threshold() == odd_gc_threshold
