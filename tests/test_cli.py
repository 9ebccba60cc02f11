"""Command-line behaviour: exit codes, verdict lines, determinism."""

import os
import pathlib
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


def test_preprocess_missing_input(tmp_path, capsys):
    code = run_cli("preprocess", tmp_path / "absent.wcnf",
                   "-o", tmp_path / "o", "-p", tmp_path / "p")
    assert code == 2
    assert capsys.readouterr().err


def test_preprocess_bad_technique_name(tmp_path, capsys):
    code, _, _ = preprocess_golden(tmp_path, "--techniques=up,bogus")
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_preprocess_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.wcnf"
    bad.write_text("h 1 2\n")
    code = run_cli("preprocess", bad, "-o", tmp_path / "o",
                   "-p", tmp_path / "p")
    assert code == 2


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


def test_check_does_not_load_the_preprocessor():
    """`certprep check` imports neither the preprocessor nor the modules
    only it uses, before or after checking the golden proof."""
    script = (
        "import sys\n"
        "from certprep import cli\n"
        "others = ('certprep.preprocess', 'certprep.sat', 'certprep.writer')\n"
        "before = [m for m in others if m in sys.modules]\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(before, [m for m in others if m in sys.modules], code)\n")
    src = os.path.dirname(os.path.dirname(certprep.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-c", script, "check", str(GOLDEN),
         str(DATA / "golden.pbp"), str(DATA / "golden.out.wcnf")],
        capture_output=True, text=True, env=env, check=True)
    assert res.stdout.splitlines()[-1] == "[] [] 0"


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
