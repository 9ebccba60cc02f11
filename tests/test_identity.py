"""The CLI's bytes on the benchmark's generated instances, pinned.

Every case that ``perfbench/gen.py`` builds at seeds 7 and 13 (each
workload's main instances and its companions) is run through
``certprep preprocess`` with the case's technique set and then through
``certprep check``, in process.  One SHA-1 over both commands' exit codes,
stdout and stderr and over the output and proof files must stay the same: a
rewrite of the preprocessor, the writer or the CLI that changes any byte of
them fails here.  A change to the generators, or one that changes the bytes
on purpose, pins the new digest.
"""

import hashlib
import pathlib
import sys

import pytest

from certprep import cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def gen():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import gen
    finally:
        sys.path.remove(str(PERFBENCH))
    return gen


def _cases(gen, seed):
    for w in gen.WORKLOADS:
        yield from gen.workload_cases(w, seed)
        yield from gen.companion_cases(w, seed)


DIGESTS = {
    7: "0dfb889a060b3e1732cec5645086084cdcf8a6b5",
    13: "6cab657c9136c420996e60c7014f8a77ea43fa9a",
}


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_cli_bytes_on_generated_cases_match_pinned_digest(
        seed, gen, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha1()
    n = 0
    for case in _cases(gen, seed):
        pathlib.Path("in.wcnf").write_text(case.text)
        flags = ([] if case.techniques is None
                 else ["--techniques=" + case.techniques])
        codes = (
            cli.main(["preprocess", "in.wcnf", "-o", "out.wcnf",
                      "-p", "proof.pbp"] + flags),
            cli.main(["check", "in.wcnf", "proof.pbp", "out.wcnf"]),
        )
        captured = capsys.readouterr()
        for part in (case.name, repr(codes), captured.out, captured.err):
            h.update(part.encode() + b"\0")
        for name in ("out.wcnf", "proof.pbp"):
            h.update(pathlib.Path(name).read_bytes() + b"\0")
        assert codes == (0, 0), (case.name, captured.err)
        n += 1
    assert n == 52
    assert h.hexdigest() == DIGESTS[seed]
