"""The benchmark's traced runs, made as ``perfbench/run.py`` makes them.

``perfbench/traced.py`` wraps certprep's functions by name and runs the
CLI under them; the benchmark traces every oracle-trim companion and gates
it on the technique counts the spans file records.  Here each seed-7
oracle-trim companion goes through ``traced.py`` in a subprocess,
``preprocess`` and then ``check``: both must exit 0, and trim and harden
must both have applied, the rule of ``gate.check_oracle`` (``gate.py``
itself needs NumPy).  A rename that breaks the tracer's wrappers fails
here.
"""

import json
import os
import subprocess
import sys

import certprep
from conftest import PERFBENCH

SRC = os.path.dirname(os.path.dirname(os.path.abspath(certprep.__file__)))


def traced(spans, args, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, str(PERFBENCH / "traced.py"), str(spans)] + args,
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_traced_oracle_companions_apply_trim_and_harden(gen, tmp_path):
    cases = gen.companion_cases("oracle-trim", 7)
    assert len(cases) == 3 and all(case.oracle for case in cases)
    for case in cases:
        (tmp_path / "in.wcnf").write_text(case.text)
        pre, chk = tmp_path / "pre.spans.json", tmp_path / "chk.spans.json"
        for spans, args in (
                (pre, ["preprocess", "in.wcnf", "-o", "out.wcnf",
                       "-p", "proof.pbp", "--techniques=" + case.techniques]),
                (chk, ["check", "in.wcnf", "proof.pbp", "out.wcnf"])):
            proc = traced(spans, args, tmp_path)
            assert proc.returncode == 0, (case.name, args[0], proc.stdout,
                                          proc.stderr)
            assert json.loads(spans.read_text())["spans"], (case.name, args[0])
        counters = json.loads(pre.read_text())["counters"]
        for t in ("trim", "harden"):
            assert counters.get("preprocess.%s.applied" % t, 0) > 0, \
                (case.name, counters)
