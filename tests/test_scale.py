"""Scale tier: one instance of the random family at nv=200, far beyond the
brute-force oracle, with the checker as the judge.

The family: nv variables, 2*nv hard clauses of width 2-3 satisfied by a
planted model, and nv soft clauses of width 1-2 with weights 1-9, all drawn
from ``random.Random(nv)``.  The default pipeline must produce a proof the
checker accepts as equioptimal, and two mutations of that large proof must
be rejected."""

import random

import pytest

from certprep import preprocess
from certprep.checker import check_wcnf_proof
from certprep.wcnf import parse_wcnf


def random_family(nv):
    rng = random.Random(nv)
    model = {v: rng.random() < 0.5 for v in range(1, nv + 1)}

    def clause(k):
        return [rng.choice([-1, 1]) * rng.randint(1, nv) for _ in range(k)]

    lines = []
    for _ in range(2 * nv):
        cl = clause(rng.randint(2, 3))
        if not any((lit > 0) == model[abs(lit)] for lit in cl):
            cl[0] = -cl[0]
        lines.append("h %s 0" % " ".join(map(str, cl)))
    for _ in range(nv):
        cl = clause(rng.randint(1, 2))
        lines.append("%d %s 0" % (rng.randint(1, 9), " ".join(map(str, cl))))
    return parse_wcnf("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def large_run():
    inst = random_family(200)
    out, proof, p = preprocess.run(inst)
    return inst, out, proof.splitlines(), p


def test_large_proof_verifies(large_run):
    inst, out, lines, p = large_run
    assert p.writer.lines_written == len(lines) == 2848
    v = check_wcnf_proof(inst, lines, out)
    assert v.accepted and v.level == "EQUIOPTIMAL", (v.lineno, v.error)


def _last(lines, pred):
    # the last such step, where the checker's state has seen the most churn
    return max(i for i, line in enumerate(lines) if pred(line))


def test_large_proof_rejects_a_flipped_rup_literal(large_run):
    inst, out, lines, _ = large_run
    i = _last(lines, lambda line: line.startswith("rup "))
    toks = lines[i].split()
    lit = toks[2]
    toks[2] = lit[1:] if lit.startswith("~") else "~" + lit
    mutated = lines[:i] + [" ".join(toks)] + lines[i + 1:]
    v = check_wcnf_proof(inst, mutated, out)
    assert not v.accepted
    assert v.lineno == i + 1


def test_large_proof_rejects_a_delc_without_its_witness(large_run):
    inst, out, lines, _ = large_run
    i = _last(lines, lambda line: line.startswith("delc ") and ";" in line)
    mutated = lines[:i] + [lines[i].split(";")[0].strip()] + lines[i + 1:]
    v = check_wcnf_proof(inst, mutated, out)
    assert not v.accepted
    assert v.lineno == i + 1
