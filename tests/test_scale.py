"""Scale tier: instances far beyond the brute-force oracle, with the checker
as the judge.

The random family: nv variables, 2*nv hard clauses of width 2-3 satisfied by
a planted model, and nv soft clauses of width 1-2 with weights 1-9, all drawn
from ``random.Random(nv)``.  The default pipeline must produce a proof the
checker accepts as equioptimal, and two mutations of that large proof must
be rejected.  With `trim` and `harden` added, the proof gains long selector
clauses that later steps propagate over; it must be accepted too, and
rejected when its last `red` step is changed.  A second, larger instance
with planted duplicates and tautologies exercises the `dup` and `taut` passes alone through the CLI, and
the SAT oracle runs `trim`'s search pattern on the family's hard clauses in
lockstep with the scanning reference oracle."""

import random

import pytest

from certprep import cli, pb, preprocess
from certprep.checker import check_wcnf_proof
from certprep.wcnf import parse_wcnf
from conftest import Lockstep


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


@pytest.fixture(scope="module")
def oracle_run():
    inst = random_family(200)
    cfg = preprocess.Config(
        techniques=preprocess.DEFAULT_TECHNIQUES + ("trim", "harden"))
    out, proof, _ = preprocess.run(inst, cfg)
    return inst, out, proof.splitlines()


def test_oracle_proof_verifies(oracle_run):
    """trim and harden fix nothing here, but trim's search logs 273
    selector clauses of more than 8 literals, which every later
    propagation may touch; a check that rescans a constraint per false
    literal took 5-9 s on this proof."""
    inst, out, lines = oracle_run
    assert len(lines) == 3538
    v = check_wcnf_proof(inst, lines, out)
    assert v.accepted and v.level == "EQUIOPTIMAL", (v.lineno, v.error)


def test_oracle_proof_rejects_a_flipped_red_literal(oracle_run):
    inst, out, lines = oracle_run
    i = _last(lines, lambda line: line.startswith("red ") and ";" in line)
    toks = lines[i].split()
    lit = toks[2]
    toks[2] = lit[1:] if lit.startswith("~") else "~" + lit
    mutated = lines[:i] + [" ".join(toks)] + lines[i + 1:]
    v = check_wcnf_proof(inst, mutated, out)
    assert not v.accepted
    assert v.lineno == i + 1


def to_wcnf(hard, soft):
    lines = ["h %s 0" % " ".join(map(str, cl)) for cl in hard]
    lines += ["%d %s 0" % (w, " ".join(map(str, cl))) for w, cl in soft]
    return "\n".join(lines) + "\n"


def planted_duplicates(seed, nv, n_hard, n_soft, n_dup, n_taut):
    """Distinct hard clauses of width 3-5 and relaxed soft clauses of width
    2-3, plus shuffled copies of hard clauses and hard tautologies inserted
    at random places.  Returns the WCNF text with and without the planted
    clauses."""
    rng = random.Random(seed)
    seen = set()

    def fresh(width):
        while True:
            cl = [v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, nv + 1), width)]
            if frozenset(cl) not in seen:
                seen.add(frozenset(cl))
                return cl

    hard = [fresh(rng.randint(3, 5)) for _ in range(n_hard)]
    soft = [(rng.randint(1, 9), fresh(rng.randint(2, 3)))
            for _ in range(n_soft)]
    expected = to_wcnf(hard, soft)
    planted = [rng.sample(cl, len(cl)) for cl in rng.sample(hard, n_dup)]
    for _ in range(n_taut):
        v = rng.randint(1, nv)
        planted.append([v, -v] + rng.sample(range(1, nv + 1), 2))
    for cl in planted:
        hard.insert(rng.randint(0, len(hard)), cl)
    return to_wcnf(hard, soft), expected


def as_multiset(inst):
    return (sorted(sorted(cl) for cl in inst.hard),
            sorted((w, sorted(cl)) for w, cl in inst.soft))


def test_dup_and_taut_remove_exactly_the_planted_clauses(tmp_path, capsys):
    text, expected = planted_duplicates(
        4000, nv=1000, n_hard=2400, n_soft=1600, n_dup=30, n_taut=30)
    inp, out, proof = (tmp_path / n for n in ("in.wcnf", "out.wcnf", "p.pbp"))
    inp.write_text(text)
    assert cli.main(["preprocess", str(inp), "-o", str(out), "-p", str(proof),
                     "--techniques=dup,taut"]) == 0
    assert "clauses: 4060 -> 4000" in capsys.readouterr().out
    assert as_multiset(parse_wcnf(out.read_text())) == \
        as_multiset(parse_wcnf(expected))
    assert cli.main(["check", str(inp), str(proof), str(out)]) == 0
    assert capsys.readouterr().out.strip() == cli.VERIFIED_LINE


def test_oracle_matches_reference_on_selector_bisection():
    """The `trim` search pattern on the hard clauses of the nv=200 family, in
    lockstep with the scanning reference oracle: the candidates are the
    negations of all 200 variables, and each step adds a selector clause
    over the first m live candidates and solves under the selector.  The
    reference sweeps every clause per propagation, about 0.03 s a call at
    this size, so the bisection stops after 12 steps (the full run takes
    35 steps and 1.5 s)."""
    inst = random_family(200)
    both = Lockstep()
    for cl in inst.hard:
        both.add_clause(cl)
    alive = [pb.mklit(pb.mkvar(v), True) for v in range(1, 201)]
    m = len(alive)
    for step in range(1, 13):
        m = max(1, min(m, len(alive)))
        s = pb.mkvar(step, pb.NS_AUX)
        both.add_clause([pb.mklit(s, True)] + alive[:m])
        model = both.solve([pb.mklit(s)])
        assert model is not None
        model = dict(model)
        alive = [l for l in alive if model.get(l >> 1, 0) != (l & 1) ^ 1]
    assert both.new.conflicts > 3 and both.learned[0]
