"""Scale tier: instances far beyond the brute-force oracle, with the checker
as the judge.

The random family: nv variables, 2*nv hard clauses of width 2-3 satisfied by
a planted model, and nv soft clauses of width 1-2 with weights 1-9, all drawn
from ``random.Random(nv)``.  The default pipeline must produce a proof the
checker accepts as equioptimal; four mutations of that large proof (a `rup`
literal, a `delc` witness, a renaming `obju diff` coefficient, a witness
constant on an objective variable) must be rejected at their line; and the
preprocessor's state must equal the checker's after every application.
With `trim` and `harden` added, the proof gains long selector clauses that
later steps propagate over; it must be accepted too, and rejected when its
last `red` step is changed.  A second, larger instance with planted
duplicates and tautologies exercises the `dup` and `taut` passes alone
through the CLI, and the SAT oracle runs `trim`'s search pattern on the
family's hard clauses, returning at each step the same model as the
scanning reference oracle.

Tests marked `slow` take the family further (nv = 800) and the planted
duplicates to 64,000 clauses, run `trim` and `harden` on a 4,000-clause
instance, and remove 20,000 constraints that share one literal from the
propagation engine; the default run leaves them out, and `pytest -m slow`
runs them."""

import io
import random
import time

import pytest

from certprep import cli, pb, preprocess
from certprep.checker import ProofChecker, check_wcnf_proof
from certprep.wcnf import encode_to_pb, parse_wcnf
from conftest import Lockstep, record_checkpoints, record_solves
from test_ingest import large_light_text


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
    assert p.writer.lines_written == len(lines) == 2852
    v = check_wcnf_proof(inst, lines, out)
    assert v.accepted and v.level == "EQUIOPTIMAL", (v.lineno, v.error)


@pytest.mark.slow
def test_random_family_800_is_certified():
    inst = random_family(800)
    out, proof, p = preprocess.run(inst)
    lines = proof.splitlines()
    assert p.writer.lines_written == len(lines) == 11456
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


def test_large_proof_rejects_a_wrong_renaming_coefficient(large_run):
    """The last `obju diff` of the finish stage moves one renamed
    variable's weight onto its new name; one unit more on the first term
    is not forced by the core."""
    inst, out, lines, _ = large_run
    i = _last(lines, lambda line: line.startswith("obju diff "))
    assert i > lines.index("* constant removal and renaming")
    toks = lines[i].split()
    toks[2] = "%+d" % (int(toks[2]) + 1)
    mutated = lines[:i] + [" ".join(toks)] + lines[i + 1:]
    v = check_wcnf_proof(inst, mutated, out)
    assert not v.accepted
    assert v.lineno == i + 1 and "objective update" in v.error


def test_large_proof_rejects_a_witness_with_a_wrong_constant(large_run):
    """The last `red` whose witness maps an objective variable to a
    constant, with that constant flipped."""
    inst, out, lines, _ = large_run
    cons, obj, _ = encode_to_pb(inst)
    chk = ProofChecker(cons, obj)
    last = None
    for i, line in enumerate(lines):
        if line.startswith("red ") and ";" in line:
            witness, _ = pb.parse_witness_tokens(line.split(";")[1].split())
            for var, img in witness.items():
                if img in (0, 1) and chk.objective.coef(var):
                    last = i, pb.fmt_var(var), img
        chk.feed(line)
    i, name, img = last
    toks = lines[i].split()
    k = toks.index(name, toks.index(";"))
    toks[k + 2] = str(1 - img)
    mutated = lines[:i] + [" ".join(toks)] + lines[i + 1:]
    v = check_wcnf_proof(inst, mutated, out)
    assert not v.accepted
    assert v.lineno == i + 1 and "witness obligation" in v.error


def test_large_run_checkpoints_match_checker_state():
    """After every application the preprocessor's clauses equal the
    checker's core and its objective equals the checker's."""
    inst = random_family(200)
    sink = io.StringIO()
    p = preprocess.Preprocessor(inst, preprocess.Config(), sink)
    checkpoints = record_checkpoints(p)
    p.run()
    assert len(checkpoints) == sum(p.counts.values()) == 100
    lines = sink.getvalue().splitlines()
    cons, obj, _ = encode_to_pb(inst)
    chk = ProofChecker(cons, obj)
    fed = 0
    for name, upto, snap, snap_obj in checkpoints:
        while fed < upto:
            chk.feed(lines[fed])
            fed += 1
        live = tuple(sorted((chk.constraints[i] for i in chk.core_ids),
                            key=lambda c: (c.degree, c.terms)))
        assert live == snap, (name, upto)
        assert chk.objective == snap_obj, (name, upto)


@pytest.fixture(scope="module")
def oracle_run():
    inst = random_family(200)
    cfg = preprocess.Config(
        techniques=preprocess.DEFAULT_TECHNIQUES + ("trim", "harden"))
    out, proof, _ = preprocess.run(inst, cfg)
    return inst, out, proof.splitlines()


def test_oracle_proof_verifies(oracle_run):
    """trim and harden fix nothing here, but trim's search logs 33
    selector clauses of more than 8 literals, which every later
    propagation may touch; a check that rescans a constraint per false
    literal took 5-9 s on this proof when it held 273 of them."""
    inst, out, lines = oracle_run
    assert len(lines) == 3032
    v = check_wcnf_proof(inst, lines, out)
    assert v.accepted and v.level == "EQUIOPTIMAL", (v.lineno, v.error)


@pytest.mark.slow
def test_trim_and_harden_end_on_a_large_light_instance(monkeypatch):
    """The default set plus trim,harden on the large-light shape at a
    quarter of its size (4,000 clauses): the proof verifies, and the oracle
    makes a handful of solve calls in all, where deciding every variable
    False first made about one per 1.25 objective literals."""
    inst = parse_wcnf(large_light_text(random.Random(7)))
    calls = record_solves(monkeypatch)
    cfg = preprocess.Config(
        techniques=preprocess.DEFAULT_TECHNIQUES + ("trim", "harden"))
    out, proof, _ = preprocess.run(inst, cfg)
    assert len(calls) <= 10
    v = check_wcnf_proof(inst, proof.splitlines(), out)
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


@pytest.mark.slow
def test_dup_and_taut_at_64000_clauses(tmp_path, capsys):
    """The benchmark's large-light shape at four times its size (64,000
    clauses, 100 planted duplicates and 100 tautologies) through the CLI:
    the output is the input without the planted clauses, and `check`
    verifies it."""
    text, expected = planted_duplicates(
        64000, nv=16000, n_hard=38300, n_soft=25500, n_dup=100, n_taut=100)
    inp, out, proof = (tmp_path / n for n in ("in.wcnf", "out.wcnf", "p.pbp"))
    inp.write_text(text)
    assert cli.main(["preprocess", str(inp), "-o", str(out), "-p", str(proof),
                     "--techniques=dup,taut"]) == 0
    assert "clauses: 64000 -> 63800" in capsys.readouterr().out
    assert as_multiset(parse_wcnf(out.read_text())) == \
        as_multiset(parse_wcnf(expected))
    assert cli.main(["check", str(inp), str(proof), str(out)]) == 0
    assert capsys.readouterr().out.strip() == cli.VERIFIED_LINE


def test_oracle_matches_reference_on_selector_bisection():
    """The `trim` search pattern on the hard clauses of the nv=200 family,
    each step's model compared with the scanning reference oracle's: the
    candidates are the 200 variables, odd ones positive and even ones
    negated, and each step adds a selector clause over the first m live
    candidates and solves under the selector, deciding the live candidates
    true as `trim` does.  The
    reference sweeps every clause per propagation, about 0.03 s a call at
    this size, so the bisection stops after 12 steps (the full run takes
    24 steps and 1.3 s)."""
    inst = random_family(200)
    both = Lockstep()
    for cl in inst.hard:
        both.add_clause(cl)
    alive = [pb.mklit(pb.mkvar(v), v % 2 == 0) for v in range(1, 201)]
    m = len(alive)
    for step in range(1, 13):
        m = max(1, min(m, len(alive)))
        s = pb.mkvar(step, pb.NS_AUX)
        both.add_clause([pb.mklit(s, True)] + alive[:m])
        model = both.solve([pb.mklit(s)], prefer=alive)
        assert model is not None
        alive = [l for l in alive if model.get(l >> 1, 0) != (l & 1) ^ 1]
    assert both.new.conflicts > 3 and both.learned


@pytest.mark.slow
def test_removing_a_hub_literal_stays_linear():
    """20,000 clauses share one literal; removing them from the engine in
    descending id order, each from the far end of a list in id order,
    stays linear, since the hub's index entry becomes a set past
    pb._LIST_MAX ids.  An index of lists alone takes seconds here."""
    hub = pb.mklit(pb.mkvar(1))
    engine = pb.Propagator()
    engine.occ      # built now, so each add goes through the entry's growth
    n = 20000
    for cid in range(1, n + 1):
        engine.add(cid, pb.constraint_from_clause(
            [hub, pb.mklit(pb.mkvar(cid + 1))]))
    assert len(engine.ids_with(hub)) == n
    start = time.perf_counter()
    for cid in range(n, 0, -1):
        engine.remove(cid)
    elapsed = time.perf_counter() - start
    assert not engine.occ and not engine.constraints
    assert elapsed < 1.0, elapsed
