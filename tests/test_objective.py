"""Objective changes as deltas, on both sides of the proof.

The checker builds every objective obligation from a delta: the terms of an
``obju diff``, an ``obju new`` taken as the change from the current
objective, and ``Objective.delta`` over a witness.  These tests compare the
obligations and the resulting objectives with the whole-objective
references kept in ``conftest``, check that the preprocessor logs the same
``obju diff`` line as a diff of the whole objectives would, and that no
whole objective is copied along the way."""

import random

import pytest

from certprep import pb, preprocess
from certprep.checker import ProofChecker, check_proof, check_wcnf_proof
from certprep.wcnf import encode_to_pb, parse_wcnf
from conftest import (reference_objective_diff_constraint,
                      reference_restrict_objective)
from test_scale import random_family

VARS = [pb.mkvar(i) for i in range(1, 6)] + [pb.mkvar(1, pb.NS_AUX),
                                            pb.mkvar(2, pb.NS_TMP)]


def random_lit(rng):
    return pb.mklit(rng.choice(VARS), rng.random() < 0.5)


def random_objective(rng):
    obj = pb.Objective(constant=rng.randint(-5, 5))
    for _ in range(rng.randint(0, 6)):
        obj.add_literal_term(rng.randint(-6, 6), random_lit(rng))
    return obj


def random_terms(rng):
    """Signed terms over a small pool, so literals repeat on both signs."""
    return ([(rng.choice([-1, 1]) * rng.randint(1, 6), random_lit(rng))
             for _ in range(rng.randint(0, 5))],
            rng.choice([0, 0, rng.randint(-5, 5)]))


def random_witness(rng, obj):
    """Images 0, 1, the variable's own negation (x -> ~x), a variable of the
    objective or of the witness itself, or any literal."""
    witness = {}
    for v in rng.sample(VARS, rng.randint(1, 4)):
        kind = rng.randrange(5)
        if kind < 2:
            witness[v] = kind
        elif kind == 2:
            witness[v] = pb.mklit(v, True)
        elif kind == 3 and obj.coeffs:
            witness[v] = pb.mklit(rng.choice(sorted(obj.coeffs)),
                                  rng.random() < 0.5)
        else:
            witness[v] = random_lit(rng)
    for v in list(witness):
        if rng.random() < 0.3:
            witness[v] = pb.mklit(rng.choice(sorted(witness)),
                                  rng.random() < 0.5)
    return witness


def fmt_terms(terms, const):
    parts = ["%+d %s" % (w, pb.fmt_lit(lit)) for w, lit in terms]
    return " ".join(parts + ["%+d" % const])


def applied(obj, terms, const):
    out = obj.copy()
    out.constant += const
    for w, lit in terms:
        out.add_literal_term(w, lit)
    return out


@pytest.fixture
def recorded(monkeypatch):
    """Every obju direction and witness objective obligation the checker
    builds, in order; each is taken as discharged.  The witness steps add
    ``+1 x9 >= 1``, which no witness touches, so the obligations other than
    the objective's are that constraint itself."""
    seen = []
    introduced = pb.normalize([(1, pb.mklit(pb.mkvar(9)))], 1)

    def direction_ok(self, target):
        seen.append(target)
        return True

    def discharge(self, neg_c, base, target, exclude=None):
        if target != introduced:
            seen.append(target)
        return True

    monkeypatch.setattr(ProofChecker, "_obju_direction_ok", direction_ok)
    monkeypatch.setattr(ProofChecker, "_discharge", discharge)
    return seen


def test_obligations_and_objectives_match_the_references(recorded):
    rng = random.Random(66)
    kinds = {"diff": 0, "new": 0, "witness": 0, "untouched": 0}
    for _ in range(300):
        start = random_objective(rng)
        chk = ProofChecker([], start)
        chk.feed("pseudo-Boolean proof version 2.0")
        chk.feed("f 0")
        want = start.copy()
        for step in range(8):
            before = want
            kind = rng.choice(["diff", "new", "witness"])
            if kind == "witness":
                witness = random_witness(rng, want)
                chk.feed("red +1 x9 >= 1 ; " + pb.fmt_witness(witness))
                if set(witness) & set(want.coeffs):
                    expect = [reference_objective_diff_constraint(
                        want, reference_restrict_objective(want, witness))]
                else:
                    expect = []
                    kind = "untouched"
            else:
                terms, const = random_terms(rng)
                chk.feed("obju %s %s ;" % (kind, fmt_terms(terms, const)))
                want = applied(pb.Objective() if kind == "new" else want,
                               terms, const)
                expect = [reference_objective_diff_constraint(before, want),
                          reference_objective_diff_constraint(want, before)]
            assert recorded == expect, (kind, before, step)
            assert chk.objective == want, (kind, before, step)
            recorded.clear()
            kinds[kind] += 1
    assert min(kinds.values()) > 100, kinds


def test_update_objective_logs_the_whole_objective_diff():
    """`_update_objective` logs what a diff of the whole objectives before
    and after gives, with its terms in variable order."""
    rng = random.Random(67)
    p = preprocess.Preprocessor(parse_wcnf("h 1 2 0\n"))
    logged = []
    p.writer.obju_diff = lambda terms, const=0: logged.append((terms, const))
    for _ in range(400):
        p.objective = random_objective(rng)
        if rng.random() < 0.5:
            terms, const = p.objective.delta(random_witness(rng, p.objective))
        else:
            terms, const = random_terms(rng)
        before = p.objective.copy()
        after = applied(before, terms, const)
        diff = [(after.coef(v) - before.coef(v), pb.mklit(v))
                for v in sorted(set(before.coeffs) | set(after.coeffs),
                                key=pb.var_sort_key)
                if after.coef(v) != before.coef(v)]
        change = after.constant - before.constant
        p._update_objective(terms, const)
        assert p.objective == after
        assert logged == ([(diff, change)] if diff or change else [])
        logged.clear()


def test_objective_is_copied_only_at_the_checker_preamble(monkeypatch):
    copies = []
    copy = pb.Objective.copy

    def counted(self):
        copies.append(1)
        return copy(self)

    monkeypatch.setattr(pb.Objective, "copy", counted)
    inst = random_family(200)
    out, proof, p = preprocess.run(inst)
    assert not copies
    assert p.counts["const"] == 1 and proof.count("obju diff") > 100
    v = check_wcnf_proof(inst, proof.splitlines(), out)
    assert v.accepted
    assert len(copies) == 1


def test_check_proof_leaves_the_input_objective_alone():
    inst = random_family(200)
    out, proof, _ = preprocess.run(inst)
    cons, obj = encode_to_pb(inst)
    out_cons, out_obj = encode_to_pb(out)
    snapshot = (dict(obj.coeffs), obj.constant)
    v = check_proof(cons, obj, proof.splitlines(), out_cons, out_obj)
    assert v.accepted
    assert (obj.coeffs, obj.constant) == snapshot
