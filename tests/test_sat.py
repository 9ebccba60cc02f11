"""CDCL oracle: agreement with brute force, the lexicographically first model
as its contract, learned-clause RUP, assumptions, and the same models as the
scanning reference oracle."""

import itertools
import random

import pytest

from certprep import pb, preprocess, sat
from certprep.checker import check_wcnf_proof
from certprep.preprocess import DEFAULT_TECHNIQUES, Config
from certprep.sat import OracleBudget, SatOracle
from certprep.wcnf import parse_wcnf, write_wcnf
from conftest import Lockstep, ReferenceSatOracle, all_assignments, nx, x


def brute_sat(clauses):
    vs = {l >> 1 for cl in clauses for l in cl}
    for assign in all_assignments(vs):
        if all(any(assign[l >> 1] == (l & 1) ^ 1 for l in cl) for cl in clauses):
            return assign
    return None


def random_clauses(rng, nv, n):
    out = []
    for _ in range(n):
        k = rng.randint(1, 3)
        out.append([pb.mklit(pb.mkvar(rng.randint(1, nv)), rng.random() < 0.5)
                    for _ in range(k)])
    return out


def test_trivial_cases():
    s = SatOracle()
    assert s.solve() == {}
    s.add_clause([x(1)])
    assert s.solve() == {pb.mkvar(1): 1}
    s.add_clause([nx(1)])
    assert s.solve() is None


def test_deterministic_phase_and_order():
    s = SatOracle()
    s.add_clause([x(1), x(2), x(3)])
    # decisions try False on the smallest variable first, so the model
    # falsifies x1, x2 and satisfies the clause with the forced x3
    assert s.solve() == {pb.mkvar(1): 0, pb.mkvar(2): 0, pb.mkvar(3): 1}


def test_preferred_literals_are_decided_true():
    s = SatOracle()
    s.add_clause([x(1), x(2), x(3), x(4)])
    s.add_clause([nx(2), nx(4)])
    # x2 and ~x3 are preferred: x1 is still decided False, x2 True (which
    # forces ~x4), x3 False as preferred; the order is unchanged
    model = s.solve(prefer=[x(2), nx(3)])
    assert list(model.items()) == [(pb.mkvar(1), 0), (pb.mkvar(2), 1),
                                   (pb.mkvar(4), 0), (pb.mkvar(3), 0)]
    # a preferred literal that propagation falsifies is not decided
    assert s.solve(assumptions=[x(4)], prefer=[x(2)]) == {
        pb.mkvar(4): 1, pb.mkvar(2): 0, pb.mkvar(1): 0, pb.mkvar(3): 0}
    # with every literal preferred, the model makes each one true that it can
    assert s.solve(prefer=[x(1), x(2), x(3), x(4)]) == {
        pb.mkvar(1): 1, pb.mkvar(2): 1, pb.mkvar(4): 0, pb.mkvar(3): 1}


def test_agrees_with_bruteforce():
    rng = random.Random(3)
    for round_ in range(150):
        nv = rng.randint(1, 6)
        clauses = random_clauses(rng, nv, rng.randint(1, 14))
        prefer = [pb.mklit(pb.mkvar(v), rng.random() < 0.5)
                  for v in rng.sample(range(1, nv + 1), rng.randint(0, nv))]
        s = SatOracle()
        for cl in clauses:
            s.add_clause(cl)
        model = s.solve(prefer=prefer)
        expected = brute_sat(clauses)
        if expected is None:
            assert model is None
        else:
            assert model is not None
            for cl in clauses:
                assert any(model[l >> 1] == (l & 1) ^ 1 for l in cl)


def random_3cnf(rng, nv=8, n=34):
    # near the phase transition, so refutations need search, not just UP
    out = []
    for _ in range(n):
        vs = rng.sample(range(1, nv + 1), 3)
        out.append([pb.mklit(pb.mkvar(v), rng.random() < 0.5) for v in vs])
    return out


def test_learned_clauses_are_rup_at_learn_time():
    rng = random.Random(5)
    checked = 0
    for _ in range(40):
        clauses = random_3cnf(rng)
        db = [pb.constraint_from_clause(cl) for cl in clauses]

        def on_learn(lits, db=db):
            c = pb.constraint_from_clause(lits)
            assert pb.rup_check(db, c)
            db.append(c)

        s = SatOracle(on_learn=on_learn)
        for cl in clauses:
            s.add_clause(cl)
        s.solve()
        checked += len(db) - len(clauses)
    assert checked > 50  # the sweep actually exercised learning


def test_assumptions_sat_and_unsat():
    s = SatOracle()
    s.add_clause([x(1), x(2)])
    model = s.solve(assumptions=[nx(1)])
    assert model[pb.mkvar(1)] == 0 and model[pb.mkvar(2)] == 1
    s.add_clause([nx(2)])
    assert s.solve(assumptions=[nx(1)]) is None
    assert s.solve() is not None  # only failed under the assumption
    assert s.solve(assumptions=[x(1)]) is not None


def test_failed_assumption_negation_is_rup_after_learning():
    rng = random.Random(9)
    tried = 0
    for _ in range(200):
        clauses = random_clauses(rng, 5, 12)
        s = SatOracle()
        for cl in clauses:
            s.add_clause(cl)
        a = pb.mklit(pb.mkvar(rng.randint(1, 5)), rng.random() < 0.5)
        if s.solve(assumptions=[a]) is not None:
            continue
        db = [pb.constraint_from_clause(cl) for cl in s.clauses]
        if s.solve() is not None:    # failed under the assumption only
            assert pb.rup_check(db, pb.constraint_from_clause([pb.neg(a)]))
            tried += 1
    assert tried > 5


def test_level0_unsat_leaves_rup_contradiction():
    rng = random.Random(13)
    tried = 0
    for _ in range(200):
        clauses = random_clauses(rng, 4, 14)
        s = SatOracle()
        for cl in clauses:
            s.add_clause(cl)
        if s.solve() is None:
            db = [pb.constraint_from_clause(cl) for cl in s.clauses]
            assert pb.rup_check(db, pb.normalize([], 1))
            tried += 1
    assert tried > 5


def test_conflict_budget():
    # pigeonhole-ish: 4 pigeons in 3 holes, forces many conflicts
    def ph(p, h):
        return pb.mklit(pb.mkvar(p * 3 + h))

    s = SatOracle(conflict_budget=2)
    for p in range(4):
        s.add_clause([ph(p, h) for h in range(3)])
    for h in range(3):
        for p1 in range(4):
            for p2 in range(p1 + 1, 4):
                s.add_clause([pb.neg(ph(p1, h)), pb.neg(ph(p2, h))])
    with pytest.raises(OracleBudget):
        s.solve()


def test_work_budget_counts_watch_visits_per_solve():
    # a chain x1 -> x2 -> ... -> x40: deciding x1 True propagates the chain
    s = SatOracle()
    for i in range(1, 40):
        s.add_clause([nx(i), x(i + 1)])
    assert s.solve(prefer=[x(1)]) is not None
    work = s.work
    assert work > 39
    # the count starts again at every solve and repeats exactly
    assert s.solve(prefer=[x(1)]) is not None and s.work == work
    tight = SatOracle(work_budget=work - 1)
    for cl in s.clauses:
        tight.add_clause(cl)
    with pytest.raises(OracleBudget):
        tight.solve(prefer=[x(1)])
    enough = SatOracle(work_budget=work)
    for cl in s.clauses:
        enough.add_clause(cl)
    assert enough.solve(prefer=[x(1)]) is not None


# -- differential: watched literals against the scanning reference -------------
#
# The two oracles propagate in different orders and may learn different
# clauses, so they are compared on what callers read: the model or None.


def script_clause(rng, nv):
    """Mostly width 3, some units and binaries, and now and then a repeated
    literal or a tautology."""
    k = rng.choices([1, 2, 3, 4], [1, 4, 18, 3])[0]
    cl = [pb.mklit(pb.mkvar(rng.randint(1, nv)), rng.random() < 0.5)
          for _ in range(k)]
    r = rng.random()
    if r < 0.08:
        cl.insert(rng.randrange(k + 1), rng.choice(cl))
    elif r < 0.14:
        cl.insert(rng.randrange(k + 1), pb.neg(rng.choice(cl)))
    return cl


def test_matches_reference_oracle_on_random_calls():
    rng = random.Random(17)
    seen = {"calls": 0, "models": 0, "unsat": 0, "budget": 0, "learned": 0}
    for _ in range(500):
        nv = rng.randint(2, 16)
        budget = rng.choice([None, None, 0, rng.randint(1, 6)])
        both = Lockstep(budget)
        if rng.random() < 0.03:
            both.add_clause([])
        for _ in range(rng.randint(0, 5 * nv)):
            both.add_clause(script_clause(rng, nv))
        for _ in range(rng.randint(1, 6)):
            for _ in range(rng.randint(0, nv)):
                both.add_clause(script_clause(rng, nv))
            assumptions = [pb.mklit(pb.mkvar(rng.randint(1, nv + 1)),
                                    rng.random() < 0.5)
                           for _ in range(rng.choice([0, 0, 1, 1, 2, 3]))]
            prefer = [pb.mklit(pb.mkvar(rng.randint(1, nv + 1)),
                               rng.random() < 0.5)
                      for _ in range(rng.choice([0, 0, 1, nv]))]
            got = both.solve(assumptions, prefer)
            seen["calls"] += 1
            seen["models" if isinstance(got, dict) else
                 "budget" if got == "budget" else "unsat"] += 1
        seen["learned"] += len(both.learned)
    # the sweep reached every kind of outcome, and learning
    assert seen["calls"] > 1500
    assert min(seen.values()) > 50, seen


def test_pigeonhole_matches_reference_oracle():
    # 5 pigeons in 4 holes: a refutation with many conflicts and backjumps
    def ph(p, h):
        return pb.mklit(pb.mkvar(p * 4 + h + 1))

    both = Lockstep()
    for p in range(5):
        both.add_clause([ph(p, h) for h in range(4)])
    for h in range(4):
        for p1 in range(5):
            for p2 in range(p1 + 1, 5):
                both.add_clause([pb.neg(ph(p1, h)), pb.neg(ph(p2, h))])
    assert both.solve() is None
    assert len(both.learned) > 10


# -- contract: the lexicographically first model --------------------------------


def lex_first_model(clauses, assumptions, prefer):
    """By enumeration, the first model in the order `solve` promises: the
    assumptions true, then each variable in var_sort_key order at its
    preferred value before the other; None when there is no model."""
    vs = sorted({l >> 1 for cl in clauses for l in cl}
                | {l >> 1 for l in assumptions}, key=pb.var_sort_key)
    phase = {l >> 1: l for l in prefer}
    first = [(phase.get(v, pb.mklit(v, True)) & 1) ^ 1 for v in vs]
    need = clauses + [[a] for a in assumptions]
    for flips in itertools.product((0, 1), repeat=len(vs)):
        model = {v: f ^ b for v, f, b in zip(vs, first, flips)}
        if all(any(model[l >> 1] == (l & 1) ^ 1 for l in cl) for cl in need):
            return model
    return None


def test_solve_returns_the_lexicographically_first_model():
    """The property that makes trim's and harden's outputs independent of
    the propagation order: on scripts with repeated literals, tautologies,
    empty clauses and problem variables mixed with auxiliary ones, every
    call returns the lexicographically first model, or None exactly when
    there is none."""
    rng = random.Random(29)
    seen = {"models": 0, "unsat": 0}
    for _ in range(300):
        nv = rng.randint(1, 7)
        aux = set(rng.sample(range(1, nv + 2), rng.randint(0, 2)))

        def place(lit):
            i = pb.var_index(lit >> 1)
            ns = pb.NS_AUX if i in aux else pb.NS_USER
            return pb.mklit(pb.mkvar(i, ns), lit & 1)

        def lits(k):
            return [place(pb.mklit(pb.mkvar(rng.randint(1, nv + 1)),
                                   rng.random() < 0.5)) for _ in range(k)]

        s = SatOracle()
        clauses = []
        for _ in range(rng.randint(1, 5)):
            new = [[place(l) for l in script_clause(rng, nv)]
                   for _ in range(rng.randint(0, 2 * nv))]
            if rng.random() < 0.02:
                new.append([])
            for cl in new:
                s.add_clause(cl)
            clauses += new
            assumptions = lits(rng.choice([0, 0, 1, 2, 3]))
            prefer = lits(rng.choice([0, 1, nv, 2 * nv]))
            want = lex_first_model(clauses, assumptions, prefer)
            assert s.solve(assumptions, prefer) == want
            seen["models" if want is not None else "unsat"] += 1
    assert min(seen.values()) > 200, seen


# -- end to end: trim and harden proofs do not depend on the oracle's engine ----


def guarded_label_groups(groups=4):
    """Exactly-one groups with weight-3 binary softs, a guard literal whose
    truth forces a 4-into-3 pigeonhole (so `trim` must refute it by search),
    and a heavy penalised literal that `harden` can fix."""
    rng = random.Random(groups)
    hard, soft = [], []
    for g in range(groups):
        vs = [3 * g + 1, 3 * g + 2, 3 * g + 3]
        hard.append(list(vs))
        hard.extend([-a, -b] for i, a in enumerate(vs) for b in vs[i + 1:])
        nxt = [3 * ((g + 1) % groups) + i + 1 for i in range(3)]
        for _ in range(5):
            a, b = rng.choice(vs), rng.choice(nxt)
            soft.append((3, [a if rng.random() < 0.5 else -a,
                             b if rng.random() < 0.5 else -b]))
    guard = 3 * groups + 1
    holes = [[guard + 3 * p + h + 1 for h in range(3)] for p in range(4)]
    hard.extend([-guard] + row for row in holes)
    hard.extend([-holes[p][h], -holes[q][h]]
                for h in range(3) for p in range(4) for q in range(p + 1, 4))
    hard.append([-guard, 1])
    soft.append((4, [-guard]))
    heavy = guard + 13
    hard.append([-heavy, 2, 5])
    soft.append((sum(w for w, _ in soft) + 1, [-heavy]))
    text = "".join("h %s 0\n" % " ".join(map(str, cl)) for cl in hard)
    text += "".join("%d %s 0\n" % (w, " ".join(map(str, cl)))
                    for w, cl in soft)
    return parse_wcnf(text)


def test_trim_and_harden_proofs_match_the_reference_oracle(monkeypatch):
    inst = guarded_label_groups()
    cfg = Config(techniques=DEFAULT_TECHNIQUES + ("trim", "harden"))
    out, proof, p = preprocess.run(inst, cfg)
    assert p.counts.get("trim", 0) > 0 and p.counts.get("harden", 0) > 0
    monkeypatch.setattr(sat, "SatOracle", ReferenceSatOracle)
    ref_out, ref_proof, _ = preprocess.run(inst, cfg)
    assert write_wcnf(out) == write_wcnf(ref_out)
    assert proof == ref_proof
    v = check_wcnf_proof(inst, proof.splitlines(), out)
    assert v.accepted and v.level == "EQUIOPTIMAL", (v.lineno, v.error)
