"""Differential tests: the queue-driven pb.Propagator against the round-based
reference loops in conftest.

The engine's occurrence index and root set are maintained incrementally, so
the randomized test interleaves additions and removals and re-derives both
from scratch after every step; a drifted index or root set would show as a
missed propagation or conflict."""

import random

from certprep import pb, preprocess
from certprep.preprocess import Config, Preprocessor
from conftest import (random_instance, reference_clause_closure,
                      reference_unit_propagate)


def random_lit(rng, nv):
    return pb.mklit(pb.mkvar(rng.randint(1, nv)), rng.random() < 0.5)


def random_constraint(rng, nv):
    """Coefficients 1-4 on up to five literals, any degree from 0 to just past
    the coefficient sum (so some constraints are conflicting on their own)."""
    raw = [(rng.randint(1, 4), random_lit(rng, nv))
           for _ in range(rng.randint(0, 5))]
    c = pb.normalize(raw, 0)
    total = sum(coef for coef, _ in c.terms)
    return pb.LinearConstraint(c.terms, rng.randint(0, total + 1))


def assumptions_over(base, lits):
    """`base` extended by making `lits` true, or None if they clash."""
    assign = dict(base)
    for lit in lits:
        want = (lit & 1) ^ 1
        if assign.setdefault(lit >> 1, want) != want:
            return None
    return assign


def expected(live, skip, only, extras, assign):
    if assign is None:
        return None
    kept = [c for cid, c in sorted(live.items())
            if cid != skip and (only is None or cid in only)]
    return reference_unit_propagate(kept + list(extras), assign)


def test_engine_matches_reference_under_churn():
    rng = random.Random(20240517)
    queries = 0
    for _ in range(60):
        nv = rng.randint(3, 9)
        engine = pb.Propagator()
        live = {}
        next_id = 1
        for _ in range(30):
            if live and rng.random() < 0.3:
                cid = rng.choice(sorted(live))
                assert engine.remove(cid) == live.pop(cid)
            else:
                live[next_id] = random_constraint(rng, nv)
                engine.add(next_id, live[next_id])
                next_id += 1

            # the index and the root set match a rebuild from scratch
            occ = {}
            for cid, c in live.items():
                for _, lit in c.terms:
                    occ.setdefault(lit, set()).add(cid)
            assert engine.occ == occ
            assert engine.constraints == live
            assert engine.roots == {
                cid for cid, c in live.items()
                if reference_unit_propagate([c]) != {}}

            skip = rng.choice([None] + sorted(live))
            only = (None if rng.random() < 0.5 else
                    {cid for cid in live if rng.random() < 0.6})
            first = [random_constraint(rng, nv)
                     for _ in range(rng.randint(0, 2))]
            lits = [random_lit(rng, nv) for _ in range(rng.randint(0, 3))]

            # from the root set
            got = engine.propagate(lits, first, skip=skip, only=only)
            assert got == expected(live, skip, only, first,
                                   assumptions_over({}, lits))
            queries += 1

            # resuming from a fixpoint with more extras and assumptions
            base = engine.propagate(extras=first, skip=skip, only=only)
            if base is None:
                continue
            more = [random_constraint(rng, nv)
                    for _ in range(rng.randint(1, 2))]
            got = engine.propagate(lits, first + more, base=base, skip=skip,
                                   only=only)
            assert got == expected(live, skip, only, first + more,
                                   assumptions_over(base, lits))
            queries += 1
    assert queries > 2000


def test_wrappers_match_reference():
    rng = random.Random(7)
    for _ in range(500):
        nv = rng.randint(2, 6)
        cs = [random_constraint(rng, nv) for _ in range(rng.randint(0, 6))]
        assign = {}
        for _ in range(rng.randint(0, 2)):
            assign[pb.mkvar(rng.randint(1, nv))] = rng.randint(0, 1)
        assert pb.unit_propagate(cs, assign) == \
            reference_unit_propagate(cs, assign)
        target = random_constraint(rng, nv)
        assert pb.rup_check(cs, target, assign) == (reference_unit_propagate(
            cs + [pb.negate(target)], assign) is None)


def test_up_closure_matches_reference_through_a_run():
    """After every technique application of a default run, the closure of
    each live literal (and of a clashing pair) equals the reference's."""
    rng = random.Random(99)
    compared = 0
    for _ in range(40):
        inst = random_instance(rng, max_vars=10, max_clauses=30)
        p = Preprocessor(inst, Config())
        counted = p._count

        def count_and_compare(name):
            nonlocal compared
            counted(name)
            for lit in sorted(p.occ, key=pb.lit_sort_key):
                for start in ([lit], [pb.neg(lit)], [lit, pb.neg(lit)]):
                    assert p._up_closure(start) == \
                        reference_clause_closure(p.clauses, start), name
                    compared += 1
        p._count = count_and_compare
        p.run()
    assert compared > 1000


def test_finalize_infeasible_leaves_an_empty_engine():
    inst = random_instance(random.Random(3))
    inst.hard.extend([[pb.mklit(pb.mkvar(1))], [pb.mklit(pb.mkvar(1), True)]])
    out, _, p = preprocess.run(inst)
    assert out.hard == [[]]
    assert not p.clauses and not p.occ and p._up_closure([]) == (set(), False)
