"""Differential tests: the queue-driven pb.Propagator against the round-based
reference loops in conftest.

The engine's occurrence index and root set are maintained incrementally
(the index from its first read on), so the randomized tests interleave
additions and removals and re-derive both from scratch after every step; a
drifted index or root set would show as a missed propagation or conflict."""

import random
from collections import Counter

import pytest

from certprep import pb, preprocess
from certprep.preprocess import Config, Preprocessor
from conftest import (random_instance, reference_clause_closure,
                      reference_unit_propagate, unit_extras)


def random_lit(rng, nv):
    return pb.mklit(pb.mkvar(rng.randint(1, nv)), rng.random() < 0.5)


def random_constraint(rng, nv, hub=None):
    """Coefficients 1-4 on up to five literals, any degree from 0 to just past
    the coefficient sum (so some constraints are conflicting on their own);
    with a `hub` literal given, most of them hold it."""
    raw = [(rng.randint(1, 4), random_lit(rng, nv))
           for _ in range(rng.randint(0, 5))]
    if hub is not None and rng.random() < 0.8:
        raw.append((rng.randint(1, 4), hub))
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


def expected(live, exclude, extras, assign):
    if assign is None:
        return None
    kept = [c for cid, c in sorted(live.items())
            if exclude is None or cid not in exclude]
    return reference_unit_propagate(kept + list(extras), assign)


def left_out(skip, exclude):
    """The ids `exclude` (None for none) and the id `skip` too, unless it
    is None."""
    if skip is None:
        return exclude
    return (set() if exclude is None else exclude) | {skip}


def rebuilt_index(live):
    occ = {}
    for cid, c in live.items():
        for _, lit in c.terms:
            occ.setdefault(lit, set()).add(cid)
    return occ


def checked_index(engine, before, crossings):
    """engine.occ as {literal: set of ids}, once each entry is seen to hold
    no id twice and to be a set if it holds more than pb._LIST_MAX ids.
    `crossings` counts the entries that went past that bound since
    `before`, the index the last call returned: upwards, and back down to a
    non-empty entry."""
    occ = {}
    for lit, ids in engine.occ.items():
        assert len(set(ids)) == len(ids), (lit, ids)
        assert len(ids) <= pb._LIST_MAX or type(ids) is set, (lit, ids)
        was = len(before.get(lit, ()))
        crossings["up"] += was <= pb._LIST_MAX < len(ids)
        crossings["down"] += len(ids) <= pb._LIST_MAX < was
        occ[lit] = set(ids)
    return occ


def test_engine_matches_reference_under_churn():
    """Random additions and removals, first mostly additions, then mostly
    removals, so that the entry of a hub literal that most constraints
    hold grows past the index's list bound and shrinks back below it."""
    rng = random.Random(20240517)
    queries = 0
    crossings = Counter()
    for _ in range(60):
        nv = rng.randint(3, 9)
        hub = random_lit(rng, nv)
        engine = pb.Propagator()
        live = {}
        next_id = 1
        occ = {}
        for step in range(30):
            if live and rng.random() < (0.2 if step < 18 else 0.7):
                cid = rng.choice(sorted(live))
                assert engine.remove(cid) == live.pop(cid)
            else:
                live[next_id] = random_constraint(rng, nv, hub)
                engine.add(next_id, live[next_id])
                next_id += 1

            # the index and the root set match a rebuild from scratch
            occ = checked_index(engine, occ, crossings)
            assert occ == rebuilt_index(live)
            assert engine.constraints == live
            assert engine.roots == {
                cid for cid, c in live.items()
                if reference_unit_propagate([c]) != {}}

            skip = rng.choice([None] + sorted(live))
            exclude = left_out(skip, None if rng.random() < 0.5 else
                               {cid for cid in live if rng.random() >= 0.6})
            first = [random_constraint(rng, nv)
                     for _ in range(rng.randint(0, 2))]
            lits = [random_lit(rng, nv) for _ in range(rng.randint(0, 3))]

            # from the root set
            got = engine.propagate(unit_extras(lits) + first, exclude=exclude)
            assert got == expected(live, exclude, first,
                                   assumptions_over({}, lits))
            queries += 1

            # resuming from a fixpoint with more extras and unit extras
            base = engine.propagate(extras=first, exclude=exclude)
            if base is None:
                continue
            more = [random_constraint(rng, nv)
                    for _ in range(rng.randint(1, 2))]
            got = engine.propagate(unit_extras(lits) + first + more,
                                   base=base, exclude=exclude)
            assert got == expected(live, exclude, first + more,
                                   assumptions_over(base, lits))
            queries += 1
    assert queries > 2000
    assert crossings["up"] > 30 and crossings["down"] > 30, crossings


def test_lazy_index_matches_an_eager_rebuild():
    """The index is built by its first read (``occ``, ``ids_with`` or
    ``propagate``), drawn at a random step of add/remove churn; until then
    the engine holds none.  After every later step the index, every
    literal's ids and a propagation equal those rebuilt from the live
    constraints."""
    rng = random.Random(14)
    reads = {"occ": 0, "ids_with": 0, "propagate": 0}
    compared = 0
    crossings = Counter()
    for _ in range(120):
        nv = rng.randint(3, 9)
        lits = [pb.mklit(pb.mkvar(v), s) for v in range(1, nv + 1)
                for s in (False, True)]
        hub = rng.choice(lits)
        index = {}
        engine = pb.Propagator()
        live = {}
        next_id = 1
        first_read = rng.randint(0, 20)
        for step in range(30):
            if live and rng.random() < (0.25 if step < 18 else 0.7):
                cid = rng.choice(sorted(live))
                assert engine.remove(cid) == live.pop(cid)
            else:
                live[next_id] = random_constraint(rng, nv, hub)
                engine.add(next_id, live[next_id])
                next_id += 1
            if step < first_read:
                assert engine._occ is None
                continue
            if step == first_read:
                read = rng.choice(sorted(reads))
                reads[read] += 1
                if read == "ids_with":
                    engine.ids_with(rng.choice(lits))
                elif read == "propagate":
                    engine.propagate(unit_extras([rng.choice(lits)]))
                else:
                    engine.occ
            occ = rebuilt_index(live)
            index = checked_index(engine, index, crossings)
            assert index == occ
            for lit in lits:
                assert set(engine.ids_with(lit)) == occ.get(lit, set())
            assume = rng.sample(lits, rng.randint(0, 2))
            assert engine.propagate(unit_extras(assume)) == expected(
                live, None, (), assumptions_over({}, assume))
            compared += 1
    assert min(reads.values()) > 20 and compared > 1000, (reads, compared)
    assert crossings["up"] > 30 and crossings["down"] > 30, crossings


def planted_lits(planted):
    return [pb.mklit(pb.mkvar(v), not planted[v]) for v in sorted(planted)]


def implication_forest(rng, planted, keep):
    """Clauses ~a v b over the planted literals in a random order, a drawn
    from before b; each is kept with probability `keep`.  Making a literal
    true makes its subtree true one queued literal after another, and
    falsifies the negations of those literals in that order."""
    lits = planted_lits(planted)
    rng.shuffle(lits)
    return [pb.constraint_from_clause([pb.neg(rng.choice(lits[:i])), lits[i]])
            for i in range(1, len(lits)) if rng.random() < keep], lits


def long_constraint(rng, planted):
    """A clause or a PB constraint of 20-200 terms over distinct variables.

    Most or all literals are false under the planted assignment, so a
    spreading subtree of the forest falsifies them while the constraint is
    being touched.  PB coefficients mix 1s with larger values, and the
    degree leaves anywhere from no slack to the whole coefficient sum."""
    share = rng.choice((0.8, 0.95, 1.0))
    lits = [pb.mklit(pb.mkvar(v), planted[v] == (rng.random() < share))
            for v in rng.sample(sorted(planted),
                                rng.randint(20, min(200, len(planted))))]
    if rng.random() < 0.4:
        return pb.constraint_from_clause(lits)
    c = pb.normalize([(rng.choice((1, 1, 1, 2, 3, 7, 20)), lit)
                      for lit in lits], 0)
    total = sum(coef for coef, _ in c.terms)
    return pb.LinearConstraint(c.terms, total - rng.randint(0, total))


def test_engine_matches_reference_on_long_constraints():
    """Clauses and PB constraints of 20-200 terms, whose literals an
    implication forest falsifies before and after their first scan, under
    churn and every combination of root set, base, unit extras, other
    extras and ids left out (some draws leave out one live id, as a core
    deletion does): the counters must give the reference's fixpoint or
    conflict."""
    rng = random.Random(5150)
    outcomes = {"conflict": 0, "propagated": 0}
    for _ in range(8):
        nv = rng.randint(60, 240)
        planted = {v: rng.randint(0, 1) for v in range(1, nv + 1)}
        forest, order = implication_forest(rng, planted, 0.9)
        engine = pb.Propagator()
        live = {}
        for cid, c in enumerate(forest, start=1):
            live[cid] = c
            engine.add(cid, c)
        next_id = len(forest) + 1
        for _ in range(24):
            if rng.random() < 0.3:
                cid = rng.choice(sorted(live))
                assert engine.remove(cid) == live.pop(cid)
            else:
                c = long_constraint(rng, planted)
                live[next_id] = c
                engine.add(next_id, c)
                next_id += 1
            skip = rng.choice([None] + sorted(live))
            exclude = left_out(skip, None if rng.random() < 0.6 else
                               {cid for cid in live if rng.random() >= 0.9})
            first = [long_constraint(rng, planted)
                     for _ in range(rng.randint(0, 1))]
            lits = rng.sample(order[:nv // 4], rng.randint(1, 3))
            lits += [random_lit(rng, nv) for _ in range(rng.randint(0, 1))]

            got = engine.propagate(unit_extras(lits) + first, exclude=exclude)
            assumed = assumptions_over({}, lits)
            assert got == expected(live, exclude, first, assumed)
            if got is None:
                outcomes["conflict"] += 1
            elif len(got) > len(assumed):
                outcomes["propagated"] += 1

            base = engine.propagate(extras=first, exclude=exclude)
            if base is None:
                continue
            more = [long_constraint(rng, planted)]
            lits = rng.sample(order, rng.randint(1, 3))
            got = engine.propagate(unit_extras(lits) + first + more,
                                   base=base, exclude=exclude)
            assert got == expected(live, exclude, first + more,
                                   assumptions_over(base, lits))
    assert outcomes["conflict"] > 20 and outcomes["propagated"] > 20, outcomes


class CountedConstraint(pb.LinearConstraint):
    """A constraint that counts reads of its terms; a propagation reads the
    terms of a live constraint once per scan."""

    __slots__ = ("reads",)

    def __init__(self, c):
        super().__init__(c.terms, c.degree)
        self.reads = 0

    @property
    def terms(self):
        self.reads += 1
        return pb.LinearConstraint.terms.__get__(self)

    @terms.setter
    def terms(self, value):
        pb.LinearConstraint.terms.__set__(self, value)


def test_long_clauses_are_scanned_at_most_twice_per_call():
    """A clause is scanned when a call first touches it and again only when
    its counter reaches 0, which leaves it propagated, conflicting or
    satisfied, so never a third time however many of its literals are
    queued before or after the first scan.  Here an implication tree
    falsifies all literals but a free one, in a spreading order."""
    rng = random.Random(2718)
    scans = []
    for _ in range(30):
        nv = rng.randint(60, 200)
        planted = {v: rng.randint(0, 1) for v in range(1, nv + 1)}
        tree, order = implication_forest(rng, planted, 1.0)
        # each clause: negated tree literals and one free literal of its own
        clauses = [CountedConstraint(pb.constraint_from_clause(
            [pb.neg(lit) for lit in rng.sample(order[1:],
                                               rng.randint(19, nv - 1))]
            + [pb.mklit(pb.mkvar(nv + i))])) for i in range(1, 13)]
        engine = pb.Propagator(clauses + tree)
        engine.occ     # build the index now: its build reads every clause
        for c in clauses:
            c.reads = 0
        got = engine.propagate(unit_extras([order[0]]))
        scans += [c.reads for c in clauses]
        assert got == reference_unit_propagate(clauses + tree,
                                               assumptions_over({}, [order[0]]))
    assert max(scans) == 2 and scans.count(2) > 100, sorted(scans)


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


def closure_of(val):
    """A propagation's result as (true literals, conflict flag)."""
    if val is None:
        return set(), True
    return {pb.mklit(v, b == 0) for v, b in val.items()}, False


def test_up_closure_matches_reference_through_a_run():
    """After every technique application of a default run, the closure of
    each live literal, and the engine's propagation of a clashing pair as
    two unit extras, equal the reference's."""
    rng = random.Random(99)
    compared = 0
    for _ in range(40):
        inst = random_instance(rng, max_vars=10, max_clauses=30)
        p = Preprocessor(inst, Config())
        counted = p._count

        def count_and_compare(name):
            nonlocal compared
            counted(name)
            for lit in sorted(p.engine.occ, key=pb.lit_sort_key):
                for start in ([lit], [pb.neg(lit)]):
                    assert p._up_closure(start[0]) == \
                        reference_clause_closure(p.clauses, start), name
                    compared += 1
                pair = [lit, pb.neg(lit)]
                assert closure_of(p.engine.propagate(unit_extras(pair))) == \
                    reference_clause_closure(p.clauses, pair), name
                compared += 1
        p._count = count_and_compare
        p.run()
    assert compared > 1000


def test_finalize_infeasible_leaves_an_empty_engine():
    inst = random_instance(random.Random(3))
    inst.hard.extend([[pb.mklit(pb.mkvar(1))], [pb.mklit(pb.mkvar(1), True)]])
    out, _, p = preprocess.run(inst)
    assert out.hard == [[]]
    assert not p.clauses and not p.engine.occ
    assert closure_of(p.engine.propagate()) == (set(), False)
