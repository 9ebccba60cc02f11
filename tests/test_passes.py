"""Differential tests: the restart-free technique passes against the
restarting scans they replaced (references in conftest).

`dup` settles groups from a heap instead of regrouping after each action;
`sub`, `bce`, `ssr`, `sle`, `bve` and `lm` test only the candidates on their
worklists instead of rescanning every candidate after every application
(SLE and LM draw their partners from occurrence lists instead of all pairs);
and _up_closure memoises closures between clause changes.  Each must leave
the proof and the output exactly as the reference forms produce them."""

import hashlib
import itertools
import random

import pytest

from certprep import pb, preprocess
from certprep.checker import check_wcnf_proof
from certprep.preprocess import Config, Preprocessor
from certprep.wcnf import MAX_WEIGHT, WcnfInstance, parse_wcnf, write_wcnf
from conftest import (REFERENCE_PASSES, random_instance,
                      reference_remove_duplicates)

STAGE2 = ("dup", "taut", "up", "empty", "sub", "bce")
WORKLIST_PASSES = ("sub", "bce", "ssr", "sle", "bve", "lm")
SINGLES = preprocess.STAGE2_ORDER + tuple(
    t for t in preprocess.STAGE4_ORDER if t not in preprocess.STAGE2_ORDER)
PINNED_SETS = [(t,) for t in SINGLES] + [
    STAGE2, preprocess.DEFAULT_TECHNIQUES,
    preprocess.DEFAULT_TECHNIQUES + ("bva", "sbl", "trim", "harden")]


def duplicate_instance(rng):
    """Short clauses over few variables with planted hard and soft copies
    (literals shuffled), unit softs on one or both polarities, hard units
    that shrink several relaxed softs to the same single literal, all in
    random order, and weights so close to half of MAX_WEIGHT that merging
    two of them overflows."""
    nv = rng.randint(3, 8)

    def lit():
        return pb.mklit(pb.mkvar(rng.randint(1, nv)), rng.random() < 0.5)

    def weight():
        if rng.random() < 0.3:
            return MAX_WEIGHT // 2 + rng.randint(0, 9)
        return rng.randint(1, 9)

    hard = [[lit() for _ in range(rng.randint(2, 3))]
            for _ in range(rng.randint(1, 8))]
    soft = [(weight(), [lit() for _ in range(rng.randint(2, 3))])
            for _ in range(rng.randint(2, 10))]
    for _ in range(rng.randint(1, 6)):
        cl = list(rng.choice(hard + [cl for _, cl in soft]))
        rng.shuffle(cl)
        if rng.random() < 0.3:
            hard.append(cl)
        else:
            soft.append((weight(), cl))
    for _ in range(rng.randint(0, 3)):
        u = lit()
        soft.append((weight(), [u]))
        if rng.random() < 0.5:
            soft.append((weight(), [pb.neg(u)]))
    for _ in range(rng.randint(0, 2)):
        hard.append([lit()])
    if rng.random() < 0.7:
        # relaxed softs that shrink to one of two units once f is fixed
        f, units = lit(), (lit(), lit())
        hard.append([f])
        for _ in range(rng.randint(2, 5)):
            soft.append((weight(), [rng.choice(units), pb.neg(f)]))
    rng.shuffle(hard)
    rng.shuffle(soft)
    return WcnfInstance(hard, soft)


def label_group_instance(rng):
    """Exactly-one groups of three variables with equal-weight binary softs
    within and across groups (labels that clash, duplicate and block one
    another, as `lm`, `am1` and `bcr` need), plus a few unit softs."""
    groups = rng.randint(2, 4)
    hard, soft = [], []
    for g in range(groups):
        vs = [pb.mkvar(3 * g + i) for i in (1, 2, 3)]
        hard.append([pb.mklit(v) for v in vs])
        hard.extend([pb.mklit(a, True), pb.mklit(b, True)]
                    for i, a in enumerate(vs) for b in vs[i + 1:])
    nv = 3 * groups
    for _ in range(rng.randint(3, 4 * groups)):
        a, b = rng.sample(range(1, nv + 1), 2)
        soft.append((3, [pb.mklit(pb.mkvar(a), rng.random() < 0.5),
                         pb.mklit(pb.mkvar(b), rng.random() < 0.5)]))
    for _ in range(rng.randint(0, 3)):
        soft.append((rng.choice((2, 3)), [pb.mklit(
            pb.mkvar(rng.randint(1, nv)), rng.random() < 0.5)]))
    return WcnfInstance(hard, soft)


def instances():
    rng = random.Random(31337)
    for _ in range(300):
        yield duplicate_instance(rng)
    for _ in range(100):
        yield random_instance(rng, max_vars=10, max_clauses=30)


# Instances on which a worklist needs a push that the random instances above
# rarely need, each with the techniques that show it.  Most recipes change a
# clause on a variable after its coefficient, so the push from the changed
# coefficient seldom matters on its own.  GADGET implies x1 <-> x2 only once
# bve has eliminated x3..x6, so eql merges them in round 2, after the pass
# under test has already rejected its candidate on the old coefficient.
GADGET = "h -1 3 4 0\nh -3 2 0\nh -4 2 0\nh -2 5 6 0\nh -5 1 0\nh -6 1 0\n"
TARGETED_CASES = [
    # bce: dup syncs the soft unit (x2) in round 2, cancelling x2's weight,
    # which leaves (x2 v x3) blocked on x2
    ("h 1 0\nh 5 0\n3 2 -1 0\n3 2 -5 0\n3 -2 0\nh 2 3 0\nh -3 4 0\n1 4 0\n",
     STAGE2),
    # ssr: eql merges x1 into x2, cancelling x2's weight, so (~x2 v x3)
    # strengthens (x2 v x3 v x4)
    ("h -1 2 0\nh 1 -2 0\nh 2 3 4 0\nh -2 3 0\n3 1 0\n3 -2 0\n",
     ("ssr", "eql")),
    # bve: x2 loses its weight in round 2 and can then be eliminated
    (GADGET + "h 2 9 0\nh -2 10 0\n3 1 0\n3 -2 0\n1 -9 0\n1 -10 0\n",
     ("eql", "bve")),
    # sle: x2's weight goes from -3 to 0, and x2 then dominates x9
    (GADGET + "h 2 9 0\n3 2 0\n3 -1 0\n", ("eql", "sle", "bve")),
    # lm: x2's weight goes from -1 to 3, making it a single that matches _b1
    (GADGET + "h 2 9 0\n3 -9 10 0\n4 -1 0\n1 2 0\n1 -9 0\n",
     ("eql", "bve", "lm")),
    # lm: a label becomes a single whose clause clashes with another
    # label's clause, which only the one-hop push reaches
    ("h -1 -3 0\nh -4 -5 0\nh -4 -6 0\nh -5 -6 0\nh -8 -9 0\n3 2 4 0\n"
     "3 6 8 0\n3 -5 8 0\n3 4 5 0\n3 9 -10 0\n3 9 10 0\n3 9 -8 0\n"
     "3 9 11 0\n3 7 10 0\n3 12 -10 0\n3 10 -11 0\n",
     ("up", "sub", "ssr", "bve", "am1", "lm")),
]


@pytest.mark.parametrize("techniques", [STAGE2, None])
def test_memoised_closure_matches_fresh_propagation(techniques):
    """After every technique application, each live literal's memoised
    closure equals what a freshly built engine propagates."""
    rng = random.Random(4242)
    compared = 0
    for _ in range(40):
        inst = (duplicate_instance(rng) if rng.random() < 0.5
                else random_instance(rng, max_vars=10, max_clauses=30))
        cfg = Config() if techniques is None else Config(techniques=techniques)
        p = Preprocessor(inst, cfg)
        counted = p._count

        def count_and_compare(name):
            nonlocal compared
            counted(name)
            fresh = pb.Propagator(p.clauses.values())
            for lit in sorted(p.occ, key=pb.lit_sort_key):
                for start in ([lit], [pb.neg(lit)]):
                    closure, conflict = p._up_closure(start)
                    assert isinstance(closure, frozenset)
                    assert p._up_closure(start)[0] is closure
                    val = fresh.propagate(start)
                    if val is None:
                        assert (closure, conflict) == (frozenset(), True)
                    else:
                        assert not conflict, name
                        assert closure == {pb.mklit(v, b == 0)
                                           for v, b in val.items()}, name
                    compared += 1
        p._count = count_and_compare
        p.run()
    assert compared > 500


class _Applies(Exception):
    pass


class _Stop:
    """A stand-in proof writer: any call means the test began to apply."""

    def __getattr__(self, name):
        return _stop


def _stop(*args, **kw):
    raise _Applies


def would_apply(p, test, c):
    """Whether the worklist test applies candidate c, stopped before its
    first change to the store, the objective, the fresh names or the proof
    (so a test that does not apply leaves `p` as it was)."""
    writer = p.writer
    p.writer = _Stop()
    for name in ("_install", "_uninstall", "_update_objective",
                 "_fresh_label"):
        setattr(p, name, _stop)
    try:
        return bool(test(p, c))
    except _Applies:
        return True
    finally:
        p.writer = writer
        for name in ("_install", "_uninstall", "_update_objective",
                     "_fresh_label"):
            delattr(p, name)


def assert_worklists_complete(p, running=None):
    """The worklist invariant: every candidate absent from a pass's heap
    tests as not applicable.  `running` names a pass whose candidate under
    test is popped, so its heap is left out."""
    for name, wl in p.worklists.items():
        if name == running:
            continue
        candidates, _, test, _, _ = Preprocessor._WORKLISTS[name]
        for c in list(candidates(p)):
            if c not in wl.queued:
                assert not would_apply(p, test, c), (name, c)


def test_worklists_hold_every_applicable_candidate(monkeypatch):
    """After every application and around every pass, each worklist pass's
    absent candidates are known not to apply."""
    checks = []

    def checked(name, run):
        def wrapped(self):
            assert_worklists_complete(self)
            changed = run(self)
            assert_worklists_complete(self)
            checks.append(name)
            return changed
        return wrapped

    count = Preprocessor._count

    def count_and_check(self, name):
        count(self, name)
        assert_worklists_complete(self, running=name)
        checks.append(name)

    for table in (Preprocessor._STAGE2, Preprocessor._STAGE4):
        for name, run in list(table.items()):
            monkeypatch.setitem(table, name, checked(name, run))
    monkeypatch.setattr(Preprocessor, "_count", count_and_check)
    rng = random.Random(2718)
    for i in range(120):
        inst = (duplicate_instance, label_group_instance)[i % 2](rng)
        for names in (STAGE2, preprocess.DEFAULT_TECHNIQUES):
            preprocess.run(inst, Config(techniques=names))
    assert len(checks) > 3000


def test_passes_match_restarting_references(monkeypatch):
    seen = {"sync": 0, "merge": 0, "refused": 0}
    merge, sync = Preprocessor._merge_soft_pair, Preprocessor._sync_unit_soft
    count = Preprocessor._count

    def counted_merge(self, keep, dup):
        ok = merge(self, keep, dup)
        seen["merge" if ok else "refused"] += 1
        return ok

    def counted_sync(self, cid):
        seen["sync"] += 1
        return sync(self, cid)

    def bounded_count(self, name):
        # a fault that makes a pass re-apply forever fails instead of hanging
        assert sum(self.counts.values()) < 1000, "runaway pass"
        count(self, name)

    def both(inst, cfg):
        with monkeypatch.context() as m:
            m.setattr(Preprocessor, "_count", bounded_count)
            m.setattr(Preprocessor, "_merge_soft_pair", counted_merge)
            m.setattr(Preprocessor, "_sync_unit_soft", counted_sync)
            new = preprocess.run(inst, cfg)
        with monkeypatch.context() as m:
            m.setattr(Preprocessor, "_count", bounded_count)
            m.setitem(Preprocessor._STAGE2, "dup", reference_remove_duplicates)
            for name, once in REFERENCE_PASSES.items():
                for table in (Preprocessor._STAGE2, Preprocessor._STAGE4):
                    if name in table:
                        m.setitem(table, name, once)
            ref = preprocess.run(inst, cfg)
        return new, ref

    configs = [Config(techniques=(t,)) for t in WORKLIST_PASSES]
    configs += [Config(techniques=STAGE2), Config()]
    runs = [(inst, cfg) for inst in instances() for cfg in configs]
    runs += [(parse_wcnf(text), Config(techniques=names))
             for text, names in TARGETED_CASES]
    applied = {}
    for inst, cfg in runs:
        (out, proof, p), (rout, rproof, rp) = both(inst, cfg)
        assert proof == rproof
        assert (out.hard, out.soft) == (rout.hard, rout.soft)
        assert p.counts == rp.counts
        for name, n in p.counts.items():
            applied[name] = applied.get(name, 0) + n
    # every branch of the changed passes was exercised
    assert applied["dup"] > 200
    for name in WORKLIST_PASSES:
        assert applied[name] > 20, name
    assert seen["sync"] > 20 and seen["merge"] > 20 and seen["refused"] > 5


def test_outputs_proofs_and_counts_match_pinned_digest():
    """Every technique alone, stage 2 alone, the default set, and the default
    set with the opt-in techniques, over every eighth instance: the output
    WCNF, the proof and the sorted counts hash to the pinned SHA-1.  A
    rewrite of the preprocessor that changes any byte of them fails here;
    one that changes them on purpose pins the new digest."""
    h = hashlib.sha1()
    for inst in itertools.islice(instances(), 0, None, 8):
        for names in PINNED_SETS:
            out, proof, p = preprocess.run(inst, Config(techniques=names))
            h.update(write_wcnf(out).encode())
            h.update(proof.encode())
            h.update(repr(sorted(p.counts.items())).encode())
    assert h.hexdigest() == "b0bc616e617399d97bc7df2f34aabb27a4d42e26"


def test_every_single_technique_is_certified():
    """Each technique alone, over every tenth instance, gives a proof the
    checker accepts as EQUIOPTIMAL.  With `taut` off, a tautology used to
    stay live into stage 4, where its cancelled literals read as a shorter
    clause: ssr, eql, bve, lm and sbl runs were rejected and bva raised."""
    for inst in itertools.islice(instances(), 0, None, 10):
        for name in SINGLES:
            out, proof, _ = preprocess.run(inst, Config(techniques=(name,)))
            v = check_wcnf_proof(inst, proof.splitlines(), out)
            assert v.accepted and v.level == "EQUIOPTIMAL", (name, v)
