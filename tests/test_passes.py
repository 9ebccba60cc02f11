"""Differential tests: the worklist passes against the restarting scans
they replaced (references in conftest).

Every pass but `trim` and `harden` drains a worklist.  `dup` settles groups
from their smallest ids instead of regrouping after each action; `up`,
`taut` and `empty` take the new clauses their hooks report instead of
scanning every clause; `sub`, `bce`, `ssr`, `sle`, `bve` and `lm` test
only the candidates their hooks push back (SLE and LM draw their partners
from occurrence lists instead of all pairs); the other passes refill their
lists with every candidate after a change, as the restarting scans did,
but not when nothing changed since their last drain; and _up_closure
memoises closures between clause changes.  Each must leave
the proof and the output exactly as the reference forms produce them."""

import hashlib
import itertools
import random

import pytest

from certprep import pb, preprocess
from certprep.checker import check_wcnf_proof
from certprep.preprocess import Config, Preprocessor
from certprep.wcnf import (MAX_WEIGHT, WcnfInstance, parse_wcnf,
                           read_clauses, write_wcnf)
from conftest import REFERENCE_PASSES, random_instance, reference_groups
from test_ingest import large_light_text

STAGE2 = ("dup", "taut", "up", "empty", "sub", "bce")
# sbl can apply over a hundred times on one small instance, and bva's
# reference scan tests every pair of literals after every application, so
# the differential runs them alone on every fourth instance only
SLOW_PASSES = ("bva", "sbl")
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


def binary_core_instance(rng):
    """Pairs of relaxed softs (x v D) and (~x v E) over a fresh x each, with
    hard units against some literals of D and E, and a grid of hard clauses
    (h v t) with a few cells missing.  bve resolves x and the units out, so
    two labels come to share a binary clause, which am1 and bcr take when
    their weights are equal and gsle when they are not; bva factors the
    grid."""
    pairs = rng.randint(2, 6)
    nv = pairs + 3
    pool = [pb.mklit(pb.mkvar(v), rng.random() < 0.5)
            for v in range(pairs + 1, nv + 1)]
    hard, soft = [], []
    for x in range(1, pairs + 1):
        w = rng.choice((2, 3))
        for side in (pb.mklit(pb.mkvar(x)), pb.mklit(pb.mkvar(x), True)):
            cl = [side] + rng.sample(pool, rng.randint(1, 2))
            soft.append((w if rng.random() < 0.8 else rng.choice((2, 3)), cl))
    for u in rng.sample(pool, rng.randint(0, len(pool))):
        hard.append([pb.neg(u)])
    heads = [pb.mklit(pb.mkvar(nv + 1 + i), rng.random() < 0.3)
             for i in range(rng.randint(2, 3))]
    tails = [pb.mklit(pb.mkvar(nv + 4 + i), rng.random() < 0.3)
             for i in range(rng.randint(2, 4))]
    for h in heads:
        for t in tails:
            if rng.random() < 0.85:
                hard.append([h, t] + ([rng.choice(pool)]
                                      if rng.random() < 0.2 else []))
    rng.shuffle(hard)
    rng.shuffle(soft)
    return WcnfInstance(hard, soft)


# Technique sets under which bva, gsle, am1 and bcr apply on
# binary_core_instance
CORE_SETS = [("bva",), ("bve", "bva"), ("bve", "gsle"), ("bve", "am1"),
             ("bve", "bcr"), ("bve", "am1", "bcr")]


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


# Instances 31 and 47 of test_worklists_hold_every_applicable_candidate's
# random.Random(2718) sequence, and a hand-made one: two live clauses with
# the same literals used to give `bva` the same suffix twice, so it removed
# one clause id twice and `Propagator.remove` raised KeyError.
GROUPS = ("h 1 2 3 0\nh -1 -2 0\nh -1 -3 0\nh -2 -3 0\nh 4 5 6 0\nh -4 -5 0\n"
          "h -4 -6 0\nh -5 -6 0\nh 7 8 9 0\nh -7 -8 0\nh -7 -9 0\nh -8 -9 0\n"
          "h 10 11 12 0\nh -10 -11 0\nh -10 -12 0\nh -11 -12 0\n")
BVA_SHARED_SUFFIX = [
    (GROUPS + "3 -3 10 0\n3 4 6 0\n3 -10 -2 0\n3 -9 -12 0\n3 12 8 0\n"
     "3 7 -12 0\n3 9 -5 0\n3 -9 -4 0\n3 4 12 0\n3 4 11 0\n3 -7 -2 0\n"
     "3 7 -3 0\n3 -3 12 0\n3 2 0\n", preprocess.DEFAULT_TECHNIQUES + ("bva",)),
    (GROUPS + "3 -3 -6 0\n3 -6 3 0\n3 3 -10 0\n3 1 -7 0\n3 -10 1 0\n"
     "3 12 -8 0\n3 12 7 0\n3 3 -1 0\n3 -3 1 0\n3 -2 5 0\n3 -12 1 0\n"
     "3 -3 9 0\n3 -8 5 0\n3 -9 1 0\n3 1 4 0\n2 -4 0\n",
     preprocess.DEFAULT_TECHNIQUES + ("bva",)),
    ("h 1 3 0\nh 1 4 0\nh 1 5 0\nh 2 3 0\nh 2 4 0\nh 2 5 0\nh 3 1 0\n"
     "1 -1 0\n1 -3 0\n", ("bva",)),
]


@pytest.mark.parametrize("text, names", BVA_SHARED_SUFFIX)
def test_bva_takes_a_shared_suffix_once(text, names):
    inst = parse_wcnf(text)
    out, proof, p = preprocess.run(inst, Config(techniques=names))
    v = check_wcnf_proof(inst, proof.splitlines(), out)
    assert v.accepted and v.level == "EQUIOPTIMAL", v
    if names == ("bva",):
        # (x1 v x3) twice: the factoring applies once and keeps one copy
        assert p.counts == {"bva": 1}
        assert write_wcnf(out).startswith("h 1 3 0\nh 3 -6 0\n")


def test_bva_reads_the_clauses_of_one_literal_per_suffix(monkeypatch):
    """One `_bva_at(l1)` reads the clauses of l1 and, for each suffix D of
    an (l1 v D), those of one literal of D: not those of every literal
    after l1, which made bva quadratic in the live literals."""
    inst = parse_wcnf(large_light_text(random.Random(3), 300, 600, 400))
    p = Preprocessor(inst, Config(("bva",)))
    l1 = min(p.engine.occ, key=pb.lit_sort_key)
    bound = 1 + len(p.engine.occ[l1])
    reads = []
    occ_ids = Preprocessor._occ_ids

    def counted(self, lit):
        reads.append(lit)
        return occ_ids(self, lit)
    monkeypatch.setattr(Preprocessor, "_occ_ids", counted)
    p._bva_at(l1)
    assert 1 < len(reads) <= bound


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
            for lit in sorted(p.engine.occ, key=pb.lit_sort_key):
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


STOPPED = ("_install", "_uninstall", "_update_objective", "_fresh_label",
           "_count")


def would_apply(p, test, c):
    """Whether the worklist test applies candidate c, stopped before its
    first change to the store, the objective, the fresh names, the counts
    or the proof (so a test that does not apply leaves `p` as it was)."""
    writer = p.writer
    p.writer = _Stop()
    for name in STOPPED:
        setattr(p, name, _stop)
    try:
        return bool(test(p, c))
    except _Applies:
        return True
    finally:
        p.writer = writer
        for name in STOPPED:
            delattr(p, name)


def assert_worklists_complete(p, running=None):
    """The worklist invariant: every candidate absent from a pass's heap
    tests as not applicable, and a stale list counts as holding every
    candidate.  `running` names a pass whose candidate under test is
    popped, so its heap is left out.  dup's maintained groups, a lone id
    read as a list of one, equal a fresh regrouping of the live clauses by
    their real literals, and only a group of two or more is a list."""
    if "dup" in p.worklists:
        assert {tuple(lit for _, lit in key): [g] if type(g) is int else g
                for key, g in p.groups.items()} == reference_groups(p)
        assert all(len(g) > 1 for g in p.groups.values() if type(g) is list)
    for name, wl in p.worklists.items():
        if name == running or wl.stale:
            continue
        for c in list(wl.candidates(p)):
            if c not in wl.queued:
                assert not would_apply(p, wl.test, c), (name, c)


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
    run_worklist_corpus()
    assert len(checks) > 3000
    assert {"bva", "sbl", "am1", "bcr", "gsle"} <= set(checks)


def run_worklist_corpus():
    """Run the pipeline over label-group, duplicate and binary-core
    instances under technique sets that reach every worklist pass."""
    rng = random.Random(2718)
    for i in range(120):
        inst = (duplicate_instance, label_group_instance)[i % 2](rng)
        sets = [STAGE2, preprocess.DEFAULT_TECHNIQUES,
                preprocess.DEFAULT_TECHNIQUES + ("bva",)]
        if i % 4 == 0:
            sets.append(preprocess.DEFAULT_TECHNIQUES + ("sbl",))
        for names in sets:
            preprocess.run(inst, Config(techniques=names))
    core = random.Random(1618)
    for _ in range(30):
        inst = binary_core_instance(core)
        for names in CORE_SETS:
            preprocess.run(inst, Config(techniques=names))


def labelled_clauses(p):
    """The ids of the live clauses that hold an internal literal, asserting
    the invariant that makes such a literal a soft clause's label: each
    clause holds at most one, as its last literal, positive, in the `_b`
    namespace, and no other live clause holds it."""
    holder = {}
    for cid, c in p.clauses.items():
        internal = [i for i, (_, lit) in enumerate(c.terms) if lit & 6]
        if not internal:
            continue
        lit = c.terms[-1][1]
        assert internal == [len(c.terms) - 1], (cid, c)
        assert not lit & 1 and pb.var_ns(lit >> 1) == pb.NS_AUX, (cid, c)
        assert holder.setdefault(lit, cid) == cid, (cid, holder[lit])
    return set(holder.values())


def test_wcnf_phase_labels_live_only_in_their_clauses(monkeypatch):
    """After every application in the WCNF phase, and when it ends, each
    internal literal is the last literal of one live clause alone: the
    rule by which the preprocessor reads a soft clause's label."""
    checks = []

    def checked(method):
        def wrapped(self, *args):
            if self.phase == "wcnf":
                labelled = labelled_clauses(self)
                assert labelled == {cid for cid in self.clauses
                                    if self._label(cid) is not None}
                checks.append(len(labelled))
            return method(self, *args)
        return wrapped

    for name in ("_count", "convert_to_objective_centric", "finish"):
        monkeypatch.setattr(Preprocessor, name,
                            checked(getattr(Preprocessor, name)))
    run_worklist_corpus()
    assert len(checks) > 2000 and sum(checks) > 10000


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
            for name, ref_pass in REFERENCE_PASSES.items():
                for table in (Preprocessor._STAGE2, Preprocessor._STAGE4):
                    if name in table:
                        m.setitem(table, name, ref_pass)
            ref = preprocess.run(inst, cfg)
        return new, ref

    configs = [Config(techniques=(t,)) for t in SINGLES
               if t in REFERENCE_PASSES and t not in SLOW_PASSES]
    configs += [Config(techniques=STAGE2), Config()]
    runs = [(inst, cfg) for inst in instances() for cfg in configs]
    runs += [(inst, Config(techniques=(t,)))
             for inst in itertools.islice(instances(), 0, None, 4)
             for t in SLOW_PASSES]
    core = random.Random(1618)
    runs += [(inst, Config(techniques=names))
             for inst in [binary_core_instance(core) for _ in range(60)]
             for names in CORE_SETS]
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
    for name in REFERENCE_PASSES:
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
    assert h.hexdigest() == "3be9194c533de2c6c4d45af0ce3f25834433b3bb"


def test_heavy_objective_terms_split_into_bounded_unit_softs():
    """The default set over every instance: no output weight exceeds
    MAX_WEIGHT, since a heavier objective term goes out as unit softs of
    MAX_WEIGHT on its literal plus one for the rest, and every output,
    written and read back as text, verifies.  The instances' weights near
    MAX_WEIGHT / 2 make such terms common: before the split, 52 outputs
    held a weight the reader refuses."""
    split = 0
    for inst in instances():
        out, proof, _ = preprocess.run(inst)
        units = {}
        for w, cl in out.soft:
            assert 1 <= w <= MAX_WEIGHT
            if len(cl) == 1:
                units.setdefault(cl[0], []).append(w)
        for ws in units.values():
            assert all(w == MAX_WEIGHT for w in ws[:-1]), ws
        split += any(len(ws) > 1 for ws in units.values())
        v = check_wcnf_proof(read_clauses(write_wcnf(inst)),
                             proof.splitlines(),
                             read_clauses(write_wcnf(out)))
        assert v.accepted and v.level == "EQUIOPTIMAL", v
    assert split >= 40, split


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
