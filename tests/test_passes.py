"""Differential tests: the restart-free technique passes against the
restarting scans they replaced (references in conftest).

`dup` settles groups from a heap instead of regrouping after each action,
SLE draws its pairs from occurrence lists instead of all variable pairs, and
_up_closure memoises closures between clause changes.  Each must leave the
proof and the output exactly as the reference forms produce them."""

import hashlib
import itertools
import random

import pytest

from certprep import pb, preprocess
from certprep.preprocess import Config, Preprocessor
from certprep.wcnf import MAX_WEIGHT, WcnfInstance, write_wcnf
from conftest import (random_instance, reference_remove_duplicates,
                      reference_sle_pairs)

STAGE2 = ("dup", "taut", "up", "empty", "sub", "bce")
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


def instances():
    rng = random.Random(31337)
    for _ in range(300):
        yield duplicate_instance(rng)
    for _ in range(100):
        yield random_instance(rng, max_vars=10, max_clauses=30)


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
            m.setattr(Preprocessor, "_sle_pairs", reference_sle_pairs)
            ref = preprocess.run(inst, cfg)
        return new, ref

    applied = {}
    for inst in instances():
        for cfg in (Config(techniques=STAGE2), Config()):
            (out, proof, p), (rout, rproof, rp) = both(inst, cfg)
            assert proof == rproof
            assert (out.hard, out.soft) == (rout.hard, rout.soft)
            assert p.counts == rp.counts
            for name, n in p.counts.items():
                applied[name] = applied.get(name, 0) + n
    # every branch of the changed passes was exercised
    assert applied["dup"] > 200 and applied["sle"] > 20
    assert seen["sync"] > 20 and seen["merge"] > 20 and seen["refused"] > 5


def test_outputs_proofs_and_counts_match_pinned_digest():
    """Every technique alone, stage 2 alone, the default set, and the default
    set with the opt-in techniques, over every eighth instance: the output
    WCNF, the proof and the sorted counts hash to the pinned SHA-1.  A
    rewrite of the preprocessor that changes any byte of them fails here;
    one that changes them on purpose pins the new digest.  The digest pins
    behaviour, not soundness: with `taut` off, a tautology stays live into
    stage 4, and some single-technique runs give proofs the checker
    rejects."""
    h = hashlib.sha1()
    for inst in itertools.islice(instances(), 0, None, 8):
        for names in PINNED_SETS:
            out, proof, p = preprocess.run(inst, Config(techniques=names))
            h.update(write_wcnf(out).encode())
            h.update(proof.encode())
            h.update(repr(sorted(p.counts.items())).encode())
    assert h.hexdigest() == "fa0fa7cdf24ca27d7ff14e38ad2dac2ce804ce28"
