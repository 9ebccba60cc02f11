"""The proof's deletions are the run's change record.

The preprocessor keeps no separate note of whether it changed anything: in
the WCNF phase every change ends in a ``delc``, so a run whose proof deletes
nothing by the time it finishes changed nothing, and its output is the input
read again.  The tests below check that rule and two more facts the
preprocessor relies on: stage 4 holds no trivial clause for the SAT oracle
to skip, and ``harden`` fixes the heavy objective terms it reads once.
"""

import io
import itertools

from certprep import pb, preprocess, sat
from certprep.checker import check_wcnf_proof
from certprep.preprocess import Config, Preprocessor
from certprep.wcnf import parse_wcnf
from test_passes import STAGE2, instances

STEPS = ("pol", "rup", "red", "obju", "core")


def test_wcnf_phase_changes_end_in_a_delc(monkeypatch):
    """Each stage-2 technique alone, all six together and none, over the
    corpus: when a run reaches `finish` in the WCNF phase, the proof it has
    written holds a step line only if it holds a `delc` too, and it has
    deleted an id exactly when it holds a `delc`."""
    finished = []
    finish = Preprocessor.finish

    def recorded(self):
        if self.phase == "wcnf":
            finished.append((self.writer.sink.getvalue(), bool(self.deleted)))
        return finish(self)

    monkeypatch.setattr(Preprocessor, "finish", recorded)
    sets = [(t,) for t in STAGE2] + [STAGE2, ()]
    for inst in instances():
        for names in sets:
            preprocess.run(inst, Config(techniques=names))
    changed = 0
    for text, deleted in finished:
        ops = {line.split(" ", 1)[0] for line in text.splitlines()}
        assert deleted == ("delc" in ops)
        if not deleted:
            assert not ops & set(STEPS), text
        changed += deleted
    # the other runs found the hard clauses unsatisfiable
    assert len(finished) > 1500
    assert 500 < changed < len(finished)


def test_oracle_sees_no_trivial_clause(monkeypatch):
    """The defaults plus trim,harden over every other instance: no live
    clause is trivial when the SAT oracle is built."""
    calls = []
    oracle = Preprocessor._oracle

    def checked(self, *args, **kw):
        assert not any(c.is_trivial() for c in self.clauses.values())
        calls.append(len(self.clauses))
        return oracle(self, *args, **kw)

    monkeypatch.setattr(Preprocessor, "_oracle", checked)
    cfg = Config(techniques=preprocess.DEFAULT_TECHNIQUES + ("trim", "harden"))
    for inst in itertools.islice(instances(), 0, None, 2):
        preprocess.run(inst, cfg)
    assert len(calls) > 200 and sum(calls) > 500


# x1 or x2 must hold, and each costs 1 when true; x3, x4, x5 and x8 cost
# 5, 6, 7 and 8 when true.  Fixing x3 false satisfies a clause, fixing x4
# and x5 false shrinks one each, and x8 occurs in no clause, so the oracle's
# model leaves it out and harden gives it its cheaper value.
HEAVY = ("h 1 2 0\nh -3 6 7 0\nh 4 6 0\nh 5 -6 7 0\n1 -1 0\n1 -2 0\n"
         "5 -3 0\n6 -4 0\n7 -5 0\n8 -8 0\n")


def test_harden_fixes_the_heavy_terms_it_reads_once(monkeypatch):
    """harden alone on HEAVY: one call fixes at least three literals, in
    order the literal-form terms heavier than the model's cost, and the
    proof verifies."""
    models, fixed, calls = [], [], []
    solve = sat.SatOracle.solve
    fix = Preprocessor.fix_literal
    harden = Preprocessor.hardening

    def solved(self, *args, **kw):
        models.append(solve(self, *args, **kw))
        return models[-1]

    def fixing(self, lit, pid):
        fixed.append(lit)
        return fix(self, lit, pid)

    def hardening(self):
        objective = self.objective.copy()
        del models[:], fixed[:]
        applied = harden(self)
        bound = objective.value(models[0])  # the model harden completed
        calls.append(([pb.neg(lit) for w, lit in objective.literal_form()[0]
                       if w > bound], list(fixed)))
        return applied

    monkeypatch.setattr(sat.SatOracle, "solve", solved)
    monkeypatch.setattr(Preprocessor, "fix_literal", fixing)
    monkeypatch.setattr(Preprocessor, "_STAGE4",
                        dict(Preprocessor._STAGE4, harden=hardening))
    inst = parse_wcnf(HEAVY)
    sink = io.StringIO()
    out, _, p = preprocess.run(inst, Config(techniques=("harden",)), sink)
    expected, got = calls[0]
    assert got == expected and len(got) >= 3
    assert p.counts["harden"] == len(got)
    v = check_wcnf_proof(inst, sink.getvalue().splitlines(), out)
    assert v.accepted and v.level == "EQUIOPTIMAL", v
