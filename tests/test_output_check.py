"""The output check: the checker compares its core with the claimed output
as clause keys built while the output is read (`checker._key`), through the
same encoder that reads the input.  The references in conftest encode the
output whole and compare constraint sets; over mutated outputs, at every
output level, both must give the same verdict and the same rejection line."""

import gc
import random
import tracemalloc

import pytest

from certprep import checker, preprocess, wcnf
from certprep.checker import LEVELS, check_wcnf_proof
from certprep.wcnf import read_clauses
from conftest import (reference_check_wcnf_proof, reference_encode_to_pb,
                      reference_parse_wcnf)
from test_ingest import large_light_text
from test_passes import instances


def dimacs(lit):
    return -(lit >> 3) if lit & 1 else lit >> 3


def wcnf_text(clauses):
    """(weight or None, literals) pairs as WCNF lines, in the given order."""
    return "".join("%s %s0\n" % ("h" if w is None else w,
                                 "".join("%d " % dimacs(l) for l in cl))
                   for w, cl in clauses)


def interleave(clauses):
    """The soft and the hard clauses in turns, a soft one first, each kind
    keeping its own order."""
    hard = [c for c in clauses if c[0] is None]
    soft = [c for c in clauses if c[0] is not None]
    merged = []
    while hard or soft:
        merged += soft[:1] + hard[:1]
        hard, soft = hard[1:], soft[1:]
    return merged


def mutants(rng, clauses):
    """(name, clauses) for each way of changing a claimed output that
    applies to `clauses`."""
    lits = sorted({l for _, cl in clauses for l in cl}) or [8]
    fresh = (max(lits) >> 3) + 1
    hard = [i for i, (w, cl) in enumerate(clauses) if w is None and cl]
    soft = [i for i, (w, _) in enumerate(clauses) if w is not None]
    units = [i for i in soft if len(set(clauses[i][1])) == 1]
    nonempty = [i for i, (_, cl) in enumerate(clauses) if cl]

    def changed(i, clause):
        return clauses[:i] + [clause] + clauses[i + 1:]

    out = [("reorder", [(w, rng.sample(cl, len(cl))) for w, cl in clauses]),
           ("interleave", interleave(clauses)),
           ("add", clauses + [(None, [rng.choice(lits), fresh << 3])])]
    if clauses:
        i = rng.randrange(len(clauses))
        out.append(("drop", clauses[:i] + clauses[i + 1:]))
        out.append(("duplicate", clauses + [clauses[i]]))
    if nonempty:
        i = rng.choice(nonempty)
        w, cl = clauses[i]
        j = rng.randrange(len(cl))
        flipped = cl[:j] + [cl[j] ^ 1] + cl[j + 1:]
        out.append(("flip", changed(i, (w, flipped))))
        out.append(("repeat", changed(i, (w, cl + [rng.choice(cl)]))))
    if hard:
        # C v y v ~y: its terms are C's, its degree 0
        cl = clauses[rng.choice(hard)][1]
        y = rng.choice([l for l in lits if l >> 1 not in {m >> 1 for m in cl}]
                       or [fresh << 3])
        out.append(("tautology", clauses + [(None, cl + [y, y ^ 1])]))
    if soft:
        i = rng.choice(soft)
        w, cl = clauses[i]
        out.append(("weight", changed(i, (w - 1 or 2, cl))))
    if len(soft) > 1:
        i, j = rng.sample(soft, 2)
        swapped = list(clauses)
        swapped[i], swapped[j] = clauses[j], clauses[i]
        out.append(("swap", swapped))
    if units:
        i = rng.choice(units)
        w, cl = clauses[i]
        other = [l for l in lits if l >> 1 != cl[0] >> 1] or [fresh << 3]
        out.append(("unit_to_relaxed",
                    changed(i, (w, cl + [rng.choice(other)]))))
    return out


def outcome(v):
    return v.accepted, v.level, v.error, v.lineno


def attempt(fn):
    """fn(), or an outcome that holds the text of the ValueError it raises
    (an unreadable file)."""
    try:
        return fn()
    except ValueError as exc:
        return "unreadable", None, str(exc), None


def at_level(proof_lines, level):
    return [("output " + level if line.startswith("output ") else line)
            for line in proof_lines]


# the default set ends in the objective-centric form, where every soft
# clause is a unit; `dup` alone or no technique at all keeps relaxed softs
TECHNIQUE_SETS = (preprocess.DEFAULT_TECHNIQUES, ("dup",), ())


def test_output_check_matches_constraint_sets():
    """Every eighth instance of the pass corpus, preprocessed under one of
    TECHNIQUE_SETS in turn; each mutant of its output is checked at the one
    level and at DERIVABLE, which is none, through `read_clauses` streams and
    through the reference path, which reads the input as hard clauses first
    whatever the file's order."""
    rng = random.Random(2024)
    seen = set()
    for i, inst in enumerate(list(instances())[::8]):
        out, proof, _ = preprocess.run(inst, preprocess.Config(
            techniques=TECHNIQUE_SETS[i % 3]))
        # every other input interleaves its hard and soft lines
        text = wcnf_text(interleave(list(inst)) if i % 2 else list(inst))
        lines = proof.splitlines()
        for name, mutant in mutants(rng, list(out)):
            out_text = wcnf_text(mutant)
            assert attempt(lambda: wcnf.encode_to_pb(read_clauses(out_text))) \
                == attempt(lambda: reference_encode_to_pb(
                    reference_parse_wcnf(out_text))), out_text
            for level in LEVELS + ("DERIVABLE",):
                proof_lines = at_level(lines, level)
                got = attempt(lambda: outcome(check_wcnf_proof(
                    read_clauses(text), proof_lines, read_clauses(out_text))))
                want = attempt(lambda: outcome(reference_check_wcnf_proof(
                    reference_parse_wcnf(text), proof_lines,
                    reference_parse_wcnf(out_text))))
                assert got == want, (name, level, text, out_text)
                seen.add((name, level, got[2] and got[2].split(": ", 1)[1]))
    for name in ("reorder", "interleave", "repeat"):
        assert (name, "EQUIOPTIMAL", None) in seen, name
    for name in ("add", "drop", "flip", "tautology", "swap",
                 "unit_to_relaxed"):
        assert (name, "EQUIOPTIMAL",
                "core does not match the output instance") in seen, name
    assert ("weight", "EQUIOPTIMAL",
            "objective does not match the output instance") in seen
    for name in ("add", "drop"):
        assert (name, "DERIVABLE",
                "unknown output level 'DERIVABLE'") in seen, name


def test_interleaved_input_keeps_proof_ids():
    """A file that interleaves hard and soft lines encodes as its hard-first
    form does: hard constraints first, then relaxed softs labelled in soft
    order.  So both forms give the same proof, and it checks from either."""
    for inst in list(instances())[1::40]:
        clauses = list(inst)
        text = wcnf_text(interleave(clauses))
        assert text != wcnf_text(clauses)
        parsed = wcnf.parse_wcnf(text)
        assert parsed == inst
        assert wcnf.encode_to_pb(read_clauses(text)) == \
            reference_encode_to_pb(reference_parse_wcnf(text))
        out, proof, _ = preprocess.run(parsed)
        assert (out, proof) == preprocess.run(inst)[:2]
        for form in (text, wcnf_text(clauses)):
            v = check_wcnf_proof(read_clauses(form), proof.splitlines(), out)
            assert v.accepted and v.level == "EQUIOPTIMAL", v


def traced_peak(fn):
    """Peak bytes that tracemalloc sees during fn()."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_check_keeps_no_parsed_instance_while_replaying():
    """Checking over `read_clauses` streams peaks well below the path that
    parses both instances whole, encodes the output whole and compares
    constraint sets, even with that path's parser and encoder the
    program's own."""
    text = large_light_text(random.Random(5))
    out, proof, _ = preprocess.run(
        wcnf.parse_wcnf(text), preprocess.Config(techniques=("dup", "taut")))
    out_text = wcnf.write_wcnf(out)
    lines = proof.splitlines()
    del out, proof
    verdicts = []
    peak = traced_peak(lambda: verdicts.append(check_wcnf_proof(
        read_clauses(text), lines, read_clauses(out_text))))
    ref_peak = traced_peak(lambda: verdicts.append(reference_check_wcnf_proof(
        wcnf.parse_wcnf(text), lines, wcnf.parse_wcnf(out_text),
        encode=wcnf.encode_to_pb)))
    assert [outcome(v) for v in verdicts] == [(True, "EQUIOPTIMAL", None,
                                               None)] * 2
    assert peak <= 0.85 * ref_peak, (peak, ref_peak)


def test_output_keys_hold_the_input_terms(monkeypatch):
    """A check encodes the input and the output through one term table, so
    every (1, literal) term in the key table and in the unmatched keys is
    the object that the input's constraints hold for that literal.  The
    claimed output also comes with clauses that no core constraint holds,
    made of the input's literals, so that some keys stay unmatched."""
    text = large_light_text(random.Random(9), nv=300, n_hard=600, n_soft=400)
    out, proof, _ = preprocess.run(
        wcnf.parse_wcnf(text), preprocess.Config(techniques=("dup", "taut")))
    clauses = list(out)
    hard = [cl for w, cl in clauses if w is None and len(cl) > 2]
    extra = [(None, a[:2] + b[-1:]) for a, b in zip(hard[::2], hard[1::2])]
    seen = []

    class Recording(checker.ProofChecker):
        def run(self, proof_lines):
            terms = {}
            for c in self.constraints.values():
                for term in c.terms:
                    assert terms.setdefault(term[1], term) is term
            seen.append((terms, list(self.core_keys), set(self.unmatched)))
            return super().run(proof_lines)

    monkeypatch.setattr(checker, "ProofChecker", Recording)
    for claimed, accepted in ((clauses, True), (clauses + extra, False)):
        v = check_wcnf_proof(read_clauses(text), proof.splitlines(),
                             read_clauses(wcnf.write_wcnf(claimed)))
        assert v.accepted is accepted, v
    assert not seen[0][2] and len(seen[1][2]) > 100
    for terms, keys, unmatched in seen:
        out_terms = [term for key in keys + list(unmatched)
                     for term in (key if type(key) is tuple else key.terms)]
        assert len(out_terms) > 2000
        assert all(term is terms[term[1]] for term in out_terms)


# (x1 v x2), (~x1 v x3), (x2 v x3), (x4 v x5) and the relaxed soft
# (~x3 v x4 v _b1) are constraints 1-5; the unit soft goes to the objective
SMALL = "h 1 2 0\nh -1 3 0\nh 2 3 0\nh 4 5 0\n2 -3 4 0\n3 1 0\n"
ADD = ["rup +1 x2 +1 x3 +1 x4 >= 1 ;", "core id 6"]
READD = ADD + ["delc 6", "rup +1 x2 +1 x3 +1 x4 >= 1 ;", "core id 7"]


def _without(text, line):
    assert line in text.splitlines()
    return "".join(l + "\n" for l in text.splitlines() if l != line)


@pytest.mark.parametrize("body, out_text, accepted", [
    ([], SMALL, True),
    ([], _without(SMALL, "h 2 3 0"), False),                # missing clause
    ([], SMALL + "h 1 4 0\n", False),                       # extra clause
    ([], SMALL + "h 2 3 0\nh 1 2 0\nh 2 3 0\n", True),     # repeated lines
    ([], "".join(reversed(SMALL.splitlines(True))), True),  # shuffled
    (["delc 3"], SMALL, False),     # a deleted input key kept
    (["delc 3"], _without(SMALL, "h 2 3 0"), True),
    (ADD, SMALL + "h 2 3 4 0\n", True),     # added by rup and core id
    (ADD, SMALL, False),
    (ADD[:1], SMALL + "h 2 3 4 0\n", False),    # never moved to the core
    (ADD[:1], SMALL, True),
    (READD, SMALL + "h 4 3 2 0\n", True),    # added, deleted, added again
    (READD, SMALL, False),
    (READD[:3], SMALL + "h 2 3 4 0\n", False),  # ... not added again
    (READD[:3], SMALL, True),
])
def test_output_cases_match_the_reference(body, out_text, accepted):
    """The key table and the unmatched keys against the reference's
    constraint sets: the same verdict, error and line."""
    lines = [checker.HEADER, "f 5"] + body + [
        "output EQUIOPTIMAL", "conclusion NONE", checker.TRAILER]
    got = outcome(check_wcnf_proof(read_clauses(SMALL), lines,
                                   read_clauses(out_text)))
    want = outcome(reference_check_wcnf_proof(
        reference_parse_wcnf(SMALL), lines, reference_parse_wcnf(out_text)))
    assert got == want
    if accepted:
        assert got == (True, "EQUIOPTIMAL", None, None)
    else:
        assert got == (False, None, "line %d: core does not match the "
                       "output instance" % (len(body) + 3), len(body) + 3)


def hard_twin_text():
    """`dup_light_text`'s planted hard duplicates and hard tautology, as the
    benchmark's large-light instances plant them, without its soft twins:
    merging those takes witnessed `red` steps, which read the literal
    index."""
    text = large_light_text(random.Random(37))
    lines = text.splitlines()
    return text + "\n".join(lines[:40:4] + ["h 40 -40 41 0"]) + "\n"


# the traced peak of a check over line iterators, as a fraction of the
# reference path's: 0.585 when pinned, plus 10% headroom
PEAK_RATIO = 0.64


def test_duplicate_deletions_build_no_literal_index(monkeypatch):
    """A `dup,taut` proof deletes duplicates and tautologies only, which the
    deletion rule accepts without propagating, so the check never builds
    the literal index, and it peaks at a pinned fraction of the path that
    parses both instances whole and compares constraint sets.  Both paths
    read line iterators built beforehand, so that neither pays for
    splitting a text."""
    text = hard_twin_text()
    out, proof, _ = preprocess.run(
        wcnf.parse_wcnf(text), preprocess.Config(techniques=("dup", "taut")))
    in_lines = text.splitlines()
    out_lines = wcnf.write_wcnf(out).splitlines()
    lines = proof.splitlines()
    assert sum(line.startswith("delc ") for line in lines) == 11
    assert not [line for line in lines[2:-3] if not line.startswith(
        ("delc ", "* "))]
    del out, proof
    checkers, verdicts = [], []

    class Recording(checker.ProofChecker):
        def run(self, proof_lines):
            checkers.append(self)
            return super().run(proof_lines)

    monkeypatch.setattr(checker, "ProofChecker", Recording)
    peak = traced_peak(lambda: verdicts.append(check_wcnf_proof(
        read_clauses(iter(in_lines)), iter(lines),
        read_clauses(iter(out_lines)))))
    ref_peak = traced_peak(lambda: verdicts.append(reference_check_wcnf_proof(
        wcnf.parse_wcnf(iter(in_lines)), iter(lines),
        wcnf.parse_wcnf(iter(out_lines)), encode=wcnf.encode_to_pb)))
    assert [outcome(v) for v in verdicts] == [(True, "EQUIOPTIMAL", None,
                                               None)] * 2
    [chk] = checkers
    assert chk.engine._occ is None
    assert peak <= PEAK_RATIO * ref_peak, (peak, ref_peak)
