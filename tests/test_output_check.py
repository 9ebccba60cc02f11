"""The output check: the checker compares its core with the claimed output
as clause keys built while the output is read (`checker._key`), through the
same encoder that reads the input.  The references in conftest encode the
output whole and compare constraint sets; over mutated outputs, at every
output level, both must give the same verdict and the same rejection line."""

import gc
import random
import tracemalloc

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
    every (1, literal) term in the output's keys is the object that the
    input's constraints hold for that literal."""
    text = large_light_text(random.Random(9), nv=300, n_hard=600, n_soft=400)
    out, proof, _ = preprocess.run(
        wcnf.parse_wcnf(text), preprocess.Config(techniques=("dup", "taut")))
    seen = []

    class Recording(checker.ProofChecker):
        def __init__(self, *args):
            super().__init__(*args)
            terms = {}
            for c in self.input_constraints:
                for term in c.terms:
                    assert terms.setdefault(term[1], term) is term
            seen.append((terms, self.output_keys))

    monkeypatch.setattr(checker, "ProofChecker", Recording)
    v = check_wcnf_proof(read_clauses(text), proof.splitlines(),
                         read_clauses(wcnf.write_wcnf(out)))
    assert v.accepted and v.level == "EQUIOPTIMAL", v
    [(terms, keys)] = seen
    out_terms = [term for key in keys
                 for term in (key if type(key) is tuple else key.terms)]
    assert len(out_terms) > 2000
    assert all(term is terms[term[1]] for term in out_terms)
