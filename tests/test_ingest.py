"""Differential tests for the clause ingest fast paths: the WCNF parser,
the clause constructor, the root-set test of `Propagator.add`, the PB
translation and the CLI's largest variable index, each against the form it
replaced (references in conftest).  The checker reads its inputs through
the same code as the preprocessor, so a wrong fast path would fool both
sides of a certified run at once; only a differential test can see it."""

import gc
import io
import random
import tracemalloc

from certprep import cli, pb, preprocess, wcnf
from certprep.preprocess import Config, Preprocessor
from conftest import (random_instance, reference_constraint_from_clause,
                      reference_encode_to_pb, reference_max_var_index,
                      reference_parse_wcnf, reference_propagates_at_root)

MAX_WEIGHT = 2**63 - 1
SPACES = (" ", " ", " ", "  ", "\t", " \t ")


def outcome(fn, arg):
    """What fn(arg) returns, or the text of the ValueError it raises."""
    try:
        return "ok", fn(arg)
    except ValueError as exc:
        return "error", str(exc)


def literal_token(rng):
    n = rng.choice((rng.randint(1, 9), rng.randint(1, 300),
                    rng.randint(1, 10**30)))
    if rng.random() < 0.5:
        return "-%d" % n
    return rng.choice(("%d", "%d", "%d", "+%d", "0%d")) % n


def random_wcnf_text(rng):
    """A valid file: the current dialect or the legacy one (with a top
    weight that makes some clauses hard), comments and blank lines,
    irregular whitespace, `+` signs, leading zeros and huge literals."""
    legacy = rng.random() < 0.35
    top = rng.choice((1, 2, 5, 10, MAX_WEIGHT, 2**70))
    lines = []
    if legacy:
        lines += ["c legacy"] * rng.randint(0, 2)
        lines.append("p wcnf %d %d %d" % (rng.randint(1, 50),
                                          rng.randint(0, 50), top))
    for _ in range(rng.randint(0, 12)):
        r = rng.random()
        if r < 0.1:
            lines.append(rng.choice(("c", "c a comment", "  c\tindented 1 0")))
            continue
        if r < 0.15:
            lines.append(rng.choice(("", "   ", "\t")))
            continue
        if not legacy and rng.random() < 0.4:
            head = "h"
        else:
            w = rng.choice((rng.randint(1, 20), MAX_WEIGHT, top - 1, top,
                            top + 1))
            head = ("%d" if rng.random() < 0.9 else "00%d") % min(
                max(w, 1), MAX_WEIGHT)
        toks = [head] + [literal_token(rng)
                         for _ in range(rng.randint(0, 5))] + ["0"]
        lines.append(rng.choice(("", " ", "\t")) + "".join(
            t + rng.choice(SPACES) for t in toks[:-1]) + toks[-1]
            + rng.choice(("", " ", "\t ")))
    return rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("", "\n"))


BAD_TOKENS = ("x", "0", "-0", "+0", "00", "1.5", "--1", "+-1", "1e3", "²",
              "٣", "5_0", "0x10", "-", "+", "h", "p", "c")


def corrupt(rng, text):
    """`text` with one line broken the way real files are: the final 0
    dropped or doubled, a 0 or a bad token put among the literals, a bad or
    zero or too large weight, an 'h' clause under a p-line, a p-line after
    a clause or twice, a bad p-line."""
    lines = text.split("\n")
    i = rng.randrange(len(lines))
    toks = lines[i].split()
    kind = rng.randrange(8)
    if kind == 0 and toks:
        toks = toks[:-1]                                  # missing 0
    elif kind == 1 and toks:
        toks.insert(rng.randint(1, len(toks)), rng.choice(BAD_TOKENS))
    elif kind == 2 and toks:
        toks[0] = rng.choice(BAD_TOKENS + (
            "0", "+3", "-3", str(MAX_WEIGHT + 1), "99999999999999999999"))
    elif kind == 3 and toks:
        toks[-1] = rng.choice(BAD_TOKENS)                # bad terminator
    elif kind == 4:
        toks = ["h"] + toks[1:] if toks else ["h", "1", "0"]
    elif kind == 5:
        toks = rng.choice((["p", "wcnf", "3", "3", "5"], ["p", "wcnf", "3"],
                           ["p", "cnf", "3", "3", "5"],
                           ["p", "wcnf", "3", "3", "x"],
                           ["p", "wcnf", "3", "3", "0"]))
    elif kind == 6:
        toks = [rng.choice(("h", "3"))] + rng.choice(([], ["1"], ["1", "2"]))
    else:
        toks = toks + ["0"]
    lines[i] = " ".join(toks)
    return "\n".join(lines)


MALFORMED = [
    "h 1 2",                    # missing terminator
    "h 1 2 0 0",                # inner 0
    "2 1 0 3 0",                # literal 0 inside clause
    "h 1 -0 0",                 # -0 is 0
    "h 1 0 2 0",                # an inner 0 between good literals
    "h -0 0",                   # -0 alone
    "h 1 +0",                   # +0 does not terminate
    "h 1 00",                   # nor does 00
    "0 1 0",                    # zero weight
    "0",                        # zero weight, nothing else
    "%d 1 0" % (2**63),         # weight overflow
    "w 1 0",                    # bad weight token
    "+5 1 0",                   # a sign is not part of a weight
    "² 1 0",                    # a digit that int() refuses
    "h 1 x 0",                  # bad literal
    "h 1 1.5 0",                # bad literal
    "h 1 x 0\n2 x 0",           # one bad token on two lines
    "h",                        # nothing after h
    "5",                        # nothing after the weight
    "p wcnf 2 2\n2 1 0",        # legacy header missing top
    "p wcnf 2 2 0\n2 1 0",      # bad top
    "p wcnf 2 2 x\n2 1 0",      # bad top
    "2 1 0\np wcnf 2 2 5",      # misplaced p-line
    "p wcnf 2 2 5\np wcnf 2 2 5",   # a second p-line
    "p wcnf 2 2 5\nh 1 0",      # 'h' inside legacy format
    # two errors compete: the first in reading order is named
    "w 1 2",                    # bad weight before a missing terminator
    "0 1",                      # zero weight before a missing terminator
    "h 1 x 0 0",                # bad literal before an inner 0
    "h 1 0 x 0",                # inner 0 before a bad literal
    "p wcnf 2 2 5\nh 1",        # 'h' in legacy format before a terminator
    "9223372036854775808 1",    # weight overflow before a terminator
    "5 1 x",                    # missing terminator before a bad literal
    "h 0 x",                    # missing terminator before an inner 0
    # numbers are ASCII digits alone: int() would take these
    "h 1_0 0",
    "h \u0661 0",               # ARABIC-INDIC DIGIT ONE
    "p wcnf 2 2 1_0\n2 1 0",
    "p wcnf 2 2 +5\n2 1 0",
    "1_0 1 0",
    # a number of more than pb.MAX_DIGITS digits, leading zeros or not
    "%s 1 0" % ("9" * 4301),
    "%s 1 0" % ("000" + "9" * 4301),
    "h 1 %s 0" % ("1" * 4301),
    "h -%s 0" % ("00" + "1" * 4301),
    "p wcnf 2 2 %s\n2 1 0" % ("5" * 4301),
    "p wcnf 2 2 %s\n2 1 0" % ("00" + "5" * 4301),
]

# files whose long numbers are short values past their leading zeros, or at
# most pb.MAX_DIGITS digits
LONG_VALID = [
    "%s7 1 0\n" % ("0" * 4400),
    "h -%s3 0\n" % ("0" * 4400),
    "h +%s3 2 0\n" % ("0" * 4400),
    "h %s 0\n" % ("9" * 4300),
    "p wcnf 2 2 %s5\n7 1 0\n2 -1 0\n" % ("0" * 4400),
]

# the exact messages of some of the lines above
MALFORMED_MESSAGES = {
    "h 1_0 0": "line 1: bad literal '1_0'",
    "h 1 0 2 0": "line 1: literal 0 inside clause",
    "h -0 0": "line 1: literal 0 inside clause",
    "h 1 x 0\n2 x 0": "line 1: bad literal 'x'",
    "h \u0661 0": "line 1: bad literal '\u0661'",
    "p wcnf 2 2 1_0\n2 1 0": "line 1: bad top weight",
    "² 1 0": "line 1: bad weight '²'",
    "h -%s 0" % ("00" + "1" * 4301):
        "line 1: number of 4301 digits (at most 4300)",
    "p wcnf 2 2 %s\n2 1 0" % ("00" + "5" * 4301):
        "line 1: number of 4301 digits (at most 4300)",
}


def test_parser_matches_reference_on_valid_files():
    rng = random.Random(9001)
    kinds = set()
    for _ in range(3000):
        text = random_wcnf_text(rng)
        got = outcome(wcnf.parse_wcnf, text)
        assert got == outcome(reference_parse_wcnf, text), text
        assert got[0] == "ok", text
        inst = got[1]
        for cl in inst.hard + [cl for _, cl in inst.soft]:
            assert type(cl) is list
            kinds.update("neg" if lit & 1 else "pos" for lit in cl)
            kinds.update("huge" for lit in cl if lit >> 3 > 2**64)
        kinds.update("soft" for _ in inst.soft)
    assert kinds == {"neg", "pos", "huge", "soft"}
    for text in LONG_VALID:
        got = outcome(wcnf.parse_wcnf, text)
        assert got[0] == "ok" and got == outcome(reference_parse_wcnf, text)


def test_parser_matches_reference_on_malformed_files():
    rng = random.Random(4711)
    errors = set()
    assert set(MALFORMED_MESSAGES) <= set(MALFORMED)
    for text in MALFORMED:
        got = outcome(wcnf.parse_wcnf, text)
        assert got == outcome(reference_parse_wcnf, text), text
        assert got[0] == "error", text
        assert got[1] == MALFORMED_MESSAGES.get(text, got[1]), text
        errors.add(got[1].split(": ", 1)[1].split(" '")[0].split(" (")[0])
    for _ in range(3000):
        text = corrupt(rng, random_wcnf_text(rng))
        got = outcome(wcnf.parse_wcnf, text)
        assert got == outcome(reference_parse_wcnf, text), text
        if got[0] == "error":
            errors.add(got[1].split(": ", 1)[1].split(" '")[0].split(" (")[0])
    assert len(errors) >= 10, errors


def random_lits(rng):
    """Literals over all three namespaces, with repeats and complementary
    pairs now and then."""
    lits = [pb.mklit(pb.mkvar(rng.randint(1, 6), rng.choice((0, 0, 1, 2))),
                     rng.random() < 0.5) for _ in range(rng.randint(0, 6))]
    if lits and rng.random() < 0.3:
        lits.append(rng.choice(lits))
    if lits and rng.random() < 0.3:
        lits.append(pb.neg(rng.choice(lits)))
    rng.shuffle(lits)
    return lits


def test_clause_constructor_matches_normalize():
    rng = random.Random(1234)
    seen = set()
    for _ in range(5000):
        lits = random_lits(rng)
        got = pb.constraint_from_clause(lits)
        assert got == reference_constraint_from_clause(lits), lits
        assert type(got.terms) is tuple
        distinct = len({lit >> 1 for lit in lits}) == len(lits)
        seen.add((distinct, got.degree, len({lit & 6 for lit in lits}) > 1))
    assert {(True, 1, True), (False, 1, True), (False, 0, True),
            (False, 1, False)} <= seen


def test_root_set_matches_slack_test():
    rng = random.Random(77)
    engine = pb.Propagator()
    roots = 0
    for cid in range(4000):
        if rng.random() < 0.5:
            c = pb.constraint_from_clause(random_lits(rng))
        else:
            terms = [(rng.choice((1, 1, 2, 5)), lit) for lit in random_lits(rng)]
            c = pb.normalize(terms, rng.randint(-1, 4))
        engine.add(cid, c)
        assert (cid in engine.roots) == reference_propagates_at_root(c), c
        roots += cid in engine.roots
    assert 400 < roots < 3600


def with_internal_literals(rng, inst):
    """`inst` with some literals moved into the _b and _t namespaces."""
    def move(cl):
        return [lit | rng.choice((0, 0, 2, 4)) for lit in cl]
    return wcnf.WcnfInstance([move(cl) for cl in inst.hard],
                             [(w, move(cl)) for w, cl in inst.soft])


def test_encode_to_pb_matches_reference():
    rng = random.Random(555)
    for i in range(1500):
        inst = random_instance(rng, max_vars=8, max_clauses=20)
        if i % 3 == 0:
            inst = with_internal_literals(rng, inst)
        cons, obj = wcnf.encode_to_pb(inst)
        rcons, robj = reference_encode_to_pb(inst)
        assert cons == rcons and obj == robj


def max_var_index(clauses):
    """The largest variable index of the clauses, as `certprep preprocess`
    finds it for its `vars:` line: from the largest literal its tally of
    the clauses keeps."""
    tally = cli._Tally(clauses)
    for _ in tally:
        pass
    return tally.top >> 3


def test_max_var_index_matches_reference():
    rng = random.Random(808)
    for i in range(1500):
        inst = random_instance(rng, max_vars=12, max_clauses=20)
        if i % 4 == 0:
            inst.hard.append([])
            inst.soft.append((rng.randint(1, 9), []))
        if i % 3 == 0:
            inst = with_internal_literals(rng, inst)
        assert max_var_index(inst) == reference_max_var_index(inst)
    assert max_var_index(wcnf.WcnfInstance()) == 0
    assert max_var_index(wcnf.WcnfInstance([[]], [(3, [])])) == 0


def test_clause_constructor_orders_mixed_namespaces():
    """A problem clause with one internal literal first, in the middle or
    last: value order would put the internal literal among the problem
    ones, namespace-major order puts it last."""
    rng = random.Random(2468)
    for _ in range(3000):
        lits = [pb.mklit(pb.mkvar(v), rng.random() < 0.5)
                for v in rng.sample(range(2, 60), rng.randint(2, 5))]
        inner = pb.mklit(pb.mkvar(rng.randint(1, 70), rng.choice((1, 2))),
                         rng.random() < 0.5)
        for pos in (0, len(lits) // 2, len(lits)):
            clause = lits[:pos] + [inner] + lits[pos:]
            got = pb.constraint_from_clause(clause)
            assert got == reference_constraint_from_clause(clause), clause
            assert got.terms[-1][1] == inner
            assert pb.constraint_from_clause(tuple(clause)) == got


# -- one object per distinct value -------------------------------------------
#
# Each call keeps one int per distinct literal token and one (1, literal)
# term per distinct literal.  Variables start above 32: CPython keeps one
# object for each int up to 256 anyway, which is literal 31 packed.


def large_light_text(rng, nv=1000, n_hard=2400, n_soft=1600):
    """The large-light benchmark's shape at a quarter of its size: hard
    clauses of width 3-5, relaxed softs of width 2-3, distinct variables
    within each clause."""
    def clause(width):
        return " ".join(str(v if rng.random() < 0.5 else -v)
                        for v in rng.sample(range(33, 33 + nv), width))
    lines = ["h %s 0" % clause(rng.randint(3, 5)) for _ in range(n_hard)]
    lines += ["%d %s 0" % (rng.randint(1, 9), clause(rng.randint(2, 3)))
              for _ in range(n_soft)]
    return "\n".join(lines) + "\n"


def test_one_int_per_literal_token_and_one_term_per_literal():
    text = large_light_text(random.Random(31), 300, 600, 400)
    inst = wcnf.parse_wcnf(text)
    first = {}
    for cl in inst.hard + [cl for _, cl in inst.soft]:
        for lit in cl:
            assert first.setdefault(lit, lit) is lit
    assert len(first) <= 600
    again = wcnf.parse_wcnf(text)     # its own table: new ints
    assert not {id(lit) for cl in again.hard for lit in cl} & set(
        map(id, first.values()))
    encodings = [wcnf.encode_to_pb(inst), wcnf.encode_to_pb(inst)]
    seen = []
    for cons, _ in encodings:
        terms = {}
        for c in cons:
            for term in c.terms:
                assert terms.setdefault(term[1], term) is term
                assert term[1] is first.get(term[1], term[1])
        seen.append({id(t) for t in terms.values()})
    assert not seen[0] & seen[1]      # a table serves one call alone


def retained_bytes(fn, arg):
    """Bytes that fn(arg) allocates and its result keeps alive."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(arg)
        gc.collect()
        size = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    del result
    return size


def test_parse_and_encode_keep_repeated_values_once():
    text = large_light_text(random.Random(17))
    parsed = retained_bytes(wcnf.parse_wcnf, text)
    assert parsed <= 0.8 * retained_bytes(reference_parse_wcnf, text)
    inst = wcnf.parse_wcnf(text)
    encoded = retained_bytes(wcnf.encode_to_pb, inst)
    assert encoded <= 0.6 * retained_bytes(reference_encode_to_pb, inst)


def test_preprocessor_keeps_one_copy_of_each_clause():
    """The preprocessor's clause store is the engine's constraints, and
    nothing beside it holds a clause's literals: built over an instance it
    retains little more than the encoding alone (1.14x measured; a cache of
    each clause's literals beside the constraints made it 1.66x)."""
    inst = wcnf.parse_wcnf(large_light_text(random.Random(41)))
    cfg = Config(techniques=("dup", "taut"))
    kept = retained_bytes(lambda i: Preprocessor(i, cfg), inst)
    assert kept <= 1.35 * retained_bytes(wcnf.encode_to_pb, inst)


def test_light_run_builds_no_occurrence_index():
    """`dup` and `taut` never read the engine's literal index, so a run of
    them alone leaves it unbuilt: its traced peak stays well below that of
    the same run with the index forced at construction, and both runs give
    the same output and proof."""
    text = large_light_text(random.Random(23))
    lines = text.splitlines()
    text += "\n".join(lines[:40:4] + lines[-40::4]
                      + ["h 40 -40 41 0", "3 -50 52 50 0"]) + "\n"
    cfg = Config(techniques=("dup", "taut"))

    def run(force):
        sink = io.StringIO()
        p = Preprocessor(wcnf.parse_wcnf(text), cfg, sink)
        if force:
            p.engine.occ
        out = p.run()
        runs.append((wcnf.write_wcnf(out), sink.getvalue(), p.counts,
                     p.engine._occ is None))

    runs = []
    peaks = []
    for force in (False, True):
        gc.collect()
        tracemalloc.start()
        try:
            run(force)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    (out, proof, counts, unbuilt), (fout, fproof, fcounts, funbuilt) = runs
    assert unbuilt and not funbuilt
    assert counts == fcounts and counts["dup"] == 20 and counts["taut"] == 2
    assert out == fout and proof == fproof
    assert peaks[0] <= 0.85 * peaks[1], peaks


def traced_peak(fn):
    """The traced peak of the memory that fn() allocates."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dup_light_text():
    """A `large_light_text` with ten duplicates planted at each end, one
    tautology and one trivial soft."""
    text = large_light_text(random.Random(37))
    lines = text.splitlines()
    return text + "\n".join(lines[:40:4] + lines[-40::4]
                            + ["h 40 -40 41 0", "3 -50 52 50 0"]) + "\n"


def test_cli_run_keeps_no_parsed_input(tmp_path, capsys):
    """`certprep preprocess` reads its input file into the preprocessor one
    line at a time and keeps no parsed instance beside the preprocessor's
    clauses, so its traced peak stays below that of `preprocess.run` on the
    parsed text followed by `write_wcnf`; both write the same output and
    proof.  (Neither collects the output: the instance `preprocess.run`
    returns reads the preprocessor's clauses as `write_wcnf` writes it.)"""
    text = dup_light_text()
    src = tmp_path / "in.wcnf"
    src.write_text(text)
    paths = {side: (tmp_path / (side + ".wcnf"), tmp_path / (side + ".pbp"))
             for side in ("cli", "run")}

    def from_file():
        out, proof = paths["cli"]
        assert cli.main(["preprocess", str(src), "-o", str(out),
                         "-p", str(proof), "--techniques=dup,taut"]) == 0

    def parsed():
        out, proof = paths["run"]
        with open(proof, "w") as sink:
            inst, _, _ = preprocess.run(wcnf.parse_wcnf(text),
                                        Config(techniques=("dup", "taut")),
                                        sink)
        with open(out, "w") as fh:
            wcnf.write_wcnf(inst, fh)

    from_file()     # a first call's one-time costs are no part of either
    parsed()
    peaks = [traced_peak(from_file), traced_peak(parsed)]
    assert capsys.readouterr().out == (
        "clauses: 4022 -> 4000\nvars: 1032 -> 1032\nproof lines: 103\n" * 2)
    for a, b in zip(*paths.values()):
        assert a.read_text() == b.read_text()
    assert peaks[0] <= 0.85 * peaks[1], peaks


def test_cli_run_peaks_near_the_clause_store(tmp_path, capsys):
    """A `dup,taut` run of `certprep preprocess` keeps little beside the
    preprocessor's clause store: no lone `dup` group is a list, and the
    output is written from the store, not collected.  So its traced peak
    stays within 1.25x of building the preprocessor over the same file
    (1.57x when the output and the one-element groups were collected;
    1.12x measured since)."""
    src = tmp_path / "in.wcnf"
    src.write_text(dup_light_text())
    out, proof = tmp_path / "out.wcnf", tmp_path / "out.pbp"

    def run():
        assert cli.main(["preprocess", str(src), "-o", str(out),
                         "-p", str(proof), "--techniques=dup,taut"]) == 0

    def build():
        with open(tmp_path / "built.pbp", "w") as sink:
            Preprocessor(cli._InputFile(str(src)), Config(("dup", "taut")),
                         sink)

    run()       # a first call's one-time costs are no part of either
    build()
    peaks = [traced_peak(run), traced_peak(build)]
    assert capsys.readouterr().out.startswith("clauses: 4022 -> 4000\n")
    assert peaks[0] <= 1.25 * peaks[1], peaks
