"""Acceptance suite: one test per advertised guarantee.

Each test prints a single PASS/FAIL summary line (visible with ``pytest -s``
and in failure output) and asserts the guarantee at its stated tolerance:

 1. the worked example produces the documented output and derivation and the
    checker verifies it, in under a second;
 2. on a thousand random instances the `opt` command reports the same
    optimum for input and output, infeasible included, within five minutes;
 3. on that sweep plus gadget batches that fire every simplification at
    least fifty times, every emitted proof is accepted;
 4. single-token proof mutations are rejected unless the certified claim
    still holds by brute force;
 5. the relaxation encoding preserves costs in both directions, and its
    optimum equals the clause-level optimum;
 6. the cutting-planes operations agree with independent truth tables on
    all small constraints, in under a minute;
 7. whenever reverse unit propagation claims entailment, a truth table
    confirms it;
 8. proof logging keeps preprocessing within 3x the unlogged runtime
    (median), and no emitted proof takes more than thirty seconds to check.
"""

import collections
import contextlib
import io
import itertools
import pathlib
import random
import re
import time

import pytest

from certprep import cli, pb, preprocess
from certprep.checker import check_wcnf_proof
from certprep.preprocess import Config
from certprep.wcnf import (WcnfInstance, encode_to_pb, opt_cost_bruteforce,
                           parse_wcnf, write_wcnf)
from conftest import (all_assignments, constraint_satisfied, lit_value,
                      entails, nx, pb_opt_bruteforce, random_instance, x)

DATA = pathlib.Path(__file__).parent / "data"
SWEEP_SIZE = 1000


def report(num, title, ok, detail):
    line = "acceptance %d (%s): %s  [%s]" % (num, title,
                                             "PASS" if ok else "FAIL", detail)
    print("\n" + line)
    assert ok, line


def cli_run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def equioptimal(verdict):
    return verdict.accepted and verdict.level == "EQUIOPTIMAL"


SweepRun = collections.namedtuple(
    "SweepRun", "inst out proof counts verdict check_seconds in_path out_path")


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """Preprocess a large batch of random instances once; reused by the
    sweep-based guarantees below."""
    root = tmp_path_factory.mktemp("sweep")
    rng = random.Random(20230917)
    runs = []
    t0 = time.perf_counter()
    for i in range(SWEEP_SIZE):
        inst = random_instance(rng)
        buf = io.StringIO()
        out, _, p = preprocess.run(inst, sink=buf)
        proof = buf.getvalue()
        t1 = time.perf_counter()
        verdict = check_wcnf_proof(inst, proof.splitlines(), out)
        check_seconds = time.perf_counter() - t1
        in_path = root / ("in%04d.wcnf" % i)
        out_path = root / ("out%04d.wcnf" % i)
        in_path.write_text(write_wcnf(inst))
        out_path.write_text(write_wcnf(out))
        runs.append(SweepRun(inst, out, proof, dict(p.counts), verdict,
                             check_seconds, in_path, out_path))
    return runs, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 1. the worked example

# The documented derivation: four input loads (folded into the proof header
# count), resolving away x2 then x1 while moving weight 1 into the constant,
# eliminating x4 by resolution, dropping the dominated relaxation literal b2,
# and reifying the remaining constant as a fresh always-true soft.  Together
# with the loads these are the nineteen documented steps.
GOLDEN_STEPS = [
    "f 4",
    "pol 1 2 +",
    "delc 1",
    "delc 2 ; x2 -> 0",
    "obju diff -1 x1 +1 ;",
    "delc 5 ; x1 -> 1",
    "pol 3 4 +",
    "delc 3 ; x4 -> 0",
    "delc 4 ; x4 -> 1",
    "red +1 ~_b2 >= 1 ; _b1 -> 1 _b2 -> 0",
    "obju diff -3 _b2 ;",
    "pol 6 7 +",
    "delc 6",
    "delc 7 ; _b2 -> 0",
    "red +1 _b3 >= 1 ; _b3 -> 1",
    "obju diff +1 _b3 -1 ;",
]


def subsequence(lines, wanted):
    it = iter(lines)
    return all(any(line == want for line in it) for want in wanted)


def test_criterion_1_golden_worked_example(tmp_path):
    t0 = time.perf_counter()
    out_path = tmp_path / "out.wcnf"
    proof_path = tmp_path / "proof.pbp"
    code, _, _ = cli_run("preprocess", DATA / "golden.wcnf",
                         "-o", out_path, "-p", proof_path)
    elapsed = time.perf_counter() - t0
    problems = []
    if code != 0:
        problems.append("preprocess exited %s" % code)
    out = parse_wcnf(out_path.read_text())
    # relaxation variables come back renamed to the next free indices
    if out.hard != [[x(3), nx(5), x(6)], [x(7)]]:
        problems.append("hard clauses differ: %r" % write_wcnf(out))
    if out.soft != [(2, [nx(6)]), (1, [nx(7)])]:
        problems.append("soft clauses differ: %r" % write_wcnf(out))
    body = [ln for ln in proof_path.read_text().splitlines()
            if not ln.startswith("*")]
    if not subsequence(body, GOLDEN_STEPS):
        problems.append("documented derivation steps missing")
    code, stdout, _ = cli_run("check", DATA / "golden.wcnf", proof_path,
                              out_path)
    if code != 0 or stdout != "s VERIFIED OUTPUT EQUIOPTIMAL\n":
        problems.append("check: exit %s, output %r" % (code, stdout))
    if elapsed >= 1.0:
        problems.append("preprocess took %.2fs" % elapsed)
    report(1, "golden worked example", not problems,
           "; ".join(problems)
           or "documented output, derivation and verdict in %.3fs" % elapsed)


# ---------------------------------------------------------------------------
# 2. input and output optima agree on a random sweep


def test_criterion_2_equioptimality_sweep(sweep):
    runs, build_seconds = sweep
    t0 = time.perf_counter()
    mismatches = []
    infeasible = 0
    for r in runs:
        code_in, opt_in, _ = cli_run("opt", r.in_path)
        code_out, opt_out, _ = cli_run("opt", r.out_path)
        if code_in != 0 or code_out != 0 or opt_in != opt_out:
            mismatches.append((r.in_path.name, opt_in.strip(),
                               opt_out.strip()))
        if opt_in == "s INFEASIBLE\n":
            infeasible += 1
    elapsed = build_seconds + time.perf_counter() - t0
    share = infeasible / len(runs)
    ok = (not mismatches and len(runs) >= 1000 and elapsed < 300
          and 0.10 <= share <= 0.35)
    report(2, "oracle equioptimality sweep", ok,
           "%d instances, %d infeasible, %d mismatches, %.1fs"
           % (len(runs), infeasible, len(mismatches), elapsed))


# ---------------------------------------------------------------------------
# 3. every emitted proof is accepted, every simplification exercised

# One firing gadget per simplification counter; builders take shifted
# literal constructors so each of the fifty repetitions uses fresh indices.
GADGETS = {
    "up": (("up",), lambda xs, ns:
           WcnfInstance([[xs(1)], [ns(1), xs(2)]], [(3, [ns(2)])])),
    "dup": (("dup",), lambda xs, ns:
            WcnfInstance([[xs(1), xs(2)], [xs(2), xs(1)]], [])),
    "taut": (("taut",), lambda xs, ns:
             WcnfInstance([[xs(1), ns(1), xs(2)]], [(4, [xs(2), ns(2)])])),
    "empty": (("empty",), lambda xs, ns:
              WcnfInstance([[xs(1)]], [(3, []), (2, [ns(1)])])),
    "sub": (("sub",), lambda xs, ns:
            WcnfInstance([[xs(1), xs(2)], [xs(1), xs(2), xs(3)]],
                         [(2, [xs(1), xs(2), xs(4)])])),
    "bce": (("bce",), lambda xs, ns:
            WcnfInstance([[xs(1), xs(2)], [ns(1), ns(2)]], [])),
    "ssr": (("ssr",), lambda xs, ns:
            WcnfInstance([[xs(2), ns(1)], [xs(1), xs(2), xs(3)]], [])),
    "fle": (("fle",), lambda xs, ns:
            WcnfInstance([[ns(1), xs(2)], [ns(1), ns(2)], [xs(1), xs(3)]],
                         [])),
    "impl": (("impl",), lambda xs, ns:
             WcnfInstance([[xs(1), xs(2)], [ns(1), xs(2)], [ns(2), xs(3)]],
                          [])),
    "eql": (("eql",), lambda xs, ns:
            WcnfInstance([[ns(1), xs(2)], [xs(1), ns(2)], [xs(2), xs(3)]],
                         [(2, [ns(1)])])),
    "sle": (("sle",), lambda xs, ns:
            WcnfInstance([[xs(1), xs(2)]], [])),
    "gsle": (("bve", "gsle"), lambda xs, ns:
             WcnfInstance([], [(5, [xs(1), xs(2)]), (2, [ns(1), xs(2)])])),
    "bve": (("bve",), lambda xs, ns:
            WcnfInstance([[xs(1), xs(2)], [ns(1), xs(3)]], [])),
    "bva": (("bva",), lambda xs, ns:
            WcnfInstance([[xs(l), xs(s)] for l in (1, 2) for s in (3, 4, 5)],
                         [])),
    "am1": (("bve", "am1"), lambda xs, ns:
            WcnfInstance([[ns(2)]], [(3, [xs(1), xs(2)]),
                                     (3, [ns(1), xs(2)])])),
    "bcr": (("bve", "bcr"), lambda xs, ns:
            WcnfInstance([[ns(2)]], [(3, [xs(1), xs(2)]),
                                     (3, [ns(1), xs(2)])])),
    "lm": (("lm",), lambda xs, ns:
           WcnfInstance([], [(2, [xs(1), xs(2)]), (2, [ns(1), xs(3)])])),
    "sbl": (("sbl",), lambda xs, ns:
            WcnfInstance([[xs(1), xs(2)]], [(2, [ns(3)])])),
    "trim": (("trim",), lambda xs, ns:
             WcnfInstance([[ns(1), xs(2)], [ns(1), ns(2)]], [(2, [ns(1)])])),
    "harden": (("harden",), lambda xs, ns:
               WcnfInstance([[xs(1), xs(2)]], [(5, [ns(1)]), (1, [ns(2)])])),
    "const": (("empty",), lambda xs, ns:
              WcnfInstance([[xs(1)]], [(3, []), (2, [ns(1)])])),
}


def _shifted(k):
    return (lambda i: x(i + k)), (lambda i: nx(i + k))


def test_criterion_3_round_trip_certification(sweep):
    runs, _ = sweep
    failures = [r.in_path.name for r in runs if not equioptimal(r.verdict)]
    tally = collections.Counter()
    for r in runs:
        tally.update(r.counts)
    proofs = len(runs)
    for op, (techniques, build) in sorted(GADGETS.items()):
        for k in range(50):
            inst = build(*_shifted(k))
            out, proof, p = preprocess.run(inst, Config(techniques=techniques))
            proofs += 1
            if p.counts.get(op, 0) < 1:
                failures.append("gadget %s+%d did not fire" % (op, k))
            if not equioptimal(check_wcnf_proof(inst, proof.splitlines(),
                                                out)):
                failures.append("gadget %s+%d rejected" % (op, k))
            tally.update(p.counts)
    thin = sorted(op for op in GADGETS if tally[op] < 50)
    ok = not failures and not thin
    report(3, "round-trip certification", ok,
           "; ".join(failures[:3] + ["%s under 50 firings" % t for t in thin])
           or "%d proofs accepted, all %d simplifications fired >= 50 times"
           % (proofs, len(GADGETS)))


# ---------------------------------------------------------------------------
# 4. single-token mutations never smuggle in a false claim

COEF_RE = re.compile(r"[+-]\d+ (?=[~a-zA-Z_])")
DEGREE_RE = re.compile(r">= \d+")
WITNESS_RE = re.compile(r"-> [01]\b")

MUTATIONS = ("coefficient", "degree", "id", "witness", "delete")


def mutate(lines, category, rng):
    """One token changed (or one line dropped); None when not applicable."""
    if category == "delete":
        idx = rng.randrange(len(lines))
        return lines[:idx] + lines[idx + 1:]
    if category == "id":
        spots = []
        for i, ln in enumerate(lines):
            toks = ln.split()
            if toks[:1] in (["pol"], ["delc"]):
                spots.append((i, 1))
            elif toks[:2] == ["core", "id"]:
                spots.append((i, 2))
        if not spots:
            return None
        i, pos = spots[rng.randrange(len(spots))]
        toks = lines[i].split()
        toks[pos] = str(int(toks[pos]) + 1)
        return lines[:i] + [" ".join(toks)] + lines[i + 1:]
    pat, fix = {
        "coefficient": (COEF_RE,
                        lambda tok: "%s%d " % (tok[0], int(tok[1:]) + 1)),
        "degree": (DEGREE_RE, lambda tok: ">= %d" % (int(tok[3:]) + 1)),
        "witness": (WITNESS_RE, lambda tok: "-> %d" % (1 - int(tok[3:]))),
    }[category]
    spots = [(i, m) for i, ln in enumerate(lines) if not ln.startswith("*")
             for m in pat.finditer(ln)]
    if not spots:
        return None
    i, m = spots[rng.randrange(len(spots))]
    mutated = lines[i][:m.start()] + fix(m.group()) + lines[i][m.end():]
    return lines[:i] + [mutated] + lines[i + 1:]


def test_criterion_4_mutation_rejection(sweep):
    runs, _ = sweep
    rng = random.Random(424243)
    corpus = runs[:250]
    applied = collections.Counter()
    accepted = rejected = 0
    failures = []
    for r in corpus:
        claim_holds = opt_cost_bruteforce(r.inst) == opt_cost_bruteforce(r.out)
        lines = r.proof.splitlines()
        for category in MUTATIONS:
            mutated = mutate(lines, category, rng)
            if mutated is None:
                continue
            applied[category] += 1
            try:
                verdict = check_wcnf_proof(r.inst, mutated, r.out)
            except Exception as exc:    # must answer, never crash
                failures.append("%s/%s raised %r"
                                % (r.in_path.name, category, exc))
                continue
            if equioptimal(verdict):
                accepted += 1
                if not claim_holds:
                    failures.append("%s/%s accepted a false claim"
                                    % (r.in_path.name, category))
            else:
                rejected += 1
    ok = (not failures and len(corpus) >= 200
          and all(applied[c] >= 50 for c in MUTATIONS))
    report(4, "mutation rejection", ok,
           "; ".join(failures[:3])
           or "%d proofs, %d mutants: %d rejected, %d accepted with the "
           "claim intact" % (len(corpus), sum(applied.values()), rejected,
                             accepted))


# ---------------------------------------------------------------------------
# 5. the relaxation encoding preserves costs and the optimum


def _clause_sat(cl, assign):
    return any(lit_value(l, assign) for l in cl)


def _hand_cost(inst, assign):
    if any(not _clause_sat(cl, assign) for cl in inst.hard):
        return None
    return sum(w for w, cl in inst.soft if not _clause_sat(cl, assign))


def _hand_objective(objective, assign):
    total = objective.constant
    for v, coef in objective.coeffs.items():
        total += coef * assign[v]
    return total


def _soft_labels(inst):
    """(label var, distinct literals) per relaxed soft, mirroring the
    documented label order; None for softs folded straight into the
    objective."""
    out = []
    idx = 1
    for _, cl in inst.soft:
        distinct = []
        for l in cl:
            if l not in distinct:
                distinct.append(l)
        if len(distinct) == 1:
            out.append(None)
        else:
            out.append((pb.mkvar(idx, pb.NS_AUX), distinct))
            idx += 1
    return out


def test_criterion_5_encoder_theorems():
    rng = random.Random(271828)
    target = 10000
    failures = []

    # direction 1: a clause-level solution extends to an encoded solution
    # of equal objective value (set each label iff its soft is falsified)
    forward = attempts = 0
    while forward < target and attempts < 40 * target:
        attempts += 1
        inst = random_instance(rng, max_vars=6, max_clauses=8)
        assign = {pb.mkvar(i): rng.randint(0, 1) for i in range(1, 7)}
        cost = _hand_cost(inst, assign)
        if cost is None:
            continue
        forward += 1
        constraints, objective = encode_to_pb(inst)
        extended = dict(assign)
        for entry in _soft_labels(inst):
            if entry:
                label, cl = entry
                extended[label] = 0 if _clause_sat(cl, assign) else 1
        if not all(constraint_satisfied(c, extended) for c in constraints):
            failures.append("forward: broken constraint")
        elif _hand_objective(objective, extended) != cost:
            failures.append("forward: objective %d != cost %d"
                            % (_hand_objective(objective, extended), cost))

    # direction 2: any encoded solution restricts to a clause-level
    # solution of no greater cost
    backward = attempts = 0
    while backward < target and attempts < 40 * target:
        attempts += 1
        inst = random_instance(rng, max_vars=6, max_clauses=8)
        constraints, objective = encode_to_pb(inst)
        assign = {pb.mkvar(i): rng.randint(0, 1) for i in range(1, 7)}
        for entry in _soft_labels(inst):
            if entry:
                assign[entry[0]] = int(rng.random() < 0.7)
        if not all(constraint_satisfied(c, assign) for c in constraints):
            continue
        backward += 1
        cost = _hand_cost(inst, assign)
        if cost is None:
            failures.append("backward: hard clause broken")
        elif cost > _hand_objective(objective, assign):
            failures.append("backward: cost %d > objective %d"
                            % (cost, _hand_objective(objective, assign)))

    # corollary: the encoded optimum is the clause-level optimum
    agreed = 0
    while agreed < 500:
        inst = random_instance(rng, max_vars=10, max_clauses=8)
        constraints, objective = encode_to_pb(inst)
        pb_vars = set(objective.coeffs)
        for c in constraints:
            pb_vars.update(c.vars())
        if len(pb_vars) > 12:       # keep the joint enumeration tractable
            continue
        agreed += 1
        if pb_opt_bruteforce(constraints, objective) != \
                opt_cost_bruteforce(inst):
            failures.append("corollary: optima differ on %r"
                            % write_wcnf(inst))

    ok = not failures and forward >= target and backward >= target
    report(5, "encoder theorems", ok,
           "; ".join(failures[:3])
           or "%d forward + %d backward pairs, %d optima compared"
           % (forward, backward, agreed))


# ---------------------------------------------------------------------------
# 6. cutting-planes operations against truth tables

V3 = [pb.mkvar(i) for i in (1, 2, 3)]
ASSIGNS3 = list(all_assignments(V3))
FULL_MASK = (1 << len(ASSIGNS3)) - 1


def _enum_constraints(variables, max_coef=4, max_degree=6):
    """Every normalized constraint over the given variables within the
    coefficient and degree bounds."""
    options = []
    for v in variables:
        per_var = [None]
        for k in range(1, max_coef + 1):
            per_var.append((k, pb.mklit(v)))
            per_var.append((k, pb.mklit(v, True)))
        options.append(per_var)
    seen = {}
    for combo in itertools.product(*options):
        terms = [t for t in combo if t]
        for degree in range(max_degree + 1):
            c = pb.normalize(terms, degree)
            seen[(c.terms, c.degree)] = c
    return list(seen.values())


def _mask(c):
    m = 0
    for i, assign in enumerate(ASSIGNS3):
        if constraint_satisfied(c, assign):
            m |= 1 << i
    return m


def _lhs_rows(c):
    return [sum(k * lit_value(l, assign) for k, l in c.terms)
            for assign in ASSIGNS3]


def _check_pair_add(item1, item2, failures):
    c1, _, rows1 = item1
    c2, _, rows2 = item2
    total = pb.add(c1, c2)
    degree = c1.degree + c2.degree
    want = 0
    for i in range(len(ASSIGNS3)):
        if rows1[i] + rows2[i] >= degree:
            want |= 1 << i
    if _mask(total) != want:
        failures.append("add(%s, %s)" % (pb.fmt_constraint(c1),
                                         pb.fmt_constraint(c2)))


def test_criterion_6_cutting_planes_soundness():
    t0 = time.perf_counter()
    rng = random.Random(5557)
    failures = []
    items = [(c, _mask(c), _lhs_rows(c)) for c in _enum_constraints(V3)]

    for c, m, _ in items:
        if _mask(pb.negate(c)) != FULL_MASK ^ m:
            failures.append("negate(%s)" % pb.fmt_constraint(c))
        sat = pb.saturate(c)
        if _mask(sat) != m or (c.degree > 0
                               and any(k > c.degree for k, _ in sat.terms)):
            failures.append("saturate(%s)" % pb.fmt_constraint(c))
        for k in (2, 3, 4):
            scaled = pb.multiply(c, k)
            if _mask(scaled) != m or scaled.degree != k * c.degree:
                failures.append("multiply(%s, %d)"
                                % (pb.fmt_constraint(c), k))
        for d in (2, 3, 4):
            cut = pb.divide(c, d)
            if (cut.terms != tuple((-(-k // d), l) for k, l in c.terms)
                    or cut.degree != -(-c.degree // d)
                    or m & ~_mask(cut) & FULL_MASK):
                failures.append("divide(%s, %d)" % (pb.fmt_constraint(c), d))

    # addition: exhaustive over every two-variable pair, sampled over the
    # full three-variable space (the complete pair square is ~26M pairs)
    third = V3[2]
    pairs_2v = [it for it in items
                if all(l >> 1 != third for _, l in it[0].terms)]
    pair_count = 0
    for item1 in pairs_2v:
        for item2 in pairs_2v:
            _check_pair_add(item1, item2, failures)
            pair_count += 1
    for _ in range(250000):
        _check_pair_add(items[rng.randrange(len(items))],
                        items[rng.randrange(len(items))], failures)
        pair_count += 1

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60
    report(6, "cutting-planes soundness", ok,
           "; ".join(failures[:3])
           or "%d constraints, %d addition pairs, %.1fs"
           % (len(items), pair_count, elapsed))


# ---------------------------------------------------------------------------
# 7. reverse unit propagation only claims true entailments


def _random_constraint(rng, variables):
    chosen = rng.sample(variables, rng.randint(1, min(3, len(variables))))
    lits = [pb.mklit(v, rng.random() < 0.5) for v in chosen]
    if rng.random() < 0.6:
        return pb.normalize([(1, l) for l in lits], 1)
    return pb.normalize([(rng.randint(1, 3), l) for l in lits],
                        rng.randint(1, 4))


def test_criterion_7_rup_soundness():
    rng = random.Random(1264)
    confirmed = failures = 0
    for _ in range(10000):
        variables = [pb.mkvar(i) for i in range(1, rng.randint(3, 9))]
        premises = [_random_constraint(rng, variables)
                    for _ in range(rng.randint(1, 6))]
        roll = rng.random()
        if roll < 0.4:
            target = _random_constraint(rng, variables)
        elif roll < 0.7:
            weaker = rng.choice(premises)
            target = pb.normalize(list(weaker.terms), weaker.degree - 1)
        else:
            one, two = rng.choice(premises), rng.choice(premises)
            target = pb.normalize(list(one.terms) + list(two.terms),
                                  one.degree + two.degree)
        if pb.rup_check(premises, target):
            confirmed += 1
            if not entails(premises, target):
                failures += 1
    ok = failures == 0 and confirmed >= 500
    report(7, "propagation entailment soundness", ok,
           "%d of 10000 targets claimed, %d not entailed"
           % (confirmed, failures))


# ---------------------------------------------------------------------------
# 8. logging overhead and checking cost stay modest


def test_criterion_8_logging_overhead(sweep):
    runs, _ = sweep
    rng = random.Random(6022)
    instances = [random_instance(rng) for _ in range(200)]
    preprocess.run(instances[0])        # warm-up
    ratios = []
    for inst in instances:
        t0 = time.perf_counter()
        preprocess.run(inst, sink=io.StringIO())
        logged = time.perf_counter() - t0
        t0 = time.perf_counter()
        preprocess.Preprocessor(inst, None, None).run()
        bare = time.perf_counter() - t0
        ratios.append(logged / max(bare, 1e-9))
    ratios.sort()
    median = ratios[len(ratios) // 2]
    slowest_check = max(r.check_seconds for r in runs)
    ok = median <= 3.0 and slowest_check < 30.0
    report(8, "logging overhead", ok,
           "median overhead %.2fx (limit 3x), slowest check %.3fs "
           "(limit 30s)" % (median, slowest_check))
