"""Shared brute-force oracles used across the test suite.

These deliberately avoid the package's own propagation/normalization logic:
constraints are evaluated by direct truth-table enumeration so that the fast
implementations are checked against an independent reading of the semantics.
"""

import itertools
import pathlib
import re
import sys

import pytest

from certprep import pb
from certprep.checker import LEVELS, ProofChecker
from certprep.pb import constraint_from_clause, mklit, neg
from certprep.preprocess import _unit
from certprep.sat import OracleBudget, SatOracle

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
def gen():
    """The benchmark's instance generator, ``perfbench/gen.py``, imported
    read-only."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import gen
    finally:
        sys.path.remove(str(PERFBENCH))
    return gen


def all_assignments(variables):
    vs = sorted(variables, key=pb.var_sort_key)
    for bits in itertools.product((0, 1), repeat=len(vs)):
        yield dict(zip(vs, bits))


def lit_value(lit, assign):
    val = assign[lit >> 1]
    return val ^ 1 if lit & 1 else val


def raw_satisfied(raw_terms, degree, assign):
    """Evaluate the *unnormalized* signed form directly."""
    total = 0
    for coef, lit in raw_terms:
        total += coef * lit_value(lit, assign)
    return total >= degree


def constraint_satisfied(c, assign):
    return raw_satisfied(c.terms, c.degree, assign)


def models(constraints, variables):
    out = []
    for assign in all_assignments(variables):
        if all(constraint_satisfied(c, assign) for c in constraints):
            out.append(assign)
    return out


def vars_of(constraints):
    vs = set()
    for c in constraints:
        vs.update(v for v in c.vars())
    return vs


def entails(premises, conclusion):
    """Truth-table entailment over the union of mentioned variables."""
    vs = vars_of(premises) | set(conclusion.vars())
    for assign in all_assignments(vs):
        if all(constraint_satisfied(c, assign) for c in premises):
            if not constraint_satisfied(conclusion, assign):
                return False
    return True


def pb_opt_bruteforce(constraints, objective, var_limit=22):
    """Exact PB optimum by enumeration; None if the constraints are UNSAT."""
    vs = set()
    for c in constraints:
        vs.update(c.vars())
    vs.update(objective.coeffs)
    vs = sorted(vs, key=pb.var_sort_key)
    if len(vs) > var_limit:
        raise ValueError("too many variables for brute force (%d)" % len(vs))
    bit = {v: i for i, v in enumerate(vs)}
    cons = [([(coef, bit[lit >> 1], lit & 1) for coef, lit in c.terms], c.degree)
            for c in constraints]
    obj = [(coef, bit[v]) for v, coef in objective.coeffs.items()]
    best = None
    for m in range(1 << len(vs)):
        feasible = True
        for terms, degree in cons:
            tot = 0
            for coef, bt, sg in terms:
                if (m >> bt) & 1 != sg:
                    tot += coef
            if tot < degree:
                feasible = False
                break
        if not feasible:
            continue
        val = objective.constant
        for coef, bt in obj:
            if (m >> bt) & 1:
                val += coef
        if best is None or val < best:
            best = val
    return best


def cost(inst, assign):
    """Soft-weight cost of a total assignment, or None if a hard clause fails."""
    for cl in inst.hard:
        if not any(assign.get(l >> 1, 0) == (l & 1) ^ 1 for l in cl):
            return None
    total = 0
    for w, cl in inst.soft:
        if not any(assign.get(l >> 1, 0) == (l & 1) ^ 1 for l in cl):
            total += w
    return total


def record_checkpoints(p):
    """After every technique application of the Preprocessor `p`, record
    (technique, proof lines written, live clauses sorted, objective copy);
    returns the list the records go to."""
    checkpoints = []
    counted = p._count

    def count_and_record(name):
        counted(name)
        snap = tuple(sorted(p.clauses.values(),
                            key=lambda c: (c.degree, c.terms)))
        checkpoints.append((name, p.writer.lines_written, snap,
                            p.objective.copy()))
    p._count = count_and_record
    return checkpoints


def x(i):
    return pb.mklit(pb.mkvar(i))


def nx(i):
    return pb.mklit(pb.mkvar(i), True)


def b(i):
    return pb.mklit(pb.mkvar(i, pb.NS_AUX))


def nb(i):
    return pb.mklit(pb.mkvar(i, pb.NS_AUX), True)


def C(text):
    """Parse a constraint from its text form, e.g. ``+1 x1 +2 ~x2 >= 2``."""
    c, pos = pb.parse_constraint_tokens(text.split())
    assert pos == len(text.split())
    return c


def random_instance(rng, max_vars=12, max_clauses=25, max_weight=8):
    """Random WCNF with the rough shape the sweep tests want: short clauses,
    occasional duplicate literals/clauses, tautologies, empty clauses, and a
    planted hard contradiction often enough that roughly a fifth of the
    instances are infeasible."""
    from certprep.wcnf import WcnfInstance

    nv = rng.randint(2, max_vars)

    def clause():
        if rng.random() < 0.005:
            return []
        k = rng.randint(1, 4)
        cl = [pb.mklit(pb.mkvar(rng.randint(1, nv)), rng.random() < 0.5)
              for _ in range(k)]
        r = rng.random()
        if r < 0.06:
            cl.append(cl[0])
        elif r < 0.10:
            cl.append(pb.neg(cl[0]))
        return cl

    hard, soft = [], []
    for _ in range(rng.randint(1, max_clauses)):
        cl = clause()
        if rng.random() < 0.40:
            hard.append(cl)
        else:
            soft.append((rng.randint(1, max_weight), cl))
    if rng.random() < 0.25 and (hard or soft):
        # duplicate an existing clause somewhere
        pool = [cl for cl in hard] + [cl for _, cl in soft]
        cl = list(rng.choice(pool))
        if rng.random() < 0.5:
            hard.append(cl)
        else:
            soft.append((rng.randint(1, max_weight), cl))
    if rng.random() < 0.08:
        v = pb.mkvar(rng.randint(1, nv))
        hard.append([pb.mklit(v)])
        hard.append([pb.mklit(v, True)])
    return WcnfInstance(hard, soft)


# -- reference kernel forms ---------------------------------------------------
#
# The whole-constraint and whole-objective forms that the pb kernel's faster
# ones replaced, kept as references for their differential tests.


def reference_negate(c):
    """Negation through the full merge and sort of `normalize`."""
    total = sum(coef for coef, _ in c.terms)
    return pb.normalize([(coef, lit ^ 1) for coef, lit in c.terms],
                        total - c.degree + 1)


def reference_restrict(c, witness):
    """A substitution {var: 0 | 1 | literal} through the full merge and sort
    of `normalize`, whatever the images."""
    raw = []
    deg = c.degree
    for coef, lit in c.terms:
        img = witness.get(lit >> 1)
        if img is None:
            raw.append((coef, lit))
        elif img == 0 or img == 1:
            if img ^ (lit & 1):  # literal became true
                deg -= coef
        else:
            raw.append((coef, img ^ 1 if lit & 1 else img))
    return pb.normalize(raw, deg)


def reference_restrict_objective(obj, witness):
    """The objective after the substitution {var: 0 | 1 | literal}, built
    over every variable of `obj`."""
    out = pb.Objective(constant=obj.constant)
    for v, coef in obj.coeffs.items():
        img = witness.get(v)
        if img is None:
            out.add_literal_term(coef, v << 1)
        elif img == 1:
            out.constant += coef
        elif img != 0:
            out.add_literal_term(coef, img)
    return out


def reference_objective_diff_constraint(a, b):
    """The constraint  a - b >= 0  for two objectives (constants included)."""
    raw = [(coef, v << 1) for v, coef in a.coeffs.items()]
    raw += [(-coef, v << 1) for v, coef in b.coeffs.items()]
    return pb.normalize(raw, b.constant - a.constant)


def reference_constraint_from_clause(lits):
    """Every clause through `normalize`, after a list-based de-duplication."""
    seen = []
    for lit in lits:
        if lit not in seen:
            seen.append(lit)
    return pb.normalize([(1, lit) for lit in seen], 1)


def reference_propagates_at_root(c):
    """The root-set test by the slack over every term."""
    slack = sum(coef for coef, _ in c.terms) - c.degree
    return slack < 0 or any(coef > slack for coef, _ in c.terms)


# -- reference WCNF reading and translation -------------------------------------
#
# The token-by-token parser, the literal-by-literal max_var_index and the
# list-based translation that the wcnf fast paths replaced.  The parser packs
# a clause's tokens first and names a bad token only when that fails, so the
# two must agree on instances and on error texts.  Both read numbers in ASCII
# alone: a literal is [+-]?[0-9]+, a weight or a top weight [0-9]+, so that
# neither int()'s '_' separators nor non-ASCII digits get through.  Both
# read a number past its leading zeros and refuse one of more than
# pb.MAX_DIGITS digits at its line, where int() would raise Python's error.


def _reference_number(tok, lineno):
    # tok is [+-]?[0-9]+ already
    sign, digits = ("", tok) if tok[0].isdigit() else (tok[0], tok[1:])
    digits = digits.lstrip("0") or "0"
    if len(digits) > pb.MAX_DIGITS:
        raise ValueError("line %d: number of %d digits (at most %d)"
                         % (lineno, len(digits), pb.MAX_DIGITS))
    return int(sign + digits)


def _reference_clause_lits(toks, lineno):
    if not toks or toks[-1] != "0":
        raise ValueError("line %d: clause not terminated by 0" % lineno)
    lits = []
    for t in toks[:-1]:
        if not re.fullmatch("[+-]?[0-9]+", t):
            raise ValueError("line %d: bad literal %r" % (lineno, t))
        n = _reference_number(t, lineno)
        if n == 0:
            raise ValueError("line %d: literal 0 inside clause" % lineno)
        lits.append(pb.mklit(pb.mkvar(abs(n)), n < 0))
    return lits


def _reference_weight(tok, lineno):
    if not re.fullmatch("[0-9]+", tok):
        raise ValueError("line %d: bad weight %r" % (lineno, tok))
    w = _reference_number(tok, lineno)
    if w == 0:
        raise ValueError("line %d: zero-weight soft clause" % lineno)
    if w > 2**63 - 1:
        raise ValueError("line %d: weight exceeds 2^63-1" % lineno)
    return w


def reference_parse_wcnf(text):
    from certprep.wcnf import WcnfInstance

    inst = WcnfInstance()
    top = None
    saw_clause = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = line.split()
        if not toks or toks[0] == "c":
            continue
        if toks[0] == "p":
            if saw_clause or top is not None:
                raise ValueError("line %d: misplaced p-line" % lineno)
            if len(toks) != 5 or toks[1] != "wcnf":
                raise ValueError("line %d: bad p-line (want 'p wcnf "
                                 "<nvars> <nclauses> <top>')" % lineno)
            if not re.fullmatch("[0-9]+", toks[4]):
                raise ValueError("line %d: bad top weight" % lineno)
            top = _reference_number(toks[4], lineno)
            if top < 1:
                raise ValueError("line %d: bad top weight" % lineno)
            continue
        saw_clause = True
        if toks[0] == "h":
            if top is not None:
                raise ValueError("line %d: 'h' clause in legacy format" % lineno)
            inst.hard.append(_reference_clause_lits(toks[1:], lineno))
            continue
        w = _reference_weight(toks[0], lineno)
        lits = _reference_clause_lits(toks[1:], lineno)
        if top is not None and w >= top:
            inst.hard.append(lits)
        else:
            inst.soft.append((w, lits))
    return inst


def reference_max_var_index(inst):
    m = 0
    for cl in inst.hard:
        for lit in cl:
            m = max(m, pb.var_index(lit >> 1))
    for _, cl in inst.soft:
        for lit in cl:
            m = max(m, pb.var_index(lit >> 1))
    return m


def reference_encode_to_pb(inst):
    """encode_to_pb with list-based de-duplication and the reference clause
    constructor."""
    constraints = [reference_constraint_from_clause(cl) for cl in inst.hard]
    objective = pb.Objective()
    next_aux = 1
    for w, cl in inst.soft:
        lits = []
        for lit in cl:
            if lit not in lits:
                lits.append(lit)
        if len(lits) == 1:
            objective.add_literal_term(w, pb.neg(lits[0]))
        else:
            label = pb.mkvar(next_aux, pb.NS_AUX)
            next_aux += 1
            constraints.append(reference_constraint_from_clause(
                lits + [pb.mklit(label)]))
            objective.add_literal_term(w, pb.mklit(label))
    return constraints, objective


# -- reference output check ------------------------------------------------------
#
# The output check before clause keys: parse both instances whole, encode the
# output too, and compare the core with it as a set of constraints.


class ReferenceOutputChecker(ProofChecker):

    def __init__(self, input_constraints, input_objective,
                 output_constraints=None, output_objective=None):
        super().__init__(input_constraints, input_objective, None,
                         output_objective)
        self.reference_output = output_constraints

    def _check_output(self, level):
        if level not in LEVELS:
            self._err("unknown output level %r" % level)
        self.level = level
        if self.reference_output is None:
            return
        core = {c for i, c in self.constraints.items()
                if i not in self.derived}
        if core != set(self.reference_output):
            self._err("core does not match the output instance")
        if self.objective != self.output_objective:
            self._err("objective does not match the output instance")


def reference_check_wcnf_proof(input_instance, proof_lines,
                               output_instance=None,
                               encode=reference_encode_to_pb):
    """check_wcnf_proof through `encode` (by default the reference
    translation) and the reference output check."""
    cons, obj = encode(input_instance)
    out_cons = out_obj = None
    if output_instance is not None:
        out_cons, out_obj = encode(output_instance)
    return ReferenceOutputChecker(cons, obj, out_cons, out_obj).run(
        proof_lines)


# -- guarded deletion rule --------------------------------------------------------
#
# A core deletion of a degree-0 constraint, or of a degree-1 one with another
# live core copy, is accepted without propagation.  The guard runs the RUP
# check it replaces, over the remaining core, each time it fires.


class GuardedChecker(ProofChecker):
    """A checker that asserts, whenever the deletion rule accepts a core
    `delc`, that RUP over the remaining core conflicts too; `fired` counts
    those deletions and `refuted` the ones left to RUP."""

    def __init__(self, *args):
        self.fired = self.refuted = 0
        super().__init__(*args)

    def _duplicate_or_trivial(self, c):
        if not super()._duplicate_or_trivial(c):
            self.refuted += 1
            return False
        assert self.engine.propagate(extras=[pb.negate(c)],
                                     exclude=self.derived) is None, c
        self.fired += 1
        return True


def guarded_check(input_instance, proof_lines, output_instance):
    """check_wcnf_proof through GuardedChecker; (checker, verdict)."""
    from certprep.wcnf import encode_to_pb

    chk = GuardedChecker(*encode_to_pb(input_instance),
                         *encode_to_pb(output_instance))
    return chk, chk.run(proof_lines)


# -- reference propagation ------------------------------------------------------
#
# The round-based loops the queue-driven pb.Propagator replaced, kept here as
# the simple reference its differential tests compare against.


def unit_extras(lits):
    """The extras that make `lits` true in a pb.Propagator.propagate call:
    one unit ``1 lit >= 1`` per literal."""
    return [pb.LinearConstraint(((1, lit),), 1) for lit in lits]


def reference_unit_propagate(constraints, assign=None):
    """Sweep every constraint in rounds until nothing changes; return the
    extended assignment, or None as soon as some slack is negative."""
    assign = dict(assign) if assign else {}
    cs = list(constraints)
    changed = True
    while changed:
        changed = False
        for c in cs:
            slack = -c.degree
            pending = []
            for coef, lit in c.terms:
                val = assign.get(lit >> 1)
                if val is None:
                    slack += coef
                    pending.append((coef, lit))
                elif val != (lit & 1):
                    slack += coef
            if slack < 0:
                return None
            for coef, lit in pending:
                if coef > slack:
                    assign[lit >> 1] = (lit & 1) ^ 1
                    changed = True
    return assign


def reference_clause_closure(clauses, start):
    """Clause-level UP from the literals `start` over {id: clause}, sweeping
    the clauses in id order each round; returns (true literals, conflict)."""
    val = {}
    for lit in start:
        want = (lit & 1) ^ 1
        if val.get(lit >> 1, want) != want:
            return set(), True
        val[lit >> 1] = want
    changed = True
    while changed:
        changed = False
        for cid in sorted(clauses):
            c = clauses[cid]
            if c.is_trivial():
                continue
            pending = []
            satisfied = False
            for _, lit in c.terms:
                have = val.get(lit >> 1)
                if have is None:
                    pending.append(lit)
                elif have == (lit & 1) ^ 1:
                    satisfied = True
                    break
            if satisfied:
                continue
            if not pending:
                return set(), True
            if len(pending) == 1:
                lit = pending[0]
                val[lit >> 1] = (lit & 1) ^ 1
                changed = True
    return {pb.mklit(v, b == 0) for v, b in val.items()}, False


# -- reference technique scans ------------------------------------------------
#
# The restart-from-scratch forms that Preprocessor's passes replaced, kept as
# the references their differential tests compare against.


def reference_remove_duplicates(p):
    """The `dup` pass that regroups every clause after each action, with the
    literal-form reading of whether the objective pays for a unit soft."""
    changed = False
    while _reference_duplicates_once(p):
        changed = True
    return changed


def reference_groups(p):
    """The live non-trivial clauses grouped by their real literals, ids
    ascending."""
    groups = {}
    for cid in sorted(p.clauses):
        if not p.clauses[cid].is_trivial():
            groups.setdefault(reference_real_lits(p, cid), []).append(cid)
    return groups


def _reference_duplicates_once(p):
    groups = reference_groups(p)
    for key in sorted(groups, key=lambda k: groups[k][0]):
        cids = groups[key]
        hards = [c for c in cids if reference_label(p, c) is None]
        softs = [c for c in cids if reference_label(p, c) is not None]
        if len(hards) > 1:
            for cid in hards[1:]:
                p._uninstall(cid)
                p._delc(cid)
                p._count("dup")
            return True
        if hards and softs:
            for cid in softs:
                label = reference_label(p, cid)
                p._uninstall(cid)
                p._delc(cid)
                p._retire_soft_label(label)
                p._count("dup")
            return True
        if len(key) == 1 and softs:
            terms, _ = p.objective.literal_form()
            if len(softs) > 1 or any(lit == pb.neg(key[0]) for _, lit in terms):
                p._sync_unit_soft(softs[0])
                p._count("dup")
                return True
        if len(softs) > 1:
            keep = softs[0]
            for cid in softs[1:]:
                if p._merge_soft_pair(keep, cid):
                    p._count("dup")
                    return True
    return False


def reference_sle_pairs(p):
    """Every ordered pair of distinct live variables, in variable order."""
    vs = sorted({lit >> 1 for lit in p.engine.occ}, key=pb.var_sort_key)
    for x in vs:
        for y in vs:
            if x != y:
                yield x, y


def reference_lits(p, cid):
    """A clause's literals, read from its constraint."""
    return tuple(lit for _, lit in p.clauses[cid].terms)


def reference_label(p, cid):
    """A clause's soft label, read from its constraint: in the WCNF phase
    the variable of its internal literal, if it has one."""
    if p.phase != "wcnf":
        return None
    internal = [lit >> 1 for _, lit in p.clauses[cid].terms if lit & 6]
    return internal[0] if internal else None


def reference_real_lits(p, cid):
    """A clause's literals but its soft label, read from its constraint."""
    label = reference_label(p, cid)
    return tuple(lit for _, lit in p.clauses[cid].terms if lit >> 1 != label)


# The scans that the worklist passes replaced, as the parent commit had them
# (only `self._lits` now reads the constraint): each finds the first
# applicable candidate by scanning every candidate after every application.

def reference_subsumed_once(p):
    for cid in sorted(p.clauses):
        lits = reference_lits(p, cid)
        if (not lits or reference_label(p, cid) is not None
                or p.clauses[cid].is_trivial()):
            continue
        rare = min(lits, key=lambda l: (len(p._occ_ids(l)), l))
        for did in sorted(p._occ_ids(rare)):
            if did == cid or did not in p.clauses:
                continue
            if not set(lits) <= set(reference_real_lits(p, did)):
                continue
            if len(reference_lits(p, did)) <= len(lits) and did < cid:
                continue   # identical clause: keep the earlier copy
            p._remove_clause(did)
            p._count("sub")
            return True
    return False


def reference_blocked_once(p):
    for cid in sorted(p.clauses):
        if (reference_label(p, cid) is not None
                or p.clauses[cid].is_trivial()):
            continue
        for lit in reference_lits(p, cid):
            if p._blocked_under(cid, lit):
                p._remove_clause(cid, {lit >> 1: 0 if lit & 1 else 1})
                p._count("bce")
                return True
    return False


def reference_ssr_once(p):
    for did in sorted(p.clauses):
        dlits = reference_lits(p, did)
        if len(dlits) < 2:
            continue
        for m in dlits:
            if p.objective.coef(m >> 1):
                continue
            rest = set(dlits) - {m}
            for cid in sorted(p._occ_ids(neg(m))):
                if cid == did:
                    continue
                if set(reference_lits(p, cid)) - {neg(m)} <= rest:
                    c = constraint_from_clause(sorted(rest))
                    nid = p._core_rup(c)
                    p._install(nid, c)
                    p._remove_clause(did)
                    p._count("ssr")
                    return True
    return False


def reference_sle_once(p):
    for x, y in reference_sle_pairs(p):
        cx, cy = p.objective.coef(x), p.objective.coef(y)
        if cx < 0 or cy < 0 or (cx > 0) != (cy > 0):
            continue
        posy = p._occ_ids(mklit(y))
        negx = p._occ_ids(mklit(x, True))
        if not posy and not negx:
            continue
        if not set(posy) <= set(p._occ_ids(mklit(x))):
            continue
        if not set(negx) <= set(p._occ_ids(mklit(y, True))):
            continue
        if cx == 0:
            px = p._core_red(_unit(mklit(x)), {x: 1, y: 0})
            py = p._core_red(_unit(mklit(y, True)), {x: 1, y: 0})
            p.fix_literal(mklit(x), px)
            p.fix_literal(mklit(y, True), py)
        else:
            if cx > cy:
                continue
            py = p._core_red(_unit(mklit(y, True)), {y: 0, x: 1})
            p.fix_literal(mklit(y, True), py)
        p._count("sle")
        return True
    return False


def reference_bve_once(p):
    for v in sorted({l >> 1 for l in p.engine.occ if p.engine.occ[l]},
                    key=pb.var_sort_key):
        if p.objective.coef(v):
            continue
        pos = p._occ_ids(mklit(v))
        negs = p._occ_ids(mklit(v, True))
        if not pos or not negs:
            continue
        # a resolvent is a tautology exactly when its literals clash
        pos_sides = [p._real_lits(i, v) for i in pos]
        neg_sides = [p._real_lits(j, v) for j in negs]
        count = 0
        for a in pos_sides:
            for b in neg_sides:
                lits = set(a + b)
                if not any(neg(l) in lits for l in lits):
                    count += 1
        if count > len(pos) + len(negs):
            continue
        p.eliminate_variable_bve(v)
        p._count("bve")
        return True
    return False


def reference_lm_once(p):
    singles = {}
    for v in sorted(p.objective.coeffs, key=pb.var_sort_key):
        if p.objective.coef(v) <= 0 or p._occ_ids(mklit(v, True)):
            continue
        ids = p._occ_ids(mklit(v))
        if len(ids) == 1:
            singles[v] = next(iter(ids))
    for bc in sorted(singles, key=pb.var_sort_key):
        for bd in sorted(singles, key=pb.var_sort_key):
            if bc == bd or singles[bc] == singles[bd]:
                continue
            if p.objective.coef(bc) != p.objective.coef(bd):
                continue
            cid_c, cid_d = singles[bc], singles[bd]
            c_lits = set(p._real_lits(cid_c, bc))
            d_lits = set(p._real_lits(cid_d, bd))
            for u in sorted(c_lits, key=pb.lit_sort_key):
                if neg(u) in d_lits:
                    p.label_matching(cid_c, cid_d, neg(u), bc, bd)
                    p._count("lm")
                    return True
    return False


# The restart loops that the worklists marked stale by `_restart` replaced,
# as they were before: each scans every candidate again after every
# application.

def reference_fle_once(p):
    for lit in sorted(p.engine.occ, key=pb.lit_sort_key):
        if not p.engine.occ[lit]:
            continue
        # fixing lit=0 must not pay anything: ~lit may not be a paid term
        coef = p.objective.coef(lit >> 1)
        if (coef < 0) if lit & 1 == 0 else (coef > 0):
            continue
        closure, conflict = p._up_closure(lit)
        if conflict:
            pid = p._core_rup(_unit(neg(lit)))
            p.fix_literal(neg(lit), pid)
            p._count("fle")
            return True
        if all(any(l2 != lit and l2 in closure
                   for l2 in reference_lits(p, cid))
               for cid in p._occ_ids(lit)):
            pid = p._core_red(_unit(neg(lit)),
                              {lit >> 1: 1 if lit & 1 else 0})
            p.fix_literal(neg(lit), pid)
            p._count("fle")
            return True
    return False


def reference_probes(p):
    """Each live literal l1, in literal order, whose closure and whose
    negation's closure both end without conflict, as (l1, the other
    literals of l1's closure in literal order, the closure of ~l1)."""
    occ = p.engine.occ
    for l1 in sorted((l for l in occ if occ[l]), key=pb.lit_sort_key):
        pos, conflict = p._up_closure(l1)
        if conflict:
            continue
        neg_cl, conflict = p._up_closure(neg(l1))
        if not conflict:
            yield l1, sorted(pos - {l1}, key=pb.lit_sort_key), neg_cl


def reference_impl_once(p):
    for l1, implied, neg_cl in reference_probes(p):
        for l2 in implied:
            if l2 in neg_cl:
                p._fix_implied(l1, l2, witnessed=False)
                return True
        # extension: one-sided implication with flippable ~l2 clauses
        if p.objective.coef(l1 >> 1):
            continue
        for l2 in implied:
            if p.objective.coef(l2 >> 1) or not p._occ_ids(neg(l2)):
                continue
            if all(any(l3 != neg(l2) and l3 in neg_cl
                       for l3 in reference_lits(p, cid))
                   for cid in p._occ_ids(neg(l2))):
                p._fix_implied(l1, l2, witnessed=True)
                return True
    return False


def reference_eql_once(p):
    for l1, implied, neg_cl in reference_probes(p):
        for l2 in implied:
            if neg(l2) in neg_cl:
                p._substitute_equivalent(l1, l2, witnessed=False)
                return True
            if p.objective.coef(l1 >> 1) or p.objective.coef(l2 >> 1):
                continue
            if all(any(l3 != l2 and l3 in neg_cl
                       for l3 in reference_lits(p, cid))
                   for cid in p._occ_ids(l2)):
                p._substitute_equivalent(l1, l2, witnessed=True)
                return True
    return False


def reference_gsle_once(p):
    for b in sorted(p.objective.coeffs, key=pb.var_sort_key):
        cb = p.objective.coef(b)
        if cb <= 0 or p._occ_ids(mklit(b, True)):
            continue
        cids = p._occ_ids(mklit(b))
        if not cids:
            continue
        group = set()
        ok = True
        for cid in sorted(cids):
            best = None
            for _, lit in p.clauses[cid].terms:
                v = lit >> 1
                if v == b or lit & 1:
                    continue
                cv = p.objective.coef(v)
                if cv <= 0 or p._occ_ids(mklit(v, True)):
                    continue
                if best is None or (cv, pb.var_sort_key(v)) < best[0]:
                    best = ((cv, pb.var_sort_key(v)), v)
            if best is None:
                ok = False
                break
            group.add(best[1])
        if not ok or not group:
            continue
        if cb < sum(p.objective.coef(v) for v in group):
            continue
        witness = {b: 0}
        witness.update({v: 1 for v in group})
        pid = p._core_red(_unit(mklit(b, True)), witness)
        p.fix_literal(mklit(b, True), pid)
        p._count("gsle")
        return True
    return False


def reference_bva_once(p):
    by_clause = {}      # literal set -> its smallest clause id
    for cid in sorted(p.clauses):
        by_clause.setdefault(frozenset(reference_lits(p, cid)), cid)
    occ = p.engine.occ
    lits = sorted((l for l in occ if occ[l]), key=pb.lit_sort_key)
    for i, l1 in enumerate(lits):
        for l2 in lits[i + 1:]:
            if l2 >> 1 == l1 >> 1:
                continue
            suffixes = {}   # each once, even if two clauses share it
            for cid in sorted(p._occ_ids(l1)):
                d = frozenset(reference_lits(p, cid)) - {l1}
                if d and l2 not in d and neg(l2) not in d \
                        and (d | {l2}) in by_clause:
                    suffixes[d] = tuple(sorted(d, key=pb.lit_sort_key))
            suffixes = list(suffixes.values())
            # replacing 2|S| clauses by |S|+2 must be a strict win
            if len(suffixes) + 2 < 2 * len(suffixes):
                p.add_variables_bva([l1, l2], suffixes, [
                    by_clause[frozenset(d) | {l}]
                    for l in (l1, l2) for d in suffixes])
                p._count("bva")
                return True
    return False


def reference_am1_once(p):
    skip_bcr = "bcr" in p.cfg.stage4
    for cid in sorted(p.clauses):
        pair = p._am1_eligible(cid)
        if pair is None:
            continue
        if skip_bcr and p._bcr_eligible(cid, *pair):
            continue
        p.intrinsic_at_most_ones(pair[0], pair[1], cid)
        p._count("am1")
        return True
    return False


def reference_bcr_once(p):
    for cid in sorted(p.clauses):
        pair = p._am1_eligible(cid)
        if pair is None or not p._bcr_eligible(cid, *pair):
            continue
        p.binary_core_removal(pair[0], pair[1], cid)
        p._count("bcr")
        return True
    return False


def reference_sbl_once(p):
    obj_vars = [v for v in sorted(p.objective.coeffs, key=pb.var_sort_key)
                if p.objective.coef(v) > 0]
    for cid in sorted(p.clauses):
        lits = reference_lits(p, cid)
        for b in obj_vars:
            if b in {l >> 1 for l in lits}:
                continue
            for lit in lits:
                if p._blocked_under(cid, lit, b):
                    p.structure_based_labelling(cid, b, lit)
                    p._count("sbl")
                    return True
    return False


# The one-off scans that the `up`, `taut` and `empty` worklists replaced:
# the FIFO queue of hard units, in which the units a fix makes join the
# queue's end, and two scans of every clause in id order.

def reference_propagate_hard_units(p):
    queue = [cid for cid in sorted(p.clauses) if p._is_hard_unit(cid)]
    changed = False
    while queue:
        pid = queue.pop(0)
        if pid not in p.clauses or not p._is_hard_unit(pid):
            continue
        changed = True
        p._count("up")
        top = max(p.clauses)
        p.fix_literal(reference_lits(p, pid)[0], pid)
        queue.extend(cid for cid in sorted(p.clauses)
                     if cid > top and p._is_hard_unit(cid))
    return changed


def reference_remove_tautologies(p):
    changed = False
    for cid in sorted(p.clauses):
        if not p.clauses[cid].is_trivial():
            continue
        p._remove_clause(cid)   # negating a trivial constraint conflicts
        p._count("taut")
        changed = True
    return changed


def reference_remove_empty_softs(p):
    changed = False
    for cid in sorted(p.clauses):
        label = reference_label(p, cid)
        if label is None:
            continue
        c = p.clauses[cid]
        if c.degree != 1 or reference_real_lits(p, cid):
            continue
        # nothing left but the relaxer: the weight is paid forever
        p._update_objective(*p.objective.delta({label: 1}))
        p._uninstall(cid)
        p._delc(cid, {label: 1})
        p._count("empty")
        changed = True
    return changed


def _exhaustively(once):
    """The pass that repeats `once` until it applies nothing; it returns
    whether anything applied."""
    def run(p):
        changed = False
        while once(p):
            changed = True
        return changed
    return run


REFERENCE_PASSES = {name: _exhaustively(once) for name, once in (
    ("sub", reference_subsumed_once), ("bce", reference_blocked_once),
    ("ssr", reference_ssr_once), ("fle", reference_fle_once),
    ("impl", reference_impl_once), ("eql", reference_eql_once),
    ("sle", reference_sle_once), ("gsle", reference_gsle_once),
    ("bve", reference_bve_once), ("bva", reference_bva_once),
    ("am1", reference_am1_once), ("bcr", reference_bcr_once),
    ("lm", reference_lm_once), ("sbl", reference_sbl_once))}
REFERENCE_PASSES.update(
    dup=reference_remove_duplicates, up=reference_propagate_hard_units,
    taut=reference_remove_tautologies, empty=reference_remove_empty_softs)


# -- reference SAT oracle ------------------------------------------------------
#
# The oracle before watched literals: propagation sweeps the whole clause list
# in index order until a sweep changes nothing.  Its decisions follow the same
# order and phase as certprep.sat.SatOracle's, so both return the same model
# or None on every call that stays under the conflict budget; the clauses they
# learn on the way may differ.


class ReferenceSatOracle:

    def __init__(self, on_learn=None, conflict_budget=None, work_budget=None):
        # work_budget counts watch visits, which a sweep does not make: it is
        # taken and ignored
        self.clauses = []
        self.on_learn = on_learn
        self.conflict_budget = conflict_budget
        self.conflicts = 0
        self._vars = set()

    def add_clause(self, lits):
        self.clauses.append(list(lits))
        self._vars.update(l >> 1 for l in lits)

    # -- solving ---------------------------------------------------------------

    def solve(self, assumptions=(), prefer=()):
        """Return a total model {var: 0|1} or None (UNSAT under assumptions).
        A decision sets a literal of `prefer` true, else its variable False."""
        phase = {l >> 1: l for l in prefer}
        self._assign = {}   # var -> (value, level, reason clause index or None)
        self._trail = []
        level = 0
        while True:
            confl = self._propagate(level)
            if confl is not None:
                self.conflicts += 1
                if (self.conflict_budget is not None
                        and self.conflicts > self.conflict_budget):
                    raise OracleBudget()
                if level == 0:
                    return None
                learnt, bj = self._analyze(confl, level)
                self._backjump(bj)
                level = bj
                self.clauses.append(learnt)
                self._vars.update(l >> 1 for l in learnt)
                if self.on_learn is not None:
                    self.on_learn(list(learnt))
                continue
            lit = None
            for a in assumptions:
                val = self._value(a)
                if val is None:
                    lit = a
                    break
                if val is False:
                    return None
            if lit is None:
                for v in sorted(self._vars, key=pb.var_sort_key):
                    if v not in self._assign:
                        lit = phase.get(v, pb.mklit(v, True))
                        break
            if lit is None:
                return {v: val for v, (val, _, _) in self._assign.items()}
            level += 1
            self._imply(lit, level, None)

    # -- internals ----------------------------------------------------------------

    def _value(self, lit):
        ent = self._assign.get(lit >> 1)
        if ent is None:
            return None
        return ent[0] == (lit & 1) ^ 1

    def _imply(self, lit, level, reason):
        self._assign[lit >> 1] = ((lit & 1) ^ 1, level, reason)
        self._trail.append(lit)

    def _propagate(self, level):
        changed = True
        while changed:
            changed = False
            for ci, cl in enumerate(self.clauses):
                unassigned = None
                count = 0
                sat = False
                for l in cl:
                    val = self._value(l)
                    if val is True:
                        sat = True
                        break
                    if val is None:
                        unassigned = l
                        count += 1
                        if count > 1:
                            break
                if sat or count > 1:
                    continue
                if count == 0:
                    return ci
                self._imply(unassigned, level, ci)
                changed = True
        return None

    def _analyze(self, confl, level):
        seen = set()
        learnt = []
        counter = 0
        reason_lits = self.clauses[confl]
        p = None
        idx = len(self._trail) - 1
        while True:
            for q in reason_lits:
                if q == p:
                    continue
                v = q >> 1
                lv = self._assign[v][1]
                if v in seen or lv == 0:
                    continue
                seen.add(v)
                if lv == level:
                    counter += 1
                else:
                    learnt.append(q)
            while self._trail[idx] >> 1 not in seen:
                idx -= 1
            p = pb.neg(self._trail[idx])
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            reason = self._assign[p >> 1][2]
            reason_lits = self.clauses[reason]
        bj = 0
        for q in learnt:
            bj = max(bj, self._assign[q >> 1][1])
        learnt.append(p)
        return learnt, bj

    def _backjump(self, bj):
        while self._trail:
            v = self._trail[-1] >> 1
            if self._assign[v][1] <= bj:
                break
            self._trail.pop()
            del self._assign[v]


def outcome(oracle, assumptions, prefer=()):
    """A solve call's result: the model, None, or "budget" when it raised
    OracleBudget."""
    try:
        return oracle.solve(assumptions, prefer)
    except OracleBudget:
        return "budget"


def record_solves(monkeypatch):
    """Wrap SatOracle.solve so that each call appends its positional
    arguments to the list returned."""
    calls = []
    solve = SatOracle.solve

    def counted(self, *args, **kw):
        calls.append(args)
        return solve(self, *args, **kw)

    monkeypatch.setattr(SatOracle, "solve", counted)
    return calls


class Lockstep:
    """Both oracles driven through the same calls; every call must give the
    same model or None.  A call where either oracle passes its conflict
    budget is not compared, since the two may learn different clauses and so
    meet a different number of conflicts."""

    def __init__(self, conflict_budget=None):
        self.learned = []     # the clauses the oracle under test learned
        self.new = SatOracle(on_learn=self.learned.append,
                             conflict_budget=conflict_budget)
        self.ref = ReferenceSatOracle(conflict_budget=conflict_budget)

    def add_clause(self, lits):
        self.new.add_clause(lits)
        self.ref.add_clause(lits)

    def solve(self, assumptions=(), prefer=()):
        got = outcome(self.new, assumptions, prefer)
        want = outcome(self.ref, assumptions, prefer)
        if "budget" in (got, want):
            return "budget"
        assert got == want
        return got
