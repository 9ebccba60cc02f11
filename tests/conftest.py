"""Shared brute-force oracles used across the test suite.

These deliberately avoid the package's own propagation/normalization logic:
constraints are evaluated by direct truth-table enumeration so that the fast
implementations are checked against an independent reading of the semantics.
"""

import itertools

from certprep import pb
from certprep.sat import OracleBudget, SatOracle


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


# -- reference propagation ------------------------------------------------------
#
# The round-based loops the queue-driven pb.Propagator replaced, kept here as
# the simple reference its differential tests compare against.


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


def _reference_duplicates_once(p):
    groups = {}
    for cid in sorted(p.clauses):
        if p.clauses[cid].is_trivial():
            continue
        groups.setdefault(p._real_lits(cid), []).append(cid)
    for key in sorted(groups, key=lambda k: groups[k][0]):
        cids = groups[key]
        hards = [c for c in cids if c not in p.soft_label]
        softs = [c for c in cids if c in p.soft_label]
        if len(hards) > 1:
            for cid in hards[1:]:
                p._uninstall(cid)
                p._delc(cid)
                p._count("dup")
            return True
        if hards and softs:
            for cid in softs:
                label, _ = p.soft_label.pop(cid)
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
    vs = sorted({lit >> 1 for lit in p.occ}, key=pb.var_sort_key)
    for x in vs:
        for y in vs:
            if x != y:
                yield x, y


# -- reference SAT oracle ------------------------------------------------------
#
# The oracle before watched literals: propagation sweeps the whole clause list
# in index order until a sweep changes nothing.  certprep.sat.SatOracle must
# reproduce its events exactly (learned clauses, conflicts, models in key
# order), since trim and harden proofs replay them.


class ReferenceSatOracle:

    def __init__(self, on_learn=None, conflict_budget=None):
        self.clauses = []
        self.on_learn = on_learn
        self.conflict_budget = conflict_budget
        self.conflicts = 0
        self.conflict_level0 = False
        self._vars = set()

    def add_clause(self, lits):
        self.clauses.append(list(lits))
        self._vars.update(l >> 1 for l in lits)

    # -- solving ---------------------------------------------------------------

    def solve(self, assumptions=()):
        """Return a total model {var: 0|1} or None (UNSAT under assumptions)."""
        self.conflict_level0 = False
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
                    self.conflict_level0 = True
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
                        lit = pb.mklit(v, True)  # phase False
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


def outcome(oracle, assumptions):
    """A solve call's result as comparable data: the model's items in key
    order, None, or "budget" when it raised OracleBudget."""
    try:
        model = oracle.solve(assumptions)
    except OracleBudget:
        return "budget"
    return None if model is None else list(model.items())


class Lockstep:
    """Both oracles driven through the same calls; every call must give the
    same result, the same learned clauses and the same counters."""

    def __init__(self, conflict_budget=None):
        self.learned = ([], [])
        self.new = SatOracle(on_learn=self.learned[0].append,
                             conflict_budget=conflict_budget)
        self.ref = ReferenceSatOracle(on_learn=self.learned[1].append,
                                      conflict_budget=conflict_budget)

    def add_clause(self, lits):
        self.new.add_clause(lits)
        self.ref.add_clause(lits)

    def solve(self, assumptions=()):
        got = outcome(self.new, assumptions)
        want = outcome(self.ref, assumptions)
        assert got == want
        assert self.learned[0] == self.learned[1]
        assert self.new.clauses == self.ref.clauses
        assert self.new.conflicts == self.ref.conflicts
        assert self.new.conflict_level0 == self.ref.conflict_level0
        return got
