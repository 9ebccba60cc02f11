"""Shared brute-force oracles used across the test suite.

These deliberately avoid the package's own propagation/normalization logic:
constraints are evaluated by direct truth-table enumeration so that the fast
implementations are checked against an independent reading of the semantics.
"""

import itertools

from certprep import pb


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
        hards = [c for c in cids if c in p.hard_ids]
        softs = [c for c in cids if c in p.soft_label]
        if len(hards) > 1:
            for cid in hards[1:]:
                p._uninstall(cid)
                p._delc(cid)
                p.hard_ids.discard(cid)
                p._count("dup")
            return True
        if hards and softs:
            for cid in softs:
                label, w = p.soft_label.pop(cid)
                p._uninstall(cid)
                p._delc(cid)
                p._retire_soft_label(label, w)
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
