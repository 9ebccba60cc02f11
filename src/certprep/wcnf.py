"""Weighted-CNF reading/writing and the translation into PB form.

Both WCNF dialects are accepted: the current one (``h <lits> 0`` for hard
clauses, ``<weight> <lits> 0`` for soft ones) and the legacy header form
(``p wcnf <nvars> <nclauses> <top>`` where a weight >= top marks a hard
clause).  Output is always written in the current dialect.

The PB translation mirrors the cost semantics exactly: hard clauses become
clausal constraints, a unit soft (u, w) contributes w * ~u to the objective,
and every other soft clause C gets a fresh relaxer b with constraint
asPB(C v b) and objective term w * b.

Both steps keep a repeated value once per call: a parse packs each distinct
literal token to one int, and an encoding builds one (1, literal) term per
distinct literal.  So an instance costs memory per distinct literal plus
one reference per occurrence.  The tables live for their call alone.
"""

from . import pb

MAX_WEIGHT = 2**63 - 1


class WcnfInstance:

    def __init__(self, hard=None, soft=None):
        self.hard = hard if hard is not None else []
        self.soft = soft if soft is not None else []

    def max_var_index(self):
        # a literal's variable index is the literal shifted right three
        # places, whatever its namespace, so the largest literal has it
        tops = [max(cl) for cl in self.hard if cl]
        tops += [max(cl) for _, cl in self.soft if cl]
        return max(tops, default=0) >> 3

    def __eq__(self, other):
        return (isinstance(other, WcnfInstance)
                and self.hard == other.hard and self.soft == other.soft)


def _lit_to_dimacs(lit):
    v = lit >> 1
    if pb.var_ns(v) != pb.NS_USER:
        raise ValueError("only problem variables may appear in WCNF output")
    return -pb.var_index(v) if lit & 1 else pb.var_index(v)


class _PackedTokens(dict):
    """Clause token -> packed literal, filled by one parse as tokens come,
    so that each distinct token packs to one int object: DIMACS n packs as
    mklit(mkvar(|n|), n < 0) would pack it.  The literal 0 packs to 1,
    which no real literal is; a token that int() refuses raises its
    ValueError."""

    def __missing__(self, tok):
        n = int(tok)
        lit = self[tok] = n << 3 if n > 0 else -n << 3 | 1
        return lit


def parse_wcnf(text):
    inst = WcnfInstance()
    packed = _PackedTokens()
    top = None
    saw_clause = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = line.split()
        if not toks or toks[0] == "c":
            continue
        head = toks[0]
        if head == "p":
            if saw_clause or top is not None:
                raise ValueError("line %d: misplaced p-line" % lineno)
            if len(toks) != 5 or toks[1] != "wcnf":
                raise ValueError("line %d: bad p-line (want 'p wcnf "
                                 "<nvars> <nclauses> <top>')" % lineno)
            try:
                top = int(toks[4])
            except ValueError:
                raise ValueError("line %d: bad top weight" % lineno)
            if top < 1:
                raise ValueError("line %d: bad top weight" % lineno)
            continue
        saw_clause = True
        # A clause line is checked in one order: its head ('h' or a weight),
        # its terminating 0, then its literals, packed through `packed`; only
        # a packing that fails or yields the literal 0 names its bad token.
        if head == "h":
            if top is not None:
                raise ValueError("line %d: 'h' clause in legacy format" % lineno)
            w = None
        elif not head.isdigit():
            raise ValueError("line %d: bad weight %r" % (lineno, head))
        else:
            w = int(head)
            if w == 0:
                raise ValueError("line %d: zero-weight soft clause" % lineno)
            if w > MAX_WEIGHT:
                raise ValueError("line %d: weight exceeds 2^63-1" % lineno)
        if len(toks) < 2 or toks[-1] != "0":
            raise ValueError("line %d: clause not terminated by 0" % lineno)
        try:
            lits = list(map(packed.__getitem__, toks[1:-1]))
        except ValueError:
            lits = [1]
        if 1 in lits:
            for tok in toks[1:-1]:
                try:
                    n = int(tok)
                except ValueError:
                    raise ValueError("line %d: bad literal %r" % (lineno, tok))
                if n == 0:
                    raise ValueError("line %d: literal 0 inside clause" % lineno)
        if w is None or top is not None and w >= top:
            inst.hard.append(lits)
        else:
            inst.soft.append((w, lits))
    return inst


def write_wcnf(inst):
    lines = []
    for cl in inst.hard:
        lines.append(" ".join(["h"] + [str(_lit_to_dimacs(l)) for l in cl] + ["0"]))
    for w, cl in inst.soft:
        lines.append(" ".join([str(w)] + [str(_lit_to_dimacs(l)) for l in cl] + ["0"]))
    return "\n".join(lines) + ("\n" if lines else "")


def encode_to_pb(inst):
    """Translate to (constraints, objective, soft_info).

    soft_info maps constraint position -> (label_var, weight) for relaxed
    (non-unit) soft clauses; hard clauses and unit softs have no entry.
    Duplicate unit softs merge additively into the objective.  Equal clause
    terms are one tuple within the result.
    """
    # one term (1, literal) per distinct literal, for every clause holding it
    units = {lit: (1, lit) for lit in set().union(
        *inst.hard, *[cl for _, cl in inst.soft])}
    constraints = [pb.constraint_from_clause(cl, units) for cl in inst.hard]
    objective = pb.Objective()
    soft_info = {}
    next_aux = 1
    for w, cl in inst.soft:
        lits = list(dict.fromkeys(cl))
        if len(lits) == 1:
            objective.add_literal_term(w, pb.neg(lits[0]))
        else:
            label = pb.mkvar(next_aux, pb.NS_AUX)
            next_aux += 1
            soft_info[len(constraints)] = (label, w)
            lit = pb.mklit(label)
            units[lit] = (1, lit)
            constraints.append(pb.constraint_from_clause(lits + [lit], units))
            objective.add_literal_term(w, lit)
    return constraints, objective, soft_info


def opt_cost_bruteforce(inst, var_limit=22):
    """Exact optimum by enumeration over the variables that occur; None if
    no assignment satisfies the hard clauses."""
    vs = set()
    for cl in inst.hard:
        vs.update(l >> 1 for l in cl)
    for _, cl in inst.soft:
        vs.update(l >> 1 for l in cl)
    vs = sorted(vs, key=pb.var_sort_key)
    if len(vs) > var_limit:
        raise ValueError("too many variables for brute force (%d)" % len(vs))
    bit = {v: i for i, v in enumerate(vs)}

    def masks(cl):
        p = n = 0
        for lit in cl:
            if lit & 1:
                n |= 1 << bit[lit >> 1]
            else:
                p |= 1 << bit[lit >> 1]
        return p, n

    hards = [masks(cl) for cl in inst.hard]
    softs = [(w, masks(cl)) for w, cl in inst.soft]
    full = (1 << len(vs)) - 1
    best = None
    for m in range(1 << len(vs)):
        inv = full ^ m
        feasible = True
        for p, n in hards:
            if not (m & p) and not (inv & n):
                feasible = False
                break
        if not feasible:
            continue
        c = 0
        for w, (p, n) in softs:
            if not (m & p) and not (inv & n):
                c += w
        if best is None or c < best:
            best = c
    return best
