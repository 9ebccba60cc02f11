"""Weighted-CNF reading/writing and the translation into PB form.

Both WCNF dialects are accepted: the current one (``h <lits> 0`` for hard
clauses, ``<weight> <lits> 0`` for soft ones) and the legacy header form
(``p wcnf <nvars> <nclauses> <top>`` where a weight >= top marks a hard
clause).  Output is always written in the current dialect.  Numbers are
ASCII digits alone.  ``read_clauses`` is the one reader: it yields each
clause as (weight, literals), weight None when hard, from a text or from
its lines as a file gives them, and both ``parse_wcnf`` and
``encode_to_pb`` take that stream.  A number reads past
its leading zeros, and one of more than ``pb.MAX_DIGITS`` digits is refused
at its line.

The PB translation mirrors the cost semantics exactly: hard clauses become
clausal constraints, a unit soft (u, w) contributes w * ~u to the objective,
and every other soft clause C gets a fresh relaxer b with constraint
asPB(C v b) and objective term w * b.

Both steps keep a repeated value once per call: a parse packs each distinct
literal token to one int, and an encoding builds one (1, literal) term per
distinct literal.  So an instance costs memory per distinct literal plus
one reference per occurrence.  A parse's table lives for its call alone;
an encoding's too, unless the caller passes one for several encodings to
share, as a check does for its input and output.
"""

import re
from itertools import chain, repeat

from . import pb

MAX_WEIGHT = 2**63 - 1
_INT = re.compile("[+-]?[0-9]+")    # int() would also take '1_0' and '١'


class WcnfInstance:

    def __init__(self, hard=None, soft=None):
        self.hard = hard if hard is not None else []
        self.soft = soft if soft is not None else []

    @classmethod
    def from_clauses(cls, clauses):
        """The instance of a (weight, literals) stream, each clause's
        literals copied into a list of their own."""
        inst = cls()
        for w, cl in clauses:
            if w is None:
                inst.hard.append(list(cl))
            else:
                inst.soft.append((w, list(cl)))
        return inst

    def __iter__(self):
        # the clauses as `read_clauses` yields them, hard clauses first
        return chain(zip(repeat(None), self.hard), self.soft)

    def max_var_index(self):
        # a literal's variable index is the literal shifted right three
        # places, whatever its namespace, so the largest literal has it
        return max([max(cl) for _, cl in self if cl], default=0) >> 3

    def __eq__(self, other):
        return (isinstance(other, WcnfInstance)
                and self.hard == other.hard and self.soft == other.soft)


def _lit_to_dimacs(lit):
    if lit & 6:     # the namespace bits of the literal's variable
        raise ValueError("only problem variables may appear in WCNF output")
    return -(lit >> 3) if lit & 1 else lit >> 3


class _PackedTokens(dict):
    """Clause token -> packed literal, filled by one parse as tokens come,
    so that each distinct token packs to one int object: DIMACS n packs as
    mklit(mkvar(|n|), n < 0) would pack it.  The literal 0, a token that
    is not ``[+-]?[0-9]+`` and one that ``pb.digits_int`` refuses pack to 1,
    which no real literal is."""

    def __missing__(self, tok):
        try:
            n = pb.digits_int(tok) if _INT.fullmatch(tok) else 0
        except ValueError:
            n = 0
        lit = self[tok] = n << 3 if n > 0 else -n << 3 | 1
        return lit


def _number(tok, lineno):
    """pb.digits_int(tok), its error naming the line."""
    try:
        return pb.digits_int(tok)
    except ValueError as exc:
        raise ValueError("line %d: %s" % (lineno, exc)) from None


def read_clauses(text):
    """Yield each clause of a WCNF text as (weight, literals) in file order,
    weight None when hard; a malformed line raises ValueError naming it.
    The text is a str or an iterable of its lines, as str.splitlines()
    would give them, so that a file can be read a few lines at a time."""
    packed = _PackedTokens()
    top = None
    saw_clause = False
    lines = text.splitlines() if isinstance(text, str) else text
    for lineno, line in enumerate(lines, start=1):
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
            top = toks[4]
            if not (top.isdigit() and top.isascii()) or \
                    _number(top, lineno) < 1:
                raise ValueError("line %d: bad top weight" % lineno)
            top = _number(top, lineno)
            continue
        saw_clause = True
        # A clause line is checked in one order: its head ('h' or a weight),
        # its terminating 0, then its literals, packed through `packed`; only
        # a packing that yields 1 has its first bad token named.
        if head == "h":
            if top is not None:
                raise ValueError("line %d: 'h' clause in legacy format" % lineno)
            w = None
        elif not (head.isdigit() and head.isascii()):   # not '²' either
            raise ValueError("line %d: bad weight %r" % (lineno, head))
        else:
            w = _number(head, lineno)
            if w == 0:
                raise ValueError("line %d: zero-weight soft clause" % lineno)
            if w > MAX_WEIGHT:
                raise ValueError("line %d: weight exceeds 2^63-1" % lineno)
        if len(toks) < 2 or toks[-1] != "0":
            raise ValueError("line %d: clause not terminated by 0" % lineno)
        lits = list(map(packed.__getitem__, toks[1:-1]))
        if 1 in lits:
            tok = next(t for t in toks[1:-1] if packed[t] == 1)
            if _INT.fullmatch(tok):
                _number(tok, lineno)    # raises unless the literal is 0
                raise ValueError("line %d: literal 0 inside clause" % lineno)
            raise ValueError("line %d: bad literal %r" % (lineno, tok))
        yield (None if top and w >= top else w), lits   # top rules out 'h'


def parse_wcnf(text):
    return WcnfInstance.from_clauses(read_clauses(text))


def write_wcnf(inst, fh=None):
    """The instance as WCNF text, or, given a file, written to it line by
    line, so that the whole text is never built."""
    lines = (" ".join(["h" if w is None else str(w)] + [
        str(_lit_to_dimacs(lit)) for lit in cl] + ["0\n"]) for w, cl in inst)
    if fh is None:
        return "".join(lines)
    fh.writelines(lines)


def encode_to_pb(clauses, units=None):
    """Translate (weight, literals) pairs, from `read_clauses` or a
    WcnfInstance, to (constraints, objective, soft_info).  The clause terms
    come from `units`, a `_Units` table that the call fills, or else one of
    its own.

    The hard clauses come first, then the relaxed (non-unit) softs labelled
    _b1, _b2, ... in soft order, however the file interleaves the two.
    soft_info maps constraint position -> (label_var, weight) for relaxed
    softs.  Duplicate unit softs merge additively into the objective.
    """
    if units is None:
        units = _Units()
    hard, relaxed, labels = [], [], []
    objective = pb.Objective()
    for w, cl in clauses:
        if w is None:
            hard.append(pb.constraint_from_clause(cl, units))
            continue
        lits = list(dict.fromkeys(cl))
        if len(lits) == 1:
            objective.add_literal_term(w, pb.neg(lits[0]))
            continue
        labels.append((pb.mkvar(len(labels) + 1, pb.NS_AUX), w))
        lit = pb.mklit(labels[-1][0])
        relaxed.append(pb.constraint_from_clause(lits + [lit], units))
        objective.add_literal_term(w, lit)
    return hard + relaxed, objective, dict(enumerate(labels, len(hard)))


class _Units(dict):
    # literal -> the term (1, literal) that every clause holding it shares

    def __missing__(self, lit):
        term = self[lit] = (1, lit)
        return term


def opt_cost_bruteforce(inst, var_limit=22):
    """Exact optimum by enumeration over the variables that occur; None if
    no assignment satisfies the hard clauses."""
    vs = sorted({lit >> 1 for _, cl in inst for lit in cl},
                key=pb.var_sort_key)
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
