"""Pseudo-Boolean core: literals, linear constraints, cutting-planes rules.

Variables and literals are plain ints.  A variable packs a 1-based index and a
namespace tag (``x`` for problem variables, ``_b`` for auxiliary variables
introduced along the way, ``_t`` for short-lived renaming temporaries); a
literal is the variable shifted left once with the negation flag in bit 0.
Keeping everything integral makes assignments and witnesses cheap dicts.

Constraints are kept in normalized form: distinct variables, positive
coefficients, non-negative degree, terms sorted by (namespace, index).
For literals without a namespace bit that is value order, so a clause of
problem literals is sorted by value, and so is the part before the label of
a relaxed soft clause.  An encoding builds its clause terms through one
table of the terms (1, literal), so a literal costs one such tuple per
encoding however many clauses hold it.

The proof's first and last lines, ``HEADER`` and ``TRAILER``, are defined
here: the writer and the checker share them through this kernel alone.

Objective changes travel as deltas: signed (coef, literal) terms plus a
constant, the payload of an ``obju diff`` step.  ``Objective.delta`` gives
the delta of a witness substitution from the witnessed variables alone, and
a delta's two proof obligations (it is >= 0 and <= 0 under the core) are
``normalize(terms, -const)`` and the same with the terms negated; since
``normalize`` is canonical, variables outside the delta need not appear.

Unit propagation has one engine, ``Propagator``, shared by the checker and
the preprocessor's probing.  It owns the live constraints (id -> constraint),
a literal -> ids occurrence index and the *root set*: the ids whose largest
coefficient exceeds sum(coef) - degree, or with sum(coef) < degree, i.e. the
only ones that conflict or propagate with nothing assigned.  ``add`` and
``remove`` keep the constraints and the root set in step.  The index is
built in one pass over the constraints when it is first read (``occ``,
``ids_with`` or ``propagate``), and kept in step from then on, so a run
whose passes never read it, such as duplicate and tautology removal alone,
never pays for it.  An entry of the index is a list of ids while it holds
at most ``_LIST_MAX`` of them and a set once it grows past that: most
literals occur a few times, and a small list costs a fraction of a set,
while the few hub literals keep removal constant-time.  A reader that needs
set algebra wraps the entry in ``set``.  A propagation either starts from
the root set or resumes from a base assignment that is already a fixpoint
of the same constraints; it then makes assumption literals true, scans a
few transient extra constraints (a negated premise and target), and
afterwards reaches a constraint only through a newly false literal, so its
cost follows the constraints actually touched rather than the database
size.

Slack counters, as in RoundingSat (Elffers & Nordström, IJCAI 2018), keep
long constraints from being rescanned per false literal; a clause is the
case where every coefficient and the degree are 1.  False literals wait in
a queue.  The first time a propagation touches a constraint (root set,
extra, or an occurrence of a literal taken from the queue) it scans it once:
that gives the slack over every literal false at that moment, queued or
not, and the queue length then.  A literal taken from the queue later
lowers the counter by its coefficient only if it was queued at or after
that point, so nothing is counted twice.  The constraint is scanned again
only when the counter falls below the largest coefficient still unassigned
(for a clause: below 1), since only then can it conflict or propagate.  A
call therefore costs the length of the constraints it touches plus one step
per false occurrence.  The counters belong to the call; ``add`` and
``remove`` keep nothing per constraint beyond the index and the root set.
``unit_propagate`` and ``rup_check`` are thin wrappers over a throwaway
engine.
"""

from functools import reduce
from operator import or_

HEADER = "pseudo-Boolean proof version 2.0"
TRAILER = "end pseudo-Boolean proof"

NS_USER = 0
NS_AUX = 1
NS_TMP = 2

_NS_PREFIX = {NS_USER: "x", NS_AUX: "_b", NS_TMP: "_t"}


def mkvar(index, ns=NS_USER):
    return (index << 2) | ns


def var_index(v):
    return v >> 2


def var_ns(v):
    return v & 3


def mklit(v, negated=False):
    return (v << 1) | (1 if negated else 0)


def neg(lit):
    return lit ^ 1


def var_sort_key(v):
    # problem variables first (by index), then _b, then _t
    return (v & 3, v >> 2)


def lit_sort_key(lit):
    return (lit >> 1 & 3, lit >> 3, lit & 1)


def fmt_var(v):
    return "%s%d" % (_NS_PREFIX[v & 3], v >> 2)


def fmt_lit(lit):
    return ("~" if lit & 1 else "") + fmt_var(lit >> 1)


def is_digits(tok):
    """True if `tok` is a non-empty run of ASCII digits, the one number form
    of the proof format; ``str.isdigit`` alone also takes '٣' and '²'."""
    return tok.isascii() and tok.isdigit()


MAX_DIGITS = 4300   # CPython's default limit on the digits int() reads


def digits_int(tok):
    """int(tok) for a number token already checked to be ASCII digits, with
    at most a sign in front.  Leading zeros do not count: only a value of
    more than MAX_DIGITS digits is refused, by a ValueError of its own where
    int() would raise Python's."""
    if len(tok) <= MAX_DIGITS:
        return int(tok)
    sign = tok[0] if tok[0] in "+-" else ""
    body = tok[len(sign):].lstrip("0") or "0"
    if len(body) > MAX_DIGITS:
        raise ValueError("number of %d digits (at most %d)"
                         % (len(body), MAX_DIGITS))
    return int(sign + body)


def parse_lit(text):
    """Parse ``x3``, ``~x3``, ``_b2``, ``_t1`` ... into a literal int."""
    s = text
    negated = s.startswith("~")
    if negated:
        s = s[1:]
    if s.startswith("_b"):
        ns, body = NS_AUX, s[2:]
    elif s.startswith("_t"):
        ns, body = NS_TMP, s[2:]
    elif s.startswith("x"):
        ns, body = NS_USER, s[1:]
    else:
        raise ValueError("bad literal %r" % text)
    if not is_digits(body):
        raise ValueError("bad literal %r" % text)
    index = digits_int(body)
    if index < 1:
        raise ValueError("bad literal %r" % text)
    return mklit(mkvar(index, ns), negated)


class LinearConstraint:
    """A normalized inequality  sum(coef * lit) >= degree."""

    __slots__ = ("terms", "degree")

    def __init__(self, terms, degree):
        self.terms = terms
        self.degree = degree

    def __eq__(self, other):
        return (isinstance(other, LinearConstraint)
                and self.terms == other.terms and self.degree == other.degree)

    def __hash__(self):
        return hash((self.terms, self.degree))

    def __repr__(self):
        return "<%s>" % fmt_constraint(self)

    def is_trivial(self):
        return self.degree == 0

    def vars(self):
        return [lit >> 1 for _, lit in self.terms]


def normalize(raw_terms, degree):
    """Build a LinearConstraint from possibly signed, unsorted, repeated terms.

    Negated literals are rewritten through ~x = 1 - x, coefficients on the
    same variable are merged, zero coefficients dropped, and a negative
    degree clamped to 0 (the constraint is then trivially true).
    """
    acc = {}
    deg = degree
    for coef, lit in raw_terms:
        v = lit >> 1
        if lit & 1:
            acc[v] = acc.get(v, 0) - coef
            deg -= coef
        else:
            acc[v] = acc.get(v, 0) + coef
    terms = []
    for v in sorted(acc, key=var_sort_key):
        c = acc[v]
        if c > 0:
            terms.append((c, v << 1))
        elif c < 0:
            terms.append((-c, (v << 1) | 1))
            deg -= c
    if deg < 0:
        deg = 0
    return LinearConstraint(tuple(terms), deg)


def constraint_from_clause(lits, units=None):
    """Clause -> PB: one coefficient-1 term per *distinct* literal, degree 1.

    With every variable distinct that is already the normalized form; any
    other clause (a repeated literal, a complementary pair) is normalized.
    The terms of the first kind are looked up in ``units`` when it is
    given: a dict literal -> (1, literal) holding every literal of the
    clause.
    """
    if len({lit >> 1 for lit in lits}) == len(lits):
        # Literals without a namespace bit sort by value, and before any
        # literal with one.  So a clause needs lit_sort_key (a call per
        # literal) only when a literal but the last carries a bit; the last
        # literal of a relaxed soft clause is its label.
        if not reduce(or_, lits, 0) & 6:
            lits = sorted(lits)
        elif not reduce(or_, lits[:-1], 0) & 6:
            lits = sorted(lits[:-1]) + [lits[-1]]
        else:
            lits = sorted(lits, key=lit_sort_key)
        if units is None:
            return LinearConstraint(tuple([(1, lit) for lit in lits]), 1)
        return LinearConstraint(tuple(map(units.__getitem__, lits)), 1)
    return normalize([(1, lit) for lit in dict.fromkeys(lits)], 1)


def literal_axiom(lit):
    # lit >= 0, trivially true; only ever a transient pol operand
    return LinearConstraint(((1, lit),), 0)


def negate(c):
    """Integer negation: not(sum a*l >= b)  <=>  sum a*~l >= sum(a) - b + 1;
    flipping every literal keeps a normalized constraint's term order."""
    total = sum(coef for coef, _ in c.terms)
    return LinearConstraint(tuple((coef, lit ^ 1) for coef, lit in c.terms),
                            max(0, total - c.degree + 1))


def add(c1, c2):
    return normalize(list(c1.terms) + list(c2.terms), c1.degree + c2.degree)


def multiply(c, k):
    if k < 1:
        raise ValueError("multiplier must be positive")
    return LinearConstraint(tuple((coef * k, lit) for coef, lit in c.terms),
                            c.degree * k)


def divide(c, k):
    if k < 1:
        raise ValueError("divisor must be positive")
    return LinearConstraint(
        tuple((-(-coef // k), lit) for coef, lit in c.terms),
        -(-c.degree // k))


def saturate(c):
    d = c.degree
    return LinearConstraint(
        tuple((min(coef, d), lit) for coef, lit in c.terms if min(coef, d)),
        d)


def restrict(c, witness):
    """Apply a substitution {var: 0 | 1 | literal} to a normalized constraint.

    A term fixed to a constant leaves, lowering the degree if it became
    true; what remains of a normalized constraint is still normalized once
    the degree is clamped at 0.  Only a literal image can repeat a variable
    or flip a sign, so only then are the terms merged and sorted again.
    """
    raw = []
    deg = c.degree
    renamed = False
    for coef, lit in c.terms:
        img = witness.get(lit >> 1)
        if img is None:
            raw.append((coef, lit))
        elif img == 0 or img == 1:
            if img ^ (lit & 1):  # literal became true
                deg -= coef
        else:
            raw.append((coef, img ^ 1 if lit & 1 else img))
            renamed = True
    if renamed:
        return normalize(raw, deg)
    return LinearConstraint(tuple(raw), max(deg, 0))


class Objective:
    """Linear objective in canonical variable form: sum(coef * var) + constant.

    Coefficients may be negative (a weight w on ~x contributes -w*x + w).
    """

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs=None, constant=0):
        self.coeffs = dict(coeffs) if coeffs else {}
        self.constant = constant

    def __eq__(self, other):
        return (isinstance(other, Objective)
                and self.coeffs == other.coeffs
                and self.constant == other.constant)

    def __repr__(self):
        return "<obj %s>" % fmt_objective(self)

    def copy(self):
        return Objective(self.coeffs, self.constant)

    def add_literal_term(self, weight, lit):
        """Add weight*lit (weight may be negative, lit may be negated)."""
        v = lit >> 1
        if lit & 1:
            self.coeffs[v] = self.coeffs.get(v, 0) - weight
            self.constant += weight
        else:
            self.coeffs[v] = self.coeffs.get(v, 0) + weight
        if self.coeffs[v] == 0:
            del self.coeffs[v]

    def coef(self, v):
        return self.coeffs.get(v, 0)

    def value(self, assign):
        total = self.constant
        for v, coef in self.coeffs.items():
            if assign.get(v, 0):
                total += coef
        return total

    def delta(self, witness):
        """What the substitution {var: 0 | 1 | literal} adds to the objective,
        as (signed (coef, literal) terms, constant); only the witnessed
        variables are read, and images are not substituted again."""
        terms = []
        const = 0
        for v, img in witness.items():
            c = self.coeffs.get(v)
            if c is None:
                continue
            terms.append((-c, v << 1))
            if img == 1:
                const += c
            elif img != 0:
                terms.append((c, img))
        return terms, const

    def literal_form(self):
        """Split into ((weight, lit), ...) with positive weights, plus constant.

        A negative coefficient c on x reads as |c| * ~x shifted by c.
        """
        terms = []
        const = self.constant
        for v in sorted(self.coeffs, key=var_sort_key):
            c = self.coeffs[v]
            if c > 0:
                terms.append((c, v << 1))
            else:
                terms.append((-c, (v << 1) | 1))
                const += c
        return tuple(terms), const


_NO_IDS = ()
_SETTLED = (0, float("inf"), 0, None)   # no later literal is queued after it
_LIST_MAX = 8   # an index entry holds this many ids in a list, more in a set


def _index(occ, cid, terms):
    """Enter id `cid` under each literal of `terms` in the index `occ`."""
    for _, lit in terms:
        ids = occ.get(lit)
        if ids is None:
            occ[lit] = [cid]
        elif type(ids) is set:
            ids.add(cid)
        elif len(ids) < _LIST_MAX:
            ids.append(cid)
        else:
            occ[lit] = {*ids, cid}


def _propagates_at_root(c):
    """True if c conflicts or forces a literal with nothing assigned."""
    slack = sum(coef for coef, _ in c.terms) - c.degree
    return slack < 0 or any(coef > slack for coef, _ in c.terms)


class Propagator:
    """Queue-driven unit propagation with per-call slack counters (see
    above).

    ``constraints`` (id -> constraint) and ``roots`` are kept in step by
    ``add`` and ``remove``; so is ``occ`` (literal -> its ids, a list of at
    most ``_LIST_MAX`` or else a set, no id twice, empty entries dropped)
    once its first read has built it.  Callers may read them but change
    them only through those two, and must not iterate an entry while
    calling either.  Ids are non-negative ints: within a call, extras are
    keyed by negative ones.
    """

    __slots__ = ("constraints", "_occ", "roots")

    def __init__(self, constraints=()):
        self.constraints = {}
        self._occ = None        # the index, None until its first read
        self.roots = set()
        for cid, c in enumerate(constraints):
            self.add(cid, c)

    @property
    def occ(self):
        occ = self._occ
        if occ is None:
            occ = self._occ = {}
            for cid, c in self.constraints.items():
                _index(occ, cid, c.terms)
        return occ

    def add(self, cid, c):
        self.constraints[cid] = c
        terms = c.terms
        if self._occ is not None:
            _index(self._occ, cid, terms)
        # degree <= 1 with two unit terms: the slack is at least 1, and no
        # term's coefficient exceeds it, since another term makes up for it
        if (c.degree <= 1 and len(terms) > 1 and terms[0][0] == 1
                and terms[1][0] == 1):
            return
        if _propagates_at_root(c):
            self.roots.add(cid)

    def remove(self, cid):
        c = self.constraints.pop(cid)
        occ = self._occ
        if occ is not None:
            for _, lit in c.terms:
                ids = occ[lit]
                ids.remove(cid)
                if not ids:
                    del occ[lit]
        self.roots.discard(cid)
        return c

    def ids_with(self, lit):
        occ = self._occ
        return (self.occ if occ is None else occ).get(lit, _NO_IDS)

    def propagate(self, assumptions=(), extras=(), base=None, only=None):
        """UP fixpoint as {var: value}, or None on conflict.

        `assumptions` are literals made true first; `extras` are transient
        constraints, scanned up front and then reached through a local
        index.  With `only` given, every id outside it is ignored.  Without
        `base` the root set is scanned up front; a `base` must already be a
        fixpoint of the constraints so filtered, which is why the extras it
        was computed with must be passed again.

        The slack counters live in a record per constraint touched, made by
        its scan and dropped with the call: [slack, queue length at the
        scan, largest coefficient left unassigned, {literal: coefficient}
        or None when that coefficient is 1].  A popped literal lowers the
        slack only if it was queued at or after the scan, by at most that
        largest coefficient, so the slack never falls below 0 between
        scans; a rescan comes when it falls below that coefficient.  Every
        constraint with nothing left unassigned shares the record
        ``_SETTLED``, since no literal queued later can be in it.
        """
        assign = dict(base) if base else {}
        false = []          # the queue: literals made false, in order
        for lit in assumptions:
            want = (lit & 1) ^ 1
            have = assign.get(lit >> 1)
            if have is None:
                assign[lit >> 1] = want
                false.append(lit ^ 1)
            elif have != want:
                return None
        constraints = self.constraints
        occ = self.occ
        records = {}        # id, or ~position for an extra -> its record
        xocc = {}
        for k, c in enumerate(extras):
            for _, lit in c.terms:
                xocc.setdefault(lit, []).append(~k)
        scan = [~k for k in range(len(extras))]
        if base is None:
            scan.extend(cid for cid in self.roots
                        if only is None or cid in only)
        pos = 0
        while True:
            for key in scan:
                c = constraints[key] if key >= 0 else extras[~key]
                slack = -c.degree
                pending = None
                for coef, lit in c.terms:
                    val = assign.get(lit >> 1)
                    if val is None:
                        slack += coef
                        if pending is None:
                            pending = [(coef, lit)]
                        else:
                            pending.append((coef, lit))
                    elif val != (lit & 1):
                        slack += coef
                if slack < 0:
                    return None
                queued = len(false)     # what this scan's slack counted
                top = 0
                if pending:
                    for coef, lit in pending:
                        if coef > slack:
                            assign[lit >> 1] = (lit & 1) ^ 1
                            false.append(lit ^ 1)
                        elif coef > top:
                            top = coef
                if top:
                    records[key] = [slack, queued, top,
                                    {lit: coef for coef, lit in pending}
                                    if top > 1 else None]
                else:
                    records[key] = _SETTLED
            if pos == len(false):
                return assign
            lit = false[pos]
            pos += 1
            ids = occ.get(lit, ())
            if only is not None:
                ids = [cid for cid in ids if cid in only]
            if lit in xocc:
                ids = [*ids, *xocc[lit]]
            scan = []
            for key in ids:
                if key not in records:
                    scan.append(key)
                    continue
                rec = records[key]
                if rec[1] < pos:            # queued after its scan
                    slack = rec[0] - (rec[3][lit] if rec[3] else 1)
                    if slack < rec[2]:
                        scan.append(key)
                    else:
                        rec[0] = slack


def unit_propagate(constraints, assign=None):
    """Propagate to fixpoint; return the extended assignment or None on conflict.

    A constraint with slack < 0 is conflicting; an unassigned literal whose
    coefficient exceeds the slack must be true.  Runs a throwaway Propagator
    with `assign` as assumptions.
    """
    return Propagator(constraints).propagate(_assumptions(assign))


def rup_check(premises, target, assign=None):
    """Reverse unit propagation: premises plus not(target) propagate to conflict."""
    return Propagator(premises).propagate(
        _assumptions(assign), extras=(negate(target),)) is None


def _assumptions(assign):
    return [(v << 1) | (val ^ 1) for v, val in assign.items()] if assign else ()


# ---------------------------------------------------------------------------
# text form


def fmt_constraint(c):
    parts = ["%+d %s" % (coef, fmt_lit(lit)) for coef, lit in c.terms]
    parts.append(">= %d" % c.degree)
    return " ".join(parts)


def fmt_objective(obj):
    terms, const = obj.literal_form()
    parts = ["%+d %s" % (w, fmt_lit(lit)) for w, lit in terms]
    if const or not parts:
        parts.append("%+d" % const)
    return " ".join(parts)


def fmt_witness(witness):
    parts = []
    for v in sorted(witness, key=var_sort_key):
        img = witness[v]
        txt = str(img) if img in (0, 1) else fmt_lit(img)
        parts.append("%s -> %s" % (fmt_var(v), txt))
    return " ".join(parts)


def _parse_int(tok):
    if not is_digits(tok[1:] if tok[0] in "+-" else tok):
        raise ValueError("expected integer, got %r" % tok)
    return digits_int(tok)


def parse_constraint_tokens(toks, pos=0):
    """Parse ``[+|-]coef lit ... >= degree`` starting at toks[pos].

    Returns (constraint, next position).  The result is normalized, so signed
    coefficients and repeated variables in the text are accepted.
    """
    raw = []
    n = len(toks)
    while pos < n and toks[pos] != ">=":
        if pos + 1 >= n:
            raise ValueError("truncated constraint")
        coef = _parse_int(toks[pos])
        lit = parse_lit(toks[pos + 1])
        raw.append((coef, lit))
        pos += 2
    if pos >= n:
        raise ValueError("constraint missing '>='")
    pos += 1
    if pos >= n:
        raise ValueError("constraint missing degree")
    degree = _parse_int(toks[pos])
    return normalize(raw, degree), pos + 1


def parse_signed_terms(toks, pos=0):
    """Parse ``[+|-]w lit ... [+|-]const`` (obju payload) up to end or ';'.

    Returns (list of (weight, lit), constant, next position).
    """
    terms = []
    const = 0
    n = len(toks)
    while pos < n and toks[pos] != ";":
        w = _parse_int(toks[pos])
        if pos + 1 < n and toks[pos + 1] != ";":
            try:
                lit = parse_lit(toks[pos + 1])
            except ValueError:
                const += w
                pos += 1
                continue
            terms.append((w, lit))
            pos += 2
        else:
            const += w
            pos += 1
    return terms, const, pos


def parse_witness_tokens(toks, pos=0):
    """Parse ``var -> {0|1|lit} ...`` up to end or ';'; returns (dict, next pos)."""
    witness = {}
    n = len(toks)
    while pos < n and toks[pos] != ";":
        if pos + 2 >= n or toks[pos + 1] != "->":
            raise ValueError("bad witness near %r" % toks[pos])
        v = parse_lit(toks[pos])
        if v & 1:
            raise ValueError("witness domain must be variables: %r" % toks[pos])
        v >>= 1
        img_tok = toks[pos + 2]
        if img_tok == "0":
            img = 0
        elif img_tok == "1":
            img = 1
        else:
            img = parse_lit(img_tok)
        witness[v] = img
        pos += 3
    return witness, pos
