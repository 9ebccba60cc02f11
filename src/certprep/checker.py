"""Streaming checker for pseudo-Boolean reformulation proofs.

A proof certifies that a reformulated instance has the same optimum as the
original one (``output EQUIOPTIMAL``, the one output level).  The checker
replays the proof line by line against the PB translation of the original
instance, maintaining:

  * a map id -> live constraint, split into *core* (the current trusted
    reformulation) and *derived* (redundant helpers),
  * the current objective,
  * a ``pb.Propagator`` over the live constraints: it owns the id map, and
    its literal -> ids index both drives propagation and enumerates witness
    obligations.

The ``output`` step compares the core with the claimed output instance as
two sets of clause keys (``_key``): a clause's key is its terms tuple, which
the core's constraints already hold.  ``check_wcnf_proof`` encodes the
input, keys the output as it reads it, then replays the proof.

Objective steps are checked from their delta alone (see ``pb``): an
``obju diff`` carries it, an ``obju new`` is taken as the change from the
current objective, and a witness's objective obligation is built from
``Objective.delta`` over the witnessed variables; the objective is then
updated in place, so a step costs the size of its change.

Every propagation goes through that one engine: ``rup`` starts from its
root set, ``obju`` and a core ``delc`` do too restricted to the core, and a
witnessed ``red``/``delc`` propagates its premises once and resumes each
obligation from that fixpoint with only the negated target added.  The
engine scans each constraint a propagation touches once and then keeps its
slack as a counter, so a long constraint (such as the selector clauses over
objective literals that ``trim`` logs) costs its length once per
propagation, not once per false literal.

Step forms (one per line; ``*`` starts a comment, blank lines are skipped)::

    pseudo-Boolean proof version 2.0
    f <n>
    pol <rpn>              reverse-Polish cutting planes; tokens are
                           constraint ids, literals (axioms l >= 0), bare
                           integers, and + * d s.  * and d take the integer
                           from the top of the stack.
    rup <constraint> ;     addition by reverse unit propagation
    red <constraint> ; <witness>
                           addition by redundance with a substitution witness
    delc <id> [; <witness>]
                           deletion: unconditional for a derived id; a core
                           id leaves first and is then justified, by RUP or
                           by the witness, from the remaining core alone
    obju diff <terms> ;    objective update (relative / absolute form)
    obju new <terms> ;
    core id <id> ...       move derived constraints into the core
    output EQUIOPTIMAL
    conclusion NONE
    end pseudo-Boolean proof

Additions get consecutive ids continuing after the input constraints; only
pol/rup/red consume ids.  Every obligation must follow by unit propagation:
there are no subproofs.  Numbers are ASCII digits (``pb.is_digits``), of at
most ``pb.MAX_DIGITS`` digits past their leading zeros (``pb.digits_int``).

A core deletion is justified from the core alone, since a derived
constraint may rest on the very constraint being deleted.  Then every
solution of the smaller core extends to one of the old core at no higher
cost, and, by the invariant that ``rup``, ``pol`` and ``red`` keep, again to
one of core and derived together (the core/derived split of VeriPB).
"""

from . import pb
from .pb import HEADER, TRAILER

LEVELS = ("EQUIOPTIMAL",)


class ProofRejected(Exception):

    def __init__(self, lineno, message):
        super().__init__("line %d: %s" % (lineno, message))
        self.lineno = lineno
        self.message = message


class Verdict:

    def __init__(self, accepted, level=None, error=None, lineno=None):
        self.accepted = accepted
        self.level = level
        self.error = error
        self.lineno = lineno

    def __repr__(self):
        if self.accepted:
            return "<Verdict accepted %s>" % self.level
        return "<Verdict rejected: %s>" % self.error


def _key(c):
    # a terms tuple never equals a constraint: keys equal iff constraints do
    return c.terms if c.degree == 1 else c


class ProofChecker:

    def __init__(self, input_constraints, input_objective,
                 output_constraints=None, output_objective=None):
        self.input_constraints = list(input_constraints)   # until `f <n>`
        self.objective = input_objective.copy()   # from the preamble on
        self.output_keys = (None if output_constraints is None
                            else set(map(_key, output_constraints)))
        self.output_objective = output_objective
        self.lineno = 0
        self.state = "header"
        self.engine = pb.Propagator()
        self.constraints = self.engine.constraints
        self.core_ids = set()
        self.next_id = 1
        self.level = None

    # -- bookkeeping ---------------------------------------------------------

    def _err(self, msg):
        raise ProofRejected(self.lineno, msg)

    def _install(self, c, core=False):
        cid = self.next_id
        self.next_id += 1
        self.engine.add(cid, c)
        if core:
            self.core_ids.add(cid)
        return cid

    def _remove(self, cid):
        self.engine.remove(cid)
        self.core_ids.discard(cid)

    def _live(self, cid):
        c = self.constraints.get(cid)
        if c is None:
            self._err("constraint %d is not live" % cid)
        return c

    # -- cutting planes ------------------------------------------------------

    def _eval_pol(self, toks):
        stack = []
        for t in toks:
            if t == "+":
                second = self._pop_constraint(stack)
                first = self._pop_constraint(stack)
                stack.append(pb.add(first, second))
            elif t == "*":
                k = self._pop_factor(stack)
                stack.append(pb.multiply(self._pop_constraint(stack), k))
            elif t == "d":
                k = self._pop_factor(stack)
                stack.append(pb.divide(self._pop_constraint(stack), k))
            elif t == "s":
                stack.append(pb.saturate(self._pop_constraint(stack)))
            elif pb.is_digits(t):
                stack.append(pb.digits_int(t))
            else:
                stack.append(pb.literal_axiom(pb.parse_lit(t)))
        if len(stack) != 1:
            self._err("pol leaves %d items on the stack" % len(stack))
        return self._as_constraint(stack[0])

    def _pop_factor(self, stack):
        if not stack or not isinstance(stack[-1], int):
            self._err("pol: * and d need an integer on top of the stack")
        k = stack.pop()
        if k < 1:
            self._err("pol: factor must be positive")
        return k

    def _pop_constraint(self, stack):
        if not stack:
            self._err("pol: stack underflow")
        return self._as_constraint(stack.pop())

    def _as_constraint(self, item):
        return self._live(item) if isinstance(item, int) else item

    # -- redundance obligations -----------------------------------------------

    def _touched_ids(self, witness, only):
        ids = set()
        for v in witness:
            ids.update(self.engine.ids_with(v << 1))
            ids.update(self.engine.ids_with((v << 1) | 1))
        return ids if only is None else ids & only

    def _conflicts(self, extras, base=None, only=None):
        return self.engine.propagate(extras=extras, base=base,
                                     only=only) is None

    def _discharge(self, neg_c, base, target, only):
        """Vacuous or implicit-RUP discharge of one obligation.

        `base` is the fixpoint of the premises: the live constraints (those
        in `only`, when given) plus `neg_c`.
        """
        if target.is_trivial() or base is None:  # None: premises conflict
            return True
        return self._conflicts([neg_c, pb.negate(target)], base, only)

    def _check_witnessed(self, c, witness, only=None):
        """Obligations for adding c by redundance, or, with `only` the core,
        for deleting the core constraint c, which has already left it."""
        neg_c = pb.negate(c)
        base = self.engine.propagate(extras=[neg_c], only=only)
        for cid in sorted(self._touched_ids(witness, only)):
            target = pb.restrict(self.constraints[cid], witness)
            if not self._discharge(neg_c, base, target, only):
                self._err("witness obligation fails for constraint %d" % cid)
        self_target = pb.restrict(c, witness)
        if not self._discharge(neg_c, base, self_target, only):
            self._err("witness obligation fails for the introduced constraint")
        terms, const = self.objective.delta(witness)
        if terms:   # the objective must not grow: -delta >= 0
            target = pb.normalize([(-w, lit) for w, lit in terms], const)
            if not self._discharge(neg_c, base, target, only):
                self._err("witness obligation fails for the objective")

    # -- objective updates -----------------------------------------------------

    def _obju_direction_ok(self, target):
        if target.is_trivial():
            return True
        if self._conflicts([pb.negate(target)], only=self.core_ids):
            return True
        if target.terms:
            # scaled copy of a single core constraint (multiplication rule)
            for cid in self.engine.ids_with(target.terms[0][1]):
                if cid not in self.core_ids:
                    continue
                g = self.constraints[cid]
                if not g.terms or len(g.terms) != len(target.terms):
                    continue
                a0, t0 = g.terms[0][0], target.terms[0][0]
                if t0 % a0:
                    continue
                k = t0 // a0
                if k >= 1 and pb.multiply(g, k) == target:
                    return True
        return False

    def _apply_obju(self, terms, const):
        """Check that the core forces the change sum(terms) + const to be 0,
        as -delta >= 0 and delta >= 0, then apply it in place."""
        for target in (pb.normalize([(-w, lit) for w, lit in terms], const),
                       pb.normalize(terms, -const)):
            if not self._obju_direction_ok(target):
                self._err("objective update is not justified by the core")
        for w, lit in terms:
            self.objective.add_literal_term(w, lit)
        self.objective.constant += const

    # -- output section ---------------------------------------------------------

    def _check_output(self, level):
        if level not in LEVELS:
            self._err("unknown output level %r" % level)
        self.level = level
        out = self.output_keys
        if out is None:
            return  # no reformulated instance to compare against
        if {_key(self.constraints[i]) for i in self.core_ids} != out:
            self._err("core does not match the output instance")
        if self.objective != self.output_objective:
            self._err("objective does not match the output instance")

    # -- step dispatch ------------------------------------------------------------

    def feed(self, line):
        self.lineno += 1
        try:
            self._feed(line)
        except ProofRejected:
            raise
        except ValueError as exc:
            raise ProofRejected(self.lineno, str(exc))

    def _feed(self, line):
        toks = line.split()
        if not toks or toks[0] == "*":
            return
        if self.state == "header":
            if line.strip() != HEADER:
                self._err("missing proof header")
            self.state = "preamble"
            return
        if self.state == "preamble":
            if toks[0] != "f" or len(toks) != 2 or not pb.is_digits(toks[1]):
                self._err("expected 'f <n>' after the header")
            n = pb.digits_int(toks[1])
            if n != len(self.input_constraints):
                self._err("f %d does not match the %d input constraints"
                          % (n, len(self.input_constraints)))
            for c in self.input_constraints:
                self._install(c, core=True)
            self.input_constraints = None   # the engine holds them now
            self.state = "body"
            return
        if self.state == "body":
            self._body_step(toks)
            return
        if self.state == "post_output":
            if toks != ["conclusion", "NONE"]:
                self._err("expected 'conclusion NONE'")
            self.state = "post_conclusion"
            return
        if self.state == "post_conclusion":
            if toks != TRAILER.split():
                self._err("expected '%s'" % TRAILER)
            self.state = "done"
            return
        self._err("content after the proof trailer")

    def _body_step(self, toks):
        op = toks[0]
        if op == "pol":
            c = self._eval_pol(toks[1:])
            self._install(c)
        elif op == "rup":
            c, pos = pb.parse_constraint_tokens(toks, 1)
            self._expect_semi(toks, pos)
            if not self._conflicts([pb.negate(c)]):
                self._err("rup addition fails")
            self._install(c)
        elif op == "red":
            c, pos = pb.parse_constraint_tokens(toks, 1)
            if pos >= len(toks) or toks[pos] != ";":
                self._err("red: missing witness")
            witness, pos = pb.parse_witness_tokens(toks, pos + 1)
            if pos < len(toks):
                self._err("red: malformed trailer")
            self._check_witnessed(c, witness)
            self._install(c)
        elif op == "delc":
            if len(toks) < 2 or not pb.is_digits(toks[1]):
                self._err("delc needs a constraint id")
            cid = pb.digits_int(toks[1])
            c = self._live(cid)
            witness = None
            if len(toks) > 2:
                if toks[2] != ";":
                    self._err("delc: malformed witness")
                witness, pos = pb.parse_witness_tokens(toks, 3)
                if pos != len(toks):
                    self._err("delc: trailing tokens")
            core = cid in self.core_ids
            self._remove(cid)
            if core:    # justified from the remaining core alone
                only = (None if len(self.core_ids) == len(self.constraints)
                        else self.core_ids)     # no filter if all is core
                if witness is not None:
                    self._check_witnessed(c, witness, only)
                elif not self._conflicts([pb.negate(c)], only=only):
                    self._err("deleted core constraint is not rederivable")
        elif op == "obju":
            if len(toks) < 2 or toks[1] not in ("diff", "new"):
                self._err("obju needs 'diff' or 'new'")
            terms, const, pos = pb.parse_signed_terms(toks, 2)
            if pos < len(toks) and toks[pos] == ";":
                pos += 1
            if pos != len(toks):
                self._err("obju: trailing tokens")
            if toks[1] == "new":    # the change from the current objective
                terms += [(-c, v << 1) for v, c in self.objective.coeffs.items()]
                const -= self.objective.constant
            self._apply_obju(terms, const)
        elif op == "core":
            if len(toks) < 3 or toks[1] != "id":
                self._err("expected 'core id <id> ...'")
            for t in toks[2:]:
                if not pb.is_digits(t):
                    self._err("bad constraint id %r" % t)
                cid = pb.digits_int(t)
                self._live(cid)
                self.core_ids.add(cid)
        elif op == "output":
            if len(toks) != 2:
                self._err("expected 'output <level>'")
            self._check_output(toks[1])
            self.state = "post_output"
        else:
            self._err("unknown step %r" % op)

    def _expect_semi(self, toks, pos):
        if toks[pos:] != [";"]:
            self._err("expected ';' terminator")

    # -- entry points -----------------------------------------------------------------

    def finish(self):
        self.lineno += 1
        if self.state != "done":
            self._err("truncated proof")
        return self.level

    def run(self, proof_lines):
        """Feed an iterable of lines, then finish; returns a Verdict."""
        try:
            for line in proof_lines:
                self.feed(line)
            level = self.finish()
        except ProofRejected as exc:
            return Verdict(False, error=str(exc), lineno=exc.lineno)
        return Verdict(True, level=level)


def check_proof(input_constraints, input_objective, proof_lines,
                output_constraints=None, output_objective=None):
    """Run the checker over an iterable of lines; returns a Verdict."""
    return ProofChecker(input_constraints, input_objective,
                        output_constraints, output_objective).run(proof_lines)


def check_wcnf_proof(input_clauses, proof_lines, output_clauses):
    """Encode the input, key the output, then replay the proof.  Each
    instance is a WcnfInstance or a `wcnf.read_clauses` stream; the output
    is kept only as its keys and objective while the proof replays.  Both
    encodings fill one term table, so the output's keys hold the input's
    (1, literal) terms."""
    from .wcnf import _Units, encode_to_pb

    units = _Units()
    checker = ProofChecker(*encode_to_pb(input_clauses, units),
                           *encode_to_pb(output_clauses, units))
    del units       # the replay needs no term table
    return checker.run(proof_lines)
