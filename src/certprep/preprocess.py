"""Certified WCNF simplification pipeline.

The preprocessor rewrites a weighted-CNF instance while logging, step by
step, a proof that the rewrite preserves the optimal cost.  It works in five
stages: encode the instance into PB form, simplify the clause-level view
(units, duplicates, tautologies, subsumption, blocked clauses), switch to
the clause+objective view, run the objective-aware techniques, and finally
fold the accumulated objective constant into a fresh variable and rename
everything back into plain problem variables.

Invariant kept throughout: between technique applications the live clause
map of this module equals, as PB constraints, the core set of the emitted
proof, and ``self.objective`` equals the proof objective.  Every deletion
recipe below was chosen so that the checker can discharge its obligations
with unit propagation alone, a core deletion's from the remaining core
alone; the comments on the trickier ones record which live constraint
closes each obligation.

In the WCNF phase a clause is soft exactly when its last literal is
internal, and that literal's variable is its label: no input literal is
internal, terms sort by namespace, stage 2 installs only ``fix_literal``'s
clauses, and only stage 4 makes internal variables; from then on every
clause is hard.  The store is the engine's constraints, the one copy of
each clause.  Clauses enter it through ``_install`` and leave through
``_remove_clause``, which logs the ``delc`` and retires a soft label.  An
id leaves the proof only through ``_delc``, so the proof's deletions
(``deleted``) are the run's change record: each WCNF-phase change ends in one.

Every pass but the one-shot oracle passes ``trim`` and ``harden`` has one
shape, a row of ``_WORKLISTS`` drained by ``_drain``: its candidates
(clause ids, literals or variables), their sort key, a test that applies
one candidate, and the hooks that a changed clause and a changed objective
coefficient call.  Each pass keeps a heap of the candidates it still has to
test (the touched-variable queue of SatELite, Een & Biere 2005), and pops
them in the order a scan that restarts after every application would test
them, so it applies what that scan would.  A candidate that tests "not
applicable" leaves the heap; ``_install``, ``_uninstall`` and
``_update_objective`` call every list's hooks.

A precise hook pushes back exactly the candidates whose test reads the
change: ``dup`` the head of a changed group, ``up``, ``taut`` and ``empty``
a new clause they can accept, ``sub``, ``bce``, ``ssr``, ``sle``, ``bve``
and ``lm`` the clauses or variables near it.  The other passes (``fle``,
``impl``, ``eql``, ``gsle``, ``bva``, ``am1``, ``bcr``, ``sbl``) read more
than such a hook would track, so their hook, ``_restart``, marks the list
stale on any change, and ``_drain`` refills a stale list with every
candidate before it pops.  That replays the restarting scan, yet a pass
with no change since its last drain tests nothing.

Invariant: a candidate absent from a list that is not stale is known not
to apply (a stale list counts as holding every candidate).  The lists live
for one stage: they are filled with every candidate when the stage starts
(for stage 4, right after the objective-centric switch drops every soft
label at once) and dropped when it ends.
"""

import heapq
import io
from itertools import chain

from . import pb
from .pb import (LinearConstraint, Objective, constraint_from_clause,
                 mklit, mkvar, neg)
from .wcnf import MAX_WEIGHT, WcnfInstance, WcnfView, encode_to_pb
from .writer import ProofWriter

STAGE2_ORDER = ("dup", "taut", "up", "empty", "sub", "bce")
STAGE4_ORDER = ("up", "sub", "ssr", "fle", "impl", "eql", "sle", "gsle",
                "bve", "bva", "am1", "bcr", "lm", "sbl", "trim", "harden")

# bva, sbl, trim and harden are opt-in: they are sound but tend to grow or
# reshape instances in ways the default schedule should not.
DEFAULT_TECHNIQUES = ("dup", "taut", "up", "empty", "sub", "bce",
                      "ssr", "fle", "impl", "eql", "sle", "gsle",
                      "bve", "am1", "bcr", "lm")


# Past either budget trim or harden gives up.  The most work one solve has
# been seen to need is 64,305, on the benchmark's large-light ll0 with the
# defaults plus trim,harden.
ORACLE_CONFLICTS = 20000    # conflicts per oracle
ORACLE_WORK = 10 ** 7       # propagation work per solve (see sat.py)


class Config:
    """What the CLI selects: the techniques to run and the cap on rounds
    per stage."""

    def __init__(self, techniques=DEFAULT_TECHNIQUES, rounds=5):
        names = set(techniques)
        unknown = names - set(STAGE2_ORDER) - set(STAGE4_ORDER)
        if unknown:
            raise ValueError("unknown technique(s): %s" % ", ".join(sorted(unknown)))
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        self.stage2 = tuple(n for n in STAGE2_ORDER if n in names)
        self.stage4 = tuple(n for n in STAGE4_ORDER if n in names)
        self.rounds = rounds

    @classmethod
    def from_flag(cls, text, **kw):
        """Build from a comma-separated technique list ('' = none, None =
        the default set)."""
        if text is None:
            return cls(**kw)
        return cls(tuple(t for t in text.split(",") if t), **kw)


def _unit(lit):
    return constraint_from_clause([lit])


def _resolvents(sides_a, sides_b):
    """How many pairs in `sides_a` x `sides_b` clash on no literal: the
    non-tautological resolvents on a variable, each side given without it."""
    count = 0
    for a in sides_a:
        clash = {neg(l) for l in a}
        for b in sides_b:
            if clash.isdisjoint(b):
                count += 1
    return count


class _Worklist:
    """The candidates one pass still has to test, smallest sort key first
    (`key` None: the candidate is its own key), with the pass's test and the
    hooks that push candidates back after a change or mark the list stale
    (see the module docstring).  It starts with every candidate of `p`."""

    __slots__ = ("candidates", "key", "test", "on_clause", "on_coef",
                 "heap", "queued", "stale")

    def __init__(self, p, candidates, key, test, on_clause, on_coef):
        self.candidates = candidates
        self.key = key
        self.test = test
        self.on_clause = on_clause
        self.on_coef = on_coef
        self.fill(p)

    def fill(self, p):
        """Hold every candidate of `p` and nothing else."""
        self.queued = set(self.candidates(p))
        if self.key is None:
            self.heap = list(self.queued)
        else:
            self.heap = [(self.key(c), c) for c in self.queued]
        heapq.heapify(self.heap)
        self.stale = False

    def push(self, c):
        if c not in self.queued:
            self.queued.add(c)
            heapq.heappush(self.heap, c if self.key is None
                           else (self.key(c), c))

    def extend(self, cs):
        for c in cs:
            self.push(c)

    def pop(self):
        item = heapq.heappop(self.heap)
        c = item if self.key is None else item[1]
        self.queued.discard(c)
        return c


def _restart(self, wl, *change):
    """The hook of a pass whose test reads more than a precise hook would
    track: any clause or coefficient change marks its list stale."""
    wl.stale = True


def _on_each_var(on_coef):
    """A clause hook for a pass whose candidates are variables: a changed
    clause counts as a change on each of its variables."""
    def on_clause(self, wl, cid, c, added):
        for _, lit in c.terms:
            on_coef(self, wl, lit >> 1)
    return on_clause


def _clauses_where(accepts):
    """The candidates of a pass whose test can accept only the clauses
    `accepts` holds for, a property fixed when the clause is installed."""
    def candidates(self):
        return [cid for cid in self.clauses if accepts(self, cid)]
    return candidates


def _on_new(accepts):
    """The clause hook of such a pass: a new clause it can accept is
    pushed, and a removal makes no other clause acceptable."""
    def on_clause(self, wl, cid, c, added):
        if added and accepts(self, cid):
            wl.push(cid)
    return on_clause


def _dup_key(c):
    """dup's group key: the clause's terms but its soft label (dup runs in
    the WCNF phase alone)."""
    terms = c.terms
    return terms[:-1] if terms and terms[-1][1] & 6 else terms


def _problem_clause(clause):
    """A (weight, literals) input clause, refused if a literal is internal:
    the encoding's labels are fresh only among problem variables."""
    if any(l & 6 for l in clause[1]):
        raise ValueError("internal variable in an input clause")
    return clause


def _drain(name):
    """The worklist pass `name`: test the pending candidates smallest first
    (after refilling a stale list with every candidate) and apply each one
    that applies, keeping it pending since it may apply again; it returns
    whether anything applied."""
    def run(self):
        wl = self.worklists[name]
        changed = False
        while True:
            if wl.stale:
                wl.fill(self)
            if not wl.heap:
                return changed
            c = wl.pop()
            if wl.test(self, c):
                wl.push(c)
                changed = True
    return run


class Infeasible(Exception):
    """The proof derived 0 >= 1; carries the conflicting constraint id."""

    def __init__(self, cid):
        super().__init__("hard clauses are unsatisfiable")
        self.cid = cid


class Preprocessor:
    """One pipeline run over a single instance.

    The instance is a WcnfInstance or any other iterable that yields its
    (weight, literals) clauses afresh on each pass, not an iterator (a
    TypeError): the constructor encodes one pass, and the output of a run
    that changed nothing is one more.
    With ``sink=None`` no proof text is produced (id bookkeeping only);
    pass a file-like sink to stream the proof.  ``deleted``, kept by
    ``_delc`` alone, the one deletion path, is the run's change record.
    """

    def __init__(self, instance, config=None, sink=None):
        if iter(instance) is instance:
            raise TypeError("an iterator yields the instance only once")
        self.cfg = config if config is not None else Config()
        self.writer = ProofWriter(sink)
        cons, objective = encode_to_pb(map(_problem_clause, instance))
        self.writer.begin(len(cons))
        self.objective = objective
        self.engine = pb.Propagator()
        self.clauses = self.engine.constraints  # cid -> clause, = proof core
        self.worklists = {}     # pass name -> _Worklist, during a stage
        self.groups = None      # dup's groups, while dup has a worklist
        self.closures = {}      # start literals -> _up_closure result
        # ids deleted from the proof; between steps, every other id below
        # writer.next_id is a live core constraint
        self.deleted = set()
        self.phase = "wcnf"
        for cid, c in enumerate(cons, 1):
            self._install(cid, c)
        # the relaxed softs come last, labelled _b1, _b2, ... in order
        self.next_aux = 1 + pb.var_index(cons and self._label(len(cons)) or 0)
        self.counts = {}
        self.cap_hit = False
        self.source = instance

    # ------------------------------------------------------------------
    # bookkeeping

    def _install(self, cid, c):
        """Add clause `cid`, a soft one with its label last.  The engine's
        constraint is the one copy of the clause."""
        self.engine.add(cid, c)
        self.closures.clear()
        for wl in self.worklists.values():
            wl.on_clause(self, wl, cid, c, True)

    def _uninstall(self, cid):
        self.closures.clear()
        c = self.engine.remove(cid)
        for wl in self.worklists.values():
            wl.on_clause(self, wl, cid, c, False)

    def _remove_clause(self, cid, witness=None):
        """Take a live clause out of the store and the core (with the delc
        witness, if any); a soft clause's label, now in no clause, leaves
        the objective too."""
        label = self._label(cid)
        self._uninstall(cid)
        self._delc(cid, witness)
        if label is not None:
            self._retire_soft_label(label)

    def _label(self, cid):
        """The soft label of live clause `cid`, None for a hard clause."""
        terms = self.clauses[cid].terms
        lit = terms[-1][1] if terms and self.phase == "wcnf" else 0
        return lit >> 1 if lit & 6 else None

    def _real_lits(self, cid, var=None):
        """A new list of the literals of clause `cid` but those on `var`, a
        soft clause's label or a variable resolved out: all without one."""
        return [l for _, l in self.clauses[cid].terms if l >> 1 != var]

    def _occ_ids(self, lit):
        return self.engine.ids_with(lit)

    def _fresh_label(self):
        v = mkvar(self.next_aux, pb.NS_AUX)
        self.next_aux += 1
        return v

    def _count(self, name):
        self.counts[name] = self.counts.get(name, 0) + 1

    # ------------------------------------------------------------------
    # proof emission, keeping `deleted` in sync with the checker

    def _core(self, cid):
        self.writer.core_ids([cid])
        return cid

    def _core_rup(self, c):
        return self._core(self.writer.rup(c))

    def _core_red(self, c, witness):
        return self._core(self.writer.red(c, witness))

    def _core_pol(self, tokens):
        return self._core(self.writer.pol(tokens))

    def _delc(self, cid, witness=None):
        self.writer.delc(cid, witness)
        self.deleted.add(cid)

    def _update_objective(self, terms, const=0):
        """Add sum(w * lit) + const to the objective in place and log the
        change as one obju diff over its variables, in variable order."""
        obj = self.objective
        before = {lit >> 1: obj.coef(lit >> 1) for _, lit in terms}
        old_const = obj.constant
        for w, lit in terms:
            obj.add_literal_term(w, lit)
        obj.constant += const
        diff = [(obj.coef(v) - before[v], mklit(v))
                for v in sorted(before, key=pb.var_sort_key)
                if obj.coef(v) != before[v]]
        const = obj.constant - old_const
        if diff or const:
            self.writer.obju_diff(diff, const)
        for wl in self.worklists.values():
            if wl.on_coef is not None:
                for _, lit in diff:
                    wl.on_coef(self, wl, lit >> 1)

    # ------------------------------------------------------------------
    # the generic fixing procedure

    def fix_literal(self, lit, pid):
        """Propagate a literal pinned true by core constraint `pid` (lit >= 1).

        Emits the objective update, shrinks every clause containing ~lit (a
        soft keeps its label), drops every other clause containing lit and
        retires its label, and finally deletes `pid` with the witness.
        """
        v = lit >> 1
        val = 0 if lit & 1 else 1
        self._update_objective(*self.objective.delta({v: val}))
        for cid in sorted(self._occ_ids(neg(lit))):
            new = pb.add(self.clauses[cid], _unit(lit))
            nid = self._core_pol([cid, pid, "+"])
            self._uninstall(cid)
            self._delc(cid)
            if not new.terms and new.degree:
                raise Infeasible(nid)
            self._install(nid, new)
        for cid in sorted(self._occ_ids(lit)):
            if cid != pid:
                self._remove_clause(cid)
        if pid in self.clauses:
            self._remove_clause(pid, {v: val})
        else:
            self._delc(pid, {v: val})

    def _retire_soft_label(self, label):
        # the label no longer occurs in any clause; drop its objective term
        hb = self._core_red(_unit(mklit(label, True)), {label: 0})
        self._update_objective(*self.objective.delta({label: 0}))
        self._delc(hb, {label: 0})

    # ------------------------------------------------------------------
    # stage 2: clause-level simplification (WCNF phase)

    def _is_hard_unit(self, cid):
        c = self.clauses.get(cid)
        return (c is not None and len(c.terms) == 1 and c.degree == 1
                and self._label(cid) is None)

    def _up_at(self, pid):
        """up: propagate the hard unit `pid`.  The units this makes are new
        clauses, with ids above every pending one, so draining by id
        propagates the units in the order they appear."""
        if not self._is_hard_unit(pid):
            return False
        self._count("up")
        self.fix_literal(self.clauses[pid].terms[0][1], pid)
        return True

    def _dup_group(self, key):
        """The live ids of dup's group `key`, ascending: a lone clause is
        kept as its bare id, a group of two or more as a list."""
        g = self.groups.get(key, [])
        return [g] if type(g) is int else g

    def _dup_heads(self, keys):
        """The smallest id of each group among `keys` that can apply: one
        with two or more members, or a lone clause that is a unit (only as
        a unit soft the objective pays for)."""
        return [g[0] for k in keys
                if len(g := self._dup_group(k)) > 1 or g and len(k) == 1]

    def _dup_candidates(self):
        """The heads of dup's groups: `_dup_key` -> the live non-trivial
        clauses with it.  The groups are built once, with dup's worklist;
        from then on dup's hooks keep them."""
        if self.groups is None:
            self.groups = {}
            for cid in sorted(self.clauses):
                c = self.clauses[cid]
                if c.degree:
                    key = _dup_key(c)
                    cids = self._dup_group(key)
                    cids.append(cid)
                    self.groups[key] = cids if len(cids) > 1 else cids[0]
        return self._dup_heads(self.groups)

    def _dup_at(self, cid):
        """dup: settle the group of clause `cid` if `cid` is its smallest
        live id.  So the action applied is always the first applicable one
        in id order, as if the clauses were regrouped after every action:
        an action changes no other group's verdict.  It deletes only its own
        members and installs nothing, moves objective weight only onto or
        off its own labels, and syncing the unit soft (u) adds weight on
        ~u, which can only keep the group (~u) from applying."""
        c = self.clauses.get(cid)
        if c is None or not c.degree:
            return False
        key = _dup_key(c)
        return self._dup_group(key)[0] == cid and self._settle_duplicates(key)

    def _dup_on_clause(self, wl, cid, c, added):
        """dup: a clause joins or leaves its group, and the group's head is
        pushed."""
        key = _dup_key(c)
        cids = self._dup_group(key)
        if added:
            if not c.degree:
                return
            cids.append(cid)    # a new clause has the largest id
        elif cid in cids:
            cids.remove(cid)
        else:
            return              # it was trivial
        if not cids:
            del self.groups[key]
            return
        self.groups[key] = cids if len(cids) > 1 else cids[0]
        wl.extend(self._dup_heads((key,)))

    def _dup_on_coef(self, wl, v):
        """dup: the group of a unit (u) reads the coefficient on u's
        variable."""
        wl.extend(self._dup_heads((((1, mklit(v)),), ((1, mklit(v, True)),))))

    def _settle_duplicates(self, key):
        """Apply the first applicable action to the live clauses (ascending)
        of the group `key`; True if one applied."""
        cids = self._dup_group(key)
        hards = [c for c in cids if self._label(c) is None]
        softs = [c for c in cids if self._label(c) is not None]
        # the first hard copy makes the later hard copies redundant and,
        # once those are gone, every soft copy
        doomed = hards[1:] or (softs if hards else [])
        if doomed:
            for cid in doomed:
                self._remove_clause(cid)
                self._count("dup")
            return True
        if len(key) == 1 and softs:
            # a soft shrunk to a single literal duplicates another soft
            # (relaxed or already objective-level): merge through the
            # objective by converting it early
            if len(softs) > 1 or self._unit_penalized(key[0][1]):
                self._sync_unit_soft(softs[0])
                self._count("dup")
                return True
        if len(softs) > 1:
            keep = softs[0]
            for cid in softs[1:]:
                if self._merge_soft_pair(keep, cid):
                    self._count("dup")
                    return True
        return False

    def _unit_penalized(self, u):
        """True if the objective pays for falsifying the unit soft (u)."""
        coef = self.objective.coef(u >> 1)
        return coef > 0 if u & 1 else coef < 0

    def _merge_soft_pair(self, keep, dup):
        bc, bd = self._label(keep), self._label(dup)
        wd = self.objective.coef(bd)
        if self.objective.coef(bc) + wd > MAX_WEIGHT:
            return False
        # transfer the duplicate's weight onto the kept label, then drop it
        e1 = self._core_red(constraint_from_clause(
            [mklit(bc, True), mklit(bd)]), {bc: 0, bd: 0})
        e2 = self._core_red(constraint_from_clause(
            [mklit(bd, True), mklit(bc)]), {bc: 0, bd: 0})
        self._update_objective([(wd, mklit(bc)), (-wd, mklit(bd))])
        self._uninstall(dup)
        self._delc(dup)     # RUP through the kept clause and e1
        self._delc(e1, {bd: 1})
        self._delc(e2, {bd: 0})
        return True

    def _is_trivial(self, cid):
        c = self.clauses.get(cid)
        return c is not None and c.is_trivial()

    def _taut_at(self, cid):
        """taut: remove clause `cid` if it is trivial."""
        if not self._is_trivial(cid):
            return False
        self._remove_clause(cid)   # negating a trivial constraint conflicts
        self._count("taut")
        return True

    def _is_empty_soft(self, cid):
        c = self.clauses.get(cid)
        return (c is not None and c.degree == 1 and len(c.terms) == 1
                and self._label(cid) is not None)  # its label alone

    def _empty_at(self, cid):
        """empty: a soft clause with nothing left but its label pays its
        weight forever; move the weight into the objective constant."""
        if not self._is_empty_soft(cid):
            return False
        label = self._label(cid)
        self._update_objective(*self.objective.delta({label: 1}))
        self._uninstall(cid)
        self._delc(cid, {label: 1})
        self._count("empty")
        return True

    def _clause_ids(self):
        return self.clauses.keys()

    def _sub_at(self, cid):
        """sub: remove the first clause, in id order, that clause `cid`
        subsumes.  Which clause that is does not depend on the occurrence
        list the scan walks: every clause with all of `cid`'s literals is in
        each of their lists."""
        c = self.clauses.get(cid)
        if c is None or not (c.terms and c.degree) or self._label(cid):
            return False
        lits = {l for _, l in c.terms}
        rare = min(lits, key=lambda l: (len(self._occ_ids(l)), l))
        for did in sorted(self._occ_ids(rare)):
            if did == cid or did not in self.clauses:
                continue
            if not lits <= {l for _, l in self.clauses[did].terms}:
                continue
            if len(self.clauses[did].terms) <= len(lits) and did < cid:
                continue   # identical clause: keep the earlier copy
            self._remove_clause(did)
            self._count("sub")
            return True
        return False

    def _sub_on_clause(self, wl, cid, c, added):
        """sub: a new clause may subsume, and may be subsumed by a clause
        whose literals it all has (itself among them); a removal enables no
        subsumption."""
        if added:
            mine = {l for _, l in c.terms}
            for l in mine:
                for sid in self._occ_ids(l):
                    if sid not in wl.queued and mine.issuperset(
                            [m for _, m in self.clauses[sid].terms]):
                        wl.push(sid)

    def _bce_at(self, cid):
        """bce: remove clause `cid` if it is blocked on one of its literals
        (the first one, in term order, is the witness)."""
        if (cid not in self.clauses or self._label(cid) is not None
                or self.clauses[cid].is_trivial()):
            return False
        for _, lit in self.clauses[cid].terms:
            if self._blocked_under(cid, lit):
                self._remove_clause(cid, {lit >> 1: 0 if lit & 1 else 1})
                self._count("bce")
                return True
        return False

    def _bce_on_clause(self, wl, cid, c, added):
        """bce: a new clause is a candidate (it blocks nothing new, it only
        adds a resolution partner); a removed one may leave blocked every
        clause it resolved with, the clauses with a complementary literal."""
        if added:
            wl.push(cid)
        else:
            for _, l in c.terms:
                wl.extend(self._occ_ids(neg(l)))

    def _on_freed_var(self, wl, v):
        """bce and ssr skip literals whose variable has an objective
        coefficient: a coefficient dropping to 0 pushes the clauses on v."""
        if not self.objective.coef(v):
            wl.extend(self._occ_ids(mklit(v)))
            wl.extend(self._occ_ids(mklit(v, True)))

    def _blocked_under(self, cid, lit, b=None):
        """True if `lit` has no objective coefficient and clause `cid` is
        blocked on it: every other clause with ~lit, once b = 1 if a label
        b is given, is satisfied or clashes with `cid` on another literal."""
        if self.objective.coef(lit >> 1):
            return False
        mine = {l for _, l in self.clauses[cid].terms if l != lit}
        for kid in self._occ_ids(neg(lit)):
            other = {l for _, l in self.clauses[kid].terms} - {neg(lit)}
            if b is not None:
                if mklit(b) in other:
                    continue        # satisfied once b=1
                other.discard(mklit(b, True))
            if not any(neg(u) in other for u in mine):
                return False
        return True

    # ------------------------------------------------------------------
    # stage 3: switch to the clause+objective view

    def convert_to_objective_centric(self):
        """Drop trivial clauses, sync relaxed softs that shrank to unit
        clauses, then drop the hard/soft distinction (labels live on in the
        objective).  A trivial clause must not reach stage 4: `normalize`
        has cancelled its complementary pair, so its literals would read as
        a shorter real clause."""
        self._drop_trivial()
        for cid, c in sorted(self.clauses.items()):
            if c.degree == 1 and len(c.terms) == 2 and self._label(cid):
                self._sync_unit_soft(cid)
        self.phase = "oc"

    def _sync_unit_soft(self, cid):
        """Replace a relaxed unit soft (u v b) by the objective term w*~u."""
        label = self._label(cid)
        w = self.objective.coef(label)
        u = self._real_lits(cid, label)[0]
        helper = self._core_red(constraint_from_clause(
            [neg(u), mklit(label, True)]), {label: 0})
        self._update_objective([(w, neg(u)), (-w, mklit(label))])
        self._delc(helper, {label: 0})
        self._uninstall(cid)
        self._delc(cid, {label: 1})

    # ------------------------------------------------------------------
    # clause-level unit propagation helper (for FLE and friends)

    def _up_closure(self, start):
        """Clause-level UP from the given literals.

        Returns (frozenset of true literals, conflict flag).  On clauses the
        PB slack rule of the engine is the clause rule, and trivial (degree
        0) clauses never propagate.  Results are memoised on the start
        literals until the next _install/_uninstall (the objective never
        enters a closure), so fle, impl and eql share each literal's closure
        while the clauses stay the same; the sets are frozen so no caller
        can change a cached one.
        """
        key = tuple(start)
        hit = self.closures.get(key)
        if hit is None:
            val = self.engine.propagate(start)
            if val is None:
                hit = frozenset(), True
            else:
                hit = frozenset(mklit(v, b == 0) for v, b in val.items()), False
            self.closures[key] = hit
        return hit

    # ------------------------------------------------------------------
    # stage 4 techniques (objective-centric phase)

    def _ssr_at(self, did):
        """ssr: drop from clause `did` the first literal m, in term order,
        with no objective coefficient whose negation sits in a clause whose
        other literals `did` all has."""
        d = self.clauses.get(did)
        if d is None or len(d.terms) < 2:
            return False
        for _, m in d.terms:
            if self.objective.coef(m >> 1):
                continue
            rest = {l for _, l in d.terms} - {m}
            for cid in sorted(self._occ_ids(neg(m))):
                if {l for _, l in self.clauses[cid].terms} - {neg(m)} <= rest:
                    c = constraint_from_clause(sorted(rest))
                    nid = self._core_rup(c)
                    self._install(nid, c)
                    self._remove_clause(did)
                    self._count("ssr")
                    return True
        return False

    def _ssr_on_clause(self, wl, cid, c, added):
        """ssr: a new clause is a candidate and may strengthen every clause
        with a literal complementary to one of its own; a removal only takes
        partners away."""
        if added:
            wl.push(cid)
            for _, l in c.terms:
                wl.extend(self._occ_ids(neg(l)))

    def _live_lits(self):
        return self.engine.occ.keys()

    def _fle_at(self, lit):
        """fle: fix ~lit if lit's closure conflicts, or if it satisfies
        every clause with lit through another literal.  Fixing lit = 0 must
        not pay anything: ~lit may not be a paid term."""
        coef = self.objective.coef(lit >> 1)
        if not self._occ_ids(lit) or ((coef < 0) if lit & 1 == 0
                                      else (coef > 0)):
            return False
        closure, conflict = self._up_closure([lit])
        if conflict:
            pid = self._core_rup(_unit(neg(lit)))
        elif self._satisfied_elsewhere(lit, closure):
            pid = self._core_red(_unit(neg(lit)),
                                 {lit >> 1: 1 if lit & 1 else 0})
        else:
            return False
        self.fix_literal(neg(lit), pid)
        self._count("fle")
        return True

    def _satisfied_elsewhere(self, lit, closure):
        """True if every clause with `lit` has another literal in
        `closure`."""
        clauses = self.clauses
        return all(any(l != lit and l in closure for _, l in clauses[cid].terms)
                   for cid in self._occ_ids(lit))

    def _probe(self, l1):
        """(the other literals of l1's closure in literal order, the closure
        of ~l1) if both closures end without conflict, else None: a
        conflict on either side leaves neither impl nor eql anything to
        apply to l1."""
        pos, conflict = self._up_closure([l1])
        if conflict:
            return None
        neg_cl, conflict = self._up_closure([neg(l1)])
        if conflict:
            return None
        return sorted(pos - {l1}, key=pb.lit_sort_key), neg_cl

    def _impl_at(self, l1):
        """impl: fix the first l2 implied both by l1 and by ~l1, or one that
        l1 implies when every clause with ~l2 is satisfied under ~l1."""
        probe = self._probe(l1)
        if probe is None:
            return False
        implied, neg_cl = probe
        for l2 in implied:
            if l2 in neg_cl:
                self._fix_implied(l1, l2, witnessed=False)
                return True
        # extension: one-sided implication with flippable ~l2 clauses
        if self.objective.coef(l1 >> 1):
            return False
        for l2 in implied:
            if self.objective.coef(l2 >> 1) or not self._occ_ids(neg(l2)):
                continue
            if self._satisfied_elsewhere(neg(l2), neg_cl):
                self._fix_implied(l1, l2, witnessed=True)
                return True
        return False

    def _fix_implied(self, l1, l2, witnessed):
        if witnessed:
            h1 = self._core_red(constraint_from_clause([l1, l2]),
                                {l2 >> 1: 0 if l2 & 1 else 1})
        else:
            h1 = self._core_rup(constraint_from_clause([l1, l2]))
        h2 = self._core_rup(constraint_from_clause([neg(l1), l2]))
        pid = self._core_pol([h1, h2, "+", 2, "d"])
        self._delc(h1)
        self._delc(h2)
        self.fix_literal(l2, pid)
        self._count("impl")

    def _eql_at(self, l1):
        """eql: substitute l2 for l1, for the first l2 that l1 implies and
        ~l1 falsifies, or, with neither weighted, for one whose clauses ~l1
        satisfies through another literal."""
        probe = self._probe(l1)
        if probe is None:
            return False
        implied, neg_cl = probe
        for l2 in implied:
            if neg(l2) in neg_cl:
                self._substitute_equivalent(l1, l2, witnessed=False)
                return True
            if self.objective.coef(l1 >> 1) or self.objective.coef(l2 >> 1):
                continue
            if self._satisfied_elsewhere(l2, neg_cl):
                self._substitute_equivalent(l1, l2, witnessed=True)
                return True
        return False

    def _substitute_equivalent(self, l1, l2, witnessed):
        e1 = self._core_rup(constraint_from_clause([neg(l1), l2]))
        if witnessed:
            e2 = self._core_red(constraint_from_clause([l1, neg(l2)]),
                                {l2 >> 1: 1 if l2 & 1 else 0})
        else:
            e2 = self._core_rup(constraint_from_clause([l1, neg(l2)]))
        image = l2 if l1 & 1 == 0 else neg(l2)     # positive var(l1) maps here
        self._rewrite_var(l1 >> 1, image, e1, e2)
        self._count("eql")

    def _rewrite_var(self, v, image, e1, e2):
        """Replace variable v by the literal `image` in every clause and in
        the objective, then delete the equivalence e1, e2 between them with
        the witness {v: image}."""
        for cid in sorted({*self._occ_ids(mklit(v)),
                           *self._occ_ids(mklit(v, True))}):
            c = constraint_from_clause([image ^ (l & 1) if l >> 1 == v else l
                                        for _, l in self.clauses[cid].terms])
            if not c.is_trivial():
                nid = self._core_rup(c)
                self._install(nid, c)
            self._remove_clause(cid)
        self._update_objective(*self.objective.delta({v: image}))
        self._delc(e1, {v: image})
        self._delc(e2, {v: image})

    def _live_vars(self):
        return {l >> 1 for l in self.engine.occ}

    def _near(self, x):
        """The variables other than x that share a clause with x."""
        near = set()
        for lit in (mklit(x), mklit(x, True)):
            for cid in self._occ_ids(lit):
                near.update([l >> 1 for _, l in self.clauses[cid].terms])
        near.discard(x)
        return near

    def _sle_at(self, x):
        """sle: for x, the first y in variable order that x dominates.  A
        pair can apply only if occ(y) <= occ(x) or occ(~x) <= occ(~y) with
        one side non-empty, so only the y that share a clause with x are
        tried, without changing which applies first."""
        for y in sorted(self._near(x), key=pb.var_sort_key):
            cx, cy = self.objective.coef(x), self.objective.coef(y)
            if cx < 0 or cy < 0 or (cx > 0) != (cy > 0):
                continue
            posy = self._occ_ids(mklit(y))
            negx = self._occ_ids(mklit(x, True))
            if not posy and not negx:
                continue
            if not set(posy) <= set(self._occ_ids(mklit(x))):
                continue
            if not set(negx) <= set(self._occ_ids(mklit(y, True))):
                continue
            if cx == 0:
                px = self._core_red(_unit(mklit(x)), {x: 1, y: 0})
                py = self._core_red(_unit(mklit(y, True)), {x: 1, y: 0})
                self.fix_literal(mklit(x), px)
                self.fix_literal(mklit(y, True), py)
            else:
                if cx > cy:
                    continue
                py = self._core_red(_unit(mklit(y, True)), {y: 0, x: 1})
                self.fix_literal(mklit(y, True), py)
            self._count("sle")
            return True
        return False

    def _sle_on_coef(self, wl, v):
        """sle: x reads the occurrences and coefficients of itself and of
        its neighbours y, so a change on v pushes every x that could
        dominate v (v itself among them while it occurs).  Such
        an x is in every clause with v (if there is one, take the smallest)
        or else negated in a clause with ~v.  An x with a negative
        coefficient never applies."""
        coef = self.objective.coef
        pos = self._occ_ids(mklit(v))
        if pos:
            doms = [l >> 1 for _, l in self.clauses[min(pos)].terms
                    if not l & 1]
        else:
            doms = [l >> 1 for cid in self._occ_ids(mklit(v, True))
                    for _, l in self.clauses[cid].terms if l & 1]
        for x in doms:
            if coef(x) >= 0:
                wl.push(x)

    def _gsle_at(self, b):
        """gsle: fix ~b for a paid b, never negated, if each clause with b
        has another paid literal never negated and b costs at least the
        cheapest such literals of its clauses together."""
        cb = self.objective.coef(b)
        if cb <= 0 or self._occ_ids(mklit(b, True)):
            return False
        cids = self._occ_ids(mklit(b))
        if not cids:
            return False
        group = set()
        for cid in sorted(cids):
            best = None
            for _, lit in self.clauses[cid].terms:
                v = lit >> 1
                if v == b or lit & 1:
                    continue
                cv = self.objective.coef(v)
                if cv <= 0 or self._occ_ids(mklit(v, True)):
                    continue
                if best is None or (cv, pb.var_sort_key(v)) < best[0]:
                    best = ((cv, pb.var_sort_key(v)), v)
            if best is None:
                return False
            group.add(best[1])
        if cb < sum(self.objective.coef(v) for v in group):
            return False
        witness = {b: 0}
        witness.update({v: 1 for v in group})
        pid = self._core_red(_unit(mklit(b, True)), witness)
        self.fix_literal(mklit(b, True), pid)
        self._count("gsle")
        return True

    def eliminate_variable_bve(self, v):
        """Resolve out variable v, which must carry no objective coefficient
        and occur in no soft clause (stage 4 has no soft clauses)."""
        pos = sorted(self._occ_ids(mklit(v)))
        negs = sorted(self._occ_ids(mklit(v, True)))
        for i in pos:
            for j in negs:
                lits = self._real_lits(i, v) + self._real_lits(j, v)
                resolvent = constraint_from_clause(lits)
                if resolvent.is_trivial():
                    continue
                tokens = [min(i, j), max(i, j), "+"]
                if len(resolvent.terms) < len(lits):    # a shared literal
                    tokens.append("s")
                nid = self._core_pol(tokens)
                if not resolvent.terms:
                    raise Infeasible(nid)
                self._install(nid, resolvent)
        for cid in sorted(pos + negs):
            self._remove_clause(cid, {v: 1 if cid in pos else 0})

    def _bve_at(self, v):
        """bve: eliminate v if it has no objective coefficient, occurs in
        both polarities, and has at most as many non-tautological
        resolvents as clauses."""
        if self.objective.coef(v):
            return False
        pos = self._occ_ids(mklit(v))
        negs = self._occ_ids(mklit(v, True))
        if not pos or not negs:
            return False
        if _resolvents([self._real_lits(i, v) for i in pos],
                       [self._real_lits(j, v) for j in negs]) \
                > len(pos) + len(negs):
            return False
        self.eliminate_variable_bve(v)
        self._count("bve")
        return True

    def _bve_on_coef(self, wl, v):
        """bve: v reads its own occurrences and coefficient."""
        if not self.objective.coef(v):
            wl.push(v)

    def add_variables_bva(self, m_lits, suffixes, originals):
        """Factor the clauses {l v D : l in m_lits, D in suffixes}, whose ids
        are `originals`, through a fresh variable."""
        x = self._fresh_label()
        for d in sorted(suffixes):
            c = constraint_from_clause(list(d) + [mklit(x, True)])
            cid = self._core_red(c, {x: 0})
            self._install(cid, c)
        for l in sorted(m_lits, key=pb.lit_sort_key):
            c = constraint_from_clause([l, mklit(x)])
            cid = self._core_red(c, {x: 1})
            self._install(cid, c)
        for cid in sorted(originals):
            self._remove_clause(cid)

    def _bva_at(self, l1):
        """bva: for the first l2 after l1 in literal order whose clauses
        share with l1's enough suffixes D, factor every (l1 v D), (l2 v D)
        through a fresh variable, finding each (l2 v D) among the clauses
        of D's rarest literal.  Of clauses with the same literals, the one
        with the smallest id is factored."""
        key, occ, clauses = pb.lit_sort_key, self.engine.occ, self.clauses
        with_l1 = {}    # suffix D -> the smallest id of an (l1 v D)
        for cid in sorted(self._occ_ids(l1)):
            with_l1.setdefault(
                frozenset([l for _, l in clauses[cid].terms]) - {l1}, cid)
        with_l1.pop(frozenset(), None)      # the unit (l1) has no suffix
        pairs = {}      # l2 -> suffix D -> the ids of (l1 v D) and (l2 v D)
        for d, cid in with_l1.items():
            rarest = min(d, key=lambda l: len(occ[l]))
            for cid2 in sorted(self._occ_ids(rarest)):
                terms = clauses[cid2].terms     # one literal per variable
                rest = [l for _, l in terms if l not in d]
                if len(terms) == len(d) + 1 and len(rest) == 1 \
                        and key(rest[0]) > key(l1) and rest[0] >> 1 != l1 >> 1:
                    pairs.setdefault(rest[0], {}).setdefault(d, (cid, cid2))
        for l2 in sorted(pairs, key=key):
            found = pairs[l2]
            # replacing 2|S| clauses by |S|+2 must be a strict win
            if len(found) + 2 < 2 * len(found):
                self.add_variables_bva(
                    [l1, l2], [tuple(sorted(d, key=key)) for d in found],
                    [cid for ids in found.values() for cid in ids])
                self._count("bva")
                return True
        return False

    def intrinsic_at_most_ones(self, bc, bd, bin_cid):
        """Reify the at-most-one over two labels linked by (bc v bd)."""
        w = self.objective.coef(bc)
        bcd = self._fresh_label()
        d1 = self.writer.red(pb.normalize(
            [(2, mklit(bcd, True)), (1, mklit(bc)), (1, mklit(bd))], 2),
            {bcd: 0})
        clause = constraint_from_clause([mklit(bc, True), mklit(bd, True),
                                         mklit(bcd)])
        d2 = self.writer.red(clause, {bcd: 1})
        elim = self._core_pol([d1, bin_cid, "+", 2, "d"])
        self._core(d2)
        self._update_objective(
            [(-w, mklit(bc)), (-w, mklit(bd)), (w, mklit(bcd))], w)
        self._delc(d1)
        self._delc(elim, {bcd: 0})
        self._install(d2, clause)
        return bcd, d2

    def _am1_eligible(self, bin_cid):
        terms = self.clauses[bin_cid].terms
        if len(terms) != 2 or any(l & 1 for _, l in terms):
            return None
        bc, bd = terms[0][1] >> 1, terms[1][1] >> 1
        w = self.objective.coef(bc)
        if w <= 0 or self.objective.coef(bd) != w:
            return None
        if w + self.objective.constant > MAX_WEIGHT:
            return None
        if self._occ_ids(mklit(bc, True)) or self._occ_ids(mklit(bd, True)):
            return None
        return bc, bd

    def _am1_at(self, cid):
        """am1: reify the at-most-one over the two labels of clause `cid`,
        unless bcr runs and would remove them instead."""
        pair = self._am1_eligible(cid)
        if pair is None or ("bcr" in self.cfg.stage4
                            and self._bcr_eligible(cid, *pair)):
            return False
        self.intrinsic_at_most_ones(pair[0], pair[1], cid)
        self._count("am1")
        return True

    def _bcr_eligible(self, bin_cid, bc, bd):
        occ_c = set(self._occ_ids(mklit(bc)))
        occ_d = set(self._occ_ids(mklit(bd)))
        if occ_c & occ_d != {bin_cid}:
            return False
        sides_c = occ_c - {bin_cid}
        sides_d = occ_d - {bin_cid}
        produced = _resolvents([self._real_lits(i, bc) for i in sides_c],
                               [self._real_lits(j, bd) for j in sides_d])
        return produced <= len(sides_c) + len(sides_d) + 1

    def binary_core_removal(self, bc, bd, bin_cid):
        bcd, _ = self.intrinsic_at_most_ones(bc, bd, bin_cid)
        self.eliminate_variable_bve(bc)
        self.eliminate_variable_bve(bd)
        return bcd

    def _bcr_at(self, cid):
        """bcr: remove the two labels of clause `cid` if eliminating them
        after am1's reification does not grow the instance."""
        pair = self._am1_eligible(cid)
        if pair is None or not self._bcr_eligible(cid, *pair):
            return False
        self.binary_core_removal(pair[0], pair[1], cid)
        self._count("bcr")
        return True

    def label_matching(self, cid_c, cid_d, x_lit, bc, bd):
        """Merge the equal-weight labels bc of `cid_c` and bd of `cid_d`,
        whose clauses clash on var(x_lit).

        `cid_c` must contain neg(x_lit) and `cid_d` x_lit; each label may
        occur nowhere else.  The recipe derives the at-most-one over the two
        labels from the clash, reifies their disjunction into a fresh label,
        transfers the weight, and rewrites both clauses.  The at-most-one
        is core, since the deletion of the merged constraint leans on it,
        and leaves with its own witness.
        """
        w = self.objective.coef(bc)
        if self.objective.coef(bd) != w:
            raise ValueError("label weights differ")
        bcd = self._fresh_label()
        am1c_witness = {bc: x_lit, bd: neg(x_lit)}
        am1c = self._core_red(constraint_from_clause(
            [mklit(bc, True), mklit(bd, True)]), am1c_witness)
        r1 = self._core_red(constraint_from_clause(
            [mklit(bcd, True), mklit(bc), mklit(bd)]), {bcd: 0})
        r2 = self.writer.red(pb.normalize(
            [(2, mklit(bcd)), (1, mklit(bc, True)), (1, mklit(bd, True))], 2),
            {bcd: 1})
        merged = self._core_pol([r2, am1c, "+", 2, "d"])
        self._update_objective(
            [(-w, mklit(bc)), (-w, mklit(bd)), (w, mklit(bcd))])
        kc = constraint_from_clause(self._real_lits(cid_c, bc) + [mklit(bcd)])
        kd = constraint_from_clause(self._real_lits(cid_d, bd) + [mklit(bcd)])
        kc_id = self._core_rup(kc)
        self._install(kc_id, kc)
        kd_id = self._core_rup(kd)
        self._install(kd_id, kd)
        self._delc(merged, {bc: 0, bd: 0})
        self._delc(am1c, am1c_witness)
        self._remove_clause(cid_c, {bc: 1})
        self._remove_clause(cid_d, {bd: 1})
        self._delc(r2)
        self._delc(r1, {bc: 1})
        return bcd

    def _paid_vars(self):
        return [v for v, c in self.objective.coeffs.items() if c > 0]

    def _lm_single(self, v):
        """The one clause of v if v has a positive coefficient and occurs
        in exactly one clause, positively; else None."""
        if self.objective.coef(v) <= 0 or self._occ_ids(mklit(v, True)):
            return None
        ids = self._occ_ids(mklit(v))
        return next(iter(ids)) if len(ids) == 1 else None

    def _lm_at(self, bc):
        """lm: match the single bc with the first single bd, in variable
        order, of the same weight whose clause clashes with bc's.  Only the
        singles in the clauses of ~u, for u in bc's clause, can clash."""
        cid_c = self._lm_single(bc)
        if cid_c is None:
            return False
        w = self.objective.coef(bc)
        c_lits = set(self._real_lits(cid_c, bc))
        partners = set()
        for u in c_lits:
            for cid_d in self._occ_ids(neg(u)):
                for _, l in self.clauses[cid_d].terms:
                    bd = l >> 1
                    if (bd != bc and cid_d != cid_c
                            and self.objective.coef(bd) == w
                            and self._lm_single(bd) == cid_d):
                        partners.add(bd)
        for bd in sorted(partners, key=pb.var_sort_key):
            cid_d = self._lm_single(bd)
            d_lits = set(self._real_lits(cid_d, bd))
            for u in sorted(c_lits, key=pb.lit_sort_key):
                if neg(u) in d_lits:
                    self.label_matching(cid_c, cid_d, neg(u), bc, bd)
                    self._count("lm")
                    return True
        return False

    def _lm_on_coef(self, wl, v):
        """lm: bc reads its own coefficient and clause, and every single
        whose clause clashes with bc's.  So a change on v pushes v and,
        one hop further, the paid variables of every clause that clashes
        with v's single clause."""
        coef = self.objective.coef
        if coef(v) <= 0:
            return
        wl.push(v)
        e = self._lm_single(v)
        if e is None:
            return
        for _, l in self.clauses[e].terms:
            for cid in self._occ_ids(neg(l)):
                for _, u in self.clauses[cid].terms:
                    if coef(u >> 1) > 0:
                        wl.push(u >> 1)

    def structure_based_labelling(self, cid, b, lit):
        """Weaken a clause blocked under b=1 into clause-or-b."""
        c = constraint_from_clause(self._real_lits(cid) + [mklit(b)])
        nid = self._core_rup(c)
        self._install(nid, c)
        self._remove_clause(cid, {lit >> 1: 0 if lit & 1 else 1})

    def _sbl_at(self, cid):
        """sbl: weaken clause `cid` into clause-or-b for the first paid b,
        in variable order, that is not in it and under which it is blocked
        on one of its literals."""
        lits = self._real_lits(cid)
        for b in sorted(self._paid_vars(), key=pb.var_sort_key):
            if b in {l >> 1 for l in lits}:
                continue
            for lit in lits:
                if self._blocked_under(cid, lit, b):
                    self.structure_based_labelling(cid, b, lit)
                    self._count("sbl")
                    return True
        return False

    def _oracle(self, on_learn=None):
        """A SAT oracle over the live clauses, none trivial in stage 4."""
        from .sat import SatOracle   # only trim and harden load the oracle

        oracle = SatOracle(on_learn=on_learn, conflict_budget=ORACLE_CONFLICTS,
                           work_budget=ORACLE_WORK)
        for cid in sorted(self.clauses):
            oracle.add_clause(self._real_lits(cid))
        return oracle

    def trim_maxsat(self):
        """Fix objective literals that a SAT oracle proves entailed false.

        Each step asks, under a fresh selector, for a model that makes one
        of the first m live literals true.  The oracle decides every live
        literal true when its variable comes up, so a model drops every
        live literal it can satisfy; when there is none, the m literals
        are entailed false and m halves."""
        from .sat import OracleBudget

        derived = []
        oracle = self._oracle(on_learn=lambda lits: derived.append(
            self.writer.rup(constraint_from_clause(lits))))
        alive = [lit for _, lit in self.objective.literal_form()[0]]
        entailed = []
        m = len(alive)
        try:
            while alive:
                m = max(1, min(m, len(alive)))
                subset = alive[:m]
                s = self._fresh_label()
                sel = [mklit(s, True)] + subset
                derived.append(self.writer.red(constraint_from_clause(sel),
                                               {s: 0}))
                oracle.add_clause(sel)
                model = oracle.solve([mklit(s)], prefer=alive)
                if model is None:
                    entailed.extend(subset)
                    alive = alive[m:]
                    m = max(1, m // 2)
                else:
                    alive = [l for l in alive
                             if model.get(l >> 1, 0) != (l & 1) ^ 1]
            for lit in entailed:
                if oracle.solve([lit]) is not None:
                    raise AssertionError("oracle model despite entailment")
        except OracleBudget:
            for cid in derived:
                self._delc(cid)
            return False
        pids = [(lit, self._core_rup(_unit(neg(lit))))
                for lit in entailed]
        for cid in derived:
            self._delc(cid)
        for lit, pid in pids:
            self.fix_literal(neg(lit), pid)
            self._count("trim")
        return bool(pids)

    def hardening(self):
        """Fix objective literals whose cost exceeds a known solution's."""
        from .sat import OracleBudget

        try:
            model = self._oracle().solve()
        except OracleBudget:
            return False
        if model is None:
            return False
        for v in self.objective.coeffs:
            if v not in model:
                model[v] = self.objective.coef(v) < 0
        bound = self.objective.value(model)
        witness = {v: 1 if b else 0 for v, b in model.items()}
        # a fix changes only its own term: the heavy terms are read once
        heavy = [l for w, l in self.objective.literal_form()[0] if w > bound]
        for lit in heavy:
            pid = self._core_red(_unit(neg(lit)), witness)
            self.fix_literal(neg(lit), pid)
            self._count("harden")
        return bool(heavy)

    # ------------------------------------------------------------------
    # stage 5 and output

    def remove_objective_constant(self):
        terms, const = self.objective.literal_form()
        if const == 0:
            return
        if const < 0:
            raise AssertionError("objective constant went negative")
        bw = self._fresh_label()
        pid = self._core_red(_unit(mklit(bw)), {bw: 1})
        self._install(pid, _unit(mklit(bw)))
        self._update_objective([(const, mklit(bw))], -const)
        self._count("const")

    def rename_variables(self):
        """Map every surviving internal variable to a fresh problem index.

        Problem variables keep their index; internal ones get the next free
        indices in order of first occurrence (clauses first, objective last),
        each moved through a throwaway middle name so chains cannot clash.
        """
        clauses = self.clauses
        terms = chain(*[clauses[cid].terms for cid in sorted(clauses)],
                      self.objective.literal_form()[0])
        order = list(dict.fromkeys([lit >> 1 for _, lit in terms]))
        internal = [v for v in order if pb.var_ns(v) != pb.NS_USER]
        if not internal:
            return
        base = max((pb.var_index(v) for v in order
                    if pb.var_ns(v) == pb.NS_USER), default=0)
        finals = [mkvar(base + i + 1) for i in range(len(internal))]
        temps = [mkvar(i, pb.NS_TMP) for i in range(1, len(internal) + 1)]
        for old, tmp in zip(internal, temps):
            self._substitute_var(old, tmp)
        for tmp, new in zip(temps, finals):
            self._substitute_var(tmp, new)

    def _substitute_var(self, old, new):
        """Rename `old` to the fresh, unused variable `new`."""
        ol, nl = mklit(old), mklit(new)
        e1 = self._core_red(constraint_from_clause([neg(ol), nl]), {new: 1})
        e2 = self._core_red(constraint_from_clause([ol, neg(nl)]), {new: 0})
        self._rewrite_var(old, nl, e1, e2)

    def _drop_trivial(self):
        for cid in sorted(cid for cid, c in self.clauses.items()
                          if not c.degree):
            self._remove_clause(cid)

    def finish(self):
        """Close out a feasible run: sync, fold the constant, rename, and
        return the output, a view of the store (`_output_clauses`).  The
        output of a run that changed nothing is the instance read again,
        its hard clauses first, each clause as the instance gives it."""
        if self.phase == "wcnf" and not self.deleted:
            self.writer.conclude()
            return WcnfInstance.from_clauses(self.source)
        if self.phase == "wcnf" and not self._pristine_softs():
            self.convert_to_objective_centric()
        self._drop_trivial()
        if self.phase == "oc":
            self.remove_objective_constant()
            self.rename_variables()
            if self.objective.literal_form()[1]:
                raise AssertionError("objective constant survived stage 5")
        self.writer.conclude()
        return WcnfView(self._output_clauses)

    def _pristine_softs(self):
        """True when the relaxed softs can be written back verbatim: their
        labels are the positional ones re-encoding the output would assign,
        and no other internal variable is left (one in a clause is a label)."""
        k = 0
        for cid in sorted(self.clauses):
            label = self._label(cid)
            if label is not None:
                k += 1
                c = self.clauses[cid]
                if (label != mkvar(k, pb.NS_AUX)
                        or not c.degree or len(c.terms) == 2):
                    return False    # written, (u v b) reads as unit soft u
        obj = self.objective
        if obj.constant + sum(c for c in obj.coeffs.values() if c < 0):
            return False    # the constant of its literal form
        return all(pb.var_ns(v) == pb.NS_USER or pb.var_ns(v) == pb.NS_AUX
                   and pb.var_index(v) <= k for v in obj.coeffs)

    def _output_clauses(self):
        """The output's (weight, literals) clauses, read from the store: the
        hard clauses, the softs without their labels (each weighing its
        label's coefficient), and a unit soft per objective term on a
        problem variable, which is every term but a label's.  A term
        weighing more than MAX_WEIGHT goes out as several unit softs on its
        literal, MAX_WEIGHT each but the last, which a reader adds back up."""
        clauses, coef = self.clauses, self.objective.coef
        for soft in (False, True):
            for cid in sorted(clauses):
                label = self._label(cid)
                if (label is not None) == soft:
                    lits = [l for _, l in clauses[cid].terms]
                    yield (coef(label), lits[:-1]) if soft else (None, lits)
        for v in sorted((v for v in self.objective.coeffs
                         if pb.var_ns(v) == pb.NS_USER), key=pb.var_sort_key):
            w, lit = abs(coef(v)), mklit(v, coef(v) > 0)
            while w > MAX_WEIGHT:
                yield MAX_WEIGHT, [lit]
                w -= MAX_WEIGHT
            yield w, [lit]

    def finalize_infeasible(self, conflict_cid):
        """The core holds 0 >= 1: reduce everything to the empty clause."""
        for cid in range(1, self.writer.next_id):
            if cid != conflict_cid and cid not in self.deleted:
                self._delc(cid)
        for cid in list(self.clauses):
            self._uninstall(cid)
        if self.objective.coeffs or self.objective.constant:
            self.writer.obju_new()
            self.objective = Objective()
        self.writer.conclude()
        return WcnfInstance([[]], [])

    # ------------------------------------------------------------------
    # the full pipeline

    # worklist pass -> (its candidates, sort key (None: the candidate
    # itself), the test that applies one candidate, what a changed clause
    # pushes back, what a changed objective coefficient pushes back)
    _WORKLISTS = {
        "dup": (_dup_candidates, None, _dup_at, _dup_on_clause, _dup_on_coef),
        "taut": (_clauses_where(_is_trivial), None, _taut_at,
                 _on_new(_is_trivial), None),
        "up": (_clauses_where(_is_hard_unit), None, _up_at,
               _on_new(_is_hard_unit), None),
        "empty": (_clauses_where(_is_empty_soft), None, _empty_at,
                  _on_new(_is_empty_soft), None),
        "sub": (_clause_ids, None, _sub_at, _sub_on_clause, None),
        "bce": (_clause_ids, None, _bce_at, _bce_on_clause, _on_freed_var),
        "ssr": (_clause_ids, None, _ssr_at, _ssr_on_clause, _on_freed_var),
        "fle": (_live_lits, pb.lit_sort_key, _fle_at, _restart, _restart),
        "impl": (_live_lits, pb.lit_sort_key, _impl_at, _restart, _restart),
        "eql": (_live_lits, pb.lit_sort_key, _eql_at, _restart, _restart),
        "sle": (_live_vars, pb.var_sort_key, _sle_at,
                _on_each_var(_sle_on_coef), _sle_on_coef),
        "gsle": (_paid_vars, pb.var_sort_key, _gsle_at, _restart, _restart),
        "bve": (_live_vars, pb.var_sort_key, _bve_at,
                _on_each_var(_bve_on_coef), _bve_on_coef),
        "bva": (_live_lits, pb.lit_sort_key, _bva_at, _restart, _restart),
        "am1": (_clause_ids, None, _am1_at, _restart, _restart),
        "bcr": (_clause_ids, None, _bcr_at, _restart, _restart),
        "lm": (_paid_vars, pb.var_sort_key, _lm_at,
               _on_each_var(_lm_on_coef), _lm_on_coef),
        "sbl": (_clause_ids, None, _sbl_at, _restart, _restart),
    }

    _STAGE2 = {name: _drain(name) for name in STAGE2_ORDER}
    _STAGE4 = {name: _drain(name) for name in STAGE4_ORDER
               if name not in ("trim", "harden")}
    _STAGE4.update(trim=trim_maxsat, harden=hardening)

    def _run_stage(self, names, table):
        """Run the passes `names` in rounds until a round changes nothing
        (or the round cap is hit), with every worklist pass starting from
        all of its candidates."""
        self.worklists = {name: _Worklist(self, *self._WORKLISTS[name])
                          for name in names if name in self._WORKLISTS}
        try:
            for _ in range(self.cfg.rounds):
                changed = False
                for name in names:
                    changed |= bool(table[name](self))
                if not changed:
                    return
            self.cap_hit = True
        finally:
            self.worklists = {}
            self.groups = None

    def _initial_conflict(self):
        return min((cid for cid, c in self.clauses.items()
                    if not c.terms and c.degree), default=None)

    def run(self):
        conflict = self._initial_conflict()
        if conflict is None:
            try:
                self.writer.comment("clause-level simplification")
                self._run_stage(self.cfg.stage2, self._STAGE2)
                if self.cfg.stage4:
                    self.convert_to_objective_centric()
                    self.writer.comment("objective-centric simplification")
                    self._run_stage(self.cfg.stage4, self._STAGE4)
            except Infeasible as exc:
                conflict = exc.cid
        if conflict is not None:
            return self.finalize_infeasible(conflict)
        self.writer.comment("constant removal and renaming")
        return self.finish()


def run(instance, config=None, sink=None):
    """Run the pipeline; returns (output instance, proof text, Preprocessor).

    The output reads the Preprocessor's clause store as it is iterated.
    With an explicit sink the proof is streamed there and the returned text
    is None.
    """
    own = sink is None
    if own:
        sink = io.StringIO()
    p = Preprocessor(instance, config, sink)
    out = p.run()
    return out, (sink.getvalue() if own else None), p
