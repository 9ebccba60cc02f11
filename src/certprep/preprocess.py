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
with unit propagation alone; the comments on the trickier ones record which
live constraint closes each obligation.

A clause is hard exactly when it has no soft label: in the WCNF phase every
live clause is one or the other, and from the objective-centric switch on
there are no labels, so every clause is hard.  Clauses enter the store
through ``_install`` and every technique takes them out through
``_remove_clause``, which also logs the ``delc`` and retires a soft label.

The passes ``sub``, ``bce``, ``ssr``, ``sle``, ``bve`` and ``lm`` are driven
by worklists (the touched-variable queue of SatELite, Een & Biere 2005).
Each keeps a heap of the candidates (clause ids or variables) it still has
to test, in the order the restart-from-scratch scan would test them.
Invariant: a candidate absent from its pass's heap is known not to apply.
A candidate that tests "not applicable" leaves the heap; ``_install``,
``_uninstall`` and ``_update_objective`` push back every candidate whose
test reads the changed clause's occurrences or the changed coefficient
(the hooks in ``_WORKLISTS`` say which).  So a pass still
applies the first applicable candidate in scan order, and a round that
changes nothing near a candidate does not test it again.  The heaps live
for one stage: they are filled with every candidate when the stage starts
(for stage 4, right after the objective-centric switch drops every soft
label at once) and emptied when it ends.
"""

import heapq
import io

from . import pb
from .pb import (LinearConstraint, Objective, constraint_from_clause,
                 mklit, mkvar, neg)
from .sat import OracleBudget, SatOracle
from .wcnf import MAX_WEIGHT, WcnfInstance, encode_to_pb
from .writer import ProofWriter

STAGE2_ORDER = ("dup", "taut", "up", "empty", "sub", "bce")
STAGE4_ORDER = ("up", "sub", "ssr", "fle", "impl", "eql", "sle", "gsle",
                "bve", "bva", "am1", "bcr", "lm", "sbl", "trim", "harden")

# bva, sbl, trim and harden are opt-in: they are sound but tend to grow or
# reshape instances in ways the default schedule should not.
DEFAULT_TECHNIQUES = ("dup", "taut", "up", "empty", "sub", "bce",
                      "ssr", "fle", "impl", "eql", "sle", "gsle",
                      "bve", "am1", "bcr", "lm")


class Config:
    """Technique selection and resource knobs for a pipeline run."""

    def __init__(self, techniques=DEFAULT_TECHNIQUES, rounds=5, bve_growth=0,
                 oracle_conflicts=20000, max_proof_lines=None,
                 checkpoints=False):
        names = set(techniques)
        unknown = names - set(STAGE2_ORDER) - set(STAGE4_ORDER)
        if unknown:
            raise ValueError("unknown technique(s): %s" % ", ".join(sorted(unknown)))
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        if bve_growth < 0:
            raise ValueError("bve growth bound must be >= 0")
        self.stage2 = tuple(n for n in STAGE2_ORDER if n in names)
        self.stage4 = tuple(n for n in STAGE4_ORDER if n in names)
        self.rounds = rounds
        self.bve_growth = bve_growth
        self.oracle_conflicts = oracle_conflicts
        self.max_proof_lines = max_proof_lines
        self.checkpoints = checkpoints

    @classmethod
    def from_flag(cls, text, **kw):
        """Build from a comma-separated technique list ('' = none)."""
        names = tuple(t for t in text.split(",") if t)
        return cls(techniques=names, **kw)


def _unit(lit):
    return constraint_from_clause([lit])


def _exhaustively(once):
    """The pass that repeats `once` until it applies nothing; it returns
    whether anything applied."""
    def run(self):
        changed = False
        while once(self):
            changed = True
        return changed
    return run


class _Worklist:
    """The candidates one pass still has to test, smallest sort key first
    (`key` None: the candidate is its own key), with the pass's test and the
    hooks that push candidates back after a change (see the module
    docstring)."""

    __slots__ = ("key", "heap", "queued", "test", "on_clause", "on_coef")

    def __init__(self, candidates, key, test, on_clause, on_coef):
        self.key = key
        self.test = test
        self.on_clause = on_clause
        self.on_coef = on_coef
        self.queued = set(candidates)
        if key is None:
            self.heap = list(self.queued)
        else:
            self.heap = [(key(c), c) for c in self.queued]
        heapq.heapify(self.heap)

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


def _on_each_var(on_coef):
    """A clause hook for a pass whose candidates are variables: a changed
    clause counts as a change on each of its variables."""
    def on_clause(self, wl, cid, lits, added):
        for lit in lits:
            on_coef(self, wl, lit >> 1)
    return on_clause


def _drain(name):
    """The worklist pass `name`: test the pending candidates smallest first
    and apply each one that applies, keeping it pending since it may apply
    again; it returns whether anything applied."""
    def run(self):
        wl = self.worklists[name]
        changed = False
        while wl.heap:
            c = wl.pop()
            if wl.test(self, c):
                wl.push(c)
                changed = True
        return changed
    return run


class Infeasible(Exception):
    """The proof derived 0 >= 1; carries the conflicting constraint id."""

    def __init__(self, cid):
        super().__init__("hard clauses are unsatisfiable")
        self.cid = cid


class Preprocessor:
    """One pipeline run over a single instance.

    With ``sink=None`` no proof text is produced (id bookkeeping only);
    pass a file-like sink to stream the proof.
    """

    def __init__(self, instance, config=None, sink=None):
        self.cfg = config if config is not None else Config()
        self.writer = ProofWriter(sink)
        cons, objective, soft_info = encode_to_pb(instance)
        self.writer.begin(len(cons))
        self.objective = objective
        self.engine = pb.Propagator()
        self.clauses = self.engine.constraints  # cid -> clause, = proof core
        self.occ = self.engine.occ              # literal -> set of cids
        self.lits = {}          # cid -> its literals, in term order
        self.worklists = {}     # pass name -> _Worklist, during a stage
        self.closures = {}      # start literals -> _up_closure result
        self.soft_label = {}    # cid -> (label var, weight), WCNF phase only
        self.core_live = set(range(1, len(cons) + 1))
        for pos, c in enumerate(cons):
            cid = pos + 1
            self._install(cid, c)
            if pos in soft_info:
                self.soft_label[cid] = soft_info[pos]
        self.next_aux = len(soft_info) + 1
        self.next_tmp = 1
        self.phase = "wcnf"
        self.counts = {}
        self.cap_hit = False
        self.checkpoints = []
        self.input_instance = WcnfInstance(
            [list(c) for c in instance.hard],
            [(w, list(c)) for w, c in instance.soft])
        self.dirty = False

    # ------------------------------------------------------------------
    # bookkeeping

    def _install(self, cid, c):
        self.engine.add(cid, c)
        self.lits[cid] = lits = tuple(lit for _, lit in c.terms)
        self.closures.clear()
        for wl in self.worklists.values():
            wl.on_clause(self, wl, cid, lits, True)

    def _uninstall(self, cid):
        self.closures.clear()
        self.engine.remove(cid)
        lits = self.lits.pop(cid)
        for wl in self.worklists.values():
            wl.on_clause(self, wl, cid, lits, False)

    def _remove_clause(self, cid, witness=None):
        """Take a live clause out of the store and the core (with the delc
        witness, if any); a soft clause's label, now in no clause, leaves
        the objective too."""
        self._uninstall(cid)
        self._delc(cid, witness)
        if cid in self.soft_label:
            self._retire_soft_label(self.soft_label.pop(cid)[0])

    def _real_lits(self, cid, label=None):
        """The literals of clause `cid` other than those on `label`, by
        default its soft label."""
        if label is None and cid in self.soft_label:
            label = self.soft_label[cid][0]
        return tuple(l for l in self.lits[cid] if l >> 1 != label)

    def _occ_ids(self, lit):
        return self.engine.ids_with(lit)

    def _fresh_label(self):
        v = mkvar(self.next_aux, pb.NS_AUX)
        self.next_aux += 1
        return v

    def _fresh_tmp(self):
        v = mkvar(self.next_tmp, pb.NS_TMP)
        self.next_tmp += 1
        return v

    def _count(self, name):
        self.counts[name] = self.counts.get(name, 0) + 1
        if self.cfg.checkpoints:
            snap = tuple(sorted(self.clauses.values(),
                                key=lambda c: (c.degree, c.terms)))
            self.checkpoints.append((name, self.writer.lines_written,
                                     snap, self.objective.copy()))

    # ------------------------------------------------------------------
    # proof emission, keeping core_live in sync with the checker

    def _core(self, cid):
        self.writer.core_ids([cid])
        self.core_live.add(cid)
        return cid

    def _core_rup(self, c):
        return self._core(self.writer.rup(c))

    def _core_red(self, c, witness):
        return self._core(self.writer.red(c, witness))

    def _core_pol(self, tokens):
        return self._core(self.writer.pol(tokens))

    def _delc(self, cid, witness=None):
        self.writer.delc(cid, witness)
        self.core_live.discard(cid)
        self.dirty = True

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
            self.dirty = True
        for wl in self.worklists.values():
            if wl.on_coef is not None:
                for _, lit in diff:
                    wl.on_coef(self, wl, lit >> 1)

    # ------------------------------------------------------------------
    # the generic fixing procedure

    def fix_literal(self, lit, pid):
        """Propagate a literal pinned true by core constraint `pid` (lit >= 1).

        Emits the objective update, shrinks every clause containing ~lit,
        drops every other clause containing lit, retires satisfied soft
        labels, and finally deletes `pid` itself with the witness {var->val}.
        Returns the ids of newly created unit clauses.
        """
        v = lit >> 1
        val = 0 if lit & 1 else 1
        self._update_objective(*self.objective.delta({v: val}))
        units = []
        for cid in sorted(self._occ_ids(neg(lit))):
            new = pb.add(self.clauses[cid], _unit(lit))
            nid = self._core_pol([cid, pid, "+"])
            if cid in self.soft_label:      # the soft clause lives on as nid
                self.soft_label[nid] = self.soft_label.pop(cid)
            self._remove_clause(cid)
            if not new.terms and new.degree:
                raise Infeasible(nid)
            self._install(nid, new)
            if self._is_hard_unit(nid):
                units.append(nid)
        for cid in sorted(self._occ_ids(lit)):
            if cid != pid:
                self._remove_clause(cid)
        if pid in self.clauses:
            self._remove_clause(pid, {v: val})
        else:
            self._delc(pid, {v: val})
        return units

    def _retire_soft_label(self, label):
        # the label no longer occurs in any clause; drop its objective term
        hb = self._core_red(_unit(mklit(label, True)), {label: 0})
        self._update_objective(*self.objective.delta({label: 0}))
        self._delc(hb, {label: 0})

    # ------------------------------------------------------------------
    # stage 2: clause-level simplification (WCNF phase)

    def propagate_hard_units(self):
        queue = [cid for cid in sorted(self.clauses) if self._is_hard_unit(cid)]
        changed = False
        while queue:
            pid = queue.pop(0)
            if pid not in self.clauses or not self._is_hard_unit(pid):
                continue
            changed = True
            self._count("up")
            queue.extend(self.fix_literal(self.lits[pid][0], pid))
        return changed

    def _is_hard_unit(self, cid):
        c = self.clauses[cid]
        return (len(c.terms) == 1 and c.degree == 1
                and cid not in self.soft_label)

    def remove_duplicates(self):
        """Settle every group of clauses with the same real literals.

        The groups are built once per pass and settled from a heap keyed by
        each group's smallest live id, one action at a time, so the action
        applied is always the first applicable one in id order, as if the
        clauses were regrouped after every action.  That holds because an
        action changes no other group's verdict: it deletes only its own
        members and installs nothing, moves objective weight only onto or
        off its own labels, and syncing the unit soft (u) adds weight on ~u,
        which can only keep the group (~u) from applying.  Only the group
        just changed is pushed again, under its new smallest id.
        """
        groups = {}
        for cid in sorted(self.clauses):
            if not self.clauses[cid].is_trivial():
                groups.setdefault(self._real_lits(cid), []).append(cid)
        # a lone clause can apply only as a unit soft the objective pays for
        heap = [(cids[0], key) for key, cids in groups.items()
                if len(cids) > 1 or len(key) == 1]
        heapq.heapify(heap)
        changed = False
        while heap:
            _, key = heapq.heappop(heap)
            if not self._settle_duplicates(key, groups[key]):
                continue
            changed = True
            cids = groups[key] = [c for c in groups[key] if c in self.clauses]
            if cids:
                heapq.heappush(heap, (cids[0], key))
        return changed

    def _settle_duplicates(self, key, cids):
        """Apply the first applicable action to the live clauses `cids`
        (ascending) whose real literals are `key`; True if one applied."""
        hards = [c for c in cids if c not in self.soft_label]
        softs = [c for c in cids if c in self.soft_label]
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
            if len(softs) > 1 or self._unit_penalized(key[0]):
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
        bc, wc = self.soft_label[keep]
        bd, wd = self.soft_label[dup]
        if wc + wd > MAX_WEIGHT:
            return False
        # transfer the duplicate's weight onto the kept label, then drop it
        e1 = self._core_red(constraint_from_clause(
            [mklit(bc, True), mklit(bd)]), {bc: 0, bd: 0})
        e2 = self._core_red(constraint_from_clause(
            [mklit(bd, True), mklit(bc)]), {bc: 0, bd: 0})
        self._update_objective([(wd, mklit(bc)), (-wd, mklit(bd))])
        del self.soft_label[dup]
        self._remove_clause(dup)   # RUP through the kept clause and e1
        self._delc(e1, {bd: 1})
        self._delc(e2, {bd: 0})
        self.soft_label[keep] = (bc, wc + wd)
        return True

    def remove_tautologies(self):
        changed = False
        for cid in sorted(self.clauses):
            if not self.clauses[cid].is_trivial():
                continue
            self._remove_clause(cid)   # negating a trivial constraint conflicts
            self._count("taut")
            changed = True
        return changed

    def remove_empty_softs(self):
        changed = False
        for cid in sorted(self.clauses):
            if cid not in self.soft_label:
                continue
            c = self.clauses[cid]
            label, w = self.soft_label[cid]
            if c.degree != 1 or self._real_lits(cid):
                continue
            # nothing left but the relaxer: the weight is paid forever
            self._update_objective(*self.objective.delta({label: 1}))
            del self.soft_label[cid]
            self._remove_clause(cid, {label: 1})
            self._count("empty")
            changed = True
        return changed

    def _clause_ids(self):
        return self.clauses.keys()

    def _sub_at(self, cid):
        """sub: remove the first clause, in id order, that clause `cid`
        subsumes.  Which clause that is does not depend on the occurrence
        list the scan walks: every clause with all of `cid`'s literals is in
        each of their lists."""
        lits = self.lits.get(cid)
        if (not lits or cid in self.soft_label
                or self.clauses[cid].is_trivial()):
            return False
        rare = min(lits, key=lambda l: (len(self._occ_ids(l)), l))
        for did in sorted(self._occ_ids(rare)):
            if did == cid or did not in self.clauses:
                continue
            if not set(lits) <= set(self._real_lits(did)):
                continue
            if len(self.lits[did]) <= len(lits) and did < cid:
                continue   # identical clause: keep the earlier copy
            self._remove_clause(did)
            self._count("sub")
            return True
        return False

    def _sub_on_clause(self, wl, cid, lits, added):
        """sub: a new clause may subsume, and may be subsumed by a clause
        whose literals it all has (itself among them); a removal enables no
        subsumption."""
        if added:
            mine = set(lits)
            for l in lits:
                for sid in self._occ_ids(l):
                    if sid not in wl.queued and mine.issuperset(self.lits[sid]):
                        wl.push(sid)

    def _bce_at(self, cid):
        """bce: remove clause `cid` if it is blocked on one of its literals
        (the first one, in term order, is the witness)."""
        if (cid not in self.clauses or cid in self.soft_label
                or self.clauses[cid].is_trivial()):
            return False
        for lit in self.lits[cid]:
            if self._blocked_under(cid, lit):
                self._remove_clause(cid, {lit >> 1: 0 if lit & 1 else 1})
                self._count("bce")
                return True
        return False

    def _bce_on_clause(self, wl, cid, lits, added):
        """bce: a new clause is a candidate (it blocks nothing new, it only
        adds a resolution partner); a removed one may leave blocked every
        clause it resolved with, the clauses with a complementary literal."""
        if added:
            wl.push(cid)
        else:
            for l in lits:
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
        mine = set(self.lits[cid]) - {lit}
        for kid in self._occ_ids(neg(lit)):
            if kid == cid:
                return False
            other = set(self.lits[kid]) - {neg(lit)}
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
        for cid in sorted(list(self.soft_label)):
            c = self.clauses.get(cid)
            if c is not None and c.degree == 1 and len(c.terms) == 2:
                self._sync_unit_soft(cid)
        self.soft_label = {}
        self.phase = "oc"

    def _sync_unit_soft(self, cid):
        """Replace a relaxed unit soft (u v b) by the objective term w*~u."""
        label, w = self.soft_label.pop(cid)
        u = self._real_lits(cid, label)[0]
        helper = self._core_red(constraint_from_clause(
            [neg(u), mklit(label, True)]), {label: 0})
        self._update_objective([(w, neg(u)), (-w, mklit(label))])
        self._delc(helper, {label: 0})
        self._remove_clause(cid, {label: 1})

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
        dlits = self.lits.get(did)
        if dlits is None or len(dlits) < 2:
            return False
        for m in dlits:
            if self.objective.coef(m >> 1):
                continue
            rest = set(dlits) - {m}
            for cid in sorted(self._occ_ids(neg(m))):
                if cid == did:
                    continue
                if set(self.lits[cid]) - {neg(m)} <= rest:
                    c = constraint_from_clause(sorted(rest))
                    nid = self._core_rup(c)
                    self._install(nid, c)
                    self._remove_clause(did)
                    self._count("ssr")
                    return True
        return False

    def _ssr_on_clause(self, wl, cid, lits, added):
        """ssr: a new clause is a candidate and may strengthen every clause
        with a literal complementary to one of its own; a removal only takes
        partners away."""
        if added:
            wl.push(cid)
            for l in lits:
                wl.extend(self._occ_ids(neg(l)))

    def _fle_candidates(self):
        for lit in sorted(self.occ, key=pb.lit_sort_key):
            if not self.occ[lit]:
                continue
            # fixing lit=0 must not pay anything: ~lit may not be a paid term
            coef = self.objective.coef(lit >> 1)
            if (coef < 0) if lit & 1 == 0 else (coef > 0):
                continue
            yield lit

    def _fle_once(self):
        for lit in self._fle_candidates():
            closure, conflict = self._up_closure([lit])
            if conflict:
                pid = self._core_rup(_unit(neg(lit)))
                self.fix_literal(neg(lit), pid)
                self._count("fle")
                return True
            if all(any(l2 != lit and l2 in closure for l2 in self.lits[cid])
                   for cid in self._occ_ids(lit)):
                pid = self._core_red(_unit(neg(lit)),
                                     {lit >> 1: 1 if lit & 1 else 0})
                self.fix_literal(neg(lit), pid)
                self._count("fle")
                return True
        return False

    def _probes(self):
        """Each live literal l1, in literal order, whose closure and whose
        negation's closure both end without conflict, as (l1, the other
        literals of l1's closure in literal order, the closure of ~l1).
        A conflict on either side leaves neither impl nor eql anything to
        apply to l1."""
        for l1 in sorted((l for l in self.occ if self.occ[l]),
                         key=pb.lit_sort_key):
            pos, conflict = self._up_closure([l1])
            if conflict:
                continue
            neg_cl, conflict = self._up_closure([neg(l1)])
            if not conflict:
                yield l1, sorted(pos - {l1}, key=pb.lit_sort_key), neg_cl

    def _impl_once(self):
        for l1, implied, neg_cl in self._probes():
            for l2 in implied:
                if l2 in neg_cl:
                    self._fix_implied(l1, l2, witnessed=False)
                    return True
            # extension: one-sided implication with flippable ~l2 clauses
            if self.objective.coef(l1 >> 1):
                continue
            for l2 in implied:
                if self.objective.coef(l2 >> 1) or not self._occ_ids(neg(l2)):
                    continue
                if all(any(l3 != neg(l2) and l3 in neg_cl
                           for l3 in self.lits[cid])
                       for cid in self._occ_ids(neg(l2))):
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

    def _eql_once(self):
        for l1, implied, neg_cl in self._probes():
            for l2 in implied:
                if neg(l2) in neg_cl:
                    self._substitute_equivalent(l1, l2, witnessed=False)
                    return True
                if self.objective.coef(l1 >> 1) or self.objective.coef(l2 >> 1):
                    continue
                if all(any(l3 != l2 and l3 in neg_cl for l3 in self.lits[cid])
                       for cid in self._occ_ids(l2)):
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
        for cid in sorted(self._occ_ids(mklit(v)) | self._occ_ids(mklit(v, True))):
            c = constraint_from_clause([image ^ (l & 1) if l >> 1 == v else l
                                        for l in self.lits[cid]])
            if not c.is_trivial():
                nid = self._core_rup(c)
                self._install(nid, c)
            self._remove_clause(cid)
        self._update_objective(*self.objective.delta({v: image}))
        self._delc(e1, {v: image})
        self._delc(e2, {v: image})

    def _live_vars(self):
        return {l >> 1 for l in self.occ}

    def _near(self, x):
        """The variables other than x that share a clause with x."""
        near = set()
        for lit in (mklit(x), mklit(x, True)):
            for cid in self._occ_ids(lit):
                near.update(l >> 1 for l in self.lits[cid])
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
            if not posy <= self._occ_ids(mklit(x)):
                continue
            if not negx <= self._occ_ids(mklit(y, True)):
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
            doms = [l >> 1 for l in self.lits[min(pos)] if not l & 1]
        else:
            doms = [l >> 1 for cid in self._occ_ids(mklit(v, True))
                    for l in self.lits[cid] if l & 1]
        for x in doms:
            if coef(x) >= 0:
                wl.push(x)

    def _gsle_once(self):
        for b in sorted(self.objective.coeffs, key=pb.var_sort_key):
            cb = self.objective.coef(b)
            if cb <= 0 or self._occ_ids(mklit(b, True)):
                continue
            cids = self._occ_ids(mklit(b))
            if not cids:
                continue
            group = set()
            ok = True
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
                    ok = False
                    break
                group.add(best[1])
            if not ok or not group:
                continue
            if cb < sum(self.objective.coef(v) for v in group):
                continue
            witness = {b: 0}
            witness.update({v: 1 for v in group})
            pid = self._core_red(_unit(mklit(b, True)), witness)
            self.fix_literal(mklit(b, True), pid)
            self._count("gsle")
            return True
        return False

    def eliminate_variable_bve(self, v):
        """Resolve out variable v, which must carry no objective coefficient
        and occur in no soft clause (stage 4 has no soft clauses)."""
        pos = sorted(self._occ_ids(mklit(v)))
        negs = sorted(self._occ_ids(mklit(v, True)))
        for i in pos:
            for j in negs:
                resolvent = constraint_from_clause(
                    self._real_lits(i, v) + self._real_lits(j, v))
                if resolvent.is_trivial():
                    continue
                raw = pb.add(self.clauses[i], self.clauses[j])
                tokens = [min(i, j), max(i, j), "+"]
                if any(coef > 1 for coef, _ in raw.terms):
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
        resolvents as clauses (plus the growth bound)."""
        if self.objective.coef(v):
            return False
        pos = self._occ_ids(mklit(v))
        negs = self._occ_ids(mklit(v, True))
        if not pos or not negs:
            return False
        # a resolvent is a tautology exactly when its literals clash
        pos_sides = [self._real_lits(i, v) for i in pos]
        neg_sides = [self._real_lits(j, v) for j in negs]
        count = 0
        for a in pos_sides:
            for b in neg_sides:
                lits = set(a + b)
                if not any(neg(l) in lits for l in lits):
                    count += 1
        if count > len(pos) + len(negs) + self.cfg.bve_growth:
            return False
        self.eliminate_variable_bve(v)
        self._count("bve")
        return True

    def _bve_on_coef(self, wl, v):
        """bve: v reads its own occurrences and coefficient."""
        if not self.objective.coef(v):
            wl.push(v)

    def add_variables_bva(self, m_lits, suffixes):
        """Factor the clauses {l v D : l in m_lits, D in suffixes} through a
        fresh variable."""
        originals = []
        for l in m_lits:
            for d in suffixes:
                originals.append(self._find_clause(tuple(sorted(set(d) | {l},
                                                  key=pb.lit_sort_key))))
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

    def _find_clause(self, lits):
        want = set(lits)
        for cid in sorted(self._occ_ids(next(iter(want)))):
            if set(self.lits[cid]) == want:
                return cid
        raise KeyError("no live clause %r" % (sorted(want),))

    def _bva_once(self):
        by_clause = {}
        for cid in sorted(self.clauses):
            by_clause.setdefault(frozenset(self.lits[cid]), cid)
        lits = sorted((l for l in self.occ if self.occ[l]), key=pb.lit_sort_key)
        for i, l1 in enumerate(lits):
            for l2 in lits[i + 1:]:
                if l2 >> 1 == l1 >> 1:
                    continue
                suffixes = []
                for cid in sorted(self._occ_ids(l1)):
                    d = frozenset(self.lits[cid]) - {l1}
                    if d and l2 not in d and neg(l2) not in d \
                            and (d | {l2}) in by_clause:
                        suffixes.append(tuple(sorted(d, key=pb.lit_sort_key)))
                # replacing 2|S| clauses by |S|+2 must be a strict win
                if len(suffixes) + 2 < 2 * len(suffixes):
                    self.add_variables_bva([l1, l2], suffixes)
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
        self.writer.delc(d1)
        self._delc(elim, {bcd: 0})
        self._install(d2, clause)
        return bcd, d2

    def _am1_eligible(self, bin_cid):
        lits = self.lits[bin_cid]
        if len(lits) != 2 or any(l & 1 for l in lits):
            return None
        bc, bd = lits[0] >> 1, lits[1] >> 1
        w = self.objective.coef(bc)
        if w <= 0 or self.objective.coef(bd) != w:
            return None
        if w + self.objective.constant > MAX_WEIGHT:
            return None
        if self._occ_ids(mklit(bc, True)) or self._occ_ids(mklit(bd, True)):
            return None
        return bc, bd

    def _am1_once(self):
        skip_bcr = "bcr" in self.cfg.stage4
        for cid in sorted(self.clauses):
            pair = self._am1_eligible(cid)
            if pair is None:
                continue
            if skip_bcr and self._bcr_eligible(cid, *pair):
                continue
            self.intrinsic_at_most_ones(pair[0], pair[1], cid)
            self._count("am1")
            return True
        return False

    def _bcr_eligible(self, bin_cid, bc, bd):
        if (self._occ_ids(mklit(bc)) & self._occ_ids(mklit(bd))) != {bin_cid}:
            return False
        sides_c = sorted(self._occ_ids(mklit(bc)) - {bin_cid})
        sides_d = sorted(self._occ_ids(mklit(bd)) - {bin_cid})
        produced = 0
        for i in sides_c:
            ci = set(self.lits[i]) - {mklit(bc)}
            for j in sides_d:
                dj = set(self.lits[j]) - {mklit(bd)}
                if not any(neg(u) in dj for u in ci):
                    produced += 1
        return produced <= len(sides_c) + len(sides_d) + 1

    def binary_core_removal(self, bc, bd, bin_cid):
        bcd, _ = self.intrinsic_at_most_ones(bc, bd, bin_cid)
        self.eliminate_variable_bve(bc)
        self.eliminate_variable_bve(bd)
        return bcd

    def _bcr_once(self):
        for cid in sorted(self.clauses):
            pair = self._am1_eligible(cid)
            if pair is None or not self._bcr_eligible(cid, *pair):
                continue
            self.binary_core_removal(pair[0], pair[1], cid)
            self._count("bcr")
            return True
        return False

    def label_matching(self, cid_c, cid_d, x_lit, bc, bd):
        """Merge the equal-weight labels bc of `cid_c` and bd of `cid_d`,
        whose clauses clash on var(x_lit).

        `cid_c` must contain neg(x_lit) and `cid_d` x_lit; each label may
        occur nowhere else.  The recipe derives the at-most-one over the two
        labels from the clash, reifies their disjunction into a fresh label,
        transfers the weight, and rewrites both clauses.
        """
        w = self.objective.coef(bc)
        if self.objective.coef(bd) != w:
            raise ValueError("label weights differ")
        bcd = self._fresh_label()
        am1c = self.writer.red(constraint_from_clause(
            [mklit(bc, True), mklit(bd, True)]), {bc: x_lit, bd: neg(x_lit)})
        r1 = self._core_red(constraint_from_clause(
            [mklit(bcd, True), mklit(bc), mklit(bd)]), {bcd: 0})
        r2 = self.writer.red(pb.normalize(
            [(2, mklit(bcd)), (1, mklit(bc, True)), (1, mklit(bd, True))], 2),
            {bcd: 1})
        merged = self._core_pol([r2, am1c, "+", 2, "d"])
        self._update_objective(
            [(-w, mklit(bc)), (-w, mklit(bd)), (w, mklit(bcd))])
        kc = constraint_from_clause(self._real_lits(cid_c, bc) + (mklit(bcd),))
        kd = constraint_from_clause(self._real_lits(cid_d, bd) + (mklit(bcd),))
        kc_id = self._core_rup(kc)
        self._install(kc_id, kc)
        kd_id = self._core_rup(kd)
        self._install(kd_id, kd)
        self._delc(merged, {bc: 0, bd: 0})
        self.writer.delc(am1c)
        self._remove_clause(cid_c, {bc: 1})
        self._remove_clause(cid_d, {bd: 1})
        self.writer.delc(r2)
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
                for l in self.lits[cid_d]:
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
        for l in self.lits[e]:
            for cid in self._occ_ids(neg(l)):
                for u in self.lits[cid]:
                    if coef(u >> 1) > 0:
                        wl.push(u >> 1)

    def structure_based_labelling(self, cid, b, lit):
        """Weaken a clause blocked under b=1 into clause-or-b."""
        c = constraint_from_clause(list(self.lits[cid]) + [mklit(b)])
        nid = self._core_rup(c)
        self._install(nid, c)
        self._remove_clause(cid, {lit >> 1: 0 if lit & 1 else 1})

    def _sbl_once(self):
        obj_vars = [v for v in sorted(self.objective.coeffs,
                                      key=pb.var_sort_key)
                    if self.objective.coef(v) > 0]
        for cid in sorted(self.clauses):
            lits = self.lits[cid]
            for b in obj_vars:
                if b in {l >> 1 for l in lits}:
                    continue
                for lit in lits:
                    if self._blocked_under(cid, lit, b):
                        self.structure_based_labelling(cid, b, lit)
                        self._count("sbl")
                        return True
        return False

    def _oracle(self, on_learn=None):
        """A SAT oracle over the live clauses, trivial ones left out."""
        oracle = SatOracle(on_learn=on_learn,
                           conflict_budget=self.cfg.oracle_conflicts)
        for cid in sorted(self.clauses):
            if not self.clauses[cid].is_trivial():
                oracle.add_clause(self.lits[cid])
        return oracle

    def trim_maxsat(self):
        """Fix objective literals that a SAT oracle proves entailed false."""
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
                model = oracle.solve([mklit(s)])
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
                self.writer.delc(cid)
            return False
        pids = [(lit, self._core_rup(_unit(neg(lit))))
                for lit in entailed]
        for cid in derived:
            self.writer.delc(cid)
        for lit, pid in pids:
            self.fix_literal(neg(lit), pid)
            self._count("trim")
        return bool(pids)

    def hardening(self):
        """Fix objective literals whose cost exceeds a known solution's."""
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
        changed = False
        while True:
            terms, _ = self.objective.literal_form()
            picked = None
            for w, lit in terms:
                if w > bound:
                    picked = lit
                    break
            if picked is None:
                return changed
            witness = {v: 1 if b else 0 for v, b in model.items()}
            pid = self._core_red(_unit(neg(picked)), witness)
            self.fix_literal(neg(picked), pid)
            self._count("harden")
            changed = True

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
        order = []
        seen = set()
        for cid in sorted(self.clauses):
            for lit in self.lits[cid]:
                if lit >> 1 not in seen:
                    seen.add(lit >> 1)
                    order.append(lit >> 1)
        for _, lit in self.objective.literal_form()[0]:
            if lit >> 1 not in seen:
                seen.add(lit >> 1)
                order.append(lit >> 1)
        internal = [v for v in order if pb.var_ns(v) != pb.NS_USER]
        if not internal:
            return
        base = max((pb.var_index(v) for v in order
                    if pb.var_ns(v) == pb.NS_USER), default=0)
        finals = [mkvar(base + i + 1) for i in range(len(internal))]
        temps = [self._fresh_tmp() for _ in internal]
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
        for cid in sorted(self.clauses):
            if self.clauses[cid].is_trivial():
                self._remove_clause(cid)

    def finish(self):
        """Close out a feasible run: sync, fold the constant, rename, emit."""
        if self.phase == "wcnf":
            if not self.dirty:
                self.writer.conclude("EQUIOPTIMAL")
                return self.input_instance
            if self._pristine_softs():
                return self._finish_wcnf()
            self.convert_to_objective_centric()
        self._drop_trivial()
        self.remove_objective_constant()
        self.rename_variables()
        terms, const = self.objective.literal_form()
        if const:
            raise AssertionError("objective constant survived stage 5")
        hard = [list(self.lits[cid]) for cid in sorted(self.clauses)]
        soft = [(w, [neg(lit)]) for w, lit in terms]
        self.writer.conclude("EQUIOPTIMAL")
        return WcnfInstance(hard, soft)

    def _pristine_softs(self):
        """True when the relaxed softs can be written back verbatim: their
        labels are exactly the positional ones re-encoding the output would
        assign, and no other internal variable survives anywhere."""
        pairs = sorted(self.soft_label.items())
        labels = set()
        for k, (cid, (label, w)) in enumerate(pairs):
            if pb.var_ns(label) != pb.NS_AUX or pb.var_index(label) != k + 1:
                return False
            if self.objective.coef(label) != w:
                return False
            if self.clauses[cid].is_trivial():
                return False
            if len(self._real_lits(cid)) == 1:
                return False   # re-encoding would treat it as a unit soft
            labels.add(label)
        terms, const = self.objective.literal_form()
        if const:
            return False
        for w, lit in terms:
            v = lit >> 1
            if v in labels:
                if lit & 1:
                    return False
            elif pb.var_ns(v) != pb.NS_USER:
                return False
        for cid in self.clauses:
            for l in self.lits[cid]:
                if pb.var_ns(l >> 1) != pb.NS_USER and l >> 1 not in labels:
                    return False
        return True

    def _finish_wcnf(self):
        self._drop_trivial()
        hard = [list(self.lits[cid]) for cid in sorted(self.clauses)
                if cid not in self.soft_label]
        soft = [(w, list(self._real_lits(cid)))
                for cid, (label, w) in sorted(self.soft_label.items())]
        labels = {label for label, _ in self.soft_label.values()}
        terms, _ = self.objective.literal_form()
        soft.extend((w, [neg(lit)]) for w, lit in terms
                    if lit >> 1 not in labels)
        self.writer.conclude("EQUIOPTIMAL")
        return WcnfInstance(hard, soft)

    def finalize_infeasible(self, conflict_cid):
        """The core holds 0 >= 1: reduce everything to the empty clause."""
        for cid in sorted(self.core_live - {conflict_cid}):
            self._delc(cid)
        for cid in list(self.clauses):
            self._uninstall(cid)
        self.soft_label = {}
        if self.objective.coeffs or self.objective.constant:
            self.writer.obju_new([], 0)
            self.objective = Objective()
        self.writer.conclude("EQUIOPTIMAL")
        return WcnfInstance([[]], [])

    # ------------------------------------------------------------------
    # the full pipeline

    _STAGE2 = {
        "dup": remove_duplicates,
        "taut": remove_tautologies,
        "up": propagate_hard_units,
        "empty": remove_empty_softs,
        "sub": _drain("sub"),
        "bce": _drain("bce"),
    }
    _STAGE4 = {
        "up": propagate_hard_units,
        "sub": _drain("sub"),
        "ssr": _drain("ssr"),
        "fle": _exhaustively(_fle_once),
        "impl": _exhaustively(_impl_once),
        "eql": _exhaustively(_eql_once),
        "sle": _drain("sle"),
        "gsle": _exhaustively(_gsle_once),
        "bve": _drain("bve"),
        "bva": _exhaustively(_bva_once),
        "am1": _exhaustively(_am1_once),
        "bcr": _exhaustively(_bcr_once),
        "lm": _drain("lm"),
        "sbl": _exhaustively(_sbl_once),
        "trim": trim_maxsat,
        "harden": hardening,
    }

    # worklist pass -> (every candidate, sort key (None: the candidate
    # itself), the test that applies one candidate, what a changed clause
    # pushes back, what a changed objective coefficient pushes back)
    _WORKLISTS = {
        "sub": (_clause_ids, None, _sub_at, _sub_on_clause, None),
        "bce": (_clause_ids, None, _bce_at, _bce_on_clause, _on_freed_var),
        "ssr": (_clause_ids, None, _ssr_at, _ssr_on_clause, _on_freed_var),
        "sle": (_live_vars, pb.var_sort_key, _sle_at,
                _on_each_var(_sle_on_coef), _sle_on_coef),
        "bve": (_live_vars, pb.var_sort_key, _bve_at,
                _on_each_var(_bve_on_coef), _bve_on_coef),
        "lm": (_paid_vars, pb.var_sort_key, _lm_at,
               _on_each_var(_lm_on_coef), _lm_on_coef),
    }

    def _run_stage(self, names, table):
        """Run the passes `names` in rounds until a round changes nothing
        (or the round or proof-line cap is hit), with every worklist pass
        starting from all of its candidates."""
        self.worklists = {}
        for name in names:
            if name in self._WORKLISTS:
                candidates, *rest = self._WORKLISTS[name]
                self.worklists[name] = _Worklist(candidates(self), *rest)
        try:
            for _ in range(self.cfg.rounds):
                changed = False
                for name in names:
                    changed |= bool(table[name](self))
                    if self._line_budget_hit():
                        self.cap_hit = True
                        return
                if not changed:
                    return
            self.cap_hit = True
        finally:
            self.worklists = {}

    def _line_budget_hit(self):
        cap = self.cfg.max_proof_lines
        return cap is not None and self.writer.lines_written >= cap

    def _initial_conflict(self):
        for cid in sorted(self.clauses):
            c = self.clauses[cid]
            if not c.terms and c.degree:
                return cid
        return None

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

    With an explicit sink the proof is streamed there and the returned text
    is None.
    """
    own = sink is None
    if own:
        sink = io.StringIO()
    p = Preprocessor(instance, config, sink)
    out = p.run()
    return out, (sink.getvalue() if own else None), p
