"""Minimal CDCL SAT oracle.

Deliberately small and deterministic: decisions pick the smallest unassigned
variable and try False first, unless the caller prefers one of its literals
(``solve(prefer=...)``), which is then decided true; learning is first-UIP,
no restarts or activity heuristics.  `trim` prefers its live objective
literals, so one model makes true every one it can (TrimMaxSAT; Paxian,
Raiola, Becker, VMCAI 2021).  Determinism matters because oracle runs are
replayed in proofs: `trim` logs every learned clause as a `rup` step, and
`harden` prints a model as a `red` witness.

The model is pinned by a contract, not by the propagation order: with the
assumptions placed first, the decisions in a fixed order and phase, and no
restarts, `solve` returns the lexicographically first model under that order
and phase (the assumptions true, then each variable in `pb.var_sort_key`
order at its preferred value where it can be), or None when there is none.
Every assignment before the first decision that leaves that model is entailed
and so agrees with it; a decision that leaves it has no model below it, so a
conflict takes it back, and learned clauses are entailed, so they cut off no
model.  Only the clauses learned on the way depend on the propagation order.

Propagation is the two-watched-literal loop of Chaff and MiniSat (Moskewicz
et al., DAC 2001; Een, Sorensson, SAT 2003).  A clause is stored without
repeated literals, and one of length >= 2 watches its positions 0 and 1,
kept there by swapping.  `_propagate` walks the trail from a queue head; for
each watcher of the literal that became false it finds a new watch, or
implies the other watch, or returns the conflict.  A learned clause watches
its asserting literal and a literal of the highest level below it, and is
implied directly after the backjump.  Clauses of at most one literal seed
each `solve`.  Nothing is done on backtrack.

Every learned clause is reverse-unit-propagation derivable from the clauses
present when it is learned (original plus earlier learned ones); ``on_learn``
lets the caller log clauses as they appear.  Solving under assumptions places
them as decisions; if an assumption is falsified, solve reports UNSAT and the
negation of any single failed assumption is itself RUP w.r.t. the clause
database extended with the learned clauses.

Two budgets cap the work, and exceeding either raises OracleBudget so callers
can abandon a technique cleanly: one on conflicts over the oracle's life, and
one on propagation work per `solve`, counted as the watch entries visited
plus the clause positions read, the other watch included.  Both are counts,
so a run gives up at the same point on every machine.
"""

from . import pb


class OracleBudget(Exception):
    pass


class SatOracle:

    def __init__(self, on_learn=None, conflict_budget=None, work_budget=None):
        self.clauses = []
        self.on_learn = on_learn
        self.conflict_budget = conflict_budget
        self.work_budget = work_budget
        self.conflicts = 0
        self.work = 0         # propagation work of the last solve
        self._vars = set()
        self._order = []      # decision order: _vars by var_sort_key; None: stale
        self._short = []      # indices of clauses with at most one literal
        self._watchers = {}   # literal -> indices of clauses watching it

    def add_clause(self, lits):
        cl = list(dict.fromkeys(lits))
        self._store(cl)
        vs = {l >> 1 for l in cl}
        if not vs <= self._vars:
            self._vars |= vs
            self._order = None

    # -- solving ---------------------------------------------------------------

    def solve(self, assumptions=(), prefer=()):
        """Return a total model {var: 0|1} or None (UNSAT under assumptions).

        A decision on a variable with a literal in `prefer` sets that
        literal true; every other decision sets its variable False."""
        self.work = 0
        if self._order is None:
            self._order = sorted(self._vars, key=pb.var_sort_key)
        phase = {l >> 1: l for l in prefer}
        self._val = {}        # literal -> True/False while its variable is set
        self._level = {}      # var -> decision level, valid while assigned
        self._reason = {}     # var -> clause index or None, valid while assigned
        self._trail = []
        self._qhead = 0       # trail literals before it have been propagated
        decide_from = 0       # every variable before it in _order is assigned
        level = 0
        confl = None
        for ci in self._short:
            cl = self.clauses[ci]
            if not cl or self._val.get(cl[0]) is False:
                confl = ci
                break
            if cl[0] not in self._val:
                self._imply(cl[0], 0, ci)
        while True:
            if confl is None:
                confl = self._propagate(level)
                if self.work_budget is not None and self.work > self.work_budget:
                    raise OracleBudget()
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
                decide_from = 0
                lower = learnt[:-1]
                if lower:
                    hi = max(range(len(lower)),
                             key=lambda j: self._level[lower[j] >> 1])
                    lower[0], lower[hi] = lower[hi], lower[0]
                self._store([learnt[-1]] + lower)
                if self.on_learn is not None:
                    self.on_learn(learnt)
                self._imply(learnt[-1], level, len(self.clauses) - 1)
                confl = None
                continue
            lit = None
            for a in assumptions:
                val = self._val.get(a)
                if val is None:
                    lit = a
                    break
                if val is False:
                    return None
            if lit is None:
                order, val = self._order, self._val
                while decide_from < len(order) and order[decide_from] << 1 in val:
                    decide_from += 1
                if decide_from < len(order):
                    v = order[decide_from]
                    lit = phase.get(v, pb.mklit(v, True))
            if lit is None:
                return {l >> 1: (l & 1) ^ 1 for l in self._trail}
            level += 1
            self._imply(lit, level, None)

    # -- internals ----------------------------------------------------------------

    def _store(self, cl):
        """Append clause `cl`, watching its positions 0 and 1 if it has two."""
        ci = len(self.clauses)
        self.clauses.append(cl)
        if len(cl) < 2:
            self._short.append(ci)
            return
        self._watchers.setdefault(cl[0], []).append(ci)
        self._watchers.setdefault(cl[1], []).append(ci)

    def _imply(self, lit, level, reason):
        self._val[lit] = True
        self._val[lit ^ 1] = False
        self._level[lit >> 1] = level
        self._reason[lit >> 1] = reason
        self._trail.append(lit)

    def _propagate(self, level):
        val, trail = self._val, self._trail
        clauses, watchers = self.clauses, self._watchers
        work = 0
        while self._qhead < len(trail):
            false = trail[self._qhead] ^ 1
            self._qhead += 1
            watching = watchers.get(false)
            if not watching:
                continue
            keep = []
            for i, ci in enumerate(watching):
                cl = clauses[ci]
                if cl[0] == false:
                    cl[0], cl[1] = cl[1], false
                first = cl[0]
                work += 2     # the watch entry and the other watch
                if val.get(first) is True:
                    keep.append(ci)
                    continue
                for j in range(2, len(cl)):
                    work += 1
                    l = cl[j]
                    if val.get(l) is not False:
                        cl[1], cl[j] = l, false
                        watchers.setdefault(l, []).append(ci)
                        break
                else:
                    keep.append(ci)
                    if first in val:
                        keep.extend(watching[i + 1:])
                        watchers[false] = keep
                        self.work += work
                        return ci
                    self._imply(first, level, ci)
            watchers[false] = keep
        self.work += work
        return None

    def _analyze(self, confl, level):
        seen = set()
        learnt = []
        counter = 0
        reason_lits = self.clauses[confl]
        idx = len(self._trail) - 1
        while True:
            for q in reason_lits:
                v = q >> 1
                lv = self._level[v]
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
            reason_lits = self.clauses[self._reason[p >> 1]]
        bj = 0
        for q in learnt:
            bj = max(bj, self._level[q >> 1])
        learnt.append(p)
        return learnt, bj

    def _backjump(self, bj):
        trail, val, level = self._trail, self._val, self._level
        while trail and level[trail[-1] >> 1] > bj:
            lit = trail.pop()
            del val[lit], val[lit ^ 1]
        self._qhead = len(trail)
