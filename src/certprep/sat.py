"""Minimal CDCL SAT oracle.

Deliberately small and deterministic: decisions pick the smallest unassigned
variable and try False first, unless the caller prefers one of its literals
(``solve(prefer=...)``), which is then decided true; learning is first-UIP,
no restarts or activity heuristics.  `trim` prefers its live objective
literals, so one model makes true every one it can (TrimMaxSAT; Paxian,
Raiola, Becker, VMCAI 2021).  Determinism matters because oracle runs are
replayed in proofs: `trim` logs every learned clause as a `rup` step, and
`harden` prints a model, in assignment order, as a `red` witness.

Propagation is defined by a scan: sweep the clause list in index order,
acting on each clause that is unit (imply its one unassigned literal) or
falsified (report the conflict) when the sweep reaches it, and repeat the
sweep until one changes nothing.  That order picks the conflict and the trail,
and so the learned clauses, so it is pinned.  The oracle reproduces exactly
those events without sweeping, using watched literals (Chaff, Moskewicz et
al., DAC 2001):

- Every clause of length >= 2 watches two of its positions (positions, not
  literal values, so a repeated literal still counts twice, as in the scan).
  Assigning a literal visits the watchers of its negation: a clause whose
  other watch is true stays; otherwise the watch moves to another non-false
  position; if there is none the clause is unit or falsified and its index
  becomes a *candidate*.  Clauses of at most one literal have no watches and
  are the candidates every `solve` starts from.
- The candidates are then exactly the clauses the scan could act on.  The
  sweep position is kept: `_propagate` pops the smallest candidate at or
  after it, else wraps to the smallest one overall (the next sweep), and
  re-evaluates the clause with the scan's own rule before acting on it.
- A learned clause watches its asserting literal and a false literal of the
  highest level below it; after the backjump it is the only unit clause and
  so the only candidate.  Nothing is done on backtrack.

Every learned clause is reverse-unit-propagation derivable from the clauses
present when it is learned (original plus earlier learned ones); ``on_learn``
lets the caller log clauses as they appear.  Solving under assumptions places
them as decisions; if an assumption is falsified, solve reports UNSAT and the
negation of any single failed assumption is itself RUP w.r.t. the clause
database extended with the learned clauses.

Two budgets cap the work, and exceeding either raises OracleBudget so callers
can abandon a technique cleanly: one on conflicts over the oracle's life, and
one on propagation work per `solve`, counted as the watch entries visited
plus the clause positions scanned for a new watch.  Both are counts, so a
run gives up at the same point on every machine.
"""

from heapq import heappop, heappush

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
        self.conflict_level0 = False
        self._vars = set()
        self._order = []      # decision order: _vars by var_sort_key; None: stale
        self._short = []      # indices of clauses with at most one literal
        self._watch = []      # clause index -> [position, position] or None
        self._watchers = {}   # literal -> [2 * clause index + watch slot]

    def add_clause(self, lits):
        cl = list(lits)
        self._store(cl, 0, 1)
        vs = {l >> 1 for l in cl}
        if not vs <= self._vars:
            self._vars |= vs
            self._order = None

    # -- solving ---------------------------------------------------------------

    def solve(self, assumptions=(), prefer=()):
        """Return a total model {var: 0|1} or None (UNSAT under assumptions).

        A decision on a variable with a literal in `prefer` sets that
        literal true; every other decision sets its variable False."""
        self.conflict_level0 = False
        self.work = 0
        if self._order is None:
            self._order = sorted(self._vars, key=pb.var_sort_key)
        phase = {l >> 1: l for l in prefer}
        self._val = {}        # literal -> True/False while its variable is set
        self._level = {}      # var -> decision level, valid while assigned
        self._reason = {}     # var -> clause index or None, valid while assigned
        self._trail = []
        self._cand = list(self._short)   # candidates at or after _pos
        self._later = []                 # candidates before _pos
        self._pos = 0
        decide_from = 0       # every variable before it in _order is assigned
        level = 0
        while True:
            confl = self._propagate(level)
            if self.work_budget is not None and self.work > self.work_budget:
                raise OracleBudget()
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
                decide_from = 0
                last = len(learnt) - 1
                hi = max(range(last), key=lambda j: self._level[learnt[j] >> 1],
                         default=0)
                self._store(learnt, hi, last)
                self._cand = [len(self.clauses) - 1]
                self._later = []
                self._pos = 0
                if self.on_learn is not None:
                    self.on_learn(list(learnt))
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
            self._pos = 0
            self._imply(lit, level, None)

    # -- internals ----------------------------------------------------------------

    def _store(self, cl, i, j):
        """Append clause `cl`, watching its positions i and j if it has two."""
        ci = len(self.clauses)
        self.clauses.append(cl)
        if len(cl) < 2:
            self._short.append(ci)
            self._watch.append(None)
            return
        self._watch.append([i, j])
        self._watchers.setdefault(cl[i], []).append(2 * ci)
        self._watchers.setdefault(cl[j], []).append(2 * ci + 1)

    def _imply(self, lit, level, reason):
        val = self._val
        false = lit ^ 1
        val[lit] = True
        val[false] = False
        self._level[lit >> 1] = level
        self._reason[lit >> 1] = reason
        self._trail.append(lit)
        watching = self._watchers.get(false)
        if not watching:
            return
        clauses, watch, watchers = self.clauses, self._watch, self._watchers
        pos, cand, later = self._pos, self._cand, self._later
        work = len(watching)
        keep = []
        for entry in watching:
            ci = entry >> 1
            slot = entry & 1
            cl = clauses[ci]
            w = watch[ci]
            other = w[slot ^ 1]
            if val.get(cl[other]) is True:
                keep.append(entry)
                continue
            for j, l in enumerate(cl):
                if j != other and val.get(l) is not False:
                    w[slot] = j
                    watchers.setdefault(l, []).append(entry)
                    work += j + 1
                    break
            else:
                work += len(cl)
                keep.append(entry)
                heappush(cand if ci >= pos else later, ci)
        watchers[false] = keep
        self.work += work

    def _propagate(self, level):
        val = self._val
        while True:
            if not self._cand:
                if not self._later:
                    return None
                self._cand, self._later = self._later, []
                self._pos = 0
            ci = heappop(self._cand)
            unassigned = None
            count = 0
            sat = False
            for l in self.clauses[ci]:
                v = val.get(l)
                if v is True:
                    sat = True
                    break
                if v is None:
                    unassigned = l
                    count += 1
                    if count > 1:
                        break
            if sat or count > 1:
                continue
            if count == 0:
                return ci
            self._pos = ci + 1
            self._imply(unassigned, level, ci)

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
