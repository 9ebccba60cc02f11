"""Correctness gate for one benchmark operation (preprocess + check).

Everything here is computed apart from certprep: WCNF text is read with the
benchmark's own parser and optima come from the benchmark's own truth-table
enumerator, never from ``certprep opt``.
"""

import numpy as np

VERIFIED = "s VERIFIED OUTPUT EQUIOPTIMAL"
MAX_ENUM_VARS = 20


def parse_wcnf(text):
    """(hard, soft) from current-dialect WCNF text; raises ValueError."""
    hard, soft = [], []
    for line in text.splitlines():
        toks = line.split()
        if not toks or toks[0] == "c":
            continue
        if toks[-1] != "0":
            raise ValueError("clause not terminated by 0: %r" % line)
        lits = [int(t) for t in toks[1:-1]]
        if 0 in lits:
            raise ValueError("literal 0 inside a clause: %r" % line)
        if toks[0] == "h":
            hard.append(lits)
        else:
            w = int(toks[0])
            if w <= 0:
                raise ValueError("non-positive weight: %r" % line)
            soft.append((w, lits))
    return hard, soft


def canonical(hard, soft):
    """The instance as multisets of literal sets, ignoring order."""
    return (sorted(tuple(sorted(set(cl))) for cl in hard),
            sorted((w, tuple(sorted(set(cl)))) for w, cl in soft))


def optimum(hard, soft):
    """Least soft-weight cost over all assignments, None if infeasible."""
    vs = sorted({abs(l) for cl in hard for l in cl}
                | {abs(l) for _, cl in soft for l in cl})
    if len(vs) > MAX_ENUM_VARS:
        raise ValueError("%d variables exceed the enumerator's %d"
                         % (len(vs), MAX_ENUM_VARS))
    rows = np.arange(1 << len(vs), dtype=np.int64)
    col = {v: ((rows >> i) & 1).astype(bool) for i, v in enumerate(vs)}

    def sat(cl):
        s = np.zeros(rows.shape, dtype=bool)
        for l in cl:
            s |= col[l] if l > 0 else ~col[-l]
        return s

    feasible = np.ones(rows.shape, dtype=bool)
    for cl in hard:
        feasible &= sat(cl)
    if not feasible.any():
        return None
    cost = np.zeros(rows.shape, dtype=np.int64)
    for w, cl in soft:
        cost += np.where(sat(cl), 0, w)
    return int(cost[feasible].min())


def satisfies(model, hard):
    return all(any((l > 0) == model[abs(l)] for l in cl) for cl in hard)


def check(case, run, repeat_of=None):
    """Failure reasons for one operation, empty when it passes.

    `run` holds the outcome: ``pre_code``, ``chk_code``, ``chk_stdout``,
    ``output`` and ``proof`` (texts).  `repeat_of` is an earlier outcome for
    the same instance, whose output and proof must be byte-identical.
    """
    bad = []
    if run["pre_code"] != 0:
        bad.append("preprocess exited %d: %s" % (run["pre_code"],
                                                  run["pre_stdout"].strip()))
        return bad
    if run["chk_code"] != 0 or VERIFIED not in run["chk_stdout"].splitlines():
        bad.append("check exited %d: %s" % (run["chk_code"],
                                             run["chk_stdout"].strip()))
    try:
        hard, soft = parse_wcnf(run["output"])
    except ValueError as exc:
        return bad + ["unreadable output: %s" % exc]
    if any(not cl for cl in hard):
        bad.append("output is the infeasible form, but the input has a "
                   "planted model")
    if case.expected is not None:
        if canonical(hard, soft) != canonical(*case.expected):
            bad.append("output is not the input minus the planted duplicates "
                       "and tautologies")
    if repeat_of is not None:
        if run["output"] != repeat_of["output"]:
            bad.append("repeated run gave a different output")
        if run["proof"] != repeat_of["proof"]:
            bad.append("repeated run gave a different proof")
    return bad


def check_optimum(case, run):
    """Companion gate: input and output optima agree."""
    hard, soft = parse_wcnf(run["output"])
    try:
        want, got = optimum(case.hard, case.soft), optimum(hard, soft)
    except ValueError as exc:
        return ["cannot enumerate: %s" % exc]
    if want != got:
        return ["optimum changed from %s to %s" % (want, got)]
    return []


def check_oracle(counters):
    """oracle-trim gate: both oracle techniques applied."""
    bad = []
    for t in ("trim", "harden"):
        if counters.get("preprocess.%s.applied" % t, 0) <= 0:
            bad.append("%s did not apply" % t)
    return bad
