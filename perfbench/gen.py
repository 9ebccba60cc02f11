"""Seeded instance generators for the certprep benchmark.

Every instance is built from ``random.Random`` seeded with a string that
names the workload, the benchmark seed and the instance's place in the set,
so the same seed always gives byte-identical WCNF text.  Each family plants a
model that satisfies every hard clause, so no instance is infeasible.

Clauses are lists of DIMACS literals (non-zero ints); an instance is a pair
``(hard, soft)`` with ``soft`` a list of ``(weight, clause)``.

Run as a script to regenerate every workload's inputs for a seed and print
their SHA-1s::

    python3 perfbench/gen.py --seed 1
"""

import argparse
import hashlib
import os
import random

DEFAULT_TECHNIQUES = ("dup,taut,up,empty,sub,bce,ssr,fle,impl,eql,sle,gsle,"
                      "bve,am1,bcr,lm")


class Case:
    """One generated instance and how the benchmark runs and checks it."""

    def __init__(self, name, hard, soft, techniques=None, planted=None,
                 expected=None, oracle=False):
        self.name = name
        self.hard = hard
        self.soft = soft
        self.techniques = techniques      # None: the CLI's default set
        self.planted = planted            # {var: bool} satisfying every hard clause
        self.expected = expected          # (hard, soft) the output must equal
        self.oracle = oracle              # trim and harden must both apply
        self.text = to_wcnf(hard, soft)


def to_wcnf(hard, soft):
    lines = ["h %s 0" % " ".join(map(str, cl)) for cl in hard]
    lines += ["%d %s 0" % (w, " ".join(map(str, cl))) for w, cl in soft]
    return "\n".join(lines) + "\n"


def _rng(*key):
    return random.Random("certprep-bench:" + ":".join(map(str, key)))


def _satisfy(rng, cl, model):
    """Flip one literal of `cl` if the planted model falsifies all of it."""
    if not any((lit > 0) == model[abs(lit)] for lit in cl):
        i = rng.randrange(len(cl))
        cl[i] = -cl[i]
    return cl


def _clause(rng, nv, width):
    return [v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, nv + 1), width)]


# -- families ----------------------------------------------------------------


def random_probe(rng, nv):
    """nv variables, 2*nv hard clauses of width 2-3 satisfied by a planted
    model, nv soft clauses of width 1-2 with weights 1-9."""
    model = {v: rng.random() < 0.5 for v in range(1, nv + 1)}
    hard = [_satisfy(rng, _clause(rng, nv, rng.randint(2, 3)), model)
            for _ in range(2 * nv)]
    soft = [(rng.randint(1, 9), _clause(rng, nv, rng.randint(1, 2)))
            for _ in range(nv)]
    return hard, soft, model


def label_groups(rng, groups, softs_per_group=6):
    """Exactly-one groups of three variables with weight-3 binary softs.

    Each group has an at-least-one hard clause and pairwise exclusions.  The
    soft clauses pair a group literal with a literal of the same or the next
    group, so labels clash, duplicate and block one another across groups.
    """
    model = {v: False for v in range(1, groups * 3 + 1)}
    hard, soft = [], []
    for g in range(groups):
        vs = [g * 3 + 1, g * 3 + 2, g * 3 + 3]
        model[rng.choice(vs)] = True
        hard.append(list(vs))
        hard.extend([-a, -b] for i, a in enumerate(vs) for b in vs[i + 1:])
        nxt = [(g + 1) % groups * 3 + i + 1 for i in range(3)]
        for _ in range(softs_per_group):
            a = rng.choice(vs)
            b = rng.choice(nxt if rng.random() < 0.5 else vs)
            if a == b:
                continue
            soft.append((3, [a if rng.random() < 0.5 else -a,
                             b if rng.random() < 0.5 else -b]))
    return hard, soft, model


def pigeonhole_guard(guard, base, pigeons=4, holes=3):
    """Hard clauses that make `guard` false, but only search can tell:
    guard -> every pigeon sits in a hole, and no hole holds two pigeons."""
    var = [[base + p * holes + h + 1 for h in range(holes)]
           for p in range(pigeons)]
    hard = [[-guard] + row for row in var]
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                hard.append([-var[p][h], -var[q][h]])
    return hard, base + pigeons * holes


def oracle_trim(rng, groups, guards, pigeons=4, holes=3):
    """A label-groups instance with `guards` penalised literals, each
    guarding a pigeonhole gadget (4 into 3 by default), plus one heavy
    penalised literal that only a known solution's cost can fix."""
    hard, soft, model = label_groups(rng, groups)
    nv = groups * 3
    for _ in range(guards):
        g = nv + 1
        gadget, nv = pigeonhole_guard(g, g, pigeons, holes)
        hard.extend(gadget)
        model[g] = False
        for v in range(g + 1, nv + 1):
            model[v] = False
        lit = rng.randrange(1, groups * 3 + 1)
        hard.append([-g, lit])            # tie the gadget to the groups
        soft.append((rng.randint(2, 5), [-g]))
    heavy = nv + 1
    model[heavy] = False
    hard.append([-heavy] + rng.sample(range(1, groups * 3 + 1), 2))
    soft.append((sum(w for w, _ in soft) + 1, [-heavy]))
    return hard, soft, model


def large_light(rng, nv, n_hard, n_soft, n_dup, n_taut):
    """Hard clauses of width 3-5 and relaxed soft clauses of width 2-3 over
    distinct variables, all distinct as literal sets, plus planted duplicate
    hard clauses and hard tautologies.  Returns the instance and what the
    output must be once duplicates and tautologies are gone."""
    model = {v: rng.random() < 0.5 for v in range(1, nv + 1)}
    seen = set()

    def fresh(width, satisfy):
        while True:
            cl = _clause(rng, nv, width)
            if satisfy:
                _satisfy(rng, cl, model)
            key = frozenset(cl)
            if key not in seen:
                seen.add(key)
                return cl

    hard = [fresh(rng.randint(3, 5), True) for _ in range(n_hard)]
    soft = [(rng.randint(1, 9), fresh(rng.randint(2, 3), False))
            for _ in range(n_soft)]
    expected = (list(hard), list(soft))
    extra = []
    for _ in range(n_dup):
        cl = list(rng.choice(hard))
        rng.shuffle(cl)
        extra.append(cl)
    for _ in range(n_taut):
        v = rng.randint(1, nv)
        cl = [v, -v] + [u if rng.random() < 0.5 else -u
                        for u in rng.sample([u for u in range(1, nv + 1)
                                             if u != v], rng.randint(1, 3))]
        rng.shuffle(cl)
        extra.append(cl)
    # the planted clauses sit at random places among the originals
    for cl in extra:
        hard.insert(rng.randint(0, len(hard)), cl)
    return hard, soft, model, expected


# -- workloads ---------------------------------------------------------------

# Each main instance costs a few tenths of a second to a few seconds, and a
# round runs many of them: their sum varies far less from seed to seed than
# one large instance would, because the restart-from-scratch techniques make
# the time of a single instance depend on where in the variable order the
# first applicable candidate happens to sit.


def workload_cases(workload, seed, scale=1.0):
    """The main instances of one workload, in the order a round runs them.

    `scale` < 1 shrinks both the instances and their number (quick mode).
    """
    def n(x, low):
        return max(low, int(round(x * scale)))

    def rng(i):
        return _rng(workload, seed, i)

    cases = []
    if workload == "random-probe":
        for i in range(n(20, 2)):
            hard, soft, model = random_probe(rng(i), n(40 + i, 8))
            cases.append(Case("rp%d" % i, hard, soft, planted=model))
    elif workload == "label-groups":
        for i in range(n(10, 2)):
            hard, soft, model = label_groups(rng(i), n(10, 3),
                                             softs_per_group=10)
            cases.append(Case("lg%d" % i, hard, soft, planted=model))
    elif workload == "oracle-trim":
        for i in range(n(8, 2)):
            hard, soft, model = oracle_trim(rng(i), n(10, 3), 2)
            cases.append(Case("ot%d" % i, hard, soft,
                              techniques=DEFAULT_TECHNIQUES + ",trim,harden",
                              planted=model, oracle=True))
    elif workload == "large-light":
        for i in range(2):
            hard, soft, model, expected = large_light(
                rng(i), n(4000, 30), n(9600, 60), n(6400, 40), n(25, 2),
                n(25, 2))
            cases.append(Case("ll%d" % i, hard, soft, techniques="dup,taut",
                              planted=model, expected=expected))
    else:
        raise ValueError("unknown workload %r" % workload)
    return cases


def companion_cases(workload, seed):
    """Small instances from the same generator, small enough that the
    benchmark's brute-force enumerator can compare input and output optima."""
    key = (workload, seed, "companion")
    cases = []
    for i in range(3):
        rng = _rng(*key, i)
        if workload == "random-probe":
            hard, soft, model = random_probe(rng, 9)
            cases.append(Case("rp-c%d" % i, hard, soft, planted=model))
        elif workload == "label-groups":
            hard, soft, model = label_groups(rng, 3, softs_per_group=4)
            cases.append(Case("lg-c%d" % i, hard, soft, planted=model))
        elif workload == "oracle-trim":
            hard, soft, model = oracle_trim(rng, 2, 1, pigeons=3, holes=2)
            cases.append(Case("ot-c%d" % i, hard, soft,
                              techniques=DEFAULT_TECHNIQUES + ",trim,harden",
                              planted=model, oracle=True))
        elif workload == "large-light":
            hard, soft, model, expected = large_light(rng, 10, 12, 8, 2, 2)
            cases.append(Case("ll-c%d" % i, hard, soft, techniques="dup,taut",
                              planted=model, expected=expected))
        else:
            raise ValueError("unknown workload %r" % workload)
    return cases


WORKLOADS = ("random-probe", "label-groups", "oracle-trim", "large-light")

QUICK_SCALE = 0.1

TRIVIAL = Case("trivial", [[1, 2]], [(1, [-1])])


def sha1(text):
    return hashlib.sha1(text.encode()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Regenerate every workload's inputs for a seed and print "
                    "their SHA-1s.")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", help="also write the instances into this "
                                  "directory as <workload>-<name>.wcnf")
    args = ap.parse_args(argv)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    for w in WORKLOADS:
        for c in workload_cases(w, args.seed) + companion_cases(w, args.seed):
            print("%s  %s/%s  %d hard, %d soft" % (
                sha1(c.text), w, c.name, len(c.hard), len(c.soft)))
            if args.out:
                with open(os.path.join(args.out, "%s-%s.wcnf" % (w, c.name)),
                          "w") as fh:
                    fh.write(c.text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
