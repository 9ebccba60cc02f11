"""Traced CLI invocation: run ``certprep`` with spans around its layers.

    python3 perfbench/traced.py SPANS.json preprocess in.wcnf -o out.wcnf -p proof.pbp
    python3 perfbench/traced.py SPANS.json check in.wcnf proof.pbp out.wcnf

Wraps the public functions of each certprep module from outside (no program
file changes), runs ``certprep.cli.main`` on the remaining arguments, and
writes the spans and counters to SPANS.json when the command ends.  The exit
code and standard output are those of the CLI.

A span is ``[name, start_ns, end_ns, parent]`` with ``parent`` the index of
the enclosing span or -1.  Spans live in memory until the command ends.
"""

import json
import sys
import time

CHECKER_RULES = ("pol", "rup", "red", "delc", "delc_witness", "obju", "core")
WRITER_KINDS = ("rup", "red", "pol", "delc", "obju", "core")


class Tracer:

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}

    def add(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name, fn):
        """`fn` with every call recorded as a span called `name`."""
        def traced(*args, **kw):
            idx = self.open(name)
            try:
                return fn(*args, **kw)
            finally:
                self.close(idx)
        return traced


def checker_rule(line):
    """The checker rule a proof line exercises, or None for other lines."""
    toks = line.split(None, 1)
    if not toks:
        return None
    op = toks[0]
    if op == "delc":
        return "delc_witness" if ";" in line else "delc"
    return op if op in CHECKER_RULES else None


def instrument(tr):
    """Patch certprep's layers so that calls into them record spans."""
    from certprep import checker, cli, pb, preprocess, sat, wcnf, writer

    # wcnf: parsing and writing as the CLI calls them, encoding as both the
    # preprocessor and the checker call it
    parse = cli.parse_wcnf

    def parse_counted(text):
        inst = parse(text)
        tr.add("wcnf.clauses", len(inst.hard) + len(inst.soft))
        return inst
    cli.parse_wcnf = tr.wrap("wcnf.parse", parse_counted)
    cli.write_wcnf = tr.wrap("wcnf.write", cli.write_wcnf)
    encode = tr.wrap("wcnf.encode", wcnf.encode_to_pb)
    wcnf.encode_to_pb = encode
    preprocess.encode_to_pb = encode

    # preprocess: each technique-table entry as the stage loop dispatches it
    P = preprocess.Preprocessor
    first = {}

    def technique(name, fn):
        def dispatched(self):
            if first.get("name") == name:
                tr.add("preprocess.rounds")
            tr.add("preprocess.%s.passes" % name)
            before = self.writer.lines_written
            idx = tr.open("preprocess." + name)
            try:
                return fn(self)
            finally:
                tr.close(idx)
                tr.add("preprocess.%s.proof_lines" % name,
                       self.writer.lines_written - before)
        return dispatched

    P._STAGE2 = {n: technique(n, f) for n, f in P._STAGE2.items()}
    P._STAGE4 = {n: technique(n, f) for n, f in P._STAGE4.items()}
    run_stage = P._run_stage

    def run_stage_marked(self, names, table):
        first["name"] = names[0] if names else None
        return run_stage(self, names, table)
    P._run_stage = run_stage_marked

    finish = P.finish

    def finish_traced(self):
        before = self.writer.lines_written
        idx = tr.open("preprocess.finish")
        try:
            return finish(self)
        finally:
            tr.close(idx)
            tr.add("preprocess.finish.proof_lines",
                   self.writer.lines_written - before)
    P.finish = finish_traced

    run = preprocess.run

    def run_counted(*args, **kw):
        out, text, p = run(*args, **kw)
        for name, n in p.counts.items():
            tr.add("preprocess.%s.applied" % name, n)
        return out, text, p
    preprocess.run = tr.wrap("preprocess.run", run_counted)

    # writer: proof lines by kind, counted at its public methods
    W = writer.ProofWriter
    for meth, kind in (("pol", "pol"), ("rup", "rup"), ("red", "red"),
                       ("delc", "delc"), ("obju_diff", "obju"),
                       ("obju_new", "obju"), ("core_ids", "core")):
        def counted(self, *args, _fn=getattr(W, meth),
                    _key="writer.lines." + kind, **kw):
            if self.sink is not None:
                tr.add(_key)
            return _fn(self, *args, **kw)
        setattr(W, meth, counted)

    # checker: one span per proof line, named by the rule it exercises
    C = checker.ProofChecker
    feed = C.feed

    def feed_traced(self, line):
        rule = checker_rule(line)
        idx = tr.open("checker." + (rule or "other"))
        try:
            return feed(self, line)
        finally:
            tr.close(idx)
    C.feed = feed_traced
    cli.check_wcnf_proof = tr.wrap("checker.check", cli.check_wcnf_proof)

    # pb: the propagation kernel under the checker
    propagate = pb.unit_propagate

    def propagate_counted(constraints, assign=None):
        tr.add("pb.unit_propagate.constraints", len(constraints))
        return propagate(constraints, assign)
    pb.unit_propagate = tr.wrap("pb.unit_propagate", propagate_counted)
    pb.rup_check = tr.wrap("pb.rup_check", pb.rup_check)

    # sat: oracle calls, their conflicts and budget hits
    S = sat.SatOracle
    solve = S.solve

    def solve_counted(self, *args, **kw):
        before = self.conflicts
        try:
            return solve(self, *args, **kw)
        except sat.OracleBudget:
            tr.add("sat.budget_hits")
            raise
        finally:
            tr.add("sat.conflicts", self.conflicts - before)
    S.solve = tr.wrap("sat.solve", solve_counted)
    return cli


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tr = Tracer()
    cli = instrument(tr)
    idx = tr.open("cli." + (cli_args[0] if cli_args else "main"))
    try:
        code = cli.main(cli_args)
    finally:
        tr.close(idx)
        with open(spans_path, "w") as fh:
            json.dump({"spans": tr.spans, "counters": tr.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
