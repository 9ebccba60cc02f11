"""certprep benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload random-probe --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --quick        # every workload, tiny sizes
    python3 perfbench/run.py --self-test    # the gate rejects broken runs

Run from the root of a certprep checkout: the program is taken from
``src/`` there and every file the benchmark writes goes under
``.bench_build/perfbench``.  See perfbench/README.md for the workloads,
the metrics and which layer should move which metric.

One operation is one generated instance run through ``certprep preprocess``
and then ``certprep check``, each as its own process, one process at a time.
A round runs every instance of the workload once; a run repeats whole rounds
until the next one would end past ``--seconds`` (at least one round), and
reports each metric as its median over the rounds.  With ``--trace 1`` every
instance is also run through perfbench/traced.py, and the per-layer metrics
come from its spans.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import gen   # noqa: E402
from traced import CHECKER_RULES, WRITER_KINDS  # noqa: E402

SETUP_RUNS = 3     # per round, and once more before the first

TECHNIQUES = ("dup", "taut", "up", "empty", "sub", "bce", "ssr", "fle", "impl",
              "eql", "sle", "gsle", "bve", "am1", "bcr", "lm", "trim",
              "harden")
LAYERS = ("cli", "wcnf", "preprocess", "checker", "pb", "sat")

# The CLI's console-script entry point, spelled out so that no install is
# needed: the checkout's src/ comes first on PYTHONPATH.  It ends by writing
# the process's own peak RSS to stderr: ru_maxrss from wait4 would report the
# benchmark's own peak instead, since Linux carries the high-water mark of
# the forking process across fork and exec.
ENTRY = """import sys
from certprep.cli import main
code = main()
with open("/proc/self/status") as fh:
    sys.stderr.write([l for l in fh if l.startswith("VmHWM:")][0])
sys.exit(code)
"""

END_TO_END = (("preprocess_s", "s"), ("check_s", "s"), ("certify_s", "s"),
              ("setup_s", "s"), ("preprocess_rss_mb", "MB"),
              ("check_rss_mb", "MB"), ("proof_bytes", "bytes"),
              ("output_clauses", "count"))


def per_layer_units():
    units = {"wcnf.parse_s": "s", "wcnf.encode_s": "s", "wcnf.write_s": "s",
             "wcnf.clauses": "count"}
    for t in TECHNIQUES:
        units["preprocess.%s.s" % t] = "s"
        for k in ("passes", "applied", "proof_lines"):
            units["preprocess.%s.%s" % (t, k)] = "count"
    units["preprocess.finish.s"] = "s"
    units["preprocess.finish.proof_lines"] = "count"
    units["preprocess.rounds"] = "count"
    for k in WRITER_KINDS:
        units["writer.lines." + k] = "count"
    for r in CHECKER_RULES:
        units["checker.%s.count" % r] = "count"
        units["checker.%s.s" % r] = "s"
    units.update({"pb.unit_propagate.calls": "count",
                  "pb.unit_propagate.s": "s", "pb.rup_check.calls": "count",
                  "pb.unit_propagate.constraints": "count",
                  "sat.solve.calls": "count", "sat.solve.s": "s",
                  "sat.conflicts": "count", "sat.budget_hits": "count"})
    for layer in LAYERS:
        units[layer + ".self_s"] = "s"
    units["trace.certify_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = per_layer_units()


class Bench:
    """Runs CLI processes for one benchmark invocation inside `root`.

    Its files live in a directory of its own under .bench_build/perfbench,
    removed when the benchmark ends.
    """

    def __init__(self, root):
        self.work = os.path.join(root, ".bench_build", "perfbench",
                                 "run-%d" % os.getpid())
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def __enter__(self):
        os.makedirs(self.work, exist_ok=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)

    def path(self, name):
        return os.path.join(self.work, name)

    def cli(self, args, spans=None):
        """Run one CLI command; (exit code, output, wall s, peak RSS MB).

        The output is stdout followed by stderr.  The peak RSS is 0 for a
        traced command or one that did not finish normally.
        """
        if spans is None:
            argv = [sys.executable, "-c", ENTRY] + args
        else:
            argv = [sys.executable, os.path.join(HERE, "traced.py"),
                    spans] + args
        out, err = self.path("stdout.txt"), self.path("stderr.txt")
        with open(out, "w") as so, open(err, "w") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=so, stderr=se,
                                    cwd=self.work, env=self.env)
            _, status, _ = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss = 0.0
        text = _read(out)
        for line in _read(err).splitlines():
            if line.startswith("VmHWM:"):
                rss = int(line.split()[1]) / 1024.0
            else:
                text += line + "\n"
        return proc.returncode, text, wall, rss

    def write_input(self, case):
        with open(self.path(case.name + ".wcnf"), "w") as fh:
            fh.write(case.text)

    def operation(self, case, traced=False):
        """Preprocess then check one instance; the outcome and its spans."""
        tag = case.name + (".traced" if traced else "")
        inp = self.path(case.name + ".wcnf")
        out, proof = self.path(tag + ".out.wcnf"), self.path(tag + ".pbp")
        pre_args = ["preprocess", inp, "-o", out, "-p", proof]
        if case.techniques is not None:
            pre_args.append("--techniques=" + case.techniques)
        spans = [self.path(tag + ".pre.spans.json"),
                 self.path(tag + ".chk.spans.json")] if traced else [None, None]
        for s in spans:
            if s is not None and os.path.exists(s):
                os.remove(s)
        r = {}
        (r["pre_code"], r["pre_stdout"], r["pre_s"],
         r["pre_rss"]) = self.cli(pre_args, spans[0])
        (r["chk_code"], r["chk_stdout"], r["chk_s"],
         r["chk_rss"]) = self.cli(["check", inp, proof, out], spans[1])
        r["output"] = _read(out)
        r["proof"] = _read(proof)
        r["traces"] = [json.loads(_read(s)) for s in spans
                       if s is not None and os.path.exists(s)]
        return r

    def setup_s(self, runs):
        """Wall times of `runs` CLI preprocess calls on a trivial instance."""
        args = ["preprocess", self.path("trivial.wcnf"),
                "-o", self.path("trivial.out.wcnf"),
                "-p", self.path("trivial.pbp")]
        times = []
        for _ in range(runs):
            code, text, wall, _ = self.cli(args)
            if code != 0:
                raise RuntimeError("trivial preprocess failed: " + text)
            times.append(wall)
        return times


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:
        return ""


def aggregate(traces):
    """Per-layer metric values from the spans and counters of some traces."""
    time_ns, count, counters = {}, {}, {}
    self_ns = dict.fromkeys(LAYERS, 0)
    for data in traces:
        spans = data["spans"]
        inner = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                inner[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            time_ns[name] = time_ns.get(name, 0) + end - start
            count[name] = count.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            self_ns[layer] = self_ns.get(layer, 0) + end - start - inner[i]
        for k, v in data["counters"].items():
            counters[k] = counters.get(k, 0) + v

    def secs(name):
        return time_ns.get(name, 0) / 1e9

    m = {"wcnf.parse_s": secs("wcnf.parse"),
         "wcnf.encode_s": secs("wcnf.encode"),
         "wcnf.write_s": secs("wcnf.write"),
         "wcnf.clauses": counters.get("wcnf.clauses", 0)}
    for t in TECHNIQUES:
        m["preprocess.%s.s" % t] = secs("preprocess." + t)
        for k in ("passes", "applied", "proof_lines"):
            key = "preprocess.%s.%s" % (t, k)
            m[key] = counters.get(key, 0)
    m["preprocess.finish.s"] = secs("preprocess.finish")
    for key in ("preprocess.finish.proof_lines", "preprocess.rounds"):
        m[key] = counters.get(key, 0)
    for k in WRITER_KINDS:
        m["writer.lines." + k] = counters.get("writer.lines." + k, 0)
    for r in CHECKER_RULES:
        m["checker.%s.count" % r] = count.get("checker." + r, 0)
        m["checker.%s.s" % r] = secs("checker." + r)
    m["pb.unit_propagate.calls"] = count.get("pb.unit_propagate", 0)
    m["pb.unit_propagate.s"] = secs("pb.unit_propagate")
    m["pb.rup_check.calls"] = count.get("pb.rup_check", 0)
    m["pb.unit_propagate.constraints"] = counters.get(
        "pb.unit_propagate.constraints", 0)
    m["sat.solve.calls"] = count.get("sat.solve", 0)
    m["sat.solve.s"] = secs("sat.solve")
    m["sat.conflicts"] = counters.get("sat.conflicts", 0)
    m["sat.budget_hits"] = counters.get("sat.budget_hits", 0)
    for layer in LAYERS:
        m[layer + ".self_s"] = self_ns[layer] / 1e9
    return m, counters


def run_companions(bench, workload, seed, failures):
    """Gate the workload's small companion instances; returns the count.

    Each companion runs twice, so that every run checks a repeat for
    byte-identical output and proof, even a run of a single round.  The
    first run of an oracle-trim companion is traced, so that its technique
    counts show whether trim and harden applied.
    """
    cases = gen.companion_cases(workload, seed)
    for case in cases:
        bench.write_input(case)
        r = bench.operation(case, traced=case.oracle)
        bad = gate.check(case, r) + gate.check(case, bench.operation(case), r)
        if not bad:
            bad = gate.check_optimum(case, r)
        if not bad and case.oracle:
            bad = gate.check_oracle(aggregate(r["traces"])[1])
        failures.extend("%s: %s" % (case.name, b) for b in bad)
    return len(cases)


def run_round(bench, cases, traced, first, failures):
    """One pass over every instance; the round's metric values."""
    totals = {"preprocess_s": 0.0, "check_s": 0.0, "preprocess_rss_mb": 0.0,
              "check_rss_mb": 0.0, "proof_bytes": 0, "output_clauses": 0}
    traced_s, traces = 0.0, []
    failed = 0
    for case in cases:
        r = bench.operation(case)
        bad = gate.check(case, r, first.get(case.name))
        first.setdefault(case.name, r)
        if traced:
            t = bench.operation(case, traced=True)
            bad += gate.check(case, t, first[case.name])
            traced_s += t["pre_s"] + t["chk_s"]
            traces.extend(t["traces"])
            if case.oracle:
                _, counters = aggregate(t["traces"])
                bad += gate.check_oracle(counters)
        if bad:
            failed += 1
            failures.extend("%s: %s" % (case.name, b) for b in bad)
        totals["preprocess_s"] += r["pre_s"]
        totals["check_s"] += r["chk_s"]
        totals["preprocess_rss_mb"] = max(totals["preprocess_rss_mb"],
                                          r["pre_rss"])
        totals["check_rss_mb"] = max(totals["check_rss_mb"], r["chk_rss"])
        totals["proof_bytes"] += len(r["proof"].encode())
        if not bad:
            hard, soft = gate.parse_wcnf(r["output"])
            totals["output_clauses"] += len(hard) + len(soft)
    totals["certify_s"] = totals["preprocess_s"] + totals["check_s"]
    if traced:
        layer, _ = aggregate(traces)
        totals.update(layer)
        totals["trace.certify_s"] = traced_s
        totals["trace.overhead_s"] = traced_s - totals["certify_s"]
    return totals, failed


def benchmark(root, workload, seed, seconds, traced, scale=1.0):
    """One benchmark run: (operations attempted, failed, metric medians)."""
    with Bench(root) as bench:
        return measure(bench, workload, seed, seconds, traced, scale)


def measure(bench, workload, seed, seconds, traced, scale):
    bench.write_input(gen.TRIVIAL)
    bench.setup_s(1)    # the first call compiles the bytecode cache
    setup = bench.setup_s(SETUP_RUNS)
    cases = gen.workload_cases(workload, seed, scale)
    for case in cases:
        if not gate.satisfies(case.planted, case.hard):
            raise RuntimeError("generator bug: %s misses its planted model"
                               % case.name)
        bench.write_input(case)
    failures = []
    attempted = run_companions(bench, workload, seed, failures)
    failed = len({f.split(":", 1)[0] for f in failures})
    first, rounds, durations = {}, [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        values, n_failed = run_round(bench, cases, traced, first, failures)
        durations.append(time.perf_counter() - t0)
        rounds.append(values)
        setup += bench.setup_s(SETUP_RUNS)
        attempted += len(cases)
        failed += n_failed
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            break
    for f in failures:
        print("FAILED " + f, file=sys.stderr)
    medians = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    medians["setup_s"] = statistics.median(setup)
    return attempted, failed, medians


def result(attempted, failed, medians, units):
    """The benchmark's JSON result line for the metrics named in `units`."""
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": medians[k], "unit": u}
                        for k, u in units.items()}}


def self_test(root):
    """The gate must count a corrupted output and a truncated proof as
    failed, and pass the untouched run."""
    with Bench(root) as bench:
        return _self_test(bench)


def _self_test(bench):
    case = gen.companion_cases("label-groups", 0)[0]
    bench.write_input(case)
    good = bench.operation(case)
    ok = True
    if gate.check(case, good) or gate.check_optimum(case, good):
        print("self-test: the untouched run fails the gate", file=sys.stderr)
        ok = False
    inp = bench.path(case.name + ".wcnf")
    lines = good["output"].splitlines()
    first = lines[0].split()
    first[1] = str(-int(first[1]))
    broken = {
        "corrupted output": ("\n".join([" ".join(first)] + lines[1:]) + "\n",
                             good["proof"]),
        "truncated proof": (good["output"], "\n".join(
            good["proof"].splitlines()[:-3]) + "\n"),
    }
    for what, (output, proof) in broken.items():
        out, pbp = bench.path("broken.out.wcnf"), bench.path("broken.pbp")
        with open(out, "w") as fh:
            fh.write(output)
        with open(pbp, "w") as fh:
            fh.write(proof)
        run = dict(good, output=output, proof=proof)
        run["chk_code"], run["chk_stdout"], _, _ = bench.cli(
            ["check", inp, pbp, out])
        bad = gate.check(case, run)
        print("self-test: %s -> %s" % (what, bad or "PASSED THE GATE"))
        ok &= bool(bad)
    print("self-test: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="run every workload at a tiny size, both modes")
    ap.add_argument("--self-test", action="store_true",
                    help="show that the gate fails broken outputs and proofs")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "certprep", "cli.py")):
        print("error: run from the root of a certprep checkout "
              "(no src/certprep here)", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(root)
    if args.quick:
        failed = 0
        for w in gen.WORKLOADS:
            n, bad, medians = benchmark(root, w, args.seed, 0, True,
                                        scale=gen.QUICK_SCALE)
            shown = {k: round(v, 4) for k, v in medians.items() if v}
            print(json.dumps({"workload": w, "attempted": n, "failed": bad,
                              "metrics": shown}))
            failed += bad
        return 1 if failed else 0
    if args.workload is None:
        ap.error("--workload is required")
    attempted, failed, medians = benchmark(
        root, args.workload, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else dict(END_TO_END)
    print(json.dumps(result(attempted, failed, medians, units)))
    return 0

if __name__ == "__main__":
    sys.exit(main())
