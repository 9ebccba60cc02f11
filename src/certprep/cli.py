"""Command-line entry points: preprocess, check, opt.

Exit codes: 0 success/verified, 1 rejected or unequal, 2 usage or I/O
error, 3 resource limit.  Diagnostics go to stderr; verdicts and summaries
to stdout.

Each command loads only what it runs: all of them the PB kernel and the
WCNF reader, ``preprocess`` the preprocessor and the proof writer (the SAT
oracle only for ``trim`` or ``harden``), ``check`` the checker.
"""

import argparse
import gc
import sys

from .wcnf import opt_cost_bruteforce, parse_wcnf, read_clauses, write_wcnf

VERIFIED_LINE = "s VERIFIED OUTPUT EQUIOPTIMAL"
GC_THRESHOLD = 50000    # generation-0 allocations between collections


def _read(path):
    with open(path, "r") as fh:
        return fh.read()


def _parse_instance(path):
    return parse_wcnf(_read(path))


def _clauses(path):
    # read_clauses over the file's text, read when the first clause is asked
    # for, so that the file is read and dropped in the order it is checked
    yield from read_clauses(_read(path))


def _proof_lines(path):
    # the lines of the file's text.splitlines(), read one file line at a
    # time from the first line asked for on
    with open(path, "r") as fh:
        for line in fh:
            yield from line.splitlines()


def check_wcnf_proof(input_clauses, proof_lines, output_clauses=None):
    """``checker.check_wcnf_proof``, looked up when called: only ``check``
    loads the checker."""
    from .checker import check_wcnf_proof as check

    return check(input_clauses, proof_lines, output_clauses)


def cmd_preprocess(args):
    from . import preprocess

    try:
        inst = _parse_instance(args.input)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        cfg = preprocess.Config.from_flag(args.techniques, rounds=args.rounds)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        with open(args.proof, "w") as proof_sink:
            out, _, p = preprocess.run(inst, cfg, sink=proof_sink)
        with open(args.output, "w") as fh:
            write_wcnf(out, fh)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if p.cap_hit:
        print("warning: iteration cap reached before fixpoint",
              file=sys.stderr)
    print("clauses: %d -> %d" % (len(inst.hard) + len(inst.soft),
                                 len(out.hard) + len(out.soft)))
    print("vars: %d -> %d" % (inst.max_var_index(), out.max_var_index()))
    print("proof lines: %d" % p.writer.lines_written)
    return 0


def cmd_check(args):
    # compile the checker before the instances are read: the compiler's
    # transient then peaks while the process is still small
    from . import checker  # noqa: F401

    # The checker encodes the input, keys the output, then replays the
    # proof, each read as it is needed: an error in the input is reported
    # before one in the output, and one in the output before the proof's.
    try:
        verdict = check_wcnf_proof(_clauses(args.input),
                                   _proof_lines(args.proof),
                                   _clauses(args.output))
    except (OSError, ValueError) as exc:  # also a read or decode error
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if verdict.accepted:    # the one level a proof can conclude
        print(VERIFIED_LINE)
        return 0
    print("s REJECTED %d: %s" % (verdict.lineno, verdict.error))
    return 1


def cmd_opt(args):
    try:
        inst = _parse_instance(args.input)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        best = opt_cost_bruteforce(inst, var_limit=args.bound)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    if best is None:
        print("s INFEASIBLE")
    else:
        print("o %d" % best)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="certprep",
        description="Certified MaxSAT preprocessing: simplify WCNF instances "
                    "with machine-checkable equioptimality proofs.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("preprocess",
                       help="simplify an instance and emit a proof")
    p.add_argument("input", help="input WCNF path")
    p.add_argument("-o", "--output", required=True, help="output WCNF path")
    p.add_argument("-p", "--proof", required=True, help="proof output path")
    p.add_argument("--techniques", default=None,
                   help="comma-separated technique names (default: standard "
                        "set; empty string: none)")
    p.add_argument("--rounds", type=int, default=5,
                   help="fixpoint iteration cap per stage")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("check", help="verify a proof end to end")
    p.add_argument("input", help="input WCNF path")
    p.add_argument("proof", help="proof path")
    p.add_argument("output", help="claimed output WCNF path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("opt", help="brute-force optimum (testing oracle)")
    p.add_argument("input", help="input WCNF path")
    p.add_argument("--bound", type=int, default=22,
                   help="refuse instances with more variables than this")
    p.set_defaults(func=cmd_opt)
    return parser


def main(argv=None):
    # A command builds tens of thousands of long-lived clause objects, and
    # at the default threshold the collector rescans them over and over; a
    # higher generation-0 threshold still collects cycles.  Only this
    # process's command is tuned: the old thresholds return with it.
    old = gc.get_threshold()
    gc.set_threshold(GC_THRESHOLD, *old[1:])
    try:
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        return args.func(args)
    finally:
        gc.set_threshold(*old)


if __name__ == "__main__":
    sys.exit(main())
