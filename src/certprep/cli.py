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
import os
import stat
import sys

from . import pb
from .wcnf import opt_cost_bruteforce, parse_wcnf, read_clauses, write_wcnf

VERIFIED_LINE = "s VERIFIED OUTPUT EQUIOPTIMAL"
GC_THRESHOLD = 50000    # generation-0 allocations between collections


def _lines(path):
    # the lines of the file's text.splitlines(), read some 8 KiB of whole
    # file lines at a time from the first line asked for on
    with open(path, "r") as fh:
        for block in iter(lambda: fh.readlines(1 << 13), []):
            yield from "".join(block).splitlines()


def _clauses(path):
    # read_clauses over the file, read a block of lines at a time as the
    # clauses are asked for, so that the file is read in the order it is
    # checked
    return read_clauses(_lines(path))


class _BadInput(Exception):
    """An input file that does not read as WCNF, or that changed while it
    was read."""


class _Tally:
    """The clauses of a stream, passed on as they are read and counted, and
    their largest literal `top`, whose variable is `top >> 1`."""

    def __init__(self, clauses):
        self.clauses = clauses
        self.count = self.top = 0

    def __iter__(self):
        for self.count, clause in enumerate(self.clauses, 1):
            if clause[1] and max(clause[1]) > self.top:
                self.top = max(clause[1])
            yield clause


class _InputFile:
    """The clauses of a WCNF file as the preprocessor reads them: one pass
    to encode, and one more for the output of a run that changes nothing.
    A regular file is read anew on each pass; anything else (a pipe) is
    read once, and its clauses are kept for the second pass.  The first
    pass's tally counts the clauses and finds their largest literal for the
    summary lines; a second pass that finds another count or largest
    literal fails, as the file changed in between."""

    def __init__(self, path):
        self.path = path
        self.kept = None if stat.S_ISREG(os.stat(path).st_mode) else []
        self.tally = None

    def __iter__(self):
        if self.tally is not None and self.kept is not None:
            yield from self.kept
            return
        tally = _Tally(_clauses(self.path))
        try:
            for clause in tally:
                if self.kept is not None:
                    self.kept.append(clause)
                yield clause
        except ValueError as exc:   # also a decode error
            raise _BadInput(str(exc)) from None
        if self.tally is None:
            self.tally = tally
        elif (tally.count, tally.top) != (self.tally.count, self.tally.top):
            raise _BadInput("%s changed while it was read" % self.path)


class _LateFile:
    """A file for writing that is created at its first write, so that an
    input that fails to read leaves no file behind.  A `with` block left by
    an exception, or a close that fails, removes the file again if it was
    created and is a regular one: a device such as /dev/null stays."""

    def __init__(self, path):
        self.path = path
        self.fh = None

    def write(self, text):
        if self.fh is None:
            self.fh = open(self.path, "w")
        self.fh.write(text)

    def writelines(self, lines):
        self.write("")      # created even if there are no lines
        self.fh.writelines(lines)

    def __enter__(self):
        return self

    def __exit__(self, failed, *exc):
        if self.fh is not None:
            regular = stat.S_ISREG(os.fstat(self.fh.fileno()).st_mode)
            try:
                self.fh.close()
            except OSError:     # the last of the text was not written
                failed = True
                raise
            finally:
                if failed and regular:
                    os.remove(self.path)


def _distinct_files(**paths):
    """Raise ValueError if two of the named paths are one regular file or
    one path to no file yet; a device such as /dev/null may take two."""
    seen = {}
    for role, path in paths.items():
        try:
            st = os.stat(path)
        except OSError:     # no file yet: its path is its name
            key = os.path.realpath(path)
        else:               # not a regular file: keyed apart by its role
            key = (st.st_dev, st.st_ino) if stat.S_ISREG(st.st_mode) else role
        if seen.setdefault(key, role) != role:
            raise ValueError("the %s and the %s are the same file: %s"
                             % (seen[key], role, path))


def check_wcnf_proof(input_clauses, proof_lines, output_clauses):
    """``checker.check_wcnf_proof``, looked up when called: only ``check``
    loads the checker."""
    from .checker import check_wcnf_proof as check

    return check(input_clauses, proof_lines, output_clauses)


def cmd_preprocess(args):
    from . import preprocess

    try:
        source = _InputFile(args.input)
        _distinct_files(input=args.input, output=args.output,
                        proof=args.proof)
        cfg = preprocess.Config.from_flag(args.techniques, rounds=args.rounds)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    # The input streams from the file into the preprocessor, which keeps the
    # one copy of each clause, and reads it whole before the proof's first
    # line.  The output that `preprocess.run` returns reads the
    # preprocessor's clauses as it is written, and the writing pass counts
    # it for the summary lines.  A failed run leaves neither file.
    try:
        with _LateFile(args.proof) as proof, _LateFile(args.output) as output:
            out, _, p = preprocess.run(source, cfg, sink=proof)
            written = _Tally(out)
            write_wcnf(written, output)
    except (_BadInput, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if p.cap_hit:
        print("warning: iteration cap reached before fixpoint",
              file=sys.stderr)
    print("clauses: %d -> %d" % (source.tally.count, written.count))
    print("vars: %d -> %d" % (pb.var_index(source.tally.top >> 1),
                                pb.var_index(written.top >> 1)))
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
                                   _lines(args.proof),
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
        inst = parse_wcnf(_lines(args.input))
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
