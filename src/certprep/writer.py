"""Proof log emission.

Thin, trusting serializer for the proof dialect understood by the checker;
the preprocessor calls one method per step.  Constraint ids are tracked here
so callers can reference earlier steps.  With ``sink=None`` the writer only
does id bookkeeping and formats nothing, which is the no-logging mode used
for timing comparisons.
"""

from . import pb
from .pb import HEADER, TRAILER


class ProofWriter:

    def __init__(self, sink=None):
        self.sink = sink
        self.next_id = 1
        self.lines_written = 0

    def _write(self, text):
        self.sink.write(text + "\n")
        self.lines_written += 1

    def _alloc(self):
        cid = self.next_id
        self.next_id += 1
        return cid

    def begin(self, n_constraints):
        self.next_id = n_constraints + 1
        if self.sink is not None:
            self._write(HEADER)
            self._write("f %d" % n_constraints)

    def comment(self, text):
        if self.sink is not None:
            self._write("* " + text)

    def pol(self, tokens):
        cid = self._alloc()
        if self.sink is not None:
            self._write("pol " + " ".join(str(t) for t in tokens))
        return cid

    def rup(self, c):
        cid = self._alloc()
        if self.sink is not None:
            self._write("rup %s ;" % pb.fmt_constraint(c))
        return cid

    def red(self, c, witness):
        cid = self._alloc()
        if self.sink is not None:
            self._write("red %s ; %s" % (pb.fmt_constraint(c),
                                         pb.fmt_witness(witness)))
        return cid

    def delc(self, cid, witness=None):
        if self.sink is not None:
            if witness is None:
                self._write("delc %d" % cid)
            else:
                self._write("delc %d ; %s" % (cid, pb.fmt_witness(witness)))

    def obju_diff(self, terms, const=0):
        if self.sink is not None:
            parts = ["%+d %s" % (w, pb.fmt_lit(lit)) for w, lit in terms]
            if const:
                parts.append("%+d" % const)
            self._write("obju diff %s ;" % " ".join(parts))

    def obju_new(self):
        if self.sink is not None:
            self._write("obju new ;")

    def core_ids(self, ids):
        if self.sink is not None:
            self._write("core id " + " ".join(str(i) for i in ids))

    def conclude(self):
        if self.sink is not None:
            self._write("output EQUIOPTIMAL")
            self._write("conclusion NONE")
            self._write(TRAILER)
