"""Proof writer: exact emitted text, id bookkeeping, disabled mode."""

import io

from certprep import pb
from certprep.checker import check_wcnf_proof
from certprep.writer import ProofWriter
from conftest import C


def test_emitted_text_is_frozen():
    buf = io.StringIO()
    w = ProofWriter(buf)
    w.begin(4)
    assert w.pol([1, 2, "+"]) == 5
    assert w.rup(C("+1 x2 >= 1")) == 6
    assert w.red(C("+1 ~_b2 >= 1"),
                 {pb.mkvar(1, pb.NS_AUX): 1, pb.mkvar(2, pb.NS_AUX): 0}) == 7
    w.core_ids([5, 7])
    w.delc(1)
    w.delc(5, {pb.mkvar(1): 1})
    w.obju_diff([(-1, pb.mklit(pb.mkvar(1)))], 1)
    w.obju_diff([(-3, pb.mklit(pb.mkvar(2, pb.NS_AUX)))])
    w.obju_new()
    w.comment("hello")
    w.conclude()
    assert buf.getvalue() == """\
pseudo-Boolean proof version 2.0
f 4
pol 1 2 +
rup +1 x2 >= 1 ;
red +1 ~_b2 >= 1 ; _b1 -> 1 _b2 -> 0
core id 5 7
delc 1
delc 5 ; x1 -> 1
obju diff -1 x1 +1 ;
obju diff -3 _b2 ;
obju new ;
* hello
output EQUIOPTIMAL
conclusion NONE
end pseudo-Boolean proof
"""
    assert w.lines_written == 15


def test_disabled_writer_only_allocates_ids():
    w = ProofWriter(None)
    w.begin(2)
    assert w.pol([1, 2, "+"]) == 3
    assert w.rup(C("+1 x1 >= 1")) == 4
    assert w.red(C("+1 x1 >= 1"), {}) == 5
    w.delc(1)
    w.obju_diff([(1, pb.mklit(pb.mkvar(1)))])
    w.core_ids([3])
    w.conclude()
    assert w.lines_written == 0


def test_writer_output_replays_through_checker():
    from certprep import wcnf

    inst = wcnf.parse_wcnf("h 1 0\n2 -1 0\n")
    out = wcnf.parse_wcnf("2 0\n")
    buf = io.StringIO()
    w = ProofWriter(buf)
    w.begin(1)
    v1 = pb.mkvar(1)
    bw = pb.mkvar(1, pb.NS_AUX)
    w.obju_diff([(-2, pb.mklit(v1))], 2)
    w.delc(1, {v1: 1})
    rid = w.red(C("+1 _b1 >= 1"), {bw: 1})
    w.core_ids([rid])
    w.obju_diff([(2, pb.mklit(bw))], -2)
    w.conclude()
    verdict = check_wcnf_proof(inst, buf.getvalue().splitlines(), out)
    assert verdict.accepted, verdict.error
    assert verdict.level == "EQUIOPTIMAL"
