"""WCNF parsing/writing, PB translation, and the brute-force optimum oracles."""

import random

import pytest

from certprep import pb, wcnf
from conftest import (C, all_assignments, b, cost, nx, pb_opt_bruteforce,
                      random_instance, x)

NEW_SAMPLE = """\
c a comment
h 1 2 0

2 -1 0
3 2 3 0
1 1 0
"""

LEGACY_SAMPLE = """\
c legacy
p wcnf 3 4 10
10 1 2 0
3 -1 0
11 2 3 0
1 3 0
"""


def test_parse_new_format():
    inst = wcnf.parse_wcnf(NEW_SAMPLE)
    assert inst.hard == [[x(1), x(2)]]
    assert inst.soft == [(2, [nx(1)]), (3, [x(2), x(3)]), (1, [x(1)])]
    assert inst.max_var_index() == 3


def test_parse_legacy_format():
    inst = wcnf.parse_wcnf(LEGACY_SAMPLE)
    assert inst.hard == [[x(1), x(2)], [x(2), x(3)]]
    assert inst.soft == [(3, [nx(1)]), (1, [x(3)])]


def test_parse_empty_clauses():
    inst = wcnf.parse_wcnf("h 0\n4 0\n")
    assert inst.hard == [[]]
    assert inst.soft == [(4, [])]


def test_parse_errors():
    cases = [
        "h 1 2",            # missing terminator
        "2 1 0 3 0",        # literal 0 inside clause
        "0 1 0",            # zero weight
        "%d 1 0" % (2**63),  # weight overflow
        "w 1 0",            # bad weight token
        "h 1 x 0",          # bad literal
        "p wcnf 2 2\n2 1 0",       # legacy header missing top
        "p wcnf 2 2 0\n2 1 0",     # bad top
        "2 1 0\np wcnf 2 2 5",     # misplaced p-line
        "p wcnf 2 2 5\nh 1 0",     # 'h' inside legacy format
    ]
    for text in cases:
        with pytest.raises(ValueError):
            wcnf.parse_wcnf(text)


@pytest.mark.parametrize("text, line", [
    ("h 1 2 0\n%s 1 2 0\n" % ("9" * 5000), 2),
    ("h 1 2 0\n3 -%s 2 0\n" % ("1" * 5000), 2),
    ("p wcnf 2 1 %s\n5 1 2 0\n" % ("9" * 5000), 1),
], ids=["weight", "literal", "top"])
def test_numbers_past_the_int_limit_are_named(text, line):
    """A weight, literal or top of more than pb.MAX_DIGITS digits is refused
    at its line by name, not with int()'s own message."""
    with pytest.raises(ValueError) as exc:
        wcnf.parse_wcnf(text)
    assert str(exc.value) == (
        "line %d: number of 5000 digits (at most 4300)" % line)


def test_leading_zeros_do_not_count():
    zeros = "0" * 5000
    inst = wcnf.parse_wcnf("h %s1 2 0\n%s7 -1 -%s3 0\n" % (zeros, zeros,
                                                           zeros))
    assert inst.hard == [[x(1), x(2)]]
    assert inst.soft == [(7, [nx(1), nx(3)])]
    long_index = "9" * 4300     # the longest a number may be
    [[lit]] = wcnf.parse_wcnf("h %s 0\n" % long_index).hard
    assert lit >> 3 == int(long_index)


def test_write_roundtrip_and_exact_bytes():
    inst = wcnf.parse_wcnf(NEW_SAMPLE)
    out = wcnf.write_wcnf(inst)
    assert out == "h 1 2 0\n2 -1 0\n3 2 3 0\n1 1 0\n"
    assert wcnf.parse_wcnf(out) == inst
    assert wcnf.write_wcnf(wcnf.WcnfInstance()) == ""


def test_write_rejects_internal_variables():
    inst = wcnf.WcnfInstance(hard=[[pb.mklit(pb.mkvar(1, pb.NS_AUX))]])
    with pytest.raises(ValueError):
        wcnf.write_wcnf(inst)


# -- PB translation ----------------------------------------------------------

def test_encode_frozen():
    inst = wcnf.parse_wcnf(NEW_SAMPLE)
    cons, obj = wcnf.encode_to_pb(inst)
    assert cons == [C("+1 x1 +1 x2 >= 1"), C("+1 x2 +1 x3 +1 _b1 >= 1")]
    # 2*x1 (from unit ~x1) and 1*~x1 (from unit x1) merge to x1 + 1
    assert obj.coeffs == {pb.mkvar(1): 1, pb.mkvar(1, pb.NS_AUX): 3}
    assert obj.constant == 1


def test_encode_duplicate_unit_softs_merge():
    inst = wcnf.parse_wcnf("2 1 0\n5 1 0\n")
    cons, obj = wcnf.encode_to_pb(inst)
    assert cons == []
    assert obj.coeffs == {pb.mkvar(1): -7} and obj.constant == 7


def test_encode_empty_soft_gets_bare_label():
    cons, obj = wcnf.encode_to_pb(wcnf.parse_wcnf("4 0\n"))
    assert cons == [C("+1 _b1 >= 1")]
    assert obj.coeffs == {pb.mkvar(1, pb.NS_AUX): 4} and obj.constant == 0


def test_encode_dedupes_clause_literals():
    # (x1 x1) is a *unit* soft after dedup; (x1 ~x1 x2) hard is trivially true
    inst = wcnf.parse_wcnf("h 1 -1 2 0\n3 1 1 0\n")
    cons, obj = wcnf.encode_to_pb(inst)
    assert cons == [pb.constraint_from_clause([x(1), nx(1), x(2)])]
    assert cons[0].is_trivial()
    assert obj.coeffs == {pb.mkvar(1): -3} and obj.constant == 3


# -- cost and optimum oracles -------------------------------------------------

def test_cost_frozen():
    inst = wcnf.parse_wcnf(NEW_SAMPLE)
    v1, v2, v3 = pb.mkvar(1), pb.mkvar(2), pb.mkvar(3)
    assert cost(inst, {v1: 0, v2: 1, v3: 0}) == 1
    assert cost(inst, {v1: 1, v2: 1, v3: 1}) == 2
    assert cost(inst, {v1: 0, v2: 0, v3: 0}) is None  # hard violated


def test_opt_frozen():
    assert wcnf.opt_cost_bruteforce(wcnf.parse_wcnf(NEW_SAMPLE)) == 1
    assert wcnf.opt_cost_bruteforce(wcnf.parse_wcnf("h 1 0\nh -1 0\n")) is None
    assert wcnf.opt_cost_bruteforce(wcnf.parse_wcnf("h 0\n")) is None
    assert wcnf.opt_cost_bruteforce(wcnf.parse_wcnf("5 0\n")) == 5
    assert wcnf.opt_cost_bruteforce(wcnf.WcnfInstance()) == 0


def test_opt_respects_var_limit():
    inst = wcnf.parse_wcnf("h " + " ".join(str(i) for i in range(1, 30)) + " 0\n")
    with pytest.raises(ValueError):
        wcnf.opt_cost_bruteforce(inst, var_limit=22)


def test_opt_matches_naive_enumeration():
    rng = random.Random(7)
    for _ in range(60):
        inst = random_instance(rng, max_vars=6, max_clauses=10)
        vs = set()
        for cl in inst.hard:
            vs.update(l >> 1 for l in cl)
        for _, cl in inst.soft:
            vs.update(l >> 1 for l in cl)
        naive = None
        for assign in all_assignments(vs):
            c = cost(inst, assign)
            if c is not None and (naive is None or c < naive):
                naive = c
        assert wcnf.opt_cost_bruteforce(inst) == naive


def test_pb_opt_frozen():
    cons = [C("+1 x1 +1 x2 >= 1")]
    obj = pb.Objective({pb.mkvar(1): 1, pb.mkvar(2): 2}, constant=3)
    assert pb_opt_bruteforce(cons, obj) == 4
    assert pb_opt_bruteforce([C(">= 1")], obj) is None
    neg = pb.Objective({pb.mkvar(1): -5})
    assert pb_opt_bruteforce([], neg) == -5


def test_translation_preserves_optimum():
    rng = random.Random(11)
    for _ in range(60):
        inst = random_instance(rng, max_vars=6, max_clauses=10)
        cons, obj = wcnf.encode_to_pb(inst)
        assert pb_opt_bruteforce(cons, obj) == wcnf.opt_cost_bruteforce(inst)
