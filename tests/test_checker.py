"""Checker behaviour on hand-built proofs, valid and broken."""

import pytest

from certprep import pb, wcnf
from certprep.checker import (HEADER, TRAILER, ProofChecker, ProofRejected,
                              check_proof, check_wcnf_proof)
from conftest import C, b, nb, nx, x


def run(cons, obj, lines, out_cons=None, out_obj=None):
    # a claimed output given without an objective claims the empty one
    return check_proof(cons, obj, lines, out_cons,
                       pb.Objective() if out_obj is None else out_obj)


def accepted(*args, **kwargs):
    v = run(*args, **kwargs)
    assert v.accepted, v.error
    return v


def rejected(*args, **kwargs):
    v = run(*args, **kwargs)
    assert not v.accepted
    return v


def wrap(body, level="EQUIOPTIMAL", n=None, cons=None):
    n = len(cons) if n is None else n
    return ([HEADER, "f %d" % n] + body
            + ["output %s" % level, "conclusion NONE", TRAILER])


CLAUSES = [C("+1 x1 +1 x2 >= 1"), C("+1 ~x1 +1 x2 >= 1")]
NO_OBJ = pb.Objective()


# -- structure ---------------------------------------------------------------

def test_minimal_identity_proof():
    v = accepted(CLAUSES, NO_OBJ, wrap([], cons=CLAUSES),
                 out_cons=CLAUSES, out_obj=NO_OBJ)
    assert v.level == "EQUIOPTIMAL"


def test_equioptimal_identity_with_objective():
    obj = pb.Objective({pb.mkvar(1): 2})
    accepted(CLAUSES, obj, wrap([], level="EQUIOPTIMAL", cons=CLAUSES),
             out_cons=CLAUSES, out_obj=obj)


def test_header_required():
    v = rejected(CLAUSES, NO_OBJ, ["bogus", "f 2"])
    assert v.error.startswith("line 1:")


def test_f_count_must_match():
    v = rejected(CLAUSES, NO_OBJ, [HEADER, "f 3"])
    assert "input constraints" in v.error and v.lineno == 2


def test_truncated_proof_rejected():
    v = rejected(CLAUSES, NO_OBJ, [HEADER, "f 2", "output EQUIOPTIMAL"])
    assert "truncated" in v.error or "conclusion" in v.error
    v = rejected(CLAUSES, NO_OBJ,
                 [HEADER, "f 2", "output EQUIOPTIMAL", "conclusion NONE"])
    assert "truncated" in v.error


def test_content_after_trailer_rejected():
    lines = wrap([], cons=CLAUSES) + ["rup +1 x1 >= 0 ;"]
    v = rejected(CLAUSES, NO_OBJ, lines)
    assert v.lineno == len(lines)


def test_comments_and_blanks_ignored():
    lines = [HEADER, "", "* chatter", "f 2", "* more", ""] + wrap([], cons=CLAUSES)[2:]
    accepted(CLAUSES, NO_OBJ, lines)


def test_unknown_step_rejected():
    v = rejected(CLAUSES, NO_OBJ, wrap(["frobnicate 1"], cons=CLAUSES))
    assert v.lineno == 3


# -- pol ----------------------------------------------------------------------

def test_pol_add_then_core():
    body = ["pol 1 2 +", "core id 3", "delc 1", "delc 2 ; x2 -> 0"]
    # core afterwards: {2 x2 >= 1}; output claims just that constraint
    accepted(CLAUSES, NO_OBJ, wrap(body, cons=CLAUSES),
             out_cons=[C("+2 x2 >= 1")], out_obj=NO_OBJ)


def test_pol_multiply_divide_saturate_literal_axiom():
    cons = [C("+2 x1 +2 x2 +2 x3 >= 3")]
    body = [
        "pol 1 2 d",          # id 2: x1+x2+x3 >= 2
        "pol 1 1 *",          # id 3: copy of 1
        "pol 1 s",            # id 4: saturate -> +2 x1 +2 x2 +2 x3 >= 3 (no-op here)
        "pol 2 ~x1 +",        # id 5: add literal axiom
        "core id 2 3 4 5",
    ]
    v = run(cons, NO_OBJ, wrap(body, cons=cons))
    assert v.accepted, v.error


def test_pol_errors():
    for bad, frag in [
        ("pol 9 2 +", "not live"),
        ("pol 1 +", "underflow"),
        ("pol 1 2", "stack"),
        ("pol 1 0 *", "positive"),
        ("pol 1 bogus +", "literal"),
        ("pol 1 2 + d", "integer"),
    ]:
        v = rejected(CLAUSES, NO_OBJ, wrap([bad], cons=CLAUSES))
        assert frag in v.error, (bad, v.error)


def test_pol_cannot_use_deleted_id():
    body = ["pol 1 2 +", "core id 3", "delc 1", "pol 1 3 +"]
    v = rejected(CLAUSES, NO_OBJ, wrap(body, cons=CLAUSES))
    assert "not live" in v.error


# -- rup -----------------------------------------------------------------------

def test_rup_addition():
    accepted(CLAUSES, NO_OBJ, wrap(["rup +1 x2 >= 1 ;"], cons=CLAUSES),
             out_cons=CLAUSES)


def test_rup_rejects_non_propagating():
    v = rejected(CLAUSES, NO_OBJ, wrap(["rup +1 x1 >= 1 ;"], cons=CLAUSES))
    assert "rup addition fails" in v.error and v.lineno == 3


def test_rup_needs_terminator():
    rejected(CLAUSES, NO_OBJ, wrap(["rup +1 x2 >= 1"], cons=CLAUSES))


def test_rup_uses_derived_constraints():
    body = ["rup +1 x2 >= 1 ;", "rup +1 x2 +1 x3 >= 1 ;"]
    accepted(CLAUSES, NO_OBJ, wrap(body, cons=CLAUSES), out_cons=CLAUSES)


# -- red ------------------------------------------------------------------------

def test_red_fresh_reification():
    # b1 <-> x1 via two reds on a fresh variable
    body = [
        "red +1 ~_b1 +1 x1 >= 1 ; _b1 -> 0",
        "red +1 _b1 +1 ~x1 >= 1 ; _b1 -> 1",
    ]
    accepted(CLAUSES, NO_OBJ, wrap(body, cons=CLAUSES), out_cons=CLAUSES)


def test_red_empty_witness_is_rup():
    accepted(CLAUSES, NO_OBJ, wrap(["red +1 x2 >= 1 ;"], cons=CLAUSES),
             out_cons=CLAUSES)
    rejected(CLAUSES, NO_OBJ, wrap(["red +1 x1 >= 1 ;"], cons=CLAUSES))


def test_red_sound_witness_accepted():
    # adding x1 >= 1 to {x1 v x2, ~x1 v x2} maps every model through x1 -> 1;
    # the one obligation (x2 >= 1 from clause 2) is implied under ~x1
    accepted(CLAUSES, NO_OBJ,
             wrap(["red +1 x1 >= 1 ; x1 -> 1"], cons=CLAUSES),
             out_cons=CLAUSES)


def test_red_unsound_witness_rejected():
    # with ~x1 v ~x2 instead, the image of (x1=0, x2=1) violates clause 2
    cons = [C("+1 x1 +1 x2 >= 1"), C("+1 ~x1 +1 ~x2 >= 1")]
    v = rejected(cons, NO_OBJ, wrap(["red +1 x1 >= 1 ; x1 -> 1"], cons=cons))
    assert "obligation fails for constraint 2" in v.error


def test_red_objective_obligation():
    # rup-dischargeable objective obligation: O = b1 + 3 b2, witness pays b1
    cons = [C("+1 _b1 +1 _b2 >= 1")]
    obj = pb.Objective({pb.mkvar(1, pb.NS_AUX): 1, pb.mkvar(2, pb.NS_AUX): 3})
    body = ["red +1 ~_b2 >= 1 ; _b1 -> 1 _b2 -> 0"]
    v = run(cons, obj, wrap(body, cons=cons))
    assert v.accepted, v.error
    # witness that drives the objective up is rejected
    cons2 = [C("+1 x1 +1 x2 >= 1")]
    obj2 = pb.Objective({pb.mkvar(1): 1})
    v = run(cons2, obj2,
            wrap(["red +1 ~_b1 +1 x1 >= 1 ; _b1 -> 0 x1 -> 1"], cons=cons2))
    assert not v.accepted and "objective" in v.error


def test_red_subproof_discharges_division_obligation():
    """Every obligation must follow by unit propagation: a ``; begin``
    subproof that would spell out the division obligation is a malformed
    trailer, and without it the obligation for constraint 2 still fails."""
    cons = [C("+2 x1 +2 x2 +2 x3 >= 3"), C("+1 x1 +1 x2 +1 x3 +3 x4 >= 2")]
    body = ["red +1 ~x4 >= 1 ; x4 -> 0 ; begin", "goal 2", "pol 1 2 d", "end"]
    v = rejected(cons, NO_OBJ, wrap(body, cons=cons))
    assert v.error == "line 3: red: malformed trailer"
    v = run(cons, NO_OBJ,
            wrap(["red +1 ~x4 >= 1 ; x4 -> 0"], cons=cons))
    assert not v.accepted and "constraint 2" in v.error


def test_red_subproof_rup_steps_and_errors():
    """Nothing after a red line's witness is read: subproofs with rup
    steps, a bad rup step, a step before any goal and a block left open
    are all rejected at the red line itself."""
    cons = [C("+2 x1 +2 x2 +2 x3 >= 3"), C("+1 x1 +1 x2 +1 x3 +3 x4 >= 2")]
    ok = ["red +1 ~x4 >= 1 ; x4 -> 0 ; begin",
          "goal 2",
          "pol 1 2 d",
          "rup +1 x1 +1 x2 +1 x3 >= 1 ;",
          "end"]
    bad = ["red +1 ~x4 >= 1 ; x4 -> 0 ; begin",
           "goal 2",
           "rup +1 x1 >= 1 ;",
           "end"]
    no_goal = ["red +1 ~x4 >= 1 ; x4 -> 0 ; begin", "pol 1 2 d", "end"]
    for body in (ok, bad, no_goal):
        v = rejected(cons, NO_OBJ, wrap(body, cons=cons))
        assert v.error == "line 3: red: malformed trailer"
    v = run(cons, NO_OBJ,
            [HEADER, "f 2", "red +1 ~x4 >= 1 ; x4 -> 0 ; begin",
             "goal 2", "pol 1 2 d"])
    assert not v.accepted
    assert v.error == "line 3: red: malformed trailer"


# -- delc -----------------------------------------------------------------------

def test_delc_derived_unconditional():
    # a derived constraint may be dropped even if nothing rederives it
    body = ["red +1 ~_b1 +1 x1 >= 1 ; _b1 -> 0", "delc 3"]
    accepted(CLAUSES, NO_OBJ, wrap(body, cons=CLAUSES), out_cons=CLAUSES)


def test_delc_core_requires_justification():
    v = rejected(CLAUSES, NO_OBJ, wrap(["delc 1"], cons=CLAUSES))
    assert "not rederivable" in v.error
    # with the strengthened clause in core first, deletion is fine
    body = ["pol 1 2 +", "core id 3", "delc 1"]
    accepted(CLAUSES, NO_OBJ, wrap(body, cons=CLAUSES),
             out_cons=[C("+2 x2 >= 1"), CLAUSES[1]])


def test_delc_core_not_rederivable_from_itself():
    cons = [C("+1 x1 >= 1")]
    v = rejected(cons, NO_OBJ, wrap(["delc 1"], cons=cons))
    assert "not rederivable" in v.error


def test_delc_witnessed_core_deletion():
    cons = [C("+1 ~_b1 +1 x1 >= 1")]
    accepted(cons, NO_OBJ, wrap(["delc 1 ; _b1 -> 0"], cons=cons),
             out_cons=[])


def test_delc_witnessed_obligation_failure():
    v = rejected(CLAUSES, NO_OBJ, wrap(["delc 1 ; x1 -> 1"], cons=CLAUSES))
    assert "obligation fails for constraint 2" in v.error


def test_delc_witnessed_self_obligation_failure():
    cons = [C("+1 x1 +1 x2 >= 1"), C("+1 ~x1 +1 x2 >= 1")]
    v = rejected(cons, NO_OBJ, wrap(["delc 1 ; x1 -> 0"], cons=cons))
    assert "introduced constraint" in v.error


@pytest.mark.parametrize("step, message", [
    ("delc 3 junk", "delc: malformed witness"),
    ("delc 3 ; this is not a witness", "bad witness near 'this'"),
])
def test_delc_of_a_derived_id_checks_its_trailer(step, message):
    body = ["red +1 ~_b1 +1 x1 >= 1 ; _b1 -> 0", step]
    v = rejected(CLAUSES, NO_OBJ, wrap(body, cons=CLAUSES))
    assert v.error == "line 4: " + message


# tests/data/golden.wcnf encoded: its hard clauses are constraints 1-2 and
# its two relaxed softs 3-4 (the unit soft on ~x1 is an objective term).
GOLDEN_CORE = [C("+1 x1 +1 x2 >= 1"), C("+1 ~x2 >= 1"),
               C("+1 x3 +1 ~x4 +1 _b1 >= 1"), C("+1 x4 +1 ~x5 +1 _b2 >= 1")]


@pytest.mark.parametrize("body, message", [
    (["pol 1 1 *", "delc 1", "delc 5"],
     "deleted core constraint is not rederivable"),
    (["pol 1 1 *", "delc 1 ; x3 -> 0", "delc 5"],
     "witness obligation fails for constraint 3"),
    (["red +1 x1 +1 x2 >= 1 ; x3 -> 0", "delc 1"],
     "deleted core constraint is not rederivable"),
])
def test_delc_of_a_core_id_is_justified_by_the_remaining_core(body, message):
    """A derived copy of a core constraint, by pol or red, justifies
    nothing when that constraint is deleted: the deletion would drop it."""
    v = rejected(GOLDEN_CORE, NO_OBJ, wrap(body, cons=GOLDEN_CORE),
                 out_cons=GOLDEN_CORE[1:], out_obj=NO_OBJ)
    assert v.error == "line 4: " + message
    # moved into the core, the copy justifies the deletion
    body = body[:1] + ["core id 5"] + body[1:2]
    accepted(GOLDEN_CORE, NO_OBJ, wrap(body, cons=GOLDEN_CORE),
             out_cons=GOLDEN_CORE, out_obj=NO_OBJ)


def test_delc_unknown_or_double():
    rejected(CLAUSES, NO_OBJ, wrap(["delc 7"], cons=CLAUSES))
    body = ["pol 1 2 +", "core id 3", "delc 1", "delc 1"]
    v = rejected(CLAUSES, NO_OBJ, wrap(body, cons=CLAUSES))
    assert "not live" in v.error


def test_occurrence_index_forgets_deleted_constraints():
    # deleting then witnessing on the same variable must not resurrect ids
    body = [
        "rup +1 x2 >= 1 ;",
        "core id 3",
        "delc 1",
        "delc 2",
        "red +1 x1 >= 1 ; x1 -> 1",
    ]
    accepted(CLAUSES, NO_OBJ, wrap(body, cons=CLAUSES),
             out_cons=[C("+1 x2 >= 1")])


# -- obju ------------------------------------------------------------------------

def test_obju_diff_fixed_literal():
    cons = [C("+1 x1 >= 1")]
    obj = pb.Objective({pb.mkvar(1): 2})
    body = ["obju diff -2 x1 +2 ;", "delc 1 ; x1 -> 1"]
    v = run(cons, obj, wrap(body, level="EQUIOPTIMAL", cons=cons),
            out_cons=[], out_obj=pb.Objective(constant=2))
    assert v.accepted, v.error


def test_obju_diff_unjustified():
    cons = [C("+1 x1 +1 x2 >= 1")]
    obj = pb.Objective({pb.mkvar(1): 1})
    v = run(cons, obj, wrap(["obju diff -1 x1 ;"], cons=cons))
    assert not v.accepted and "objective update" in v.error


def test_obju_justified_by_core_only_not_derived():
    # ~x1 lives only in derived: dropping 2*x1 from O must be rejected until
    # the constraint is moved into the core
    obj = pb.Objective({pb.mkvar(1): 2})
    body = ["red +1 ~x1 >= 1 ; x1 -> 0", "obju diff -2 x1 ;"]
    v = run([], obj, wrap(body, n=0))
    assert not v.accepted and "objective update" in v.error
    ok = ["red +1 ~x1 >= 1 ; x1 -> 0", "core id 1", "obju diff -2 x1 ;"]
    v = run([], obj, wrap(ok, level="EQUIOPTIMAL", n=0),
            out_cons=[C("+1 ~x1 >= 1")], out_obj=pb.Objective())
    assert v.accepted, v.error


def test_obju_scaled_structural_match():
    # the at-most-one pattern: weight 3 moves from b1, b2 onto b3 justified by
    # E = b1 + b2 + ~b3 >= 2 and the clause ~b1 v ~b2 v b3.  The E-direction
    # normalizes to 3*E (degree 6), which RUP cannot close; only the scaled
    # structural match can.
    cons = [C("+1 _b1 +1 _b2 +1 ~_b3 >= 2"), C("+1 ~_b1 +1 ~_b2 +1 _b3 >= 1")]
    obj = pb.Objective({pb.mkvar(1, pb.NS_AUX): 3, pb.mkvar(2, pb.NS_AUX): 3})
    body = ["obju diff -3 _b1 -3 _b2 +3 _b3 +3 ;"]
    v = run(cons, obj, wrap(body, cons=cons))
    assert v.accepted, v.error


def test_obju_scaled_match_needs_the_scaled_constraint():
    # without E in the core the same update must fail
    cons = [C("+1 ~_b1 +1 ~_b2 +1 _b3 >= 1")]
    obj = pb.Objective({pb.mkvar(1, pb.NS_AUX): 3, pb.mkvar(2, pb.NS_AUX): 3})
    v = run(cons, obj, wrap(["obju diff -3 _b1 -3 _b2 +3 _b3 +3 ;"], cons=cons))
    assert not v.accepted


def test_obju_new_with_contradictory_core():
    cons = [C("+1 x1 >= 1"), C("+1 ~x1 >= 1")]
    obj = pb.Objective({pb.mkvar(1): 5})
    body = ["rup >= 1 ;", "core id 3", "obju new ;",
            "delc 1", "delc 2"]
    v = run(cons, obj, wrap(body, level="EQUIOPTIMAL", cons=cons),
            out_cons=[C(">= 1")], out_obj=pb.Objective())
    assert v.accepted, v.error


# -- core moves ---------------------------------------------------------------

@pytest.mark.parametrize("step, message", [
    ("core id ٣", "bad constraint id '٣'"),
    ("delc ٣", "delc needs a constraint id"),
    ("delc ³", "delc needs a constraint id"),
    ("delc 3 ; x٣ -> 0", "bad literal 'x٣'"),
    ("rup +1 x٢ >= 1 ;", "bad literal 'x٢'"),
    ("rup +١ x2 >= ١ ;", "expected integer, got '+١'"),
    ("pol 3 ٢ *", "bad literal '٢'"),
])
def test_proof_numbers_are_ascii_digits(step, message):
    """Ids, coefficients, degrees, literal indices and pol factors are
    ASCII digits: a digit of another script, which ``int`` would read, or a
    superscript, which it would not, is named as a bad token.  The same
    step in ASCII digits is accepted."""
    body = ["rup +1 x2 >= 1 ;"]
    ascii_step = step.translate(str.maketrans("١٢٣³", "1233"))
    accepted(CLAUSES, NO_OBJ, wrap(body + [ascii_step], cons=CLAUSES))
    v = rejected(CLAUSES, NO_OBJ, wrap(body + [step], cons=CLAUSES))
    assert v.error == "line 4: " + message


@pytest.mark.parametrize("lines, message", [
    (wrap([], cons=CLAUSES)[:-1] + ["end proof"],
     "line 5: expected 'end pseudo-Boolean proof'"),
    (wrap(["red +1 x1 +1 x2 >= 1"], cons=CLAUSES),
     "line 3: red: missing witness"),
    (wrap(["delc 1 ; x1 -> 1 ;"], cons=CLAUSES),
     "line 3: delc: trailing tokens"),
    (wrap(["obju set +1 x1 ;"], cons=CLAUSES),
     "line 3: obju needs 'diff' or 'new'"),
    (wrap(["obju diff +1 x1 ; +1"], cons=CLAUSES),
     "line 3: obju: trailing tokens"),
    ([HEADER, "f 2", "output EQUIOPTIMAL NOW"],
     "line 3: expected 'output <level>'"),
    (wrap(["rup +1 x1 +1"], cons=CLAUSES),
     "line 3: truncated constraint"),
    # ~x1 >= 1 does not follow from the core, and the core constraint 2
    # holds ~x1 but is longer, so no scaled copy justifies it either
    (wrap(["obju diff +1 x1 ;"], cons=CLAUSES),
     "line 3: objective update is not justified by the core"),
])
def test_malformed_line_is_rejected_at_its_line(lines, message):
    """Each malformed line is rejected at its line number with its own
    message, the last through the length test of the scaled-copy match."""
    v = rejected(CLAUSES, NO_OBJ, lines)
    assert v.error == message


@pytest.mark.parametrize("step", [
    "pol 1 %s *", "rup +%s x1 +1 x2 >= 1 ;", "rup +1 x1 +1 x2 >= %s ;",
    "rup +1 x%s >= 1 ;", "delc %s", "core id %s",
])
def test_numbers_past_the_int_limit_are_named(step):
    """A number of more than pb.MAX_DIGITS digits is rejected at its line by
    name, not with int()'s own message; leading zeros do not count."""
    v = rejected(CLAUSES, NO_OBJ, wrap([step % ("9" * 5000)], cons=CLAUSES))
    assert v.error == "line 3: number of 5000 digits (at most 4300)"
    zeros = "0" * 5000
    if step.startswith("pol"):
        accepted(CLAUSES, NO_OBJ, wrap([step % (zeros + "2"), "core id 3"],
                                       cons=CLAUSES))
    elif step.startswith("rup +1 x1"):
        accepted(CLAUSES, NO_OBJ, wrap([step % (zeros + "1")], cons=CLAUSES))


def test_f_count_is_ascii_digits():
    v = rejected(CLAUSES, NO_OBJ, [HEADER, "f ٢"])
    assert v.error == "line 2: expected 'f <n>' after the header"
    for tok in ("x٣", "~x٣", "_b٣", "x²"):
        with pytest.raises(ValueError, match="bad literal"):
            pb.parse_lit(tok)
    with pytest.raises(ValueError, match="expected integer"):
        pb.parse_constraint_tokens(["+1", "x1", ">=", "١"])


def test_core_requires_live_id():
    v = rejected(CLAUSES, NO_OBJ, wrap(["core id 9"], cons=CLAUSES))
    assert "not live" in v.error
    rejected(CLAUSES, NO_OBJ, wrap(["core 3"], cons=CLAUSES))


# -- output levels ---------------------------------------------------------------

def test_output_unknown_level():
    v = rejected(CLAUSES, NO_OBJ, wrap([], level="SOMETHING", cons=CLAUSES))
    assert "unknown output level" in v.error


def test_output_equisat_ignores_objective():
    """EQUISATISFIABLE, which once let the objectives differ, is no level:
    it is rejected at its line, with the objectives equal or not."""
    obj = pb.Objective({pb.mkvar(1): 4})
    for out_obj in (pb.Objective(), obj):
        v = rejected(CLAUSES, obj, wrap([], level="EQUISATISFIABLE",
                                        cons=CLAUSES),
                     out_cons=CLAUSES, out_obj=out_obj)
        assert v.error == "line 3: unknown output level 'EQUISATISFIABLE'"


def test_output_equioptimal_checks_objective():
    obj = pb.Objective({pb.mkvar(1): 4})
    v = run(CLAUSES, obj, wrap([], level="EQUIOPTIMAL", cons=CLAUSES),
            out_cons=CLAUSES, out_obj=pb.Objective())
    assert not v.accepted and "objective" in v.error


def test_output_core_mismatch():
    v = run(CLAUSES, NO_OBJ, wrap([], cons=CLAUSES), out_cons=[CLAUSES[0]])
    assert not v.accepted and "core" in v.error
    # derived constraints do not count towards the core comparison
    body = ["rup +1 x2 >= 1 ;"]
    v = run(CLAUSES, NO_OBJ, wrap(body, cons=CLAUSES),
            out_cons=CLAUSES + [C("+1 x2 >= 1")])
    assert not v.accepted


def test_output_derivable_uses_derived_too():
    """DERIVABLE, which once took an output made of derived constraints
    too, is no level: it is rejected at its line, whatever the output."""
    body = ["rup +1 x2 >= 1 ;"]
    for out_cons in ([C("+1 x2 >= 1"), CLAUSES[0]], [C("+1 x3 >= 1")]):
        v = rejected(CLAUSES, NO_OBJ,
                     wrap(body, level="DERIVABLE", cons=CLAUSES),
                     out_cons=out_cons)
        assert v.error == "line 4: unknown output level 'DERIVABLE'"


def test_output_comparison_is_multiset_insensitive():
    cons = [C("+1 x1 +1 x2 >= 1"), C("+1 x1 +1 x2 >= 1")]
    accepted(cons, NO_OBJ, wrap([], cons=cons), out_cons=[cons[0]])


# -- whole-proof scenario ----------------------------------------------------------

def test_constant_removal_scenario():
    # fix x1=1, pay its weight, then move the paid constant onto a fresh
    # always-true label so the outcome is expressible as WCNF again
    inst = wcnf.parse_wcnf("h 1 0\n2 -1 0\n")
    out = wcnf.parse_wcnf("2 0\n")
    proof = [
        HEADER,
        "f 1",
        "obju diff -2 x1 +2 ;",
        "delc 1 ; x1 -> 1",
        "red +1 _b1 >= 1 ; _b1 -> 1",
        "core id 2",
        "obju diff +2 _b1 -2 ;",
        "output EQUIOPTIMAL",
        "conclusion NONE",
        TRAILER,
    ]
    v = check_wcnf_proof(inst, proof, out)
    assert v.accepted, v.error
    assert v.level == "EQUIOPTIMAL"


def test_wcnf_check_requires_the_claimed_output():
    """A check with no claimed output would compare nothing and accept: the
    output is a required argument, of the CLI's wrapper too."""
    from certprep import cli

    inst = wcnf.parse_wcnf("h 1 0\n")
    proof = wrap([], n=1)
    for check in (check_wcnf_proof, cli.check_wcnf_proof):
        with pytest.raises(TypeError):
            check(inst, proof)
    assert check_wcnf_proof(inst, proof, inst).accepted


def test_checker_drops_its_input_list_once_installed():
    """Once `f <n>` has installed the input, the engine alone holds it."""
    chk = ProofChecker(CLAUSES, NO_OBJ)
    chk.feed(HEADER)
    chk.feed("f 2")
    assert chk.input_constraints is None
    assert list(chk.constraints.values()) == CLAUSES


def test_checker_streaming_interface():
    chk = ProofChecker(CLAUSES, NO_OBJ, CLAUSES, NO_OBJ)
    for line in wrap([], cons=CLAUSES):
        chk.feed(line)
    assert chk.finish() == "EQUIOPTIMAL"
    with pytest.raises(ProofRejected):
        chk.feed("rup >= 0 ;")
