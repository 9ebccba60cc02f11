"""Unit tests for the PB kernel, checked against truth-table oracles."""

import random

import pytest
from hypothesis import given, strategies as st

from certprep import pb
from conftest import (C, all_assignments, b, constraint_satisfied, entails,
                      models, nb, nx, raw_satisfied, reference_negate,
                      reference_restrict, vars_of, x)


# -- strategies -------------------------------------------------------------

lits = st.builds(lambda i, n: pb.mklit(pb.mkvar(i), n),
                 st.integers(1, 4), st.booleans())
raw_term_lists = st.lists(st.tuples(st.integers(-4, 4), lits), max_size=6)
degrees = st.integers(-6, 8)


def constraints(max_var=4, max_coef=4, max_deg=6):
    return st.builds(
        pb.normalize,
        st.lists(st.tuples(st.integers(1, max_coef),
                           st.builds(lambda i, n: pb.mklit(pb.mkvar(i), n),
                                     st.integers(1, max_var), st.booleans())),
                 max_size=5),
        st.integers(0, max_deg))


# -- literal encoding -------------------------------------------------------

def test_literal_encoding_roundtrip():
    v = pb.mkvar(7, pb.NS_AUX)
    assert pb.var_index(v) == 7 and pb.var_ns(v) == pb.NS_AUX
    l = pb.mklit(v, True)
    assert pb.lit_var(l) == v
    assert pb.neg(l) == pb.mklit(v) and pb.neg(pb.neg(l)) == l
    assert pb.fmt_lit(l) == "~_b7"
    assert pb.parse_lit("~_b7") == l
    assert pb.parse_lit("x12") == pb.mklit(pb.mkvar(12))
    assert pb.parse_lit("_t3") == pb.mklit(pb.mkvar(3, pb.NS_TMP))


def test_literal_parse_rejects_garbage():
    for bad in ["y3", "x", "x0", "~~x1", "_b", "x1.5", ""]:
        with pytest.raises(ValueError):
            pb.parse_lit(bad)


def test_var_ordering_groups_namespaces():
    vs = [pb.mkvar(2, pb.NS_TMP), pb.mkvar(9), pb.mkvar(1, pb.NS_AUX),
          pb.mkvar(3)]
    ordered = sorted(vs, key=pb.var_sort_key)
    assert [pb.fmt_var(v) for v in ordered] == ["x3", "x9", "_b1", "_t2"]


# -- normalization ----------------------------------------------------------

def test_normalize_frozen_examples():
    # merging opposite literals of one variable cancels into the degree
    assert C("+1 x1 +1 ~x1 >= 1").is_trivial()
    # ~x rewrite: 2~x1 >= 1  ==  -2x1 >= -1, i.e. x1 <= 1/2, i.e. +2 ~x1 >= 1
    c = pb.normalize([(2, nx(1))], 1)
    assert c.terms == ((2, nx(1)),) and c.degree == 1
    # repeated same-sign terms merge
    assert C("+1 x2 +2 x2 >= 2") == C("+3 x2 >= 2")
    # negative coefficient flips the literal and bumps the degree
    assert pb.normalize([(-2, x(1))], -1) == C("+2 ~x1 >= 1")
    # degree clamped at zero
    assert pb.normalize([(1, x(1))], -3).degree == 0


def test_normalize_sorts_terms_by_namespace_then_index():
    c = pb.normalize([(1, b(1)), (1, x(5)), (1, x(2))], 1)
    assert [pb.fmt_lit(l) for _, l in c.terms] == ["x2", "x5", "_b1"]


@given(raw_term_lists, degrees)
def test_normalize_preserves_semantics(raw, degree):
    c = pb.normalize(raw, degree)
    vs = {lit >> 1 for _, lit in raw} | set(c.vars())
    for assign in all_assignments(vs):
        assert constraint_satisfied(c, assign) == raw_satisfied(raw, degree, assign)


@given(raw_term_lists, degrees)
def test_normalize_invariants(raw, degree):
    c = pb.normalize(raw, degree)
    seen_vars = [lit >> 1 for _, lit in c.terms]
    assert len(set(seen_vars)) == len(seen_vars)
    assert all(coef > 0 for coef, _ in c.terms)
    assert c.degree >= 0
    assert seen_vars == sorted(seen_vars, key=pb.var_sort_key)


def test_clause_conversion_dedupes_literals():
    assert pb.constraint_from_clause([x(1), x(2), x(1)]) == C("+1 x1 +1 x2 >= 1")
    assert pb.constraint_from_clause([x(1), nx(1)]).is_trivial()
    assert pb.constraint_from_clause([]) == C(">= 1")


# -- cutting-planes rules ---------------------------------------------------

def test_rule_frozen_examples():
    assert pb.negate(C("+1 x1 +1 x2 >= 1")) == C("+1 ~x1 +1 ~x2 >= 2")
    assert pb.add(C("+1 x1 +1 x2 >= 1"), C("+1 ~x1 +1 x2 >= 1")) == C("+2 x2 >= 1")
    assert pb.multiply(C("+1 x1 +2 x2 >= 2"), 3) == C("+3 x1 +6 x2 >= 6")
    assert pb.divide(C("+3 x1 +5 x2 >= 4"), 2) == C("+2 x1 +3 x2 >= 2")
    assert pb.saturate(C("+5 x1 +2 x2 >= 3")) == C("+3 x1 +2 x2 >= 3")
    assert pb.literal_axiom(nx(2)) == pb.LinearConstraint(((1, nx(2)),), 0)


def test_multiply_divide_reject_bad_factor():
    with pytest.raises(ValueError):
        pb.multiply(C("+1 x1 >= 1"), 0)
    with pytest.raises(ValueError):
        pb.divide(C("+1 x1 >= 1"), -2)


@given(constraints())
def test_negate_complements_solution_set(c):
    nc = pb.negate(c)
    vs = set(c.vars()) | set(nc.vars()) | {pb.mkvar(1)}
    for assign in all_assignments(vs):
        assert constraint_satisfied(c, assign) != constraint_satisfied(nc, assign)


def test_negate_matches_reference():
    """Negation without the merge and sort equals the `normalize`-based
    reference on random normalized constraints over all three namespaces
    and on what the pol rules make of them, including empty terms, degree 0
    and degree above the coefficient sum."""
    rng = random.Random(6)
    seen = {"empty": 0, "degree 0": 0, "above sum": 0}
    for _ in range(2000):
        raw = [(rng.randint(1, 9),
                pb.mklit(pb.mkvar(rng.randint(1, 5), rng.randrange(3)),
                         rng.random() < 0.5))
               for _ in range(rng.randint(0, 6))]
        c = pb.normalize(raw, rng.randint(-3, 40))
        k = rng.randint(1, 4)
        for d in (c, pb.multiply(c, k), pb.divide(c, k), pb.saturate(c),
                  pb.literal_axiom(raw[0][1] if raw else x(1))):
            assert pb.negate(d) == reference_negate(d), d
            seen["empty"] += not d.terms
            seen["degree 0"] += d.degree == 0
            seen["above sum"] += d.degree > sum(a for a, _ in d.terms)
    assert min(seen.values()) > 100, seen


@given(constraints(max_var=3), constraints(max_var=3))
def test_add_is_sound(c1, c2):
    s = pb.add(c1, c2)
    assert entails([c1, c2], s)


@given(constraints(max_var=3), st.integers(1, 4))
def test_multiply_is_exact(c, k):
    m = pb.multiply(c, k)
    vs = set(c.vars()) | {pb.mkvar(1)}
    for assign in all_assignments(vs):
        assert constraint_satisfied(c, assign) == constraint_satisfied(m, assign)


@given(constraints(max_var=3), st.integers(1, 4))
def test_divide_is_sound(c, k):
    assert entails([c], pb.divide(c, k))


@given(constraints(max_var=3))
def test_saturate_is_exact(c):
    s = pb.saturate(c)
    vs = set(c.vars()) | {pb.mkvar(1)}
    for assign in all_assignments(vs):
        assert constraint_satisfied(c, assign) == constraint_satisfied(s, assign)


# -- substitution -----------------------------------------------------------

def test_restrict_frozen_examples():
    assert pb.restrict(C("+1 x1 +1 x2 >= 1"), {pb.mkvar(1): x(2)}) == C("+2 x2 >= 1")
    assert pb.restrict(C("+2 x1 +1 ~x2 >= 2"), {pb.mkvar(1): nx(2)}) == C("+3 ~x2 >= 2")
    assert pb.restrict(C("+2 x1 +1 x2 >= 2"), {pb.mkvar(1): 1}) == C("+1 x2 >= 0")
    assert pb.restrict(C("+2 x1 +1 x2 >= 2"), {pb.mkvar(1): 0}) == C("+1 x2 >= 2")
    # untouched constraint comes back equal
    c = C("+3 x1 +1 _b1 >= 2")
    assert pb.restrict(c, {pb.mkvar(9): 1}) == c


@given(constraints(max_var=3),
       st.dictionaries(st.integers(1, 3).map(pb.mkvar),
                       st.one_of(st.just(0), st.just(1),
                                 st.integers(4, 5).map(lambda i: pb.mklit(pb.mkvar(i))))))
def test_restrict_matches_semantic_substitution(c, witness):
    r = pb.restrict(c, witness)
    vs = set(c.vars()) | set(r.vars()) | set(witness) | {pb.mkvar(4), pb.mkvar(5)}
    for assign in all_assignments(vs):
        sub = dict(assign)
        for v, img in witness.items():
            if img in (0, 1):
                sub[v] = img
            else:
                sub[v] = assign[img >> 1] ^ (img & 1)
        assert constraint_satisfied(r, assign) == constraint_satisfied(c, sub)


def test_restrict_matches_reference():
    """Restriction without the merge and sort when every image is a
    constant equals the `normalize`-based reference on random normalized
    constraints over all three namespaces, with witnesses of constants,
    literals or both, including empty terms, terms emptied by the witness
    and constants that take the degree below 0."""
    rng = random.Random(8)

    def var():
        return pb.mkvar(rng.randint(1, 5), rng.randrange(3))

    seen = {"empty": 0, "emptied": 0, "below 0": 0, "literal": 0,
            "constants": 0}
    for _ in range(3000):
        raw = [(rng.randint(1, 9), pb.mklit(var(), rng.random() < 0.5))
               for _ in range(rng.randint(0, 6))]
        c = pb.normalize(raw, rng.randint(-3, 30))
        witness = {}
        for _ in range(rng.randint(0, 12)):
            r = rng.random()
            witness[var()] = (rng.randint(0, 1) if r < 0.7
                              else pb.mklit(var(), rng.random() < 0.5))
        r = pb.restrict(c, witness)
        assert r == reference_restrict(c, witness), (c, witness)
        images = [witness[v] for v in c.vars() if v in witness]
        literal = any(img not in (0, 1) for img in images)
        seen["empty"] += not c.terms
        seen["emptied"] += bool(c.terms) and not r.terms
        made_true = sum(a for a, lit in c.terms
                        if witness.get(lit >> 1) in (0, 1)
                        and witness[lit >> 1] ^ (lit & 1))
        seen["below 0"] += not literal and c.degree < made_true
        seen["literal"] += literal
        seen["constants"] += bool(images) and not literal
    assert min(seen.values()) > 100, seen


# -- objectives -------------------------------------------------------------

def test_objective_canonical_form():
    o = pb.Objective()
    o.add_literal_term(3, nx(2))
    assert o.coeffs == {pb.mkvar(2): -3} and o.constant == 3
    o.add_literal_term(3, x(2))
    assert o.coeffs == {} and o.constant == 3
    o.add_literal_term(2, x(1))
    terms, const = o.literal_form()
    assert terms == ((2, x(1)),) and const == 3


def test_objective_value_and_delta():
    o = pb.Objective({pb.mkvar(1): 2, pb.mkvar(2): -3}, constant=3)
    assert o.value({pb.mkvar(1): 1, pb.mkvar(2): 0}) == 5
    assert o.value({pb.mkvar(1): 0, pb.mkvar(2): 1}) == 0
    terms, const = o.delta({pb.mkvar(1): 1, pb.mkvar(2): nx(5)})
    r = o.copy()
    for w, lit in terms:
        r.add_literal_term(w, lit)
    r.constant += const
    assert r.coeffs == {pb.mkvar(5): 3} and r.constant == 2
    # only the witnessed variables that the objective carries are read
    assert o.delta({pb.mkvar(9): 1}) == ([], 0)


def test_objective_delta_obligations():
    a = pb.Objective({pb.mkvar(1): 1})
    terms, const = a.delta({pb.mkvar(1): 1})     # a becomes the constant 1
    assert (terms, const) == ([(-1, x(1))], 1)
    # a - new >= 0 is -delta >= 0, and new - a >= 0 is delta >= 0
    assert pb.normalize([(-w, l) for w, l in terms], const) == C("+1 x1 >= 1")
    assert pb.normalize(terms, -const) == C("+1 ~x1 >= 0")
    terms, const = a.delta({pb.mkvar(1): x(1)})  # the identity changes nothing
    assert pb.normalize(terms, -const).is_trivial()
    assert pb.normalize([(-w, l) for w, l in terms], const).is_trivial()


def test_objective_literal_form_of_negative_coef():
    o = pb.Objective({pb.mkvar(3): -4}, constant=7)
    terms, const = o.literal_form()
    assert terms == ((4, nx(3)),) and const == 3
    # and the text form shows the same
    assert pb.fmt_objective(o) == "+4 ~x3 +3"


# -- propagation and RUP ----------------------------------------------------

def test_propagation_frozen():
    got = pb.unit_propagate([C("+2 x1 +1 x2 >= 2")])
    assert got == {pb.mkvar(1): 1}
    assert pb.unit_propagate([C("+1 x1 >= 1"), C("+1 ~x1 >= 1")]) is None
    # chains through clauses
    got = pb.unit_propagate([C("+1 x1 >= 1"), C("+1 ~x1 +1 x2 >= 1")])
    assert got == {pb.mkvar(1): 1, pb.mkvar(2): 1}
    # no propagation when slack covers every coefficient
    assert pb.unit_propagate([C("+1 x1 +1 x2 >= 1")]) == {}


def test_propagation_conflict_needs_negative_slack():
    # 2x1 + 2x2 >= 3 with x1=0 still has slack -1 ... conflict
    assert pb.unit_propagate([C("+2 x1 +2 x2 >= 3")],
                             {pb.mkvar(1): 0}) is None
    # but unassigned it forces both variables
    got = pb.unit_propagate([C("+2 x1 +2 x2 >= 3")])
    assert got == {pb.mkvar(1): 1, pb.mkvar(2): 1}


@given(st.lists(constraints(max_var=4), max_size=5))
def test_propagation_is_order_independent(cs):
    base = pb.unit_propagate(cs)
    rng = random.Random(0)
    for _ in range(4):
        shuffled = cs[:]
        rng.shuffle(shuffled)
        assert pb.unit_propagate(shuffled) == base


@given(st.lists(constraints(max_var=4), max_size=5))
def test_propagation_sound(cs):
    got = pb.unit_propagate(cs)
    vs = vars_of(cs)
    sols = models(cs, vs)
    if got is None:
        assert sols == []
    else:
        # every forced value holds in every model
        for sol in sols:
            for v, val in got.items():
                if v in sol:
                    assert sol[v] == val


def test_rup_frozen():
    prem = [C("+1 x1 +1 x2 >= 1"), C("+1 ~x1 +1 x2 >= 1")]
    assert pb.rup_check(prem, C("+1 x2 >= 1"))
    assert not pb.rup_check(prem, C("+1 x1 >= 1"))
    assert pb.rup_check([], C("+1 x1 >= 0"))  # trivial target always passes


@given(st.lists(constraints(max_var=4), max_size=4), constraints(max_var=4))
def test_rup_implies_entailment(cs, target):
    if pb.rup_check(cs, target):
        assert entails(cs, target)


# -- text round-trips -------------------------------------------------------

@given(constraints())
def test_constraint_text_roundtrip(c):
    text = pb.fmt_constraint(c)
    back, used = pb.parse_constraint_tokens(text.split())
    assert used == len(text.split())
    assert back == c


def test_parse_constraint_rejects_garbage():
    for bad in ["+1 x1 >=", "+1 x1", "x1 >= 1", "+1 x1 > 1", ">= x1"]:
        with pytest.raises(ValueError):
            pb.parse_constraint_tokens(bad.split())


def test_parse_signed_terms():
    terms, const, pos = pb.parse_signed_terms("-1 x1 +1 ;".split())
    assert terms == [(-1, x(1))] and const == 1 and pos == 3
    terms, const, pos = pb.parse_signed_terms("-3 _b2".split())
    assert terms == [(-3, b(2))] and const == 0 and pos == 2
    terms, const, pos = pb.parse_signed_terms("+2 -5 x3".split())
    assert terms == [(-5, x(3))] and const == 2 and pos == 3


def test_witness_text_roundtrip():
    w = {pb.mkvar(1): 1, pb.mkvar(2, pb.NS_AUX): 0, pb.mkvar(3): nx(4)}
    text = pb.fmt_witness(w)
    assert text == "x1 -> 1 x3 -> ~x4 _b2 -> 0"
    back, pos = pb.parse_witness_tokens(text.split())
    assert back == w and pos == len(text.split())
    with pytest.raises(ValueError):
        pb.parse_witness_tokens("x1 -> ".split())
    with pytest.raises(ValueError):
        pb.parse_witness_tokens("~x1 -> 0".split())
