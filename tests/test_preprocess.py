"""Pipeline tests: every simplification is exercised on a small gadget, the
emitted proof is fed back through the checker against the produced output,
and input/output optima are compared by brute force."""

import io
import pathlib
import random

import pytest

from certprep import pb, preprocess
from certprep.checker import ProofChecker, check_wcnf_proof
from certprep.preprocess import Config, Infeasible, Preprocessor
from certprep.wcnf import (MAX_WEIGHT, WcnfInstance, encode_to_pb,
                           opt_cost_bruteforce, parse_wcnf, write_wcnf)
from conftest import (b, nb, nx, random_instance, record_checkpoints,
                      record_solves, x)

DATA = pathlib.Path(__file__).parent / "data"


def verified(inst, out, proof):
    v = check_wcnf_proof(inst, proof.splitlines(), out)
    assert v.accepted and v.level == "EQUIOPTIMAL", (v.lineno, v.error)


def same_optimum(inst, out):
    assert opt_cost_bruteforce(out) == opt_cost_bruteforce(inst)


def check_run(inst, techniques=None, **kw):
    """Run the pipeline, verify the proof, compare optima."""
    if techniques is None:
        cfg = Config(**kw)
    else:
        cfg = Config(techniques=techniques, **kw)
    out, proof, p = preprocess.run(inst, cfg)
    verified(inst, out, proof)
    same_optimum(inst, out)
    return out, proof, p


def run_ops(inst, fn):
    """Drive explicitly invoked operations through the same close-out path
    the pipeline uses."""
    buf = io.StringIO()
    p = Preprocessor(inst, Config(techniques=()), buf)
    try:
        fn(p)
        out = p.finish()
    except Infeasible as exc:
        out = p.finalize_infeasible(exc.cid)
    return out, buf.getvalue(), p


# ---------------------------------------------------------------------------
# the worked example: two hard clauses, three weighted softs


@pytest.fixture(scope="module")
def golden():
    inst = parse_wcnf((DATA / "golden.wcnf").read_text())
    out, proof, p = preprocess.run(inst)
    return inst, out, proof, p


def test_golden_output_bytes(golden):
    _, out, _, _ = golden
    assert write_wcnf(out) == (DATA / "golden.out.wcnf").read_text()


def test_golden_proof_bytes(golden):
    _, _, proof, _ = golden
    assert proof == (DATA / "golden.pbp").read_text()


def test_golden_counts(golden):
    _, _, _, p = golden
    assert p.counts == {"up": 2, "bve": 1, "sle": 1, "const": 1}


def test_golden_verified(golden):
    inst, out, proof, _ = golden
    verified(inst, out, proof)
    same_optimum(inst, out)


# The documented derivation, in order: load the four constraints, resolve
# away x2 then x1 (folding weight 1 into the constant), eliminate x4 by
# resolution, drop the dominated relaxation literal b2, and reify the
# constant as a fresh always-true soft.
GOLDEN_STEPS = [
    "f 4",
    "pol 1 2 +",
    "delc 1",
    "delc 2 ; x2 -> 0",
    "obju diff -1 x1 +1 ;",
    "delc 5 ; x1 -> 1",
    "pol 3 4 +",
    "delc 3 ; x4 -> 0",
    "delc 4 ; x4 -> 1",
    "red +1 ~_b2 >= 1 ; _b1 -> 1 _b2 -> 0",
    "obju diff -3 _b2 ;",
    "pol 6 7 +",
    "delc 6",
    "delc 7 ; _b2 -> 0",
    "red +1 _b3 >= 1 ; _b3 -> 1",
    "obju diff +1 _b3 -1 ;",
]


def subsequence(lines, wanted):
    it = iter(lines)
    return all(any(line == want for line in it) for want in wanted)


def test_golden_documented_steps(golden):
    _, _, proof, _ = golden
    body = [ln for ln in proof.splitlines() if not ln.startswith("*")]
    assert subsequence(body, GOLDEN_STEPS)


def test_golden_deterministic(golden):
    inst, out, proof, _ = golden
    again, proof2, _ = preprocess.run(inst)
    assert write_wcnf(again) == write_wcnf(out)
    assert proof2 == proof


# ---------------------------------------------------------------------------
# clause-level stage gadgets


def test_unit_propagation_chain():
    inst = WcnfInstance([[x(1)], [nx(1), x(2)]], [(3, [nx(2)])])
    out, _, p = check_run(inst, techniques=("up",))
    assert p.counts["up"] == 2
    # both hards consumed; the weight-3 penalty survives as the constant
    assert write_wcnf(out) == "h 1 0\n3 -1 0\n"


def test_duplicate_hard_clauses():
    inst = WcnfInstance([[x(1), x(2)], [x(2), x(1)]], [])
    out, _, p = check_run(inst, techniques=("dup",))
    assert p.counts["dup"] == 1
    assert out.hard == [[x(1), x(2)]] and out.soft == []


def test_duplicate_hard_retires_soft():
    inst = WcnfInstance([[x(1), x(2)]], [(2, [x(1), x(2)])])
    out, _, p = check_run(inst, techniques=("dup",))
    assert p.counts["dup"] == 1
    assert out.soft == []
    assert out.hard == [[x(1), x(2)]]


def test_duplicate_softs_merge_weights():
    inst = WcnfInstance([], [(2, [x(1), x(2)]), (3, [x(2), x(1)])])
    out, _, p = check_run(inst, techniques=("dup",))
    assert p.counts["dup"] == 1
    assert out.soft == [(5, [x(1), x(2)])] and out.hard == []


def test_duplicate_soft_merge_respects_weight_cap():
    inst = WcnfInstance([], [(MAX_WEIGHT, [x(1), x(2)]), (5, [x(1), x(2)])])
    out, _, p = check_run(inst, techniques=("dup",))
    assert "dup" not in p.counts
    assert out == inst    # untouched instances round-trip verbatim


def test_shrunk_soft_merges_into_unit_penalty():
    # after x2 is fixed false the relaxed soft collapses onto the unit soft
    inst = WcnfInstance([[nx(2)]], [(2, [x(1), x(2)]), (3, [x(1)])])
    out, _, p = check_run(inst, techniques=("dup", "up"))
    assert p.counts["dup"] == 1
    assert out.soft == [(5, [x(1)])] and out.hard == []


def test_tautology_removal():
    inst = WcnfInstance([[x(1), nx(1), x(2)]], [(4, [x(2), nx(2)])])
    out, _, p = check_run(inst, techniques=("taut",))
    assert p.counts["taut"] == 2
    assert out.hard == [] and out.soft == []


def test_empty_soft_becomes_constant():
    inst = WcnfInstance([[x(1)]], [(3, []), (2, [nx(1)])])
    out, _, p = check_run(inst, techniques=("empty",))
    assert p.counts["empty"] == 1
    assert p.counts["const"] == 1
    assert opt_cost_bruteforce(inst) == 5


def test_subsumption_hard_and_soft():
    inst = WcnfInstance([[x(1), x(2)], [x(1), x(2), x(3)]],
                        [(2, [x(1), x(2), x(4)])])
    out, _, p = check_run(inst, techniques=("sub",))
    assert p.counts["sub"] == 2
    assert out.hard == [[x(1), x(2)]] and out.soft == []


def test_blocked_clause_elimination():
    # every resolvent on x1 is tautological, so both clauses are blocked
    inst = WcnfInstance([[x(1), x(2)], [nx(1), nx(2)]], [])
    out, _, p = check_run(inst, techniques=("bce",))
    assert p.counts["bce"] == 2
    assert out.hard == []


# ---------------------------------------------------------------------------
# objective-centric stage gadgets


def test_self_subsuming_resolution():
    inst = WcnfInstance([[x(2), nx(1)], [x(1), x(2), x(3)]], [])
    out, _, p = check_run(inst, techniques=("ssr",))
    assert p.counts["ssr"] == 1
    assert [x(2), x(3)] in out.hard


def test_failed_literal_plain():
    inst = WcnfInstance([[nx(1), x(2)], [nx(1), nx(2)], [x(1), x(3)]], [])
    out, _, p = check_run(inst, techniques=("fle",))
    assert p.counts["fle"] >= 1
    assert out.hard == [[x(3)]]


def test_failed_literal_witnessed():
    # x1 never helps: its only clause is already covered once x1 is assumed
    inst = WcnfInstance([[nx(1), x(2)], [x(1), x(2)]], [])
    out, _, p = check_run(inst, techniques=("fle",))
    assert p.counts["fle"] >= 1
    assert out.hard == [[x(2)]]


def test_implied_literal_plain():
    inst = WcnfInstance([[x(1), x(2)], [nx(1), x(2)], [nx(2), x(3)]], [])
    out, _, p = check_run(inst, techniques=("impl",))
    assert p.counts["impl"] >= 1
    same_optimum(inst, out)


def test_implied_literal_witnessed():
    # x1 -> x2 propagates, but the converse direction needs a witness:
    # the only clause with ~x2 is covered by x3, which ~x1 implies
    inst = WcnfInstance([[nx(1), x(2)], [x(1), x(3)], [nx(2), x(4), x(3)]], [])
    out, proof, p = check_run(inst, techniques=("impl",))
    assert p.counts["impl"] == 1
    assert "red +1 x1 +1 x2 >= 1 ; x2 -> 1" in proof.splitlines()
    assert out.hard == [[x(1), x(3)], [x(3), x(4)]]


def test_equivalent_literal_plain():
    inst = WcnfInstance([[nx(1), x(2)], [x(1), nx(2)], [x(2), x(3)]],
                        [(2, [nx(1)])])
    out, _, p = check_run(inst, techniques=("eql",))
    assert p.counts["eql"] == 1
    survivors = {l >> 1 for cl in out.hard + [c for _, c in out.soft]
                 for l in cl}
    assert not {pb.mkvar(1), pb.mkvar(2)} <= survivors


def test_equivalent_literal_witnessed():
    inst = WcnfInstance([[nx(1), x(2)], [x(1), x(4)], [x(2), x(4)]], [])
    out, proof, p = check_run(inst, techniques=("eql",))
    assert p.counts["eql"] == 1
    assert "red +1 x1 +1 ~x2 >= 1 ; x2 -> 0" in proof.splitlines()
    assert out.hard == [[x(2), x(4)], [x(2), x(4)]]


def test_subsumed_literal_plain():
    inst = WcnfInstance([[x(1), x(2)]], [])
    out, _, p = check_run(inst, techniques=("sle",))
    assert p.counts["sle"] >= 1
    assert out.hard == [] and out.soft == []


def test_subsumed_literal_objective(golden):
    inst, _, _, _ = golden
    out, _, p = check_run(inst, techniques=("up", "bve", "sle"))
    assert p.counts["sle"] == 1


def test_group_subsumed_literal():
    inst = WcnfInstance([], [(5, [x(1), x(2)]), (2, [nx(1), x(2)])])
    out, _, p = check_run(inst, techniques=("bve", "gsle"))
    assert p.counts["gsle"] == 1


def test_bve_pass():
    inst = WcnfInstance([[x(1), x(2)], [nx(1), x(3)]], [])
    out, _, p = check_run(inst, techniques=("bve",))
    assert p.counts["bve"] == 1
    assert out.hard == [[x(2), x(3)]]


def test_bve_growth_bound():
    # 3x2 resolvents exceed the 5 originals: x1 is not eliminated
    hard = [[x(1), x(2)], [x(1), x(3)], [x(1), x(6)],
            [nx(1), x(4)], [nx(1), x(5)]]
    inst = WcnfInstance(hard, [])
    out, _, p = check_run(inst, techniques=("bve",))
    assert "bve" not in p.counts


def test_bve_counts_only_resolvents_without_clash():
    # (x1 v xk) and (~x1 v ~xj), k, j in 2..4: 9 pairs, but the 3 with k = j
    # resolve to tautologies, so 6 resolvents meet the bound of 6 originals;
    # the softs keep x2..x4 in the objective, out of bve's reach
    pos = [[x(1), x(k)] for k in (2, 3, 4)]
    neg = [[nx(1), nx(k)] for k in (2, 3, 4)]
    inst = WcnfInstance(pos + neg, [(1, [nx(k)]) for k in (2, 3, 4)])
    out, _, p = check_run(inst, techniques=("bve",))
    assert p.counts == {"bve": 1}
    assert sorted(map(sorted, out.hard)) == sorted(
        sorted([x(k), nx(j)]) for k in (2, 3, 4) for j in (2, 3, 4) if k != j)


def test_bve_explicit_saturates():
    inst = WcnfInstance([[x(1), x(2)], [nx(1), x(2)]], [])
    out, proof, _ = run_ops(inst, lambda p: p.eliminate_variable_bve(pb.mkvar(1)))
    verified(inst, out, proof)
    same_optimum(inst, out)
    assert out.hard == [[x(2)]]
    assert any(ln.startswith("pol") and ln.endswith("+ s")
               for ln in proof.splitlines())


def test_bve_explicit_derives_contradiction():
    inst = WcnfInstance([[x(1)], [nx(1)]], [])
    out, proof, _ = run_ops(inst, lambda p: p.eliminate_variable_bve(pb.mkvar(1)))
    verified(inst, out, proof)
    assert out == WcnfInstance([[]], [])


def test_bva_factors_shared_structure():
    hard = [[x(l), x(s)] for l in (1, 2) for s in (3, 4, 5)]
    inst = WcnfInstance(hard, [])
    out, _, p = check_run(inst, techniques=("bva",))
    assert p.counts["bva"] == 1
    assert len(out.hard) == 5


def test_at_most_one_rewrites_objective():
    # resolving out x1 and x2 leaves the bare conflict between the two
    # relaxation variables; their weights fold into a fresh label + constant
    inst = WcnfInstance([[nx(2)]], [(3, [x(1), x(2)]), (3, [nx(1), x(2)])])
    out, _, p = check_run(inst, techniques=("bve", "am1"))
    assert p.counts["am1"] == 1
    assert opt_cost_bruteforce(inst) == 3


def test_binary_core_removal():
    inst = WcnfInstance([[nx(2)]], [(3, [x(1), x(2)]), (3, [nx(1), x(2)])])
    out, _, p = check_run(inst, techniques=("bve", "bcr"))
    assert p.counts["bcr"] == 1
    assert "am1" not in p.counts


def test_label_matching_shares_one_label():
    inst = WcnfInstance([], [(2, [x(1), x(2)]), (2, [nx(1), x(3)])])
    out, _, p = check_run(inst, techniques=("lm",))
    assert p.counts["lm"] == 1
    # the two clashing softs now share a single relaxation variable
    assert len(out.soft) == 1 and out.soft[0][0] == 2


def test_structure_based_labelling():
    inst = WcnfInstance([[x(1), x(2)]], [(2, [nx(3)])])
    out, _, p = check_run(inst, techniques=("sbl",))
    assert p.counts["sbl"] == 1
    assert out.hard == [[x(1), x(2), x(3)]]
    assert out.soft == [(2, [nx(3)])]


def test_trim_drops_unreachable_penalty():
    inst = WcnfInstance([[nx(1), x(2)], [nx(1), nx(2)]], [(2, [nx(1)])])
    out, _, p = check_run(inst, techniques=("trim",))
    assert p.counts["trim"] == 1
    assert out.soft == [] and out.hard == []


def test_trim_oracle_budget_is_safe(monkeypatch):
    monkeypatch.setattr(preprocess, "ORACLE_CONFLICTS", 0)
    inst = WcnfInstance([[nx(1), x(2)], [nx(1), nx(2)]], [(2, [nx(1)])])
    out, _, p = check_run(inst, techniques=("trim",))
    assert "trim" not in p.counts
    assert out == inst


def test_trim_and_harden_give_up_past_the_work_budget(monkeypatch):
    inst = WcnfInstance([[nx(1), x(2)], [nx(1), nx(2)], [x(3), x(4)]],
                        [(2, [nx(1)]), (5, [nx(3)]), (1, [nx(4)])])
    _, _, p = check_run(inst, techniques=("trim", "harden"))
    assert p.counts["trim"] == 1 and p.counts["harden"] == 1
    monkeypatch.setattr(preprocess, "ORACLE_WORK", 0)
    out, _, p = check_run(inst, techniques=("trim", "harden"))
    assert "trim" not in p.counts and "harden" not in p.counts
    plain, _, _ = check_run(inst, techniques=())
    assert write_wcnf(out) == write_wcnf(plain)


def test_trim_makes_one_solve_when_every_penalty_can_be_paid(monkeypatch):
    """Every objective literal can be true at once, and trim's oracle
    decides them true, so its first model drops them all and trim is done
    after one selector solve.  Deciding them False first, a model makes
    only the forced half of them true."""
    calls = record_solves(monkeypatch)
    inst = WcnfInstance([[x(2 * i + 1), x(2 * i + 2)] for i in range(4)],
                        [(1, [nx(v)]) for v in range(1, 9)])
    _, proof, p = check_run(inst, techniques=("trim",))
    assert "trim" not in p.counts
    assert len(calls) == 1
    assert sum(line.startswith("red ") for line in proof.splitlines()) == 1


def test_hardening_fixes_expensive_literal():
    inst = WcnfInstance([[x(1), x(2)]], [(5, [nx(1)]), (1, [nx(2)])])
    out, _, p = check_run(inst, techniques=("harden",))
    assert p.counts["harden"] == 1
    assert out.hard == [[x(2)]]
    assert out.soft == [(1, [nx(2)])]


# ---------------------------------------------------------------------------
# close-out behaviour


def test_no_techniques_returns_input_verbatim():
    inst = WcnfInstance([[x(1), x(2)], [nx(2)]],
                        [(1, [nx(1)]), (2, [x(3), nx(4)]), (3, [x(4), nx(5)])])
    before = write_wcnf(inst)
    out, proof, p = preprocess.run(inst, Config(techniques=()))
    verified(inst, out, proof)
    assert out == inst
    assert write_wcnf(out) == before
    assert p.counts == {}
    # the output is a copy: changing it leaves the input as it was
    out.hard[0].append(x(6))
    out.soft[1][1].append(x(6))
    out.hard.append([x(7)])
    out.soft.append((5, [x(7)]))
    assert write_wcnf(inst) == before


def test_stage2_only_keeps_soft_clauses():
    # soft structure is preserved when nothing beyond the clause stage runs
    inst = WcnfInstance([[x(1), x(2)], [x(2), x(1)]], [(4, [x(3), x(4)])])
    out, _, p = check_run(inst, techniques=("dup",))
    assert out.soft == [(4, [x(3), x(4)])]


def written_and_verified(inst, out, proof):
    """The output as written and read back verifies against the proof."""
    verified(inst, parse_wcnf(write_wcnf(out)), proof)
    same_optimum(inst, out)


def test_relaxed_unit_soft_is_not_written_back_verbatim():
    # fixing ~x1 shrinks the soft (x1 v x2) to the relaxed unit (x2 v _b2),
    # which re-encoding the written soft "3 2 0" would treat as a unit soft
    inst = parse_wcnf("h -1 0\n2 3 4 0\n3 1 2 0\n")
    out, proof, _ = run_ops(
        inst, lambda p: p.fix_literal(p.clauses[1].terms[0][1], 1))
    written_and_verified(inst, out, proof)
    assert (3, [x(2)]) in out.soft


def test_clause_with_an_internal_variable_is_not_written_back_verbatim():
    # bva's fresh variable is an internal one that no soft has as its label;
    # bva is a stage-4 technique, so it runs after the objective-centric
    # switch, as in the pipeline
    hard = [[x(l), x(s)] for l in (1, 2) for s in (3, 4, 5)]
    inst = WcnfInstance(hard, [(2, [x(6), x(7)])])

    def bva(p):
        p.convert_to_objective_centric()
        p.add_variables_bva([x(1), x(2)], [(x(s),) for s in (3, 4, 5)],
                            range(1, 7))

    out, proof, _ = run_ops(inst, bva)
    written_and_verified(inst, out, proof)
    assert len(out.hard) == 6   # bva's five and the soft, relaxed and renamed


def test_internal_variables_renamed_after_user_indices():
    inst = WcnfInstance([], [(2, [x(5), x(9)])])
    out, _, _ = check_run(inst, techniques=("sle",))
    # everything user-visible was fixed; the surviving relaxation variable
    # takes the first free user index
    assert write_wcnf(out) == "2 -1 0\n"


def test_input_literal_outside_the_problem_namespace_is_refused():
    # the input's own _b1 would collide with the first soft's label: the
    # hard ~_b1 would make the soft (x1 v x2) hard, and the output's optimum
    # would be 0 while the input's is 1
    inst = WcnfInstance([[nb(1)]], [(2, [x(1), x(2)]), (1, [nx(1)]),
                                    (1, [nx(2)])])
    sink = io.StringIO()
    with pytest.raises(ValueError, match="internal variable"):
        Preprocessor(inst, Config(), sink)
    assert sink.getvalue() == ""    # refused before the proof header
    t1 = pb.mklit(pb.mkvar(1, pb.NS_TMP))
    for hard, soft in (([[x(1), b(2)]], []), ([], [(3, [nb(1)])]),
                       ([], [(3, [x(1), t1])])):
        with pytest.raises(ValueError):
            preprocess.run(WcnfInstance(hard, soft))


def test_empty_instance():
    inst = WcnfInstance([], [])
    out, proof, _ = preprocess.run(inst)
    verified(inst, out, proof)
    assert out == inst


def test_infeasible_by_propagation():
    inst = WcnfInstance([[x(1)], [nx(1)]], [(2, [x(2)])])
    out, proof, _ = preprocess.run(inst, Config(techniques=("up",)))
    verified(inst, out, proof)
    assert out == WcnfInstance([[]], [])
    assert opt_cost_bruteforce(inst) is None


def test_infeasible_on_input_empty_clause():
    inst = WcnfInstance([[], [x(2)]], [(1, [x(2)])])
    out, proof, _ = preprocess.run(inst)
    verified(inst, out, proof)
    assert out == WcnfInstance([[]], [])


def test_round_cap_flag():
    inst = parse_wcnf((DATA / "golden.wcnf").read_text())
    out, proof, p = preprocess.run(inst, Config(rounds=1))
    verified(inst, out, proof)
    same_optimum(inst, out)


# ---------------------------------------------------------------------------
# the proof mirrors the working state: replay each checkpoint


def test_checkpoints_match_checker_state(golden):
    inst, _, _, _ = golden
    sink = io.StringIO()
    p = Preprocessor(inst, Config(), sink)
    checkpoints = record_checkpoints(p)
    p.run()
    assert checkpoints
    lines = sink.getvalue().splitlines()
    cons, obj = encode_to_pb(inst)
    chk = ProofChecker(cons, obj)
    fed = 0
    for name, upto, snap, snap_obj in checkpoints:
        while fed < upto:
            chk.feed(lines[fed])
            fed += 1
        live = tuple(sorted((chk.constraints[i] for i in chk.core_ids),
                            key=lambda c: (c.degree, c.terms)))
        assert live == snap, name
        assert chk.objective == snap_obj, name


# ---------------------------------------------------------------------------
# configuration handling


def test_config_rejects_unknown_technique():
    with pytest.raises(ValueError):
        Config(techniques=("up", "nosuch"))
    with pytest.raises(ValueError):
        Config(rounds=0)


def test_config_from_flag():
    cfg = Config.from_flag("up,bve")
    assert cfg.stage2 == ("up",) and cfg.stage4 == ("up", "bve")
    empty = Config.from_flag("")
    assert empty.stage2 == () and empty.stage4 == ()


# ---------------------------------------------------------------------------
# randomized sweep (a larger run lives in the acceptance tests)


def test_random_sweep_small():
    rng = random.Random(424242)
    infeasible = 0
    for _ in range(150):
        inst = random_instance(rng)
        out, proof, p = preprocess.run(inst)
        verified(inst, out, proof)
        want = opt_cost_bruteforce(inst)
        assert opt_cost_bruteforce(out) == want
        infeasible += want is None
    assert 0 < infeasible < 75
