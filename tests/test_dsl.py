import math

import numpy as np
import pytest

from swarmcomm import dsl
from swarmcomm.dsl import (
    BoolOp,
    CommGraph,
    DetRule,
    FeatureMap,
    ParseError,
    PredicateAtom,
    Program,
    RandRule,
    ScoreExpr,
    degree_stats,
    eval_program_batch,
    feature_names,
    featurize_pairs,
    parse_program,
    print_program,
    rule_picks,
    true_predicate,
)

from conftest import make_rng
from reference import build_comm_graph, eval_program, eval_rule, featurize, graph_mask, mask_from_selections

FMAP = FeatureMap("v1")
STATE_DIM = 4  # formation-style state: own position + goal
NAMES = feature_names(FMAP, STATE_DIM)
DIM = FMAP.dim(STATE_DIM)


def atom_on(name: str, coef: float = 1.0, const: float = 0.0) -> PredicateAtom:
    w = np.zeros(DIM)
    w[NAMES.index(name)] = coef
    w[-1] = const
    return PredicateAtom(tuple(w))


def score_on(name: str, coef: float = 1.0) -> ScoreExpr:
    w = np.zeros(DIM)
    w[NAMES.index(name)] = coef
    return ScoreExpr(tuple(w))


class TestFeaturize:
    def test_norm_and_angle_entries(self):
        s = np.zeros(4)
        feats = featurize(s, np.array([3.0, 4.0]), FMAP)
        assert feats[NAMES.index("d")] == pytest.approx(5.0)
        assert feats[NAMES.index("theta")] == pytest.approx(0.9272952180016122)

    def test_zero_vector_angle_convention(self):
        feats = featurize(np.zeros(4), np.zeros(2), FMAP)
        assert feats[NAMES.index("d")] == 0.0
        assert feats[NAMES.index("theta")] == 0.0

    def test_v2_cross_products(self):
        fmap2 = FeatureMap("v2")
        names2 = feature_names(fmap2, 2)
        feats = featurize(np.array([1.0, 2.0]), np.array([3.0, 4.0]), fmap2)
        values = [feats[names2.index(f"c0{k}")] for k in ("xx", "xy", "yx", "yy")]
        assert values == [3.0, 4.0, 6.0, 8.0]

    def test_constant_slot_is_last(self):
        feats = featurize(np.ones(4), np.ones(2), FMAP)
        assert feats[-1] == 1.0
        assert NAMES[-1] == "const"

    def test_dims_match_names(self):
        for version in ("v1", "v2"):
            for ds in (2, 4, 12):
                fmap = FeatureMap(version)
                assert fmap.dim(ds) == len(feature_names(fmap, ds))
                feats = featurize(np.ones(ds), np.ones(2), fmap)
                assert feats.shape == (fmap.dim(ds),)

    def test_batch_matches_scalar(self):
        rng = make_rng(0)
        states = rng.normal(size=(3, 5, 4))
        obs = rng.normal(size=(3, 5, 2))
        batch = featurize_pairs(states, obs, FMAP)
        for b in range(3):
            for i in range(5):
                np.testing.assert_allclose(batch[b, i], featurize(states[b, i], obs[b, i], FMAP))


def candidates_at(positions, i):
    return [(j, np.asarray(p) - np.asarray(positions[i])) for j, p in enumerate(positions) if j != i]


class TestEvalRule:
    def test_published_example_rule(self):
        # argmax(map(-d, filter(theta >= -1.85, l))): nearest agent with
        # heading angle above -1.85; hand evaluation picks the agent at (1, 0)
        rule = DetRule(score_on("d", -1.0), atom_on("theta", 1.0, 1.85))
        s = np.zeros(4)
        theta3 = -3.0
        cands = [
            (1, np.array([1.0, 0.0])),  # theta 0, d 1
            (2, np.array([0.0, -2.0])),  # theta -1.5708, d 2
            (3, 1.5 * np.array([math.cos(theta3), math.sin(theta3)])),  # filtered out
        ]
        assert eval_rule(rule, s, cands, FMAP, make_rng(0)) == 1

    def test_random_singleton(self):
        rule = RandRule(atom_on("d", 1.0, -3.41))
        cands = [(5, np.array([4.0, 0.0]))]
        for seed in range(5):
            assert eval_rule(rule, np.zeros(4), cands, FMAP, make_rng(seed)) == 5

    def test_empty_filter_returns_none(self):
        rule = DetRule(score_on("d"), atom_on("const", 0.0, -1.0))  # -1 >= 0 never holds
        cands = [(1, np.array([1.0, 0.0]))]
        assert eval_rule(rule, np.zeros(4), cands, FMAP, make_rng(0)) is None

    def test_no_candidates_returns_none(self):
        rule = DetRule(score_on("d"), true_predicate(FMAP, STATE_DIM))
        assert eval_rule(rule, np.zeros(4), [], FMAP, make_rng(0)) is None

    def test_det_rule_is_rng_independent(self):
        rng = make_rng(1)
        rule = DetRule(ScoreExpr(tuple(rng.normal(size=DIM))), PredicateAtom(tuple(rng.normal(size=DIM))))
        positions = rng.normal(size=(6, 2))
        s = rng.normal(size=4)
        picks = {eval_rule(rule, s, candidates_at(positions, 0), FMAP, make_rng(seed)) for seed in range(10)}
        assert len(picks) == 1

    def test_argmax_scale_invariance(self):
        rng = make_rng(2)
        for _ in range(20):
            w = rng.normal(size=DIM)
            rule_a = DetRule(ScoreExpr(tuple(w)), true_predicate(FMAP, STATE_DIM))
            rule_b = DetRule(ScoreExpr(tuple(3.7 * w)), true_predicate(FMAP, STATE_DIM))
            positions = rng.normal(size=(5, 2))
            s = rng.normal(size=4)
            cands = candidates_at(positions, 0)
            assert eval_rule(rule_a, s, cands, FMAP, make_rng(0)) == eval_rule(rule_b, s, cands, FMAP, make_rng(0))

    def test_ties_break_to_lowest_id(self):
        rule = DetRule(score_on("const", 0.0), true_predicate(FMAP, STATE_DIM))  # all scores equal
        cands = [(4, np.array([1.0, 0.0])), (2, np.array([0.0, 1.0])), (7, np.array([1.0, 1.0]))]
        assert eval_rule(rule, np.zeros(4), cands, FMAP, make_rng(0)) == 2

    def test_det_matches_brute_force_on_random_instances(self):
        # exhaustive scan oracle over all candidates, 1000 randomized cases
        rng = make_rng(3)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            w_score = rng.normal(size=DIM)
            w_atom = rng.normal(size=DIM)
            rule = DetRule(ScoreExpr(tuple(w_score)), PredicateAtom(tuple(w_atom)))
            s = rng.normal(size=4)
            positions = rng.normal(size=(n, 2)) * 2.0
            cands = candidates_at(positions, 0)
            best_id, best_score = None, -np.inf
            for j, o in cands:
                phi = featurize(s, o, FMAP)
                if phi @ w_atom >= 0.0:
                    score = float(phi @ w_score)
                    if score > best_score or (score == best_score and best_id is not None and j < best_id):
                        best_id, best_score = j, score
            assert eval_rule(rule, s, cands, FMAP, make_rng(0)) == best_id

    def test_random_rule_uniformity(self):
        # chi-square on 10^4 draws over 4 passing candidates;
        # critical value 11.345 = chi2(df=3) at p = 0.01
        # of the batched interpreter: receiver 0 picks among senders 1..4 in
        # 10^4 worlds, each with its own uniform
        program = Program((RandRule(true_predicate(FMAP, STATE_DIM)),), FMAP)
        obs = np.zeros((5, 5, 2))
        obs[0, 1:, 0] = 1.0 + np.arange(1, 5)
        feats = featurize_pairs(np.zeros((5, 5, 4)), obs, FMAP)
        rand_u = make_rng(4).random((10_000, 5, 1))
        mask = eval_program_batch(program, np.broadcast_to(feats, (10_000,) + feats.shape), rand_u)
        assert np.all(mask[:, 0].sum(axis=-1) == 1)
        observed = mask[:, 0, 1:5].sum(axis=0)
        assert np.all(np.abs(observed - 2500) <= 150)
        chi2 = float(((observed - 2500.0) ** 2 / 2500.0).sum())
        assert chi2 < 11.345


class TestEvalProgram:
    def test_duplicate_selections_collapse(self):
        rule = DetRule(score_on("d", -1.0), true_predicate(FMAP, STATE_DIM))
        program = Program((rule, rule), FMAP)
        cands = candidates_at([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]], 0)
        sel = eval_program(program, np.zeros(4), cands, make_rng(0))
        assert sel == {1}

    def test_all_none_gives_empty_set(self):
        never = atom_on("const", 0.0, -1.0)
        program = Program((DetRule(score_on("d"), never), RandRule(never)), FMAP)
        cands = candidates_at([[0.0, 0.0], [1.0, 0.0]], 0)
        assert eval_program(program, np.zeros(4), cands, make_rng(0)) == set()

    def test_selection_size_and_self_exclusion(self):
        rng = make_rng(5)
        for _ in range(50):
            k = int(rng.integers(1, 4))
            rules = tuple(
                DetRule(ScoreExpr(tuple(rng.normal(size=DIM))), PredicateAtom(tuple(rng.normal(size=DIM))))
                for _ in range(k)
            )
            program = Program(rules, FMAP)
            positions = rng.normal(size=(5, 2))
            sel = eval_program(program, rng.normal(size=4), candidates_at(positions, 2), make_rng(0))
            assert len(sel) <= k
            assert 2 not in sel


class TestBatchInterpreter:
    def _random_program(self, rng, k=3, allow_rand=True):
        rules = []
        for _ in range(k):
            pred = PredicateAtom(tuple(rng.normal(size=DIM)))
            if allow_rand and rng.random() < 0.4:
                rules.append(RandRule(pred))
            else:
                rules.append(DetRule(ScoreExpr(tuple(rng.normal(size=DIM))), pred))
        return Program(tuple(rules), FMAP)

    def test_matches_scalar_interpreter_for_det_rules(self):
        rng = make_rng(6)
        for _ in range(30):
            program = self._random_program(rng, k=int(rng.integers(1, 4)), allow_rand=False)
            n = int(rng.integers(2, 6))
            states = rng.normal(size=(2, n, 4))
            obs = rng.normal(size=(2, n, n, 2))
            obs[:, np.arange(n), np.arange(n)] = 0.0
            tiled = np.broadcast_to(states[:, :, None, :], (2, n, n, 4))
            feats = featurize_pairs(tiled, obs, FMAP)
            mask = eval_program_batch(program, feats)
            for b in range(2):
                for i in range(n):
                    cands = [(j, obs[b, i, j]) for j in range(n) if j != i]
                    expected = eval_program(program, states[b, i], cands, make_rng(0))
                    assert set(np.flatnonzero(mask[b, i]).tolist()) == expected

    def test_rand_rules_respect_crn(self):
        rng = make_rng(7)
        program = self._random_program(rng, k=2, allow_rand=True)
        n = 5
        states = rng.normal(size=(4, n, 4))
        obs = rng.normal(size=(4, n, n, 2))
        tiled = np.broadcast_to(states[:, :, None, :], (4, n, n, 4))
        feats = featurize_pairs(tiled, obs, FMAP)
        u = make_rng(8).random((4, n, 2))
        m1 = eval_program_batch(program, feats, rand_u=u)
        m2 = eval_program_batch(program, feats, rand_u=u)
        assert np.array_equal(m1, m2)

    def test_diagonal_never_selected(self):
        rng = make_rng(9)
        program = self._random_program(rng)
        n = 4
        states = rng.normal(size=(3, n, 4))
        obs = rng.normal(size=(3, n, n, 2))
        tiled = np.broadcast_to(states[:, :, None, :], (3, n, n, 4))
        feats = featurize_pairs(tiled, obs, FMAP)
        mask = eval_program_batch(program, feats, rand_u=rng.random((3, n, program.n_rules)))
        assert not mask[:, np.arange(n), np.arange(n)].any()


    def test_or_of_rule_picks_is_the_program_mask(self):
        rng = make_rng(10)
        for _ in range(20):
            program = self._random_program(rng, k=int(rng.integers(1, 5)))
            n = int(rng.integers(2, 7))
            states = rng.normal(size=(3, n, 4))
            obs = rng.normal(size=(3, n, n, 2))
            tiled = np.broadcast_to(states[:, :, None, :], (3, n, n, 4))
            feats = featurize_pairs(tiled, obs, FMAP)
            u = rng.random((3, n, program.n_rules))
            ored = np.zeros((3, n, n), dtype=bool)
            for k, rule in enumerate(program.rules):
                picks = rule_picks(rule, feats, u[..., k])
                assert picks.shape == (3, n, n) and picks.sum(axis=-1).max() <= 1
                ored |= picks
            assert np.array_equal(ored, eval_program_batch(program, feats, rand_u=u))


class TestCommGraph:
    def test_single_agent_graph_is_empty(self):
        program = Program((DetRule(score_on("d"), true_predicate(FMAP, STATE_DIM)),), FMAP)
        graph = build_comm_graph(program, np.zeros((1, 4)), np.zeros((1, 1, 2)), make_rng(0))
        assert graph.edges == frozenset()
        assert degree_stats(graph_mask(graph))[2] == 0

    def test_deterministic_program_same_graph(self):
        rng = make_rng(10)
        program = Program(
            (DetRule(ScoreExpr(tuple(rng.normal(size=DIM))), PredicateAtom(tuple(rng.normal(size=DIM)))),),
            FMAP,
        )
        states = rng.normal(size=(5, 4))
        obs = rng.normal(size=(5, 5, 2))
        g1 = build_comm_graph(program, states, obs, make_rng(1))
        g2 = build_comm_graph(program, states, obs, make_rng(2))
        assert g1.edges == g2.edges

    def test_star_selection_edges_and_degree(self):
        graph = CommGraph.from_mask(mask_from_selections([{1}, {0}, {0}, {0}]))
        assert graph.edges == frozenset({(1, 0), (0, 1), (0, 2), (0, 3)})
        assert degree_stats(graph_mask(graph))[2] == 4  # node 0: out 3 + in 1

    def test_fan_in_degree(self):
        graph = CommGraph.from_mask(mask_from_selections([{1, 2}, set(), set()]))
        assert degree_stats(graph_mask(graph))[2] == 2

    def test_self_loop_rejected(self):
        with pytest.raises(dsl.DslError):
            CommGraph(3, frozenset({(1, 1)}))

    def test_max_degree_matches_brute_force_recount(self):
        rng = make_rng(11)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            edges = set()
            for _ in range(int(rng.integers(0, 2 * n))):
                j, i = rng.integers(0, n, size=2)
                if j != i:
                    edges.add((int(j), int(i)))
            graph = CommGraph(n, frozenset(edges))
            adj = np.zeros((n, n))
            for j, i in edges:
                adj[j, i] = 1
            expected = int((adj.sum(axis=0) + adj.sum(axis=1)).max()) if n else 0
            d_in, d_out, d_tot = degree_stats(graph_mask(graph))
            assert d_tot == expected
            assert d_in == int(adj.sum(axis=0).max())
            assert d_out == int(adj.sum(axis=1).max())

    def test_in_degree_bounded_by_rule_count(self):
        rng = make_rng(12)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            rules = tuple(
                DetRule(ScoreExpr(tuple(rng.normal(size=DIM))), PredicateAtom(tuple(rng.normal(size=DIM))))
                for _ in range(k)
            )
            program = Program(rules, FMAP)
            states = rng.normal(size=(6, 4))
            obs = rng.normal(size=(6, 6, 2))
            graph = build_comm_graph(program, states, obs, rng)
            assert degree_stats(graph_mask(graph))[0] <= k


class TestSurfaceSyntax:
    def test_parse_published_random_rule(self):
        text = "#dsl v1 features=V1 rules=1 state_dim=4\nrandom(filter(d >= 3.41, l))\n"
        program = parse_program(text)
        assert program.n_rules == 1
        rule = program.rules[0]
        assert isinstance(rule, RandRule)
        assert isinstance(rule.pred, PredicateAtom)
        w = np.asarray(rule.pred.weights)
        assert w[NAMES.index("d")] == pytest.approx(1.0)
        assert w[-1] == pytest.approx(-3.41)
        assert np.count_nonzero(w) == 2

    def test_roundtrip_published_two_rule_program(self):
        text = (
            "#dsl v1 features=V1 rules=2 state_dim=4\n"
            "argmax(map(-d, filter(theta >= -1.85, l)))\n"
            "random(filter(d >= 3.41, l))\n"
        )
        program = parse_program(text)
        printed = print_program(program, STATE_DIM)
        again = parse_program(printed)
        assert again == program
        assert print_program(again, STATE_DIM) == printed

    def test_malformed_argmax_without_map(self):
        text = "#dsl v1 features=V1 rules=1 state_dim=4\nargmax(filter(d >= 0, l))\n"
        with pytest.raises(ParseError):
            parse_program(text)

    def test_unknown_feature_name(self):
        text = "#dsl v1 features=V1 rules=1 state_dim=4\nrandom(filter(bogus >= 0, l))\n"
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert "bogus" in str(err.value)

    def test_depth_bound_enforced(self):
        text = (
            "#dsl v1 features=V1 rules=1 state_dim=4\n"
            "random(filter(d >= 0 and d >= 1 and d >= 2 and d >= 3, l))\n"
        )
        with pytest.raises(ParseError):
            parse_program(text)

    def test_boolean_precedence_and_parens(self):
        text = "#dsl v1 features=V1 rules=1 state_dim=4\nrandom(filter(d >= 0 and d >= 1 or theta >= 0, l))\n"
        program = parse_program(text)
        pred = program.rules[0].pred
        assert isinstance(pred, BoolOp) and pred.op == "or"
        assert isinstance(pred.left, BoolOp) and pred.left.op == "and"
        assert parse_program(print_program(program, STATE_DIM)) == program

    def test_error_carries_line_and_column(self):
        text = "#dsl v1 features=V1 rules=1 state_dim=4\nrandom(filter(d >= ?, l))\n"
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert err.value.line == 2
        assert err.value.col > 0

    def test_header_rule_count_checked(self):
        text = "#dsl v1 features=V1 rules=3 state_dim=4\nrandom(filter(d >= 0, l))\n"
        with pytest.raises(ParseError):
            parse_program(text)

    @pytest.mark.parametrize("field", ["rules=x", "rules=1.0", "state_dim=4.5", "state_dim=four"])
    def test_non_integer_header_field_is_a_parse_error(self, field):
        header = {"rules": "rules=1", "state_dim": "state_dim=4"}
        header[field.split("=")[0]] = field
        text = f"#dsl v1 features=V1 {header['rules']} {header['state_dim']}\nrandom(filter(d >= 0, l))\n"
        with pytest.raises(ParseError, match=field.split("=")[0]):
            parse_program(text)
        with pytest.raises(ParseError):
            parse_program(text, 4)

    @pytest.mark.parametrize("dim", [-2, 0, 5])
    def test_state_dim_not_positive_and_even_is_a_parse_error_on_the_header(self, dim):
        header, body = "#dsl v1 features=V1 rules=1 state_dim={}", "\nrandom(filter(d >= 0, l))\n"
        with pytest.raises(ParseError, match=f"state_dim={dim}") as err:
            parse_program("\n" + header.format(dim) + body)
        assert err.value.line == 2
        assert parse_program("\n" + header.format(4) + body).n_rules == 1

    @pytest.mark.parametrize("number", ["1.2.3", "1e", "2.5e+"])
    def test_malformed_number_is_a_parse_error_at_its_column(self, number):
        text = f"#dsl v1 features=V1 rules=1 state_dim=4\nrandom(filter(d >= {number}, l))\n"
        with pytest.raises(ParseError, match="malformed number") as err:
            parse_program(text)
        assert (err.value.line, err.value.col) == (2, len("random(filter(d >= ") + 1)

    @pytest.mark.parametrize("expr", ["1e999*d >= 0", "d >= -1e999", "1e308*d + 1e308*d >= 0", "1e308*d >= -1e308*d"])
    def test_coefficient_that_is_not_finite_is_a_parse_error(self, expr):
        text = f"#dsl v1 features=V1 rules=1 state_dim=4\nrandom(filter({expr}, l))\n"
        with pytest.raises(ParseError, match="not a finite float"):
            parse_program(text)

    def test_deep_parentheses_are_a_parse_error_not_a_recursion_error(self):
        deep = "(" * 2000 + "d >= 0" + ")" * 2000
        with pytest.raises(ParseError, match="nested deeper"):
            parse_program(f"#dsl v1 features=V1 rules=1 state_dim=4\nrandom(filter({deep}, l))\n")
        shallow = "(" * 5 + "d >= 0" + ")" * 5
        assert parse_program(f"#dsl v1 features=V1 rules=1 state_dim=4\nrandom(filter({shallow}, l))\n")

    def test_roundtrip_random_programs(self):
        rng = make_rng(13)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            version = "v1" if rng.random() < 0.5 else "v2"
            fmap = FeatureMap(version)
            dim = fmap.dim(STATE_DIM)

            def rand_atom():
                return PredicateAtom(tuple(np.round(rng.normal(size=dim), 6)))

            def rand_pred():
                roll = rng.random()
                if roll < 0.5:
                    return rand_atom()
                op = "and" if rng.random() < 0.5 else "or"
                if roll < 0.8:
                    return BoolOp(op, rand_atom(), rand_atom())
                op2 = "and" if rng.random() < 0.5 else "or"
                return BoolOp(op, BoolOp(op2, rand_atom(), rand_atom()), rand_atom())

            rules = []
            for _ in range(k):
                if rng.random() < 0.5:
                    rules.append(RandRule(rand_pred()))
                else:
                    rules.append(DetRule(ScoreExpr(tuple(np.round(rng.normal(size=dim), 6))), rand_pred()))
            program = Program(tuple(rules), fmap)
            printed = print_program(program, STATE_DIM)
            assert parse_program(printed) == program
