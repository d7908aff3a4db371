"""Tests for the influence-maximization substrate."""

import itertools

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.im.celf import celf, celf_coverage, greedy_im
from repro.im.heuristics import degree_seeds, random_seeds
from repro.im.ic_model import estimate_ic_spread, simulate_ic
from repro.im.lt_model import simulate_lt
from repro.im.metrics import coverage_ratio
from repro.im.sis_model import simulate_sis
from repro.im.spread import coverage_spread, estimate_spread


class TestICModel:
    def test_deterministic_cascade_is_reachability(self, tiny_graph):
        # w = 1: cascade activates everything reachable from the seeds.
        active = simulate_ic(tiny_graph, [0], rng=0)
        assert active == {0, 1, 2, 3, 4}

    def test_max_steps_limits_depth(self, tiny_graph):
        active = simulate_ic(tiny_graph, [0], max_steps=1, rng=0)
        assert active == {0, 1, 2}

    def test_zero_weight_no_spread(self, tiny_graph):
        graph = tiny_graph.with_uniform_weights(0.0)
        assert simulate_ic(graph, [0], rng=0) == {0}

    def test_probability_half_statistics(self):
        graph = Graph(2, [(0, 1)], weights=[0.5])
        activations = sum(
            1 in simulate_ic(graph, [0], rng=seed) for seed in range(2000)
        )
        assert activations / 2000 == pytest.approx(0.5, abs=0.04)

    def test_seed_validation(self, tiny_graph):
        with pytest.raises(GraphError):
            simulate_ic(tiny_graph, [9])
        with pytest.raises(GraphError):
            simulate_ic(tiny_graph, [0, 0])

    def test_estimate_uses_single_run_when_deterministic(self, tiny_graph):
        assert estimate_ic_spread(tiny_graph, [0], num_simulations=1000) == 5.0

    def test_estimate_monotone_in_weight(self):
        base = Graph(10, [(i, i + 1) for i in range(9)])
        low = estimate_ic_spread(
            base.with_uniform_weights(0.2), [0], num_simulations=300, rng=0
        )
        high = estimate_ic_spread(
            base.with_uniform_weights(0.8), [0], num_simulations=300, rng=0
        )
        assert high > low


class TestLTModel:
    def test_seeds_always_active(self, tiny_graph):
        active = simulate_lt(tiny_graph, [0, 3], rng=0)
        assert {0, 3} <= active

    def test_full_in_weight_always_activates(self):
        # Single in-edge of weight 1.0: pressure 1.0 >= any threshold.
        graph = Graph(2, [(0, 1)], weights=[1.0])
        for seed in range(20):
            assert simulate_lt(graph, [0], rng=seed) == {0, 1}

    def test_deterministic_given_seed(self, clustered_graph):
        first = simulate_lt(clustered_graph, [0, 1], rng=9)
        second = simulate_lt(clustered_graph, [0, 1], rng=9)
        assert first == second


class TestSISModel:
    def test_ever_infected_contains_seeds(self, tiny_graph):
        infected = simulate_sis(tiny_graph, [0], max_steps=3, rng=0)
        assert 0 in infected

    def test_w1_spreads_like_bfs_frontier(self, tiny_graph):
        infected = simulate_sis(tiny_graph, [0], recovery=0.0, max_steps=10, rng=0)
        assert infected == {0, 1, 2, 3, 4}

    def test_validation(self, tiny_graph):
        with pytest.raises(GraphError):
            simulate_sis(tiny_graph, [0], recovery=1.5)
        with pytest.raises(GraphError):
            simulate_sis(tiny_graph, [0], max_steps=0)


class TestSpread:
    def test_coverage_spread_manual(self, tiny_graph):
        assert coverage_spread(tiny_graph, [0], steps=1) == 3  # {0,1,2}
        assert coverage_spread(tiny_graph, [0], steps=0) == 1
        assert coverage_spread(tiny_graph, [0, 3], steps=1) == 5

    def test_dispatcher_deterministic_ic(self, tiny_graph):
        assert estimate_spread(tiny_graph, [0], model="ic", steps=1) == 3.0

    def test_dispatcher_models(self, clustered_graph):
        seeds = [0, 1, 2]
        for model in ("ic", "lt", "sis"):
            value = estimate_spread(
                clustered_graph.with_uniform_weights(0.3),
                seeds,
                model=model,
                steps=3,
                num_simulations=10,
                rng=0,
            )
            assert value >= len(seeds)

    def test_dispatcher_unknown_model(self, tiny_graph):
        with pytest.raises(GraphError):
            estimate_spread(tiny_graph, [0], model="sir")


class TestVectorizedCoverage:
    """The CSR-vectorized coverage_spread against the original BFS loop."""

    @staticmethod
    def oracle(graph, seeds, steps):
        """The pre-vectorization implementation, kept as the reference."""
        covered = {int(seed) for seed in seeds}
        frontier = list(covered)
        for _ in range(steps):
            next_frontier = []
            for node in frontier:
                for neighbor in graph.out_neighbors(node):
                    neighbor = int(neighbor)
                    if neighbor not in covered:
                        covered.add(neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return len(covered)

    def test_matches_oracle_on_random_graphs(self):
        from repro.graphs.generators import powerlaw_cluster_graph

        rng = np.random.default_rng(17)
        for _ in range(30):
            num_nodes = int(rng.integers(4, 80))
            attachment = int(rng.integers(1, min(4, num_nodes)))
            graph = powerlaw_cluster_graph(
                num_nodes, attachment, float(rng.random()),
                rng=int(rng.integers(1_000_000)),
            )
            k = int(rng.integers(1, min(6, num_nodes) + 1))
            seeds = [int(s) for s in rng.choice(num_nodes, size=k, replace=False)]
            for steps in (0, 1, 3):
                assert coverage_spread(graph, seeds, steps=steps) == self.oracle(
                    graph, seeds, steps
                )

    def test_duplicate_free_seed_validation_still_applies(self, tiny_graph):
        with pytest.raises(GraphError):
            coverage_spread(tiny_graph, [0, 0])
        with pytest.raises(GraphError):
            coverage_spread(tiny_graph, [0], steps=-1)

    def test_isolated_seed_and_empty_graph(self):
        graph = Graph(6, [])
        assert coverage_spread(graph, [2, 5], steps=4) == 2


class TestCELF:
    def test_submodule_is_not_shadowed_by_a_function(self):
        # ``repro.im`` must not re-export a name equal to a submodule's, or
        # ``import repro.im.celf`` binds that object instead of the module.
        import repro.im.celf as module

        assert module.celf_coverage is celf_coverage
        assert module.celf is celf

    def brute_force_best(self, graph, k):
        """Exhaustive search over all k-subsets (tiny graphs only)."""
        best = 0
        for subset in itertools.combinations(range(graph.num_nodes), k):
            best = max(best, coverage_spread(graph, list(subset)))
        return best

    def test_matches_brute_force_on_small_graphs(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            edges = [
                (int(u), int(v))
                for u, v in rng.integers(0, 8, size=(14, 2))
                if u != v
            ]
            graph = Graph(8, sorted(set(edges)))
            _, celf_value = celf_coverage(graph, 2)
            # Coverage is submodular: greedy is within (1 - 1/e) of optimal,
            # and on these tiny instances it is almost always exact.
            assert celf_value >= (1 - 1 / np.e) * self.brute_force_best(graph, 2)

    def test_generic_equals_specialised(self, clustered_graph):
        _, fast = celf_coverage(clustered_graph, 8)
        _, generic = celf(
            clustered_graph, 8, lambda s: float(coverage_spread(clustered_graph, s))
        )
        assert generic == pytest.approx(float(fast))

    def test_seeds_are_distinct(self, clustered_graph):
        seeds, _ = celf_coverage(clustered_graph, 10)
        assert len(set(seeds)) == 10

    def test_marginal_gains_non_increasing(self, clustered_graph):
        seeds, _ = celf_coverage(clustered_graph, 6)
        spreads = [
            coverage_spread(clustered_graph, seeds[: i + 1]) for i in range(len(seeds))
        ]
        gains = np.diff([0] + spreads)
        assert all(gains[i] >= gains[i + 1] - 1e-9 for i in range(len(gains) - 1))

    def test_beats_or_matches_degree_heuristic(self, clustered_graph):
        _, celf_value = celf_coverage(clustered_graph, 5)
        degree_value = coverage_spread(clustered_graph, degree_seeds(clustered_graph, 5))
        assert celf_value >= degree_value

    def test_greedy_im_monte_carlo_path(self, social_graph):
        graph = social_graph.with_uniform_weights(0.2)
        seeds, spread = greedy_im(graph, 3, num_simulations=20, rng=0)
        assert len(seeds) == 3
        assert spread >= 3

    def test_validation(self, tiny_graph):
        with pytest.raises(GraphError):
            celf_coverage(tiny_graph, 0)
        with pytest.raises(GraphError):
            celf_coverage(tiny_graph, 99)
        with pytest.raises(GraphError):
            celf(tiny_graph, 3, lambda s: 0.0, candidates=[0])


class TestHeuristicsAndMetrics:
    def test_degree_seeds_order(self, tiny_graph):
        assert degree_seeds(tiny_graph, 1) == [0]  # out-degree 2

    def test_random_seeds_distinct(self, clustered_graph):
        seeds = random_seeds(clustered_graph, 10, rng=0)
        assert len(set(seeds)) == 10

    def test_coverage_ratio(self):
        assert coverage_ratio(50.0, 100.0) == pytest.approx(50.0)
        with pytest.raises(GraphError):
            coverage_ratio(10.0, 0.0)
        with pytest.raises(GraphError):
            coverage_ratio(-1.0, 10.0)


class TestAnalysis:
    def test_spread_curve_monotone(self, clustered_graph):
        from repro.im.analysis import spread_curve

        ranking = degree_seeds(clustered_graph, clustered_graph.num_nodes)
        curve = spread_curve(clustered_graph, ranking, [1, 5, 10, 20])
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_spread_curve_validation(self, clustered_graph):
        from repro.im.analysis import spread_curve

        with pytest.raises(GraphError):
            spread_curve(clustered_graph, [0, 0, 1], [2])
        with pytest.raises(GraphError):
            spread_curve(clustered_graph, [0, 1], [3])
        with pytest.raises(GraphError):
            spread_curve(clustered_graph, [0, 1], [])

    def test_ranking_quality_degree_beats_random(self, clustered_graph):
        from repro.im.analysis import ranking_quality

        degree_scores = clustered_graph.out_degrees().astype(float)
        random_scores = np.random.default_rng(0).random(clustered_graph.num_nodes)
        budgets = [5, 10, 20]
        good = ranking_quality(clustered_graph, degree_scores, budgets)
        bad = ranking_quality(clustered_graph, random_scores, budgets)
        assert good > bad
        assert 0 < good <= 1.01

    def test_ranking_quality_shape_checked(self, clustered_graph):
        from repro.im.analysis import ranking_quality

        with pytest.raises(GraphError):
            ranking_quality(clustered_graph, np.ones(3), [2])

    def test_seed_overlap(self):
        from repro.im.analysis import seed_overlap

        assert seed_overlap([1, 2, 3], [1, 2, 3]) == 1.0
        assert seed_overlap([1, 2], [3, 4]) == 0.0
        assert seed_overlap([1, 2, 3], [2, 3, 4]) == pytest.approx(0.5)
        assert seed_overlap([], []) == 1.0
