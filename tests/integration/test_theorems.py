"""Property tests of the paper's theorems on randomly generated instances."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    average_case_variance,
    per_user_variances,
    strategy_objective_lower_bound,
    worst_case_variance,
)
from repro.optimization import initial_bounds, objective_value, project_columns
from repro.workloads import histogram, prefix, random_workload


def random_strategy(rows, cols, epsilon, seed):
    raw = np.random.default_rng(seed).random((rows, cols))
    return project_columns(raw, initial_bounds(rows, epsilon), epsilon).matrix


class TestTheorem51:
    """L_avg <= L_worst <= e^eps (L_avg + N/n ||W||_F^2)."""

    @settings(max_examples=30)
    @given(
        st.integers(min_value=2, max_value=6),
        st.floats(min_value=0.2, max_value=3.0),
        st.integers(min_value=0, max_value=1000),
    )
    def test_bounds_random_strategies(self, cols, epsilon, seed):
        workload = prefix(cols)
        strategy = random_strategy(4 * cols, cols, epsilon, seed)
        num_users = 10.0
        average = average_case_variance(strategy, workload.gram(), num_users)
        worst = worst_case_variance(strategy, workload.gram(), num_users)
        assert average <= worst + 1e-9
        upper = np.exp(epsilon) * (
            average + num_users / cols * workload.frobenius_norm_squared()
        )
        assert worst <= upper + 1e-6

    @settings(max_examples=15)
    @given(st.integers(min_value=0, max_value=500))
    def test_bounds_random_workloads(self, seed):
        workload = random_workload(6, 5, seed=seed)
        strategy = random_strategy(20, 5, 1.0, seed + 1)
        average = average_case_variance(strategy, workload.gram())
        worst = worst_case_variance(strategy, workload.gram())
        assert average <= worst + 1e-9
        upper = np.e * (average + workload.frobenius_norm_squared() / 5)
        assert worst <= upper + 1e-6

    def test_rr_equality_case(self):
        # Example 3.7: worst == average for RR on Histogram.
        from repro.mechanisms import randomized_response

        strategy = randomized_response(8, 1.0).probabilities
        assert np.isclose(
            worst_case_variance(strategy, np.eye(8)),
            average_case_variance(strategy, np.eye(8)),
        )


class TestTheorem56:
    """The SVD bound holds for every feasible strategy."""

    @settings(max_examples=30)
    @given(
        st.integers(min_value=2, max_value=6),
        st.floats(min_value=0.2, max_value=3.0),
        st.integers(min_value=0, max_value=1000),
    )
    def test_random_instances(self, cols, epsilon, seed):
        workload = random_workload(2 * cols, cols, seed=seed)
        strategy = random_strategy(4 * cols, cols, epsilon, seed + 1)
        # Theorem 5.6 bounds L(Q) over strategies that can *support* the
        # workload (W = W Q^+ Q).  The column projection can collapse a
        # random draw to a rank-deficient Q — e.g. every column equal at
        # small epsilon — where L(Q) is +inf and the bound says nothing.
        assume(
            np.allclose(
                workload.matrix,
                workload.matrix @ np.linalg.pinv(strategy) @ strategy,
            )
        )
        value = objective_value(strategy, workload.gram())
        bound = strategy_objective_lower_bound(workload, epsilon)
        assert value >= bound * (1 - 1e-9)


class TestVarianceNonNegativity:
    @settings(max_examples=30)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=1000),
    )
    def test_per_user_variances_nonnegative(self, cols, seed):
        workload = random_workload(cols + 2, cols, seed=seed)
        strategy = random_strategy(3 * cols, cols, 1.0, seed + 1)
        t = per_user_variances(strategy, workload.gram())
        assert t.min() >= -1e-8


class TestSampleComplexityMonotonicity:
    def test_decreasing_in_epsilon_for_optimized(self):
        from repro.optimization import OptimizedMechanism, OptimizerConfig

        mechanism = OptimizedMechanism(OptimizerConfig(num_iterations=120, seed=0))
        workload = histogram(8)
        values = [
            mechanism.sample_complexity(workload, epsilon)
            for epsilon in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a >= b * 0.999 for a, b in zip(values, values[1:]))
