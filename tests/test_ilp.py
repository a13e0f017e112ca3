"""The oracle (I)LP solver: simplex vs scipy, branch & bound vs brute force."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from .ilp import Model, Status, solve_lp


class TestModelBuilding:
    def test_var_validation(self):
        model = Model()
        with pytest.raises(ValueError):
            model.add_var("x", lo=5, hi=1)
        with pytest.raises(ValueError):
            model.add_var("x", lo=-math.inf)

    def test_coeff_keys_must_be_vars(self):
        model = Model()
        model.add_var("x")
        with pytest.raises(TypeError):
            model.add_le({"x": 1}, 1)

    def test_stats(self):
        model = Model("m")
        model.add_var("x", integer=True)
        model.add_le({}, 1)
        assert "1 vars (1 integer)" in model.stats()


class TestSimplexBasics:
    def test_simple_max(self):
        # max x + y st x <= 2, y <= 3
        model = Model(maximize=True)
        x = model.add_var("x", hi=2)
        y = model.add_var("y", hi=3)
        model.set_objective({x: 1, y: 1})
        solution = model.solve()
        assert solution.is_optimal
        assert solution.objective == pytest.approx(5)

    def test_equality_constraints(self):
        # min x + y st x + y == 4, x - y == 2  -> x=3, y=1
        model = Model()
        x = model.add_var("x")
        y = model.add_var("y")
        model.add_eq({x: 1, y: 1}, 4)
        model.add_eq({x: 1, y: -1}, 2)
        model.set_objective({x: 1, y: 1})
        solution = model.solve()
        assert solution[x] == pytest.approx(3)
        assert solution[y] == pytest.approx(1)

    def test_infeasible(self):
        model = Model()
        x = model.add_var("x", hi=1)
        model.add_ge({x: 1}, 2)
        assert model.solve().status == Status.INFEASIBLE

    def test_unbounded(self):
        model = Model(maximize=True)
        x = model.add_var("x")
        model.set_objective({x: 1})
        assert model.solve().status == Status.UNBOUNDED

    def test_negative_lower_bounds(self):
        # min x st x >= -5 -> -5
        model = Model()
        x = model.add_var("x", lo=-5)
        model.set_objective({x: 1})
        solution = model.solve()
        assert solution.objective == pytest.approx(-5)

    def test_ge_constraints(self):
        model = Model()
        x = model.add_var("x")
        model.add_ge({x: 2}, 10)
        model.set_objective({x: 1})
        assert model.solve().objective == pytest.approx(5)


class TestBranchAndBound:
    def brute_force(self, benefits, sizes, capacity):
        best = 0
        n = len(benefits)
        for mask in itertools.product((0, 1), repeat=n):
            size = sum(s for s, m in zip(sizes, mask) if m)
            if size <= capacity:
                best = max(best, sum(b for b, m in zip(benefits, mask)
                                     if m))
        return best

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 30), st.integers(1, 20)),
                 min_size=1, max_size=8),
        st.integers(1, 60),
    )
    def test_knapsack_matches_brute_force(self, items, capacity):
        model = Model("ks", maximize=True)
        xs = [model.add_var(f"x{i}", hi=1, integer=True)
              for i in range(len(items))]
        model.add_le({x: s for x, (_b, s) in zip(xs, items)}, capacity)
        model.set_objective({x: b for x, (b, _s) in zip(xs, items)})
        solution = model.solve()
        expected = self.brute_force([b for b, _ in items],
                                    [s for _, s in items], capacity)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(expected)

    def test_integer_rounding(self):
        # LP relaxation is fractional; ILP must step down.
        model = Model(maximize=True)
        x = model.add_var("x", integer=True)
        model.add_le({x: 2}, 5)       # x <= 2.5
        model.set_objective({x: 1})
        solution = model.solve()
        assert solution[x] == 2

    def test_infeasible_integer(self):
        model = Model(maximize=True)
        x = model.add_var("x", integer=True, lo=0, hi=10)
        model.add_ge({x: 2}, 3)      # x >= 1.5
        model.add_le({x: 2}, 3.5     # x <= 1.75 -> no integer
                     )
        model.set_objective({x: 1})
        assert model.solve().status == Status.INFEASIBLE

    def test_lp_relaxation_flag(self):
        model = Model(maximize=True)
        x = model.add_var("x", integer=True)
        model.add_le({x: 2}, 5)
        model.set_objective({x: 1})
        relaxed = model.solve(integer=False)
        assert relaxed.objective == pytest.approx(2.5)


# -- randomised cross-check against scipy ------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lp_matches_scipy(data):
    n = data.draw(st.integers(1, 5), label="n")
    m = data.draw(st.integers(1, 4), label="m")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    c = rng.normal(size=n)
    a_ub = rng.normal(size=(m, n))
    b_ub = rng.normal(size=m) + 1.5
    bounds = [(0.0, 4.0)] * n
    status, _x, objective = solve_lp(c, a_ub, b_ub, bounds=bounds)
    reference = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                        method="highs")
    if status == Status.OPTIMAL:
        assert reference.status == 0
        assert objective == pytest.approx(reference.fun, abs=1e-6)
    else:
        assert reference.status != 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lp_with_equalities_matches_scipy(data):
    n = data.draw(st.integers(2, 5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    c = rng.normal(size=n)
    a_eq = rng.normal(size=(1, n))
    b_eq = rng.normal(size=1)
    bounds = [(-2.0, 3.0)] * n
    status, _x, objective = solve_lp(c, a_eq=a_eq, b_eq=b_eq,
                                     bounds=bounds)
    reference = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                        method="highs")
    if status == Status.OPTIMAL:
        assert reference.status == 0
        assert objective == pytest.approx(reference.fun, abs=1e-6)
    else:
        assert reference.status != 0
