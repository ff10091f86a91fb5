#include <gtest/gtest.h>

#include <cmath>

#include "lp/simplex.h"
#include "util/rng.h"

namespace corral {
namespace {

TEST(Simplex, SolvesTextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  ->  x=2, y=6, obj=36.
  LpProblem lp(2);
  lp.maximize({3, 5});
  lp.add_constraint({1, 0}, Relation::kLessEqual, 4);
  lp.add_constraint({0, 2}, Relation::kLessEqual, 12);
  lp.add_constraint({3, 2}, Relation::kLessEqual, 18);
  const LpSolution solution = lp.solve();
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, 36.0, 1e-9);
  EXPECT_NEAR(solution.x[0], 2.0, 1e-9);
  EXPECT_NEAR(solution.x[1], 6.0, 1e-9);
}

TEST(Simplex, SolvesMinimizationWithGreaterEqual) {
  // min 2x + 3y s.t. x + y >= 4, x >= 1  ->  x=4, y=0, obj=8.
  LpProblem lp(2);
  lp.minimize({2, 3});
  lp.add_constraint({1, 1}, Relation::kGreaterEqual, 4);
  lp.add_constraint({1, 0}, Relation::kGreaterEqual, 1);
  const LpSolution solution = lp.solve();
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, 8.0, 1e-9);
}

TEST(Simplex, HandlesEqualityConstraints) {
  // min x + 2y s.t. x + y = 3, x <= 1  ->  x=1, y=2, obj=5.
  LpProblem lp(2);
  lp.minimize({1, 2});
  lp.add_constraint({1, 1}, Relation::kEqual, 3);
  lp.add_constraint({1, 0}, Relation::kLessEqual, 1);
  const LpSolution solution = lp.solve();
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, 5.0, 1e-9);
  EXPECT_NEAR(solution.x[0], 1.0, 1e-9);
  EXPECT_NEAR(solution.x[1], 2.0, 1e-9);
}

TEST(Simplex, DetectsInfeasibility) {
  LpProblem lp(1);
  lp.minimize({1});
  lp.add_constraint({1}, Relation::kLessEqual, 1);
  lp.add_constraint({1}, Relation::kGreaterEqual, 2);
  EXPECT_EQ(lp.solve().status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  LpProblem lp(1);
  lp.maximize({1});
  lp.add_constraint({-1}, Relation::kLessEqual, 0);  // x >= 0, no upper bound
  EXPECT_EQ(lp.solve().status, LpStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsIsNormalized) {
  // min x s.t. -x <= -3 (i.e., x >= 3).
  LpProblem lp(1);
  lp.minimize({1});
  lp.add_constraint({-1}, Relation::kLessEqual, -3);
  const LpSolution solution = lp.solve();
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, 3.0, 1e-9);
}

TEST(Simplex, SparseConstraintAccumulatesDuplicateTerms) {
  LpProblem lp(2);
  lp.maximize({1, 1});
  // 0.5x + 0.5x + y <= 2 should behave as x + y <= 2.
  lp.add_constraint_sparse({{0, 0.5}, {0, 0.5}, {1, 1.0}},
                           Relation::kLessEqual, 2);
  const LpSolution solution = lp.solve();
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, 2.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // A classic degenerate vertex: multiple constraints meet at the optimum.
  LpProblem lp(2);
  lp.maximize({1, 1});
  lp.add_constraint({1, 0}, Relation::kLessEqual, 1);
  lp.add_constraint({0, 1}, Relation::kLessEqual, 1);
  lp.add_constraint({1, 1}, Relation::kLessEqual, 2);
  lp.add_constraint({1, 1}, Relation::kLessEqual, 2);
  const LpSolution solution = lp.solve();
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, 2.0, 1e-9);
}

TEST(Simplex, RejectsBadDimensions) {
  EXPECT_THROW(LpProblem{0}, std::invalid_argument);
  LpProblem lp(2);
  EXPECT_THROW(lp.minimize({1.0}), std::invalid_argument);
  EXPECT_THROW(lp.add_constraint({1.0}, Relation::kLessEqual, 1),
               std::invalid_argument);
  EXPECT_THROW(lp.add_constraint_sparse({{5, 1.0}}, Relation::kLessEqual, 1),
               std::invalid_argument);
}

// Property check: on random transportation-style LPs, the simplex optimum
// must match a brute-force search over the (small) vertex set implied by
// assignment structure. We use random fractional knapsack instances where
// the optimum has a closed form.
TEST(Simplex, MatchesFractionalKnapsackClosedForm) {
  Rng rng(123);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = rng.uniform_int(2, 6);
    std::vector<double> value(static_cast<std::size_t>(n));
    std::vector<double> weight(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      value[static_cast<std::size_t>(i)] = rng.uniform(1, 10);
      weight[static_cast<std::size_t>(i)] = rng.uniform(1, 5);
    }
    const double budget = rng.uniform(1, 8);

    LpProblem lp(n);
    lp.maximize(value);
    lp.add_constraint(weight, Relation::kLessEqual, budget);
    for (int i = 0; i < n; ++i) {
      std::vector<double> row(static_cast<std::size_t>(n), 0.0);
      row[static_cast<std::size_t>(i)] = 1.0;
      lp.add_constraint(row, Relation::kLessEqual, 1.0);  // x_i <= 1
    }
    const LpSolution solution = lp.solve();
    ASSERT_TRUE(solution.optimal());

    // Greedy fractional knapsack by density.
    std::vector<int> order(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return value[static_cast<std::size_t>(a)] /
                 weight[static_cast<std::size_t>(a)] >
             value[static_cast<std::size_t>(b)] /
                 weight[static_cast<std::size_t>(b)];
    });
    double remaining = budget;
    double expected = 0;
    for (int i : order) {
      const double take = std::min(1.0, remaining /
                                            weight[static_cast<std::size_t>(
                                                i)]);
      expected += take * value[static_cast<std::size_t>(i)];
      remaining -= take * weight[static_cast<std::size_t>(i)];
      if (remaining <= 0) break;
    }
    EXPECT_NEAR(solution.objective, expected, 1e-6)
        << "trial " << trial << " n=" << n;
  }
}

TEST(Simplex, ReportsIterationCount) {
  LpProblem lp(2);
  lp.maximize({3, 5});
  lp.add_constraint({1, 0}, Relation::kLessEqual, 4);
  lp.add_constraint({0, 2}, Relation::kLessEqual, 12);
  lp.add_constraint({3, 2}, Relation::kLessEqual, 18);
  const LpSolution solution = lp.solve();
  ASSERT_TRUE(solution.optimal());
  EXPECT_GT(solution.iterations, 0);

  // Infeasible problems report the pivots spent discovering infeasibility.
  LpProblem bad(1);
  bad.minimize({1});
  bad.add_constraint({1}, Relation::kLessEqual, 1);
  bad.add_constraint({1}, Relation::kGreaterEqual, 2);
  const LpSolution infeasible = bad.solve();
  EXPECT_EQ(infeasible.status, LpStatus::kInfeasible);
  EXPECT_GT(infeasible.iterations, 0);
}

TEST(Simplex, TiedPivotsResolveDeterministically) {
  // max x + y s.t. x + y <= 1: every point on the facet is optimal and the
  // entering-column choice is tied. Two identical solves must agree on the
  // vertex AND the pivot count (the determinism contract the plan cache
  // relies on).
  const auto solve_once = [] {
    LpProblem lp(2);
    lp.maximize({1, 1});
    lp.add_constraint({1, 1}, Relation::kLessEqual, 1);
    lp.add_constraint({1, 0}, Relation::kLessEqual, 1);
    lp.add_constraint({0, 1}, Relation::kLessEqual, 1);
    return lp.solve();
  };
  const LpSolution a = solve_once();
  const LpSolution b = solve_once();
  ASSERT_TRUE(a.optimal());
  EXPECT_NEAR(a.objective, 1.0, 1e-9);
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    EXPECT_EQ(a.x[i], b.x[i]) << "var " << i;
  }
  // A tied ratio test at a degenerate vertex must still terminate (Bland's
  // rule kicks in after the Dantzig phase) and land on the same answer.
  const LpSolution c = solve_once();
  EXPECT_EQ(c.iterations, a.iterations);
}

// Property test: any solution the simplex declares optimal must actually be
// primal-feasible — x >= 0 and every constraint satisfied within tolerance.
// Instances are random covering/packing mixes that always have a bounded
// optimum: maximize c.x with x_i <= 1 boxes plus random <= and >= rows.
TEST(Simplex, RandomizedOptimaArePrimalFeasible) {
  Rng rng(2015);
  int optima = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const int n = rng.uniform_int(1, 6);
    const int extra = rng.uniform_int(0, 4);
    LpProblem lp(n);
    std::vector<double> objective(static_cast<std::size_t>(n));
    for (double& c : objective) c = rng.uniform(0.1, 10.0);
    lp.maximize(objective);

    struct Stored {
      std::vector<double> row;
      Relation relation = Relation::kLessEqual;
      double rhs = 0;
    };
    std::vector<Stored> constraints;
    for (int i = 0; i < n; ++i) {
      Stored box;
      box.row.assign(static_cast<std::size_t>(n), 0.0);
      box.row[static_cast<std::size_t>(i)] = 1.0;
      box.rhs = 1.0;
      constraints.push_back(box);
    }
    for (int k = 0; k < extra; ++k) {
      Stored stored;
      stored.row.resize(static_cast<std::size_t>(n));
      double row_sum = 0;
      for (double& a : stored.row) {
        a = rng.uniform(0.0, 5.0);
        row_sum += a;
      }
      if (rng.uniform(0.0, 1.0) < 0.5) {
        stored.relation = Relation::kLessEqual;
        stored.rhs = rng.uniform(0.5, 10.0);
      } else {
        // Keep >= rows satisfiable inside the unit box.
        stored.relation = Relation::kGreaterEqual;
        stored.rhs = rng.uniform(0.0, 0.5) * row_sum;
      }
      constraints.push_back(stored);
    }
    for (const Stored& stored : constraints) {
      lp.add_constraint(stored.row, stored.relation, stored.rhs);
    }

    const LpSolution solution = lp.solve();
    if (!solution.optimal()) continue;  // infeasible mixes are fine to skip
    ++optima;
    ASSERT_EQ(solution.x.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      EXPECT_GE(solution.x[static_cast<std::size_t>(i)], -1e-7)
          << "trial " << trial << " var " << i;
    }
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      double lhs = 0;
      for (int i = 0; i < n; ++i) {
        lhs += constraints[c].row[static_cast<std::size_t>(i)] *
               solution.x[static_cast<std::size_t>(i)];
      }
      switch (constraints[c].relation) {
        case Relation::kLessEqual:
          EXPECT_LE(lhs, constraints[c].rhs + 1e-6)
              << "trial " << trial << " constraint " << c;
          break;
        case Relation::kGreaterEqual:
          EXPECT_GE(lhs, constraints[c].rhs - 1e-6)
              << "trial " << trial << " constraint " << c;
          break;
        case Relation::kEqual:
          EXPECT_NEAR(lhs, constraints[c].rhs, 1e-6)
              << "trial " << trial << " constraint " << c;
          break;
      }
    }
  }
  // The instance family is built to be mostly feasible; make sure the
  // property actually ran.
  EXPECT_GE(optima, 25);
}

}  // namespace
}  // namespace corral
