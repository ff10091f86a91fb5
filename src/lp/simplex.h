// A dense two-phase simplex solver.
//
// Appendix A of the paper bounds the planning heuristics with an LP
// relaxation. The relaxations we solve are small (hundreds to a few thousand
// variables), so a straightforward dense tableau simplex is sufficient and
// keeps the reproduction dependency-free. Variables are non-negative;
// constraints may be <=, >= or =.
#ifndef CORRAL_LP_SIMPLEX_H_
#define CORRAL_LP_SIMPLEX_H_

#include <utility>
#include <vector>

namespace corral {

enum class Relation { kLessEqual, kGreaterEqual, kEqual };

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;  // one value per declared variable
  // Pivots performed across both phases. Deterministic for a given
  // problem: two solves of the same LP pivot the same number of times.
  int iterations = 0;

  bool optimal() const { return status == LpStatus::kOptimal; }
};

class LpProblem {
 public:
  // Creates a problem over `num_vars` non-negative variables with a zero
  // objective. Use minimize()/maximize() to set coefficients.
  explicit LpProblem(int num_vars);

  int num_vars() const { return num_vars_; }

  // Sets the objective to minimize (resp. maximize) c . x. The vector must
  // have one entry per variable.
  void minimize(std::vector<double> c);
  void maximize(std::vector<double> c);

  // Adds a dense constraint row: coeffs . x  rel  rhs.
  void add_constraint(std::vector<double> coeffs, Relation rel, double rhs);

  // Adds a sparse constraint row from (variable index, coefficient) terms.
  void add_constraint_sparse(
      const std::vector<std::pair<int, double>>& terms, Relation rel,
      double rhs);

  // Solves with the two-phase tableau method. Dantzig pricing with a switch
  // to Bland's rule to guarantee termination on degenerate problems.
  LpSolution solve(int max_iterations = 200000) const;

 private:
  struct Row {
    std::vector<double> coeffs;
    Relation rel;
    double rhs;
  };

  int num_vars_;
  std::vector<double> objective_;
  bool maximize_ = false;
  std::vector<Row> rows_;
};

}  // namespace corral

#endif  // CORRAL_LP_SIMPLEX_H_
