// Numerical optimizers for the synthesis cost (the role SciPy's BFGS and
// COBYLA play in the paper's toolchain).
//
//  * L-BFGS with Armijo backtracking — the workhorse; quasi-Newton over the
//    smooth fidelity-gap objective.
//  * Nelder–Mead — derivative-free fallback (COBYLA stand-in), used by the
//    optimizer-choice ablation.
//  * Multistart — wraps L-BFGS with deterministic random restarts; circuit
//    cost landscapes are multimodal and restarts matter.
#pragma once

#include <functional>
#include <vector>

#include "common/deadline.hpp"
#include "common/rng.hpp"

namespace qc::synth {

using CostFn = std::function<double(const std::vector<double>&)>;
using GradFn = std::function<void(const std::vector<double>&, std::vector<double>&)>;

struct OptimizeOptions {
  int max_iterations = 120;
  double tolerance = 1e-12;  // stop when improvement/gradient falls below
  int lbfgs_memory = 8;
  /// Polled once per iteration; on expiry the optimizer returns the best
  /// point reached so far (a valid, if less converged, result).
  common::Deadline deadline;
};

struct OptimizeResult {
  std::vector<double> params;
  double value = 0.0;
  int iterations = 0;
  int evaluations = 0;
};

/// Quasi-Newton minimization from `x0`.
OptimizeResult lbfgs_minimize(const CostFn& f, const GradFn& grad,
                              const std::vector<double>& x0,
                              const OptimizeOptions& options = {});

/// Derivative-free simplex minimization from `x0`.
OptimizeResult nelder_mead_minimize(const CostFn& f, const std::vector<double>& x0,
                                    const OptimizeOptions& options = {});

struct MultistartOptions {
  OptimizeOptions inner;
  int num_starts = 4;
  /// First start is x0 itself; the rest perturb/randomize angles in
  /// [-pi, pi). Stops early when `good_enough` is reached.
  double good_enough = 1e-14;
};

/// Runs L-BFGS from x0 and from random restarts; returns the best.
OptimizeResult multistart_minimize(const CostFn& f, const GradFn& grad,
                                   const std::vector<double>& x0, common::Rng& rng,
                                   const MultistartOptions& options = {});

}  // namespace qc::synth
