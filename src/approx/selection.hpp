// Candidate selection and headline statistics.
//
// The paper's two selectors: "Minimal HS" (the process-metric choice — what
// a synthesis tool would hand you) and "Best approximate" (oracle choice by
// measured output quality — the upper bound approximate circuits could
// reach with a perfect selection method; finding that method is the paper's
// stated open problem).
#pragma once

#include <cstddef>
#include <vector>

#include "approx/experiment.hpp"

namespace qc::approx {

/// Index of the circuit with the lowest HS distance (ties: fewer CNOTs).
std::size_t minimal_hs_index(const std::vector<synth::ApproxCircuit>& circuits);

/// Index minimizing |metric - ideal| ("best approximate" for value metrics
/// like magnetization).
std::size_t best_by_target_value(const std::vector<CircuitScore>& scores,
                                 double ideal_value);
/// Index maximizing the metric (success probability).
std::size_t best_by_max(const std::vector<CircuitScore>& scores);
/// Index minimizing the metric (JS distance).
std::size_t best_by_min(const std::vector<CircuitScore>& scores);

/// Fraction of approximations scoring better than the reference ("almost all
/// of the approximate circuits perform better...").
/// `higher_is_better` selects the comparison direction.
double fraction_beating_reference(const std::vector<CircuitScore>& scores,
                                  double reference_metric, bool higher_is_better);

/// Relative improvement of the best approximation's error over the
/// reference's error against the ideal value — the paper's "up to 60%"
/// precision-gain statistic. Returns (ref_err - best_err) / ref_err.
double precision_gain(const std::vector<CircuitScore>& scores, double reference_metric,
                      double ideal_value);

/// Noise-aware selection — a concrete answer to the paper's open problem
/// ("any method of selecting appropriate approximate circuits will need to
/// take the noise/error levels of target devices into account").
///
/// Scores each candidate by   hs_distance + 1.5 * cx_error * cnot_count
/// and returns the argmin: the first term is the approximation's own error,
/// the second a first-order estimate of the noise it will accumulate. At cx_error = 0 this degenerates to minimal-HS;
/// as the device worsens it trades process fidelity for depth — the
/// behaviour Figures 8-11 demand. The weight 1.5 is fit against the
/// metric-predictivity study (bench_ext_metric_predictivity).
std::size_t noise_aware_index(const std::vector<synth::ApproxCircuit>& circuits,
                              double cx_error);

}  // namespace qc::approx
