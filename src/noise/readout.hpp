// Measurement (read-out) error: per-qubit confusion probabilities, applied
// either exactly to a probability vector (density-matrix engine) or as
// sampled bit flips (trajectory engine).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace qc::noise {

/// Asymmetric per-qubit readout error.
struct ReadoutError {
  double p_meas1_given0 = 0.0;  // prepared |0>, read "1"
  double p_meas0_given1 = 0.0;  // prepared |1>, read "0"

  /// Average assignment error (the single number device dashboards report).
  double average() const { return 0.5 * (p_meas1_given0 + p_meas0_given1); }
};

/// Applies the per-qubit confusion matrices to an exact output distribution
/// over 2^n outcomes (qubit q of the outcome index has errors[q]).
std::vector<double> apply_readout_error(const std::vector<double>& probs,
                                        const std::vector<ReadoutError>& errors);

/// Flips each bit of a sampled outcome with its confusion probability.
std::uint64_t sample_readout_flip(std::uint64_t outcome,
                                  const std::vector<ReadoutError>& errors,
                                  common::Rng& rng);

}  // namespace qc::noise
