// Output-distribution metrics.
//
// The paper scores circuits by comparing measured output distributions to
// the ideal ones: Jensen–Shannon distance for the Toffoli study, success
// probability for Grover, expectation values for TFIM, with TVD as an
// alternative. Conventions follow SciPy: js_distance is the square root of
// the Jensen–Shannon divergence computed with natural logarithms (so the
// paper's "random noise sits at JS 0.465 from the Toffoli target" anchor
// reproduces exactly).
#pragma once

#include <cstdint>
#include <vector>

namespace qc::metrics {

/// Probability vector helpers -------------------------------------------

/// True if entries are non-negative and sum to 1 within tol.
bool is_distribution(const std::vector<double>& p, double tol = 1e-9);

/// Rescales a non-negative vector to sum to 1. Throws if the sum is zero.
std::vector<double> normalized(std::vector<double> p);

/// Uniform distribution over `n` outcomes.
std::vector<double> uniform_distribution(std::size_t n);

/// Converts integer shot counts to a distribution.
std::vector<double> counts_to_distribution(const std::vector<std::uint64_t>& counts);

/// Distances -------------------------------------------------------------

/// Total variation distance: (1/2) Σ |p - q|, in [0, 1].
double total_variation(const std::vector<double>& p, const std::vector<double>& q);

/// Jensen–Shannon divergence with natural log; symmetric, in [0, ln 2].
double js_divergence(const std::vector<double>& p, const std::vector<double>& q);

/// Jensen–Shannon distance: sqrt(js_divergence); the paper's JS metric.
double js_distance(const std::vector<double>& p, const std::vector<double>& q);

/// Probability assigned to one outcome (Grover's success probability).
double success_probability(const std::vector<double>& p, std::size_t target);

}  // namespace qc::metrics
