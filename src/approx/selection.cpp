#include "approx/selection.hpp"

#include <cmath>

#include "common/error.hpp"

namespace qc::approx {

namespace {

/// Failed circuit runs carry metric = NaN (see CircuitScore); every selector
/// and statistic skips them so a partially-degraded study still yields valid
/// picks. NaN never compares true, but an explicit skip keeps the "first
/// valid wins" seeding correct too.
bool valid(const CircuitScore& s) { return !std::isnan(s.metric); }

}  // namespace

std::size_t minimal_hs_index(const std::vector<synth::ApproxCircuit>& circuits) {
  QC_CHECK(!circuits.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < circuits.size(); ++i) {
    const bool better = circuits[i].hs_distance < circuits[best].hs_distance ||
                        (circuits[i].hs_distance == circuits[best].hs_distance &&
                         circuits[i].cnot_count < circuits[best].cnot_count);
    if (better) best = i;
  }
  return best;
}

std::size_t best_by_target_value(const std::vector<CircuitScore>& scores,
                                 double ideal_value) {
  QC_CHECK(!scores.empty());
  std::size_t best = scores.size();
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (!valid(scores[i])) continue;
    if (best == scores.size() || std::abs(scores[i].metric - ideal_value) <
                                     std::abs(scores[best].metric - ideal_value))
      best = i;
  }
  return best == scores.size() ? 0 : best;
}

std::size_t best_by_max(const std::vector<CircuitScore>& scores) {
  QC_CHECK(!scores.empty());
  std::size_t best = scores.size();
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (!valid(scores[i])) continue;
    if (best == scores.size() || scores[i].metric > scores[best].metric) best = i;
  }
  return best == scores.size() ? 0 : best;
}

std::size_t best_by_min(const std::vector<CircuitScore>& scores) {
  QC_CHECK(!scores.empty());
  std::size_t best = scores.size();
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (!valid(scores[i])) continue;
    if (best == scores.size() || scores[i].metric < scores[best].metric) best = i;
  }
  return best == scores.size() ? 0 : best;
}

double fraction_beating_reference(const std::vector<CircuitScore>& scores,
                                  double reference_metric, bool higher_is_better) {
  QC_CHECK(!scores.empty());
  std::size_t wins = 0, counted = 0;
  for (const auto& s : scores) {
    if (!valid(s)) continue;
    ++counted;
    const bool win = higher_is_better ? s.metric > reference_metric
                                      : s.metric < reference_metric;
    if (win) ++wins;
  }
  if (counted == 0) return 0.0;
  return static_cast<double>(wins) / static_cast<double>(counted);
}

double precision_gain(const std::vector<CircuitScore>& scores, double reference_metric,
                      double ideal_value) {
  QC_CHECK(!scores.empty());
  const double ref_err = std::abs(reference_metric - ideal_value);
  if (ref_err <= 0.0) return 0.0;
  const double best_err =
      std::abs(scores[best_by_target_value(scores, ideal_value)].metric - ideal_value);
  if (std::isnan(best_err)) return 0.0;  // every run in the study failed
  return (ref_err - best_err) / ref_err;
}

std::size_t noise_aware_index(const std::vector<synth::ApproxCircuit>& circuits,
                              double cx_error) {
  // Noise each CNOT is expected to add, per unit of CX error.
  constexpr double kPenaltyPerCnotError = 1.5;
  QC_CHECK(!circuits.empty());
  QC_CHECK(cx_error >= 0.0);
  std::size_t best = 0;
  double best_score = 0.0;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const double score =
        circuits[i].hs_distance +
        kPenaltyPerCnotError * cx_error * static_cast<double>(circuits[i].cnot_count);
    if (i == 0 || score < best_score) {
      best = i;
      best_score = score;
    }
  }
  return best;
}

}  // namespace qc::approx
