#include "metrics/distribution.hpp"

#include <cmath>

#include "common/error.hpp"

namespace qc::metrics {

namespace {
void check_pair(const std::vector<double>& p, const std::vector<double>& q) {
  QC_CHECK_MSG(p.size() == q.size(), "distribution size mismatch");
  QC_CHECK(!p.empty());
}
}  // namespace

bool is_distribution(const std::vector<double>& p, double tol) {
  double sum = 0.0;
  for (double v : p) {
    if (v < -tol) return false;
    sum += v;
  }
  return std::abs(sum - 1.0) <= tol;
}

std::vector<double> normalized(std::vector<double> p) {
  double sum = 0.0;
  for (double v : p) {
    QC_CHECK_MSG(v >= 0.0, "negative probability");
    sum += v;
  }
  QC_CHECK_MSG(sum > 0.0, "cannot normalize the zero vector");
  for (double& v : p) v /= sum;
  return p;
}

std::vector<double> uniform_distribution(std::size_t n) {
  QC_CHECK(n > 0);
  return std::vector<double>(n, 1.0 / static_cast<double>(n));
}

std::vector<double> counts_to_distribution(const std::vector<std::uint64_t>& counts) {
  std::vector<double> p(counts.size());
  double total = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    p[i] = static_cast<double>(counts[i]);
    total += p[i];
  }
  QC_CHECK_MSG(total > 0.0, "no shots recorded");
  for (double& v : p) v /= total;
  return p;
}

double total_variation(const std::vector<double>& p, const std::vector<double>& q) {
  check_pair(p, q);
  double s = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) s += std::abs(p[i] - q[i]);
  return 0.5 * s;
}

double js_divergence(const std::vector<double>& p, const std::vector<double>& q) {
  check_pair(p, q);
  double d = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double m = 0.5 * (p[i] + q[i]);
    if (p[i] > 0.0) d += 0.5 * p[i] * std::log(p[i] / m);
    if (q[i] > 0.0) d += 0.5 * q[i] * std::log(q[i] / m);
  }
  return std::max(0.0, d);
}

double js_distance(const std::vector<double>& p, const std::vector<double>& q) {
  return std::sqrt(js_divergence(p, q));
}

double success_probability(const std::vector<double>& p, std::size_t target) {
  QC_CHECK(target < p.size());
  return p[target];
}

}  // namespace qc::metrics
