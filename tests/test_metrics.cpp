// Unit + property tests for qc::metrics — process and distribution metrics.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/factories.hpp"
#include "metrics/distribution.hpp"
#include "metrics/process.hpp"

namespace qc::metrics {
namespace {

using linalg::cplx;
using linalg::Matrix;

TEST(Process, IdenticalUnitariesAtZeroDistance) {
  common::Rng rng(1);
  const Matrix u = linalg::random_unitary(8, rng);
  EXPECT_NEAR(hs_fidelity(u, u), 1.0, 1e-12);
  EXPECT_NEAR(hs_distance(u, u), 0.0, 1e-6);
  EXPECT_NEAR(average_gate_fidelity(u, u), 1.0, 1e-12);
}

TEST(Process, GlobalPhaseInvariance) {
  common::Rng rng(2);
  const Matrix u = linalg::random_unitary(4, rng);
  const Matrix v = u * std::polar(1.0, 1.234);
  EXPECT_NEAR(hs_distance(u, v), 0.0, 1e-7);
}

TEST(Process, SymmetryAndRange) {
  common::Rng rng(3);
  for (int i = 0; i < 8; ++i) {
    const Matrix u = linalg::random_unitary(8, rng);
    const Matrix v = linalg::random_unitary(8, rng);
    const double d = hs_distance(u, v);
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
    EXPECT_NEAR(d, hs_distance(v, u), 1e-12);
  }
}

TEST(Process, OrthogonalPaulisAtMaxDistance) {
  EXPECT_NEAR(hs_distance(linalg::pauli_x(), linalg::pauli_z()), 1.0, 1e-12);
  EXPECT_NEAR(hs_fidelity(linalg::pauli_x(), linalg::pauli_z()), 0.0, 1e-12);
}

TEST(Process, AverageGateFidelityKnownValue) {
  // F(I, X) on 1 qubit: |Tr|=0 -> (0 + 2)/(4 + 2) = 1/3.
  EXPECT_NEAR(average_gate_fidelity(Matrix::identity(2), linalg::pauli_x()),
              1.0 / 3.0, 1e-12);
}

TEST(Distributions, ValidationHelpers) {
  EXPECT_TRUE(is_distribution({0.25, 0.75}));
  EXPECT_FALSE(is_distribution({0.5, 0.6}));
  EXPECT_FALSE(is_distribution({-0.1, 1.1}));
  EXPECT_EQ(normalized({2.0, 6.0}), (std::vector<double>{0.25, 0.75}));
  EXPECT_THROW(normalized({0.0, 0.0}), common::Error);
  EXPECT_THROW(normalized({-1.0, 2.0}), common::Error);
}

TEST(Distributions, Factories) {
  EXPECT_EQ(uniform_distribution(4), (std::vector<double>{0.25, 0.25, 0.25, 0.25}));
  EXPECT_EQ(counts_to_distribution({1, 3}), (std::vector<double>{0.25, 0.75}));
}

TEST(Tvd, KnownValuesAndProperties) {
  EXPECT_NEAR(total_variation({1, 0}, {0, 1}), 1.0, 1e-12);
  EXPECT_NEAR(total_variation({0.5, 0.5}, {0.5, 0.5}), 0.0, 1e-12);
  EXPECT_NEAR(total_variation({0.7, 0.3}, {0.4, 0.6}), 0.3, 1e-12);
}

TEST(Js, BoundsAndSymmetry) {
  common::Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    std::vector<double> p(8), q(8);
    for (auto& v : p) v = rng.uniform();
    for (auto& v : q) v = rng.uniform();
    p = normalized(p);
    q = normalized(q);
    const double d = js_divergence(p, q);
    EXPECT_GE(d, -1e-12);
    EXPECT_LE(d, std::log(2.0) + 1e-12);
    EXPECT_NEAR(d, js_divergence(q, p), 1e-12);
    EXPECT_NEAR(js_distance(p, q), std::sqrt(d), 1e-12);
  }
}

TEST(Js, DisjointSupportsReachLn2) {
  EXPECT_NEAR(js_divergence({1, 0}, {0, 1}), std::log(2.0), 1e-12);
}

TEST(Js, PaperRandomNoiseAnchor) {
  // The paper's 0.465: uniform-over-correct-half vs fully mixed, any width.
  for (int n : {4, 5}) {
    const std::size_t dim = std::size_t{1} << n;
    std::vector<double> ideal(dim, 0.0);
    for (std::size_t i = 0; i < dim / 2; ++i) ideal[i] = 2.0 / static_cast<double>(dim);
    const double d = js_distance(ideal, uniform_distribution(dim));
    EXPECT_NEAR(d, 0.4645, 5e-4) << n;
  }
}

TEST(Distributions, SizeMismatchThrows) {
  EXPECT_THROW(total_variation({1.0}, {0.5, 0.5}), common::Error);
  EXPECT_THROW(js_divergence({1.0}, {0.5, 0.5}), common::Error);
}

TEST(SuccessProbability, PicksTarget) {
  EXPECT_NEAR(success_probability({0.1, 0.2, 0.7}, 2), 0.7, 1e-12);
  EXPECT_THROW(success_probability({1.0}, 1), common::Error);
}

}  // namespace
}  // namespace qc::metrics
