#include "synth/optimize.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace qc::synth {

OptimizeResult lbfgs_minimize(const CostFn& f, const GradFn& grad,
                              const std::vector<double>& x0,
                              const OptimizeOptions& options) {
  QC_CHECK(!x0.empty());
  const std::size_t n = x0.size();

  OptimizeResult result;
  result.params = x0;
  result.value = f(x0);
  ++result.evaluations;

  std::vector<double> x = x0;
  std::vector<double> g(n);
  grad(x, g);

  // History of (s, y, rho) for the two-loop recursion: a ring of `memory`
  // preallocated slots, entry i (0 = oldest) in slot (head + i) % memory.
  // The candidate pair is built in s_new/y_new and copied into the ring only
  // when accepted, so the iterations allocate nothing.
  const std::size_t memory =
      static_cast<std::size_t>(std::max(0, options.lbfgs_memory));
  std::vector<double> s_hist(memory * n), y_hist(memory * n);
  std::vector<double> rho_hist(memory), alpha(memory);
  std::size_t head = 0, count = 0;
  auto slot = [&](std::size_t i) { return (head + i) % memory; };

  std::vector<double> direction(n), x_new(n), g_new(n), q(n), s_new(n), y_new(n);

  common::StopPoller poller(options.deadline, /*stride=*/1);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    if (poller.should_stop()) break;
    ++result.iterations;

    double gnorm = 0.0;
    for (double v : g) gnorm += v * v;
    gnorm = std::sqrt(gnorm);
    if (gnorm < options.tolerance) break;

    // Two-loop recursion: direction = -H g.
    q = g;
    for (std::size_t i = count; i-- > 0;) {
      const double* s = s_hist.data() + slot(i) * n;
      const double* y = y_hist.data() + slot(i) * n;
      double dot = 0.0;
      for (std::size_t k = 0; k < n; ++k) dot += s[k] * q[k];
      alpha[i] = rho_hist[slot(i)] * dot;
      for (std::size_t k = 0; k < n; ++k) q[k] -= alpha[i] * y[k];
    }
    double gamma = 1.0;
    if (count > 0) {
      double sy = 0.0, yy = 0.0;
      const double* s = s_hist.data() + slot(count - 1) * n;
      const double* y = y_hist.data() + slot(count - 1) * n;
      for (std::size_t k = 0; k < n; ++k) {
        sy += s[k] * y[k];
        yy += y[k] * y[k];
      }
      if (yy > 1e-300) gamma = sy / yy;
    }
    for (std::size_t k = 0; k < n; ++k) q[k] *= gamma;
    for (std::size_t i = 0; i < count; ++i) {
      const double* s = s_hist.data() + slot(i) * n;
      const double* y = y_hist.data() + slot(i) * n;
      double dot = 0.0;
      for (std::size_t k = 0; k < n; ++k) dot += y[k] * q[k];
      const double beta = rho_hist[slot(i)] * dot;
      for (std::size_t k = 0; k < n; ++k) q[k] += s[k] * (alpha[i] - beta);
    }
    for (std::size_t k = 0; k < n; ++k) direction[k] = -q[k];

    // Descent check; fall back to steepest descent if the model went bad.
    double dir_dot_g = 0.0;
    for (std::size_t k = 0; k < n; ++k) dir_dot_g += direction[k] * g[k];
    if (dir_dot_g >= 0.0) {
      for (std::size_t k = 0; k < n; ++k) direction[k] = -g[k];
      dir_dot_g = -gnorm * gnorm;
    }

    // Armijo backtracking.
    const double f0 = result.value;
    double step = 1.0;
    constexpr double c1 = 1e-4;
    bool accepted = false;
    for (int ls = 0; ls < 30; ++ls) {
      for (std::size_t k = 0; k < n; ++k) x_new[k] = x[k] + step * direction[k];
      const double f_new = f(x_new);
      ++result.evaluations;
      if (f_new <= f0 + c1 * step * dir_dot_g) {
        accepted = true;
        result.value = f_new;
        break;
      }
      step *= 0.5;
    }
    if (!accepted) break;  // no progress possible along this direction

    grad(x_new, g_new);

    double sy = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      s_new[k] = x_new[k] - x[k];
      y_new[k] = g_new[k] - g[k];
      sy += s_new[k] * y_new[k];
    }
    if (sy > 1e-12 && memory > 0) {
      // Append; when full, the new pair replaces the oldest.
      const std::size_t at = count < memory ? slot(count) : head;
      std::copy(s_new.begin(), s_new.end(), s_hist.begin() + at * n);
      std::copy(y_new.begin(), y_new.end(), y_hist.begin() + at * n);
      rho_hist[at] = 1.0 / sy;
      if (count < memory) {
        ++count;
      } else {
        head = (head + 1) % memory;
      }
    }
    const double improvement = f0 - result.value;
    x.swap(x_new);
    g.swap(g_new);
    if (improvement >= 0.0 && improvement < options.tolerance && iter > 4) break;
  }
  result.params = x;
  return result;
}

OptimizeResult nelder_mead_minimize(const CostFn& f, const std::vector<double>& x0,
                                    const OptimizeOptions& options) {
  QC_CHECK(!x0.empty());
  const std::size_t n = x0.size();
  constexpr double alpha = 1.0, gamma = 2.0, rho = 0.5, sigma = 0.5;

  OptimizeResult result;

  // Initial simplex: x0 plus unit-coordinate offsets of 0.25 rad.
  std::vector<std::vector<double>> pts(n + 1, x0);
  std::vector<double> vals(n + 1);
  for (std::size_t i = 1; i <= n; ++i) pts[i][i - 1] += 0.25;
  for (std::size_t i = 0; i <= n; ++i) {
    vals[i] = f(pts[i]);
    ++result.evaluations;
  }

  std::vector<std::size_t> order(n + 1);
  std::vector<double> centroid(n), probe(n);

  // Nelder-Mead needs many more iterations than quasi-Newton per dimension.
  const int max_iter = options.max_iterations * static_cast<int>(n);
  common::StopPoller poller(options.deadline, /*stride=*/4);
  for (int iter = 0; iter < max_iter; ++iter) {
    if (poller.should_stop()) break;
    ++result.iterations;
    for (std::size_t i = 0; i <= n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return vals[a] < vals[b]; });

    if (vals[order[0]] < options.tolerance ||
        vals[order[n]] - vals[order[0]] < options.tolerance)
      break;

    std::fill(centroid.begin(), centroid.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t k = 0; k < n; ++k) centroid[k] += pts[order[i]][k];
    for (double& c : centroid) c /= static_cast<double>(n);

    const std::size_t worst = order[n];
    auto eval_probe = [&](double coeff) {
      for (std::size_t k = 0; k < n; ++k)
        probe[k] = centroid[k] + coeff * (pts[worst][k] - centroid[k]);
      ++result.evaluations;
      return f(probe);
    };

    const double f_best = vals[order[0]];
    const double f_second_worst = vals[order[n - 1]];
    const double f_reflect = eval_probe(-alpha);
    if (f_reflect < f_best) {
      const std::vector<double> reflected = probe;
      const double f_expand = eval_probe(-alpha * gamma);
      if (f_expand < f_reflect) {
        pts[worst] = probe;
        vals[worst] = f_expand;
      } else {
        pts[worst] = reflected;
        vals[worst] = f_reflect;
      }
    } else if (f_reflect < f_second_worst) {
      pts[worst] = probe;
      vals[worst] = f_reflect;
    } else {
      const double f_contract = eval_probe(f_reflect < vals[worst] ? -rho : rho);
      if (f_contract < std::min(f_reflect, vals[worst])) {
        pts[worst] = probe;
        vals[worst] = f_contract;
      } else {
        // Shrink toward the best vertex.
        const auto& best_pt = pts[order[0]];
        for (std::size_t i = 0; i <= n; ++i) {
          if (i == order[0]) continue;
          for (std::size_t k = 0; k < n; ++k)
            pts[i][k] = best_pt[k] + sigma * (pts[i][k] - best_pt[k]);
          vals[i] = f(pts[i]);
          ++result.evaluations;
        }
      }
    }
  }

  std::size_t best = 0;
  for (std::size_t i = 1; i <= n; ++i)
    if (vals[i] < vals[best]) best = i;
  result.params = pts[best];
  result.value = vals[best];
  return result;
}

OptimizeResult multistart_minimize(const CostFn& f, const GradFn& grad,
                                   const std::vector<double>& x0, common::Rng& rng,
                                   const MultistartOptions& options) {
  // A start this close to zero cost cannot be beaten by another.
  constexpr double kGoodEnough = 1e-14;
  QC_CHECK(options.num_starts >= 1);
  OptimizeResult best;
  bool have_best = false;

  for (int start = 0; start < options.num_starts; ++start) {
    // Stop between restarts too; started restarts stop via the inner poll.
    if (have_best && options.inner.deadline.expired()) break;
    std::vector<double> x = x0;
    if (start > 0) {
      for (double& v : x) v = rng.uniform(-std::numbers::pi, std::numbers::pi);
    }
    OptimizeResult r = lbfgs_minimize(f, grad, x, options.inner);
    if (!have_best || r.value < best.value) {
      r.evaluations += have_best ? best.evaluations : 0;
      best = std::move(r);
      have_best = true;
    } else {
      best.evaluations += r.evaluations;
    }
    if (best.value <= kGoodEnough) break;
  }
  return best;
}

}  // namespace qc::synth
