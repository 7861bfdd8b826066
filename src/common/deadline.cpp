#include "common/deadline.hpp"

#include <algorithm>
#include <atomic>
#include <limits>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace qc::common {

CancelToken CancelToken::make() {
  CancelToken token;
  token.flag_ = std::make_shared<std::atomic<bool>>(false);
  return token;
}

CancelToken CancelToken::linked(const CancelToken& parent) {
  CancelToken token = make();
  // One level of linkage (job token -> scheduler stop token). Linking to an
  // already-linked token observes that token's own flag, not its grandparent.
  token.parent_ = parent.flag_ ? parent.flag_ : parent.parent_;
  return token;
}

void CancelToken::request_cancel() const noexcept {
  if (flag_) flag_->store(true, std::memory_order_relaxed);
}

bool CancelToken::cancelled() const noexcept {
  if (flag_ && flag_->load(std::memory_order_relaxed)) return true;
  return parent_ && parent_->load(std::memory_order_relaxed);
}

Deadline Deadline::after_ms(double ms) {
  // The nanosecond clock spans about 292 years; converting a budget beyond it
  // (a wire deadline_ms of 1e300, or inf) would be an undefined cast. 1e12 ms
  // is about 31 years: later is never, earlier than its negation is expired.
  constexpr double kMaxMs = 1e12;
  if (!(ms < kMaxMs)) return never();
  ms = std::max(ms, -kMaxMs);
  Deadline d;
  d.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(ms));
  return d;
}

Deadline Deadline::at(Clock::time_point tp) {
  Deadline d;
  d.at_ = tp;
  return d;
}

Deadline Deadline::with_token(CancelToken token) const {
  Deadline d = *this;
  d.token_ = std::move(token);
  return d;
}

Deadline Deadline::with_progress(
    std::shared_ptr<std::atomic<std::uint64_t>> beacon) const {
  Deadline d = *this;
  d.progress_ = std::move(beacon);
  return d;
}

double Deadline::remaining_ms() const {
  if (token_.valid() && token_.cancelled()) return 0.0;
  if (!at_.has_value()) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double, std::milli>(*at_ - Clock::now()).count();
}

void Deadline::raise_if_expired(const std::string& what) const {
  if (expired()) throw TimeoutError(what + ": deadline expired");
}

Deadline Deadline::from_env() {
  static const double budget_ms =
      env_number("QAPPROX_DEADLINE_MS", 0.0, 0.0, kMaxPeriodMs);
  return budget_ms > 0.0 ? Deadline::after_ms(budget_ms) : Deadline::never();
}

}  // namespace qc::common
