#include "serve/watchdog.hpp"

#include <vector>

#include "common/strings.hpp"
#include "obs/obs.hpp"

namespace qc::serve {

Watchdog::Watchdog(const WatchdogOptions& options, ReapFn on_reap)
    : options_(options), on_reap_(std::move(on_reap)) {
  stats_.enabled = enabled();
  if (enabled()) scanner_ = std::thread([this] { scan_loop(); });
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::watch(const std::shared_ptr<JobTicket>& ticket) {
  if (!enabled() || ticket == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  watched_[ticket->id] = ticket;
  stats_.watched = watched_.size();
}

void Watchdog::release(const std::shared_ptr<JobTicket>& ticket) {
  if (!enabled() || ticket == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  watched_.erase(ticket->id);
  stats_.watched = watched_.size();
}

void Watchdog::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (scanner_.joinable()) scanner_.join();
}

void Watchdog::scan_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock,
                 std::chrono::duration<double, std::milli>(
                     options_.scan_period_ms),
                 [this] { return stop_; });
    if (stop_) return;
    lock.unlock();
    scan_once();
    lock.lock();
  }
}

void Watchdog::scan_once() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::shared_ptr<JobTicket>> to_reap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.scans;
    for (auto it = watched_.begin(); it != watched_.end();) {
      const std::shared_ptr<JobTicket>& ticket = it->second;
      if (ticket->budget_ms <= 0.0) {  // unbounded: exempt
        ++it;
        continue;
      }
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(now - ticket->started_at)
              .count();
      if (elapsed_ms <= ticket->budget_ms * options_.grace) {
        ++it;
        continue;
      }
      if (!ticket->struck) {
        // Strike 1: cancel and note where the beacon stands. A polling job
        // sees the cancel and winds down before the next scan.
        ticket->struck = true;
        ticket->beacon_at_strike =
            ticket->beacon->load(std::memory_order_relaxed);
        ticket->cancel.request_cancel();
        ++stats_.strikes;
        obs::counter("serve.watchdog.strikes").add(1);
        ++it;
        continue;
      }
      const std::uint64_t beacon_now =
          ticket->beacon->load(std::memory_order_relaxed);
      if (beacon_now != ticket->beacon_at_strike) {
        // Still polling — cooperatively winding down, give it another scan.
        ticket->beacon_at_strike = beacon_now;
        ++it;
        continue;
      }
      // Strike 2: cancelled a full scan period ago and not one deadline poll
      // since — the job cannot see the cancel. Give its slot up.
      to_reap.push_back(ticket);
      it = watched_.erase(it);
      ++stats_.reaped;
      obs::counter("serve.watchdog.reaped").add(1);
    }
    stats_.watched = watched_.size();
  }
  for (const std::shared_ptr<JobTicket>& ticket : to_reap)
    if (on_reap_) on_reap_(ticket);
}

WatchdogStats Watchdog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace qc::serve
