// Minimal command-line flag parsing for examples and bench binaries, plus the
// shared main() guard every binary runs under.
//
// Flag syntax: --name=value or --name value; bare --flag sets "true".
#pragma once

#include <limits>
#include <map>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace qc::common {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  /// The whole value, read by parse_decimal into [lo, hi]; `fallback` when
  /// the flag is absent. Throws ContractError naming the flag and its range
  /// otherwise.
  template <typename T>
  T get_number(const std::string& name, T fallback,
               T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max()) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    if (const std::optional<T> v = parse_decimal(it->second, lo, hi)) return *v;
    // A bad flag value is the user's input, not a broken invariant: the
    // message alone, without the failed expression or the source location.
    throw ContractError("--" + name + ": expected " + decimal_rule(lo, hi) + ", got '" +
                        it->second + "'");
  }
  bool get_bool(const std::string& name, bool fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Records that the current process has already emitted usable (if partial)
/// results — a table was written, an archive was flushed. Drivers and
/// emit_table call this; run_main consults it when a TimeoutError unwinds,
/// so a soft deadline expiry *after* results were produced exits 0 with an
/// annotation instead of masquerading as a hard failure. Thread-safe.
void note_partial_results(const std::string& what);

/// True once note_partial_results was called in this process (tests).
bool partial_results_noted();

/// Resets the partial-results flag (tests only).
void reset_partial_results_note();

/// Runs `body(argc, argv)` with a top-level exception guard: qc::common::Error
/// prints one structured line ("qapprox <kind> error: <what>") to stderr and
/// exits 1; other std::exceptions print their what() and exit 1. Exception:
/// a TimeoutError that unwinds *after* note_partial_results() was called is
/// a soft expiry — the run is annotated on stderr and exits 0, because the
/// partial results already emitted are valid. Use as
///
///   int main(int argc, char** argv) {
///     return qc::common::run_main(argc, argv, run);
///   }
///
/// so bench and example binaries never die with a raw terminate() on a
/// contract violation or an injected fault.
int run_main(int argc, char** argv, int (*body)(int, char**)) noexcept;

}  // namespace qc::common
