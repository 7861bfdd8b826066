// Small string utilities shared across modules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace qc::common {

/// Splits on a single character delimiter; keeps empty fields.
std::vector<std::string> split(const std::string& s, char delim);

/// Strips ASCII whitespace from both ends.
std::string trim(const std::string& s);

/// Lower-cases ASCII.
std::string to_lower(std::string s);

/// True if `s` starts with `prefix`.
bool starts_with(const std::string& s, const std::string& prefix);

/// Formats a double with fixed precision, trimming trailing zeros
/// ("0.120000" -> "0.12", "3.000000" -> "3").
std::string format_double(double v, int max_precision = 6);

/// Zero-padded binary rendering of `value` over `bits` bits, MSB first.
std::string to_bitstring(std::uint64_t value, int bits);

/// Longest period or budget a millisecond setting may ask for: one day.
inline constexpr double kMaxPeriodMs = 86'400'000.0;

/// The one parser of numbers read from outside the program — flags,
/// environment variables, fault specs, QASM text. Surrounding ASCII
/// whitespace is trimmed; the rest must be exactly one decimal number (no
/// base prefix, no hex float, no nan or inf) lying in [lo, hi]. Empty
/// otherwise. T is an integer type or double.
template <typename T>
std::optional<T> parse_decimal(std::string_view text, T lo, T hi);

/// What parse_decimal accepts, for error messages: "a decimal integer in
/// [1, 1024]" or "a finite decimal number in [0, 8.64e+07]".
template <typename T>
std::string decimal_rule(T lo, T hi);

/// Numeric environment setting: unset or empty -> `fallback`; otherwise
/// parse_decimal into [lo, hi]. A value that fails warns (once per value)
/// and keeps `fallback`.
template <typename T>
T env_number(const char* name, T fallback, T lo, T hi);

}  // namespace qc::common
