// Small string utilities shared across modules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
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

/// Positive integer environment setting: unset/empty -> `fallback`; a value
/// that does not parse, in full, as a positive decimal integer warns and
/// keeps `fallback`.
std::size_t env_size(const char* name, std::size_t fallback);

/// Non-negative real environment setting: unset/empty -> `fallback`; a value
/// that does not parse, in full, as a non-negative number warns and keeps
/// `fallback`.
double env_double(const char* name, double fallback);

}  // namespace qc::common
