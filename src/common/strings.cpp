#include "common/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <type_traits>

#include "common/error.hpp"
#include "obs/log.hpp"

namespace qc::common {

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

std::string format_double(double v, int max_precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", max_precision, v);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  return s;
}

std::string to_bitstring(std::uint64_t value, int bits) {
  QC_CHECK(bits >= 0 && bits <= 64);
  std::string s(static_cast<std::size_t>(bits), '0');
  for (int i = 0; i < bits; ++i) {
    if ((value >> i) & 1ULL) s[static_cast<std::size_t>(bits - 1 - i)] = '1';
  }
  return s;
}

namespace {

/// True the first time `key` is seen in this process.
bool first_report(const std::string& key) {
  static std::mutex mutex;
  static std::set<std::string> seen;  // guarded by mutex
  std::lock_guard<std::mutex> lock(mutex);
  return seen.insert(key).second;
}

}  // namespace

template <typename T>
std::optional<T> parse_decimal(std::string_view text, T lo, T hi) {
  const auto space = [](char c) { return c == ' ' || (c >= '\t' && c <= '\r'); };
  while (!text.empty() && space(text.front())) text.remove_prefix(1);
  while (!text.empty() && space(text.back())) text.remove_suffix(1);
  if (text.empty()) return std::nullopt;
  const char* const end = text.data() + text.size();
  T value{};
  std::from_chars_result r{};
  if constexpr (std::is_floating_point_v<T>) {
    // The general format reads no hex float; nan and inf parse but are not
    // finite.
    r = std::from_chars(text.data(), end, value, std::chars_format::general);
    if (!std::isfinite(value)) return std::nullopt;
  } else {
    r = std::from_chars(text.data(), end, value, 10);
  }
  if (r.ec != std::errc() || r.ptr != end || value < lo || value > hi) return std::nullopt;
  return value;
}

template <typename T>
std::string decimal_rule(T lo, T hi) {
  if constexpr (std::is_floating_point_v<T>) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "a finite decimal number in [%.15g, %.15g]", lo, hi);
    return buf;
  } else {
    return "a decimal integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
  }
}

template <typename T>
T env_number(const char* name, T fallback, T lo, T hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  if (const std::optional<T> v = parse_decimal(raw, lo, hi)) return *v;
  if (first_report(std::string(name) + "=" + raw))
    QC_LOG_WARN("env", "ignoring %s='%s': expected %s", name, raw,
                decimal_rule(lo, hi).c_str());
  return fallback;
}

#define QC_DECIMAL_INSTANTIATE(T)                                             \
  template std::optional<T> parse_decimal<T>(std::string_view, T, T);        \
  template std::string decimal_rule<T>(T, T);                                \
  template T env_number<T>(const char*, T, T, T);
QC_DECIMAL_INSTANTIATE(int)
QC_DECIMAL_INSTANTIATE(long)
QC_DECIMAL_INSTANTIATE(long long)
QC_DECIMAL_INSTANTIATE(unsigned long)
QC_DECIMAL_INSTANTIATE(unsigned long long)
QC_DECIMAL_INSTANTIATE(double)
#undef QC_DECIMAL_INSTANTIATE

}  // namespace qc::common
