#include "common/strings.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

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

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  // strtoull negates a leading '-' into a huge value: refuse it outright.
  if (end == raw || *end != '\0' || v == 0 ||
      std::strchr(raw, '-') != nullptr) {
    QC_LOG_WARN("env", "ignoring malformed %s='%s'", name, raw);
    return fallback;
  }
  return static_cast<std::size_t>(v);
}

double env_double(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(raw, &end);
  if (end == raw || *end != '\0' || v < 0.0) {
    QC_LOG_WARN("env", "ignoring malformed %s='%s'", name, raw);
    return fallback;
  }
  return v;
}

}  // namespace qc::common
