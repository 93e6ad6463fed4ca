#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace prcost {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view s) {
  const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!s.empty() && is_space(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && is_space(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::string_view closest_match(std::string_view word,
                               const std::vector<std::string_view>& candidates) {
  // Levenshtein distance over one rolling row.
  const auto distance = [word](std::string_view other) {
    std::vector<std::size_t> row(other.size() + 1);
    for (std::size_t j = 0; j < row.size(); ++j) row[j] = j;
    for (std::size_t i = 1; i <= word.size(); ++i) {
      std::size_t diagonal = row[0];
      row[0] = i;
      for (std::size_t j = 1; j <= other.size(); ++j) {
        const std::size_t above = row[j];
        row[j] = std::min({above + 1, row[j - 1] + 1,
                           diagonal + (word[i - 1] == other[j - 1] ? 0 : 1)});
        diagonal = above;
      }
    }
    return row.back();
  };
  std::string_view best;
  std::size_t best_distance = std::max<std::size_t>(2, word.size() / 3) + 1;
  for (const std::string_view candidate : candidates) {
    const std::size_t d = distance(candidate);
    if (d < best_distance) {
      best = candidate;
      best_distance = d;
    }
  }
  return best;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string to_lower(std::string_view s) {
  std::string out{s};
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string format_fixed(double v, int digits) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(digits);
  os << v;
  return os.str();
}

std::string format_bytes(double bytes) {
  static constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 3) {
    bytes /= 1024.0;
    ++unit;
  }
  return format_fixed(bytes, unit == 0 ? 0 : 1) + " " + kUnits[unit];
}

unsigned long long parse_u64(std::string_view s) {
  s = trim(s);
  unsigned long long value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec == std::errc::result_out_of_range) {
    throw ParseError{"parse_u64: integer out of range: '" + std::string{s} +
                     "'"};
  }
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ParseError{"parse_u64: not a non-negative integer: '" +
                     std::string{s} + "'"};
  }
  return value;
}

double parse_double(std::string_view s) {
  s = trim(s);
  double value = 0.0;
  // std::from_chars accepts "inf"/"nan" tokens; the isfinite check below
  // rejects them so a crafted token can never smuggle a NaN into the
  // models ("1e999" already maps to result_out_of_range).
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec == std::errc::result_out_of_range) {
    throw ParseError{"parse_double: number out of range: '" + std::string{s} +
                     "'"};
  }
  if (ec != std::errc{} || ptr != s.data() + s.size() || !std::isfinite(value)) {
    throw ParseError{"parse_double: not a finite number: '" + std::string{s} +
                     "'"};
  }
  return value;
}

}  // namespace prcost
