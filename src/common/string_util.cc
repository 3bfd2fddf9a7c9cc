#include "common/string_util.h"

#include <bit>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cerrno>

namespace colarm {

std::vector<std::string> SplitString(std::string_view input, char delim) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(input.substr(start));
      break;
    }
    parts.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string_view StripWhitespace(std::string_view input) {
  size_t begin = 0;
  while (begin < input.size() &&
         (input[begin] == ' ' || input[begin] == '\t' || input[begin] == '\r' ||
          input[begin] == '\n')) {
    ++begin;
  }
  size_t end = input.size();
  while (end > begin &&
         (input[end - 1] == ' ' || input[end - 1] == '\t' ||
          input[end - 1] == '\r' || input[end - 1] == '\n')) {
    --end;
  }
  return input.substr(begin, end - begin);
}

std::string ToLowerAscii(std::string_view input) {
  std::string out(input);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    char ca = a[i];
    char cb = b[i];
    if (ca >= 'A' && ca <= 'Z') ca = static_cast<char>(ca - 'A' + 'a');
    if (cb >= 'A' && cb <= 'Z') cb = static_cast<char>(cb - 'A' + 'a');
    if (ca != cb) return false;
  }
  return true;
}

bool ParseDouble(std::string_view input, double* out) {
  std::string buf(StripWhitespace(input));
  if (buf.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = value;
  return true;
}

bool ParseUint64(std::string_view input, uint64_t* out) {
  std::string buf(StripWhitespace(input));
  if (buf.empty()) return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  if (!buf.empty() && buf[0] == '-') return false;
  *out = value;
  return true;
}

namespace {

// Fixed notation for 0 <= value < 2^32 and precision <= 9, computed on
// the exact binary value in integers: value = m * 2^-shift, so
// value * 10^precision = N / 2^shift with N = m * 10^precision < 2^83, and
// the quotient rounds half to even on the exact remainder, as printf does.
bool AppendFixedFast(double value, int precision, std::string* out) {
  static constexpr uint32_t kPow10[] = {1,         10,        100,
                                        1000,      10000,     100000,
                                        1000000,   10000000,  100000000,
                                        1000000000};
  if (precision < 0 || precision > 9 || !(value < 0x1p32)) return false;
  const auto bits = std::bit_cast<uint64_t>(value);
  if ((bits >> 63) != 0) return false;  // negative, -0.0 or NaN
  const uint64_t exponent = bits >> 52;
  const uint64_t fraction = bits & ((uint64_t{1} << 52) - 1);
  const uint64_t mantissa =
      exponent == 0 ? fraction : fraction | (uint64_t{1} << 52);
  // value < 2^32 makes the shift positive: 1075 - exponent >= 1043 - 31.
  const uint64_t shift = exponent == 0 ? 1074 : 1075 - exponent;
  const unsigned __int128 n =
      static_cast<unsigned __int128>(mantissa) * kPow10[precision];
  uint64_t scaled = 0;
  if (shift < 84) {  // otherwise n < 2^83 is below half a unit: rounds to 0
    scaled = static_cast<uint64_t>(n >> shift);
    const unsigned __int128 rem = n - (static_cast<unsigned __int128>(scaled)
                                       << shift);
    const unsigned __int128 half = static_cast<unsigned __int128>(1)
                                   << (shift - 1);
    if (rem > half || (rem == half && (scaled & 1) != 0)) ++scaled;
  }

  char buf[32];
  char* end = buf + sizeof(buf);
  char* p = end;
  for (int i = 0; i < precision; ++i) {
    *--p = static_cast<char>('0' + scaled % 10);
    scaled /= 10;
  }
  if (precision > 0) *--p = '.';
  do {
    *--p = static_cast<char>('0' + scaled % 10);
    scaled /= 10;
  } while (scaled != 0);
  out->append(p, end);
  return true;
}

}  // namespace

void AppendFixed(double value, int precision, std::string* out) {
  if (!AppendFixedFast(value, precision, out)) {
    out->append(StrFormat("%.*f", precision, value));
  }
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace colarm
