#ifndef COLARM_COMMON_STRING_UTIL_H_
#define COLARM_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace colarm {

/// Splits `input` on `delim`, keeping empty fields.
std::vector<std::string> SplitString(std::string_view input, char delim);

/// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view input);

/// ASCII lower-casing (locale independent).
std::string ToLowerAscii(std::string_view input);

/// Case-insensitive ASCII comparison.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Parses a double; returns false on malformed or trailing garbage.
bool ParseDouble(std::string_view input, double* out);

/// Parses a non-negative integer; returns false on malformed input.
bool ParseUint64(std::string_view input, uint64_t* out);

/// Appends the bytes of printf's "%.<precision>f". Values in [0, 2^32)
/// at precision <= 9 (every rule percentage) are rounded exactly in
/// integers, with no format-string parsing and no temporary string; the
/// rest go through StrFormat.
void AppendFixed(double value, int precision, std::string* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace colarm

#endif  // COLARM_COMMON_STRING_UTIL_H_
