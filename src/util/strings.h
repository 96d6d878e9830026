#ifndef DFLOW_UTIL_STRINGS_H_
#define DFLOW_UTIL_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dflow {

/// Splits `s` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on runs of ASCII whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// True if `c` is an ASCII letter or digit.
bool IsAlnum(char c);

/// `s` as a quoted JSON string: '"', '\\', \n, \t and \r escaped, every
/// other byte below 0x20 written as \u00XX, all other bytes (UTF-8
/// included) passed through unchanged.
std::string JsonQuote(std::string_view s);

/// Appends `v` in decimal, byte for byte as `std::ostream << v` writes it.
void AppendInt(std::string* out, int64_t v);

/// Appends `v` byte for byte as a `std::ostream` in its default float
/// format at `precision` (at most 40) writes it: printf's "%.*g", with
/// "inf", "-inf", "nan" and "-nan" for the values that are not finite.
void AppendDouble(std::string* out, double v, int precision);

}  // namespace dflow

#endif  // DFLOW_UTIL_STRINGS_H_
