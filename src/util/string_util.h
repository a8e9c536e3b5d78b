#ifndef QMQO_UTIL_STRING_UTIL_H_
#define QMQO_UTIL_STRING_UTIL_H_

/// \file string_util.h
/// Small string helpers shared by serialization and reporting code.

#include <string>
#include <string_view>
#include <vector>

namespace qmqo {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(const std::string& s, char delim);

/// `Split` into views of `s`, written to `*fields` (cleared first), so a
/// parser that reuses the vector allocates nothing per line.
void SplitView(std::string_view s, char delim,
               std::vector<std::string_view>* fields);

/// Strips leading and trailing ASCII whitespace.
std::string Trim(const std::string& s);

/// `Trim` as a view of `s`.
std::string_view TrimView(std::string_view s);

/// True when `s` begins with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// Escapes `s` for use inside a double-quoted JSON string: backslash,
/// double quote, and control characters (RFC 8259 requires escaping
/// U+0000..U+001F). Every hand-rolled JSON writer in the repo must run
/// keys and string values through this — metric names carry literal
/// label blocks (`x_total{reason="invalid"}`), so unescaped keys produce
/// invalid JSON.
std::string EscapeJson(const std::string& s);

/// Parses a whole decimal integer into `*out`. False (out untouched) when
/// `s` is empty, has trailing garbage, or does not fit an int — unlike
/// `atoi`, which silently returns 0 on garbage and has undefined behavior
/// on overflow. Deserializers use this so hostile payloads become typed
/// parse errors, never wrong values.
bool ParseInt(std::string_view s, int* out);

/// Parses a whole finite double into `*out`. False when `s` is empty, has
/// trailing garbage, overflows, or encodes NaN/infinity — non-finite
/// values poison cost arithmetic downstream (NaN slips through every
/// `< 0` validation), so wire parsers reject them at the boundary.
bool ParseFiniteDouble(std::string_view s, double* out);

}  // namespace qmqo

#endif  // QMQO_UTIL_STRING_UTIL_H_
