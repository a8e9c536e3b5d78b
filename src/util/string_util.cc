#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace qmqo {

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

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> Split(const std::string& s, char delim) {
  std::vector<std::string_view> fields;
  SplitView(s, delim, &fields);
  return std::vector<std::string>(fields.begin(), fields.end());
}

void SplitView(std::string_view s, char delim,
               std::vector<std::string_view>* fields) {
  fields->clear();
  size_t start = 0;
  for (size_t at = s.find(delim); at != std::string_view::npos;
       at = s.find(delim, start)) {
    fields->push_back(s.substr(start, at - start));
    start = at + 1;
  }
  fields->push_back(s.substr(start));
}

std::string Trim(const std::string& s) { return std::string(TrimView(s)); }

std::string_view TrimView(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// `s` NUL-terminated for strtol/strtod: copied into `small` when it fits
/// (every field of a real payload), else into `*large`.
const char* Terminated(std::string_view s, char (&small)[64],
                       std::string* large) {
  if (s.size() < sizeof(small)) {
    std::memcpy(small, s.data(), s.size());
    small[s.size()] = '\0';
    return small;
  }
  large->assign(s);
  return large->c_str();
}

}  // namespace

bool ParseInt(std::string_view s, int* out) {
  if (s.empty()) return false;
  char small[64];
  std::string large;
  const char* str = Terminated(s, small, &large);
  errno = 0;
  char* end = nullptr;
  long v = std::strtol(str, &end, 10);
  if (end == str || *end != '\0' || errno == ERANGE) return false;
  if (v < static_cast<long>(std::numeric_limits<int>::min()) ||
      v > static_cast<long>(std::numeric_limits<int>::max())) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool ParseFiniteDouble(std::string_view s, double* out) {
  if (s.empty()) return false;
  char small[64];
  std::string large;
  const char* str = Terminated(s, small, &large);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(str, &end);
  if (end == str || *end != '\0' || errno == ERANGE) return false;
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace qmqo
