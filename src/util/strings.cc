#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cstdio>

#include "util/logging.h"

namespace dflow {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i > start) {
      out.emplace_back(s.substr(start, i - start));
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool IsAlnum(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0;
}

std::string JsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
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
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void AppendInt(std::string* out, int64_t v) {
  char buf[20];  // "-9223372036854775808".
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void AppendDouble(std::string* out, double v, int precision) {
  // "%.*g" writes a sign, at most `precision` digits, a point and either a
  // five-character exponent or "0." and four zeros: precision + 8 bytes.
  DFLOW_CHECK(precision <= 40) << "precision " << precision;
  char buf[48];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, precision)
                       .ptr);
}

}  // namespace dflow
