// JSON output helpers and a minimal reader for the --summarize and
// self-test modes (objects, arrays, strings, numbers, booleans, null).

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "e2e.h"

namespace e2e {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    bool ok = Value(out, 0) && (SkipSpace(), pos_ == text_.size());
    if (!ok && error != nullptr) {
      *error = "malformed JSON near byte " + std::to_string(pos_);
    }
    return ok;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  bool String(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        return false;
      }
      char esc = text_[pos_++];
      switch (esc) {
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return false;
          }
          unsigned code = 0;
          auto [end, ec] = std::from_chars(text_.data() + pos_,
                                           text_.data() + pos_ + 4, code, 16);
          if (ec != std::errc() || end != text_.data() + pos_ + 4) {
            return false;
          }
          pos_ += 4;
          // Only the escapes JsonEscape emits (< 0x80) are decoded
          // exactly; anything wider is kept as '?'.
          out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default: out->push_back(esc); break;
      }
    }
    return false;
  }

  bool Value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) {
      return false;
    }
    SkipSpace();
    if (pos_ >= text_.size()) {
      return false;
    }
    char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      for (;;) {
        SkipSpace();
        std::string key;
        if (!String(&key)) {
          return false;
        }
        SkipSpace();
        if (pos_ >= text_.size() || text_[pos_++] != ':') {
          return false;
        }
        JsonValue value;
        if (!Value(&value, depth + 1)) {
          return false;
        }
        out->object.emplace_back(std::move(key), std::move(value));
        SkipSpace();
        if (pos_ >= text_.size()) {
          return false;
        }
        char sep = text_[pos_++];
        if (sep == '}') {
          return true;
        }
        if (sep != ',') {
          return false;
        }
      }
    }
    if (c == '[') {
      ++pos_;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      for (;;) {
        JsonValue value;
        if (!Value(&value, depth + 1)) {
          return false;
        }
        out->array.push_back(std::move(value));
        SkipSpace();
        if (pos_ >= text_.size()) {
          return false;
        }
        char sep = text_[pos_++];
        if (sep == ']') {
          return true;
        }
        if (sep != ',') {
          return false;
        }
      }
    }
    if (c == '"') {
      return String(&out->string);
    }
    if (Literal("true")) {
      out->boolean = true;
      return true;
    }
    if (Literal("false") || Literal("null")) {
      return true;
    }
    auto [end, ec] = std::from_chars(text_.data() + pos_,
                                     text_.data() + text_.size(), out->number);
    if (ec != std::errc()) {
      return false;
    }
    pos_ = static_cast<size_t>(end - text_.data());
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    unsigned char u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (u < 0x20 || u >= 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", u);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [name, value] : object) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  return Parser(text).Parse(out, error);
}

bool ReadJsonFile(const std::string& path, JsonValue* out,
                  std::string* error) {
  std::ifstream file(path);
  if (!file) {
    *error = "cannot read " + path;
    return false;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  if (!ParseJson(buffer.str(), out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

}  // namespace e2e
