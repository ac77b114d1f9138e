#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <memory>

namespace ddpkit::json {

Result<int64_t> Value::AsInt() const {
  if (kind_ == Kind::kInt) return int_;
  // Both bounds are powers of two, so the comparisons are exact; they also
  // reject NaN and +-Inf.
  if (kind_ == Kind::kDouble && double_ >= -0x1p63 && double_ < 0x1p63 &&
      std::trunc(double_) == double_) {
    return static_cast<int64_t>(double_);
  }
  return Status::OutOfRange(Serialize(*this) + " is not an int64");
}

const Value& Value::operator[](std::string_view key) const {
  static const Value& kNull = *new Value();
  for (const auto& [k, v] : members_) {
    if (k == key) return v;
  }
  return kNull;
}

namespace {

void AppendString(std::string* out, const std::string& s) {
  static constexpr std::string_view kRaw = "\"\\\n\t\r";
  static constexpr std::string_view kEscaped = "\"\\ntr";
  *out += '"';
  for (const char c : s) {
    if (const size_t e = kRaw.find(c); e != std::string_view::npos) {
      *out += '\\';
      *out += kEscaped[e];
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      *out += buf;
    } else {
      *out += c;
    }
  }
  *out += '"';
}

void Append(std::string* out, const Value& value) {
  switch (value.kind()) {
    case Value::Kind::kNull:
      *out += "null";
      break;
    case Value::Kind::kBool:
      *out += value.boolean() ? "true" : "false";
      break;
    case Value::Kind::kInt:
      *out += std::to_string(value.AsInt().value());
      break;
    case Value::Kind::kDouble: {
      const double d = value.number();
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(d) ? d : 0.0);
      *out += buf;
      break;
    }
    case Value::Kind::kString:
      AppendString(out, value.str());
      break;
    case Value::Kind::kArray:
      *out += '[';
      for (size_t i = 0; i < value.items().size(); ++i) {
        if (i > 0) *out += ',';
        Append(out, value.items()[i]);
      }
      *out += ']';
      break;
    case Value::Kind::kObject:
      *out += '{';
      for (size_t i = 0; i < value.members().size(); ++i) {
        if (i > 0) *out += ',';
        AppendString(out, value.members()[i].first);
        *out += ':';
        Append(out, value.members()[i].second);
      }
      *out += '}';
      break;
  }
}

/// Recursive descent over RFC 8259. Each Parse* consumes one production, or
/// records the first error and returns false.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> Document() {
    Value value;
    if (ParseValue(0, &value)) {
      SkipSpace();
      if (pos_ == text_.size()) return value;
      Fail("trailing characters after the document");
    }
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + error_);
  }

 private:
  bool Fail(const std::string& what) {
    if (error_.empty()) error_ = what;
    return false;
  }

  // The next byte, or '\0' at the end; no caller accepts '\0'.
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }

  void SkipSpace() {
    while (std::string_view(" \t\n\r").find(Peek()) != std::string_view::npos) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    SkipSpace();
    return Consume(c);
  }

  size_t Digits() {
    const size_t start = pos_;
    while (Peek() >= '0' && Peek() <= '9') ++pos_;
    return pos_ - start;
  }

  bool ParseValue(int depth, Value* out) {
    SkipSpace();
    const char c = Peek();
    if (c == '[' || c == '{') {
      if (depth == kMaxDepth) {
        return Fail("nesting deeper than " + std::to_string(kMaxDepth));
      }
      return c == '[' ? ParseArray(depth + 1, out)
                      : ParseObject(depth + 1, out);
    }
    if (c == '"') {
      std::string s;
      if (!ParseString(&s)) return false;
      *out = std::move(s);
      return true;
    }
    if (c == 't') return ParseLiteral("true", true, out);
    if (c == 'f') return ParseLiteral("false", false, out);
    if (c == 'n') return ParseLiteral("null", Value(), out);
    return ParseNumber(out);
  }

  bool ParseArray(int depth, Value* out) {
    ++pos_;  // '['
    Array items;
    if (!Eat(']')) {
      do {
        items.emplace_back();
        if (!ParseValue(depth, &items.back())) return false;
      } while (Eat(','));
      if (!Eat(']')) return Fail("expected ',' or ']'");
    }
    *out = std::move(items);
    return true;
  }

  bool ParseObject(int depth, Value* out) {
    ++pos_;  // '{'
    Object members;
    if (!Eat('}')) {
      do {
        members.emplace_back();
        SkipSpace();
        if (!ParseString(&members.back().first)) return false;
        if (!Eat(':')) return Fail("expected ':'");
        if (!ParseValue(depth, &members.back().second)) return false;
      } while (Eat(','));
      if (!Eat('}')) return Fail("expected ',' or '}'");
    }
    *out = std::move(members);
    return true;
  }

  bool ParseLiteral(std::string_view word, Value value, Value* out) {
    if (text_.substr(pos_, word.size()) != word) return Fail("bad literal");
    pos_ += word.size();
    *out = std::move(value);
    return true;
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, checked in full before
  // conversion, so no prefix of a malformed token (the 1 of 1-2) is read.
  bool ParseNumber(Value* out) {
    const size_t start = pos_;
    Consume('-');
    const char lead = Peek();
    const size_t int_digits = Digits();
    if (int_digits == 0) return Fail("expected a value");
    if (lead == '0' && int_digits > 1) return Fail("leading zero in number");
    const bool fraction = Consume('.');
    if (fraction && Digits() == 0) return Fail("malformed fraction");
    const bool exponent = Consume('e') || Consume('E');
    if (exponent) {
      if (!Consume('+')) Consume('-');
      if (Digits() == 0) return Fail("malformed exponent");
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    int64_t i = 0;
    if (!fraction && !exponent &&
        std::from_chars(first, last, i).ec == std::errc()) {
      *out = i;
      return true;
    }
    double d = 0.0;
    if (std::from_chars(first, last, d).ec != std::errc()) {
      return Fail("number out of range");
    }
    *out = d;
    return true;
  }

  bool ParseHex4(uint32_t* code) {
    const char* first = text_.data() + pos_;
    if (text_.size() - pos_ < 4 ||
        std::from_chars(first, first + 4, *code, 16).ptr != first + 4) {
      return Fail("malformed \\u escape");
    }
    pos_ += 4;
    return true;
  }

  // The XXXX of \uXXXX, joined with a following low surrogate when it is a
  // high one, appended as UTF-8.
  bool ParseUnicodeEscape(std::string* out) {
    uint32_t code = 0;
    uint32_t low = 0;
    if (!ParseHex4(&code)) return false;
    if (code >= 0xD800 && code <= 0xDBFF) {
      if (!Consume('\\') || !Consume('u') || !ParseHex4(&low) ||
          low < 0xDC00 || low > 0xDFFF) {
        return Fail("unpaired surrogate");
      }
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      return Fail("unpaired surrogate");
    }
    static constexpr unsigned char kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    const int tail =
        code < 0x80 ? 0 : code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
    out->push_back(static_cast<char>(kLead[tail] | (code >> (6 * tail))));
    for (int i = tail - 1; i >= 0; --i) {
      out->push_back(static_cast<char>(0x80 | ((code >> (6 * i)) & 0x3F)));
    }
    return true;
  }

  bool ParseString(std::string* out) {
    static constexpr std::string_view kEscapes = "\"\\/bfnrt";
    static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
    if (!Consume('"')) return Fail("expected a string");
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
      } else if (Consume('u')) {
        if (!ParseUnicodeEscape(out)) return false;
      } else if (const size_t e = kEscapes.find(Peek());
                 e != std::string_view::npos) {
        out->push_back(kDecoded[e]);
        ++pos_;
      } else {
        return Fail("invalid escape");
      }
    }
    return Fail("unterminated string");
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

}  // namespace

Result<Value> Parse(std::string_view text) { return Parser(text).Document(); }

std::string Serialize(const Value& value) {
  std::string out;
  Append(&out, value);
  return out;
}

Result<std::string> ReadFile(const std::string& path) {
  std::unique_ptr<std::FILE, FileCloser> f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return Status::NotFound("cannot read " + path);
  std::string text;
  char buf[1 << 16];
  while (const size_t n = std::fread(buf, 1, sizeof(buf), f.get())) {
    text.append(buf, n);
  }
  if (std::ferror(f.get()) != 0) return Status::Internal("read error: " + path);
  return text;
}

Status WriteFile(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::NotFound("cannot open for writing: " + path);
  const bool written =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  // fclose flushes the stdio buffer, so a full disk can surface only here.
  if (std::fclose(f) != 0 || !written) {
    return Status::Internal("short write: " + path);
  }
  return Status::OK();
}

}  // namespace ddpkit::json
