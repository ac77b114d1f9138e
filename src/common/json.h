#ifndef DDPKIT_COMMON_JSON_H_
#define DDPKIT_COMMON_JSON_H_

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

/// ddpkit's one JSON implementation. Every report, trace and metrics dump is
/// built as a Value and turned into text only by Serialize; the tools read
/// files back only through Parse.
namespace ddpkit::json {

class Value;
using Array = std::vector<Value>;
/// Members in insertion order, which is the order Serialize writes.
using Object = std::vector<std::pair<std::string, Value>>;

/// Parse rejects containers nested deeper than this, so hostile input cannot
/// exhaust the stack of the recursive-descent parser.
inline constexpr int kMaxDepth = 256;

/// null, bool, int64, double, string, array or object. Parse yields kInt for
/// an integer token that fits int64 and kDouble for every other number.
class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Value() = default;
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}  // NOLINT
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Value(T i) : kind_(Kind::kInt), int_(static_cast<int64_t>(i)) {}  // NOLINT
  Value(double d) : kind_(Kind::kDouble), double_(d) {}              // NOLINT
  Value(const char* s) : Value(std::string(s)) {}                    // NOLINT
  Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}  // NOLINT
  Value(Array a) : kind_(Kind::kArray), items_(std::move(a)) {}       // NOLINT
  Value(Object o) : kind_(Kind::kObject), members_(std::move(o)) {}   // NOLINT

  Kind kind() const { return kind_; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }

  // Typed accessors; each returns its type's zero value for other kinds.
  bool boolean() const { return bool_; }
  double number() const {
    return kind_ == Kind::kInt ? static_cast<double>(int_) : double_;
  }
  const std::string& str() const { return str_; }
  const Array& items() const { return items_; }
  const Object& members() const { return members_; }

  /// The exact integer a number holds. Fractions, values outside int64 and
  /// non-numbers are an error, never a wrapped or truncated integer.
  [[nodiscard]] Result<int64_t> AsInt() const;

  /// The first member named `key`; a null Value when there is none.
  const Value& operator[](std::string_view key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string str_;
  Array items_;
  Object members_;
};

/// Parses one RFC 8259 document. Malformed input is an InvalidArgument that
/// names the byte offset.
[[nodiscard]] Result<Value> Parse(std::string_view text);

/// Compact text, no whitespace. Strings escape '"', '\\', \n, \t, \r and
/// other control characters as \u00XX; integers print exactly; doubles
/// print as %.9g, and non-finite doubles as 0 (JSON has no NaN or Inf).
std::string Serialize(const Value& value);

/// The whole file at `path`.
[[nodiscard]] Result<std::string> ReadFile(const std::string& path);

/// Replaces `path` with `text`. A short write or a failed close is an
/// error, so a caller never reports a file it did not finish.
[[nodiscard]] Status WriteFile(const std::string& path, std::string_view text);

}  // namespace ddpkit::json

#endif  // DDPKIT_COMMON_JSON_H_
