// The one JSON reader and string escaper behind every lwmpi artifact.
//
// Writers put every string value through escape()/quote(): quote and
// backslash are backslash-escaped, control characters become \u00xx, so a
// user-chosen name (a profiler phase, a bench label, a network profile) can
// never break the document around it.
//
// parse() is a strict RFC 8259 reader into a small DOM. The text must be
// exactly one value plus surrounding whitespace. Strings decode every escape,
// \uXXXX included (surrogate pairs become UTF-8). Numbers must match the JSON
// grammar and keep their literal text, so 64-bit integer fields read back
// exactly (a double holds only 53 bits). Any other input is an error that
// names its byte offset.
//
// Line-oriented artifacts (the causal timeline, the telemetry series,
// profile.json, a hang report) are newline-terminated and may be read while
// or after a writer died mid-append. split_lines() returns only the complete
// lines and drops an unterminated tail, flagging that it happened. That is
// the only tolerance: a complete line that does not parse is an error.
//
// Loaders read records through Fields, which notes the first missing or
// mistyped member. A loader rejects such a record whole; it never fills in
// a default.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lwmpi::obs::json {

inline std::string escape(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (u < 0x20) {
      out += "\\u00";
      out += kHex[u >> 4];
      out += kHex[u & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

// `s` as a JSON string literal, quotes included.
inline std::string quote(std::string_view s) { return '"' + escape(s) + '"'; }

struct Value {
  enum class Kind { Null, Bool, Num, Str, Arr, Obj };
  Kind kind = Kind::Null;
  bool b = false;
  double num = 0.0;
  std::string str;  // Str: the decoded text; Num: the literal as written
  std::vector<Value> arr;
  std::vector<std::pair<std::string, Value>> obj;

  // Member `key` of an object (the first, if repeated), else nullptr.
  const Value* get(std::string_view key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  // Member `key`, or a null value when absent, so a renderer can chain
  // lookups: a null reads as 0, false, "" and an empty array.
  const Value& operator[](std::string_view key) const {
    static const Value kNull;
    const Value* v = get(key);
    return v != nullptr ? *v : kNull;
  }
  // The exact value of a Num written as a plain integer (no fraction or
  // exponent) that fits the type; false for anything else.
  bool to_i64(std::int64_t* out) const {
    if (kind != Kind::Num || str.find_first_of(".eE") != std::string::npos) return false;
    errno = 0;
    *out = std::strtoll(str.c_str(), nullptr, 10);
    return errno == 0;
  }
  bool to_u64(std::uint64_t* out) const {
    if (kind != Kind::Num || str[0] == '-' || str.find_first_of(".eE") != std::string::npos) {
      return false;
    }
    errno = 0;
    *out = std::strtoull(str.c_str(), nullptr, 10);
    return errno == 0;
  }
  // Renderer shorthands: the exact integer, or 0 when there is none.
  std::int64_t i64() const {
    std::int64_t v = 0;
    return to_i64(&v) ? v : 0;
  }
  std::uint64_t u64() const {
    std::uint64_t v = 0;
    return to_u64(&v) ? v : 0;
  }
};

namespace detail {

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  bool document(Value* out, std::string* err) {
    const bool ok = value(out, 0) && (ws(), i_ == s_.size() || fail("trailing characters"));
    if (!ok && err != nullptr) *err = std::string(what_) + " at byte " + std::to_string(i_);
    return ok;
  }

 private:
  // Deeper than any lwmpi artifact by far; bounds the recursion on hostile
  // input such as ten thousand '['.
  static constexpr int kMaxDepth = 64;

  bool fail(const char* what) {
    what_ = what;
    return false;
  }
  bool at(char c) const { return i_ < s_.size() && s_[i_] == c; }
  void ws() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++i_;
  }
  bool eat(char c) {
    ws();
    if (!at(c)) return false;
    ++i_;
    return true;
  }
  bool literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return fail("invalid literal");
    i_ += word.size();
    return true;
  }
  bool digits() {
    const std::size_t from = i_;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
    return i_ > from;
  }

  bool value(Value* v, int depth) {
    ws();
    if (i_ >= s_.size()) return fail("unexpected end of input");
    if (depth > kMaxDepth) return fail("nesting too deep");
    switch (s_[i_]) {
      case '{': return object(v, depth + 1);
      case '[': return array(v, depth + 1);
      case '"':
        v->kind = Value::Kind::Str;
        return string(&v->str);
      case 't':
        v->kind = Value::Kind::Bool;
        v->b = true;
        return literal("true");
      case 'f':
        v->kind = Value::Kind::Bool;
        return literal("false");
      case 'n': return literal("null");
      default: return number(v);
    }
  }

  bool object(Value* v, int depth) {
    v->kind = Value::Kind::Obj;
    ++i_;  // '{'
    if (eat('}')) return true;
    do {
      ws();
      std::string key;
      if (!string(&key)) return false;
      if (!eat(':')) return fail("expected ':'");
      Value member;
      if (!value(&member, depth)) return false;
      v->obj.emplace_back(std::move(key), std::move(member));
    } while (eat(','));
    return eat('}') || fail("expected ',' or '}'");
  }

  bool array(Value* v, int depth) {
    v->kind = Value::Kind::Arr;
    ++i_;  // '['
    if (eat(']')) return true;
    do {
      v->arr.emplace_back();
      if (!value(&v->arr.back(), depth)) return false;
    } while (eat(','));
    return eat(']') || fail("expected ',' or ']'");
  }

  // -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  bool number(Value* v) {
    const std::size_t start = i_;
    if (at('-')) ++i_;
    if (at('0')) {
      ++i_;
    } else if (!digits()) {
      return fail("invalid value");
    }
    if (at('.') && (++i_, !digits())) return fail("invalid number");
    if (at('e') || at('E')) {
      ++i_;
      if (at('+') || at('-')) ++i_;
      if (!digits()) return fail("invalid number");
    }
    v->kind = Value::Kind::Num;
    v->str.assign(s_.substr(start, i_ - start));
    v->num = std::strtod(v->str.c_str(), nullptr);
    return true;
  }

  bool string(std::string* out) {
    if (!at('"')) return fail("expected string");
    ++i_;
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return fail("control character in string");
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (i_ >= s_.size()) break;
      switch (const char e = s_[i_++]) {
        case '"':
        case '\\':
        case '/': *out += e; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u':
          if (!unicode(out)) return false;
          break;
        default: return fail("invalid escape");
      }
    }
    return fail("unterminated string");
  }

  bool hex4(std::uint32_t* cp) {
    if (s_.size() - i_ < 4) return fail("truncated \\u escape");
    *cp = 0;
    for (int k = 0; k < 4; ++k) {
      const char h = s_[i_++];
      const int d = h >= '0' && h <= '9'   ? h - '0'
                    : h >= 'a' && h <= 'f' ? h - 'a' + 10
                    : h >= 'A' && h <= 'F' ? h - 'A' + 10
                                           : -1;
      if (d < 0) return fail("invalid \\u escape");
      *cp = *cp << 4 | static_cast<std::uint32_t>(d);
    }
    return true;
  }

  // The \uXXXX escape whose 'u' was just consumed, appended as UTF-8.
  bool unicode(std::string* out) {
    std::uint32_t cp = 0;
    if (!hex4(&cp)) return false;
    if (cp >= 0xd800 && cp <= 0xdbff) {
      std::uint32_t lo = 0;
      if (s_.substr(i_, 2) != "\\u") return fail("unpaired surrogate");
      i_ += 2;
      if (!hex4(&lo)) return false;
      if (lo < 0xdc00 || lo > 0xdfff) return fail("unpaired surrogate");
      cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
    } else if (cp >= 0xdc00 && cp <= 0xdfff) {
      return fail("unpaired surrogate");
    }
    // UTF-8: a lead byte carrying the top bits, then n 6-bit continuations.
    const int n = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    *out += static_cast<char>((n == 0 ? 0 : (0xff00 >> (n + 1)) & 0xff) | cp >> (6 * n));
    for (int k = n - 1; k >= 0; --k) *out += static_cast<char>(0x80 | ((cp >> (6 * k)) & 0x3f));
    return true;
  }

  std::string_view s_;
  std::size_t i_ = 0;
  const char* what_ = "";
};

}  // namespace detail

// Parse one complete document. On failure *err (if given) says what and where.
inline bool parse(std::string_view text, Value* out, std::string* err = nullptr) {
  *out = Value{};
  return detail::Parser(text).document(out, err);
}

struct Lines {
  std::vector<std::string> lines;  // complete lines in order, empty ones skipped
  bool truncated_tail = false;     // the text ended mid-line; that tail was dropped
};

inline Lines split_lines(std::string_view text) {
  Lines out;
  std::size_t start = 0;
  for (std::size_t nl; (nl = text.find('\n', start)) != std::string_view::npos; start = nl + 1) {
    if (nl > start) out.lines.emplace_back(text.substr(start, nl - start));
  }
  out.truncated_tail = start != text.size();
  return out;
}

inline bool read_file(const std::string& path, std::string* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream whole;
  whole << f.rdbuf();
  *out = std::move(whole).str();
  return true;
}

// A single-document artifact written as one newline-terminated line
// (profile.json, a hang report). No complete line (the writer died
// mid-line) or more than one is an error.
inline bool parse_one_line(std::string_view text, Value* out, std::string* err) {
  const Lines f = split_lines(text);
  if (f.lines.size() != 1) {
    *err = f.lines.empty() ? "no complete JSON line" : "expected exactly one JSON line";
    return false;
  }
  return parse(f.lines.front(), out, err);
}

// Strict member access for loaders. Each accessor returns the member of the
// wrapped object, or a placeholder (0, "", an empty array) after noting the
// first missing or mistyped member in *err. Check ok() once per record and
// reject the record when it is false; the placeholder never reaches the
// caller as data.
class Fields {
 public:
  Fields(const Value& obj, std::string* err) : obj_(obj), err_(*err) {
    if (obj.kind != Value::Kind::Obj && err_.empty()) err_ = "expected an object";
  }
  bool ok() const { return err_.empty(); }

  const std::string& str(std::string_view key) {
    return member(key, Value::Kind::Str, "a string").str;
  }
  double num(std::string_view key) { return member(key, Value::Kind::Num, "a number").num; }
  std::uint64_t u64(std::string_view key) {
    std::uint64_t out = 0;
    if (member(key, Value::Kind::Num, "a number").to_u64(&out)) return out;
    bad(key, "a non-negative integer");
    return 0;
  }
  std::int64_t i64(std::string_view key) {
    std::int64_t out = 0;
    if (member(key, Value::Kind::Num, "a number").to_i64(&out)) return out;
    bad(key, "an integer");
    return 0;
  }
  const std::vector<Value>& arr(std::string_view key) {
    return member(key, Value::Kind::Arr, "an array").arr;
  }
  const Value& obj(std::string_view key) { return member(key, Value::Kind::Obj, "an object"); }
  // Records a semantic failure (an unknown kind, a rank out of range).
  void bad(std::string_view key, std::string_view want) {
    if (err_.empty()) err_ = "\"" + std::string(key) + "\" must be " + std::string(want);
  }

 private:
  const Value& member(std::string_view key, Value::Kind kind, const char* want) {
    static const Value kNull;
    const Value* v = obj_.get(key);
    if (v != nullptr && v->kind == kind) return *v;
    if (v == nullptr && err_.empty()) err_ = "missing \"" + std::string(key) + "\"";
    bad(key, want);
    return kNull;
  }

  const Value& obj_;
  std::string& err_;
};

}  // namespace lwmpi::obs::json
