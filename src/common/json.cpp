#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>

#include "common/format.h"

namespace bcn {

void JsonWriter::begin_field(const std::string& key) {
  if (size_++ > 0) members_ += ',';
  append_quoted(members_, key);
  members_ += ':';
}

void JsonWriter::add(const std::string& key, const std::string& value) {
  begin_field(key);
  append_quoted(members_, value);
}

void JsonWriter::add(const std::string& key, const char* value) {
  begin_field(key);
  append_quoted(members_, value);
}

void JsonWriter::add(const std::string& key, double value) {
  begin_field(key);
  append_number(members_, value);
}

void JsonWriter::add(const std::string& key, std::int64_t value) {
  begin_field(key);
  char buf[24];
  members_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

void JsonWriter::add(const std::string& key, int value) {
  add(key, static_cast<std::int64_t>(value));
}

void JsonWriter::add(const std::string& key, bool value) {
  begin_field(key);
  members_ += value ? "true" : "false";
}

void JsonWriter::add(const std::string& key,
                     const std::vector<double>& values) {
  begin_field(key);
  members_ += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) members_ += ", ";
    append_number(members_, values[i]);
  }
  members_ += ']';
}

std::string JsonWriter::to_string() const {
  // Re-indents the wire form: outside string literals and arrays, a ':'
  // ends a key and a ',' ends a field.
  std::string out = "{\n";
  if (size_ > 0) out += "  ";
  bool in_string = false;
  bool in_array = false;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const char c = members_[i];
    out += c;
    if (in_string) {
      if (c == '\\') {
        out += members_[++i];
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '[' || c == ']') {
      in_array = c == '[';
    } else if (!in_array && c == ':') {
      out += ' ';
    } else if (!in_array && c == ',') {
      out += "\n  ";
    }
  }
  if (size_ > 0) out += '\n';
  out += "}\n";
  return out;
}

std::string JsonWriter::to_line() const {
  std::string out;
  out.reserve(members_.size() + 2);
  out += '{';
  out += members_;
  out += '}';
  return out;
}

bool JsonWriter::write_file(const std::filesystem::path& path) const {
  std::error_code ec;
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  std::ofstream out(path);
  if (!out) return false;
  out << to_string();
  return static_cast<bool>(out);
}

std::string JsonWriter::quote(const std::string& s) {
  std::string out;
  append_quoted(out, s);
  return out;
}

std::string JsonWriter::format(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

void JsonWriter::append_quoted(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  std::size_t plain = 0;  // start of the run not yet appended
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:  // the other control characters
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xf];
    }
  }
  out.append(s.data() + plain, s.size() - plain);
  out += '"';
}

void JsonWriter::append_number(std::string& out, double v) {
  // Round-trip precision; JSON has no inf or nan.
  if (std::isfinite(v)) {
    append_g(out, v, 17);
  } else {
    out += "null";
  }
}

namespace {

// Minimal recursive-descent scanner over the flat-object grammar.
struct FlatScanner {
  const std::string& text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  char peek() {
    skip_ws();
    return pos < text.size() ? text[pos] : '\0';
  }

  bool literal(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text.compare(pos, len, word) != 0) return false;
    pos += len;
    return true;
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) return std::nullopt;
      const char esc = text[pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          // Exactly four hex digits naming an ASCII code point.  JsonWriter
          // escapes only control characters, and a wider code point would
          // need a UTF-8 encoding nothing here reads.  from_chars takes no
          // sign, space or 0x prefix.
          const char* first = text.data() + pos;
          unsigned code = 0;
          if (text.size() - pos < 4 ||
              std::from_chars(first, first + 4, code, 16).ptr != first + 4 ||
              code >= 0x80) {
            return std::nullopt;
          }
          pos += 4;
          out += static_cast<char>(code);
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  bool digits() {
    const std::size_t first = pos;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    return pos > first;
  }

  bool next_is(char c) const { return pos < text.size() && text[pos] == c; }

  // RFC 8259's number, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
  // converted by strtod: no nan, inf, hex or leading '+' or '.'.  A
  // magnitude past DBL_MAX still converts, to inf.
  std::optional<double> parse_number() {
    skip_ws();
    const std::size_t first = pos;
    if (next_is('-')) ++pos;
    if (next_is('0')) {
      ++pos;
    } else if (!digits()) {
      return std::nullopt;
    }
    if (next_is('.')) {
      ++pos;
      if (!digits()) return std::nullopt;
    }
    if (next_is('e') || next_is('E')) {
      ++pos;
      if (next_is('+') || next_is('-')) ++pos;
      if (!digits()) return std::nullopt;
    }
    // strtod reads at least the token; more ("0x10", "01") is malformed.
    char* end = nullptr;
    const double v = std::strtod(text.c_str() + first, &end);
    if (end != text.c_str() + pos) return std::nullopt;
    return v;
  }
};

}  // namespace

std::optional<FlatJson> FlatJson::parse(const std::string& text) {
  FlatScanner s{text};
  FlatJson out;
  if (!s.consume('{')) return std::nullopt;
  if (s.consume('}')) return out;  // empty object
  for (;;) {
    auto key = s.parse_string();
    if (!key || !s.consume(':')) return std::nullopt;
    const char c = s.peek();
    if (c == '"') {
      auto v = s.parse_string();
      if (!v) return std::nullopt;
      out.strings_[std::move(*key)] = std::move(*v);
    } else if (c == 't' && s.literal("true")) {
      out.numbers_[std::move(*key)] = 1.0;
    } else if (c == 'f' && s.literal("false")) {
      out.numbers_[std::move(*key)] = 0.0;
    } else if (c == 'n' && s.literal("null")) {
      out.numbers_[std::move(*key)] = std::nan("");
    } else if (c == '[') {
      s.consume('[');
      std::vector<double> values;
      if (!s.consume(']')) {
        for (;;) {
          const auto v = s.parse_number();
          if (!v) return std::nullopt;
          values.push_back(*v);
          if (s.consume(']')) break;
          if (!s.consume(',')) return std::nullopt;
        }
      }
      out.arrays_[std::move(*key)] = std::move(values);
    } else {
      const auto v = s.parse_number();
      if (!v) return std::nullopt;
      out.numbers_[std::move(*key)] = *v;
    }
    if (s.consume('}')) break;
    if (!s.consume(',')) return std::nullopt;
  }
  s.skip_ws();
  if (s.pos != text.size()) return std::nullopt;  // trailing garbage
  return out;
}

std::optional<FlatJson> FlatJson::load(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) return std::nullopt;
  return parse(text);
}

std::optional<double> FlatJson::number(const std::string& key) const {
  const auto it = numbers_.find(key);
  if (it == numbers_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::string> FlatJson::string_value(
    const std::string& key) const {
  const auto it = strings_.find(key);
  if (it == strings_.end()) return std::nullopt;
  return it->second;
}

}  // namespace bcn
