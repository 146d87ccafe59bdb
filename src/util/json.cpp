#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace gam::util {

void Json::push_back(Json v) {
  if (type_ != Type::Array) {
    *this = Json(JsonArray{});
  }
  arr_.push_back(std::move(v));
}

size_t Json::size() const {
  if (type_ == Type::Array) return arr_.size();
  if (type_ == Type::Object) return obj_.size();
  return 0;
}

const Json& Json::at(size_t i) const {
  static const Json null_json;
  if (type_ != Type::Array || i >= arr_.size()) return null_json;
  return arr_[i];
}

Json& Json::operator[](const std::string& key) {
  if (type_ != Type::Object) {
    *this = Json(JsonObject{});
  }
  return obj_[key];
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::Object) return nullptr;
  auto it = obj_.find(std::string(key));
  return it == obj_.end() ? nullptr : &it->second;
}

std::string Json::get_string(std::string_view key, std::string fallback) const {
  const Json* v = find(key);
  return (v && v->is_string()) ? v->as_string() : fallback;
}

double Json::get_number(std::string_view key, double fallback) const {
  const Json* v = find(key);
  return (v && v->is_number()) ? v->as_number() : fallback;
}

bool Json::get_bool(std::string_view key, bool fallback) const {
  const Json* v = find(key);
  return (v && v->is_bool()) ? v->as_bool() : fallback;
}

std::string json_escape(std::string_view s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
  return out;
}

namespace {
std::string number_to_string(double d, bool exact) {
  if (std::isnan(d) || std::isinf(d)) return "null";
  // Integers print without a decimal point, every digit of them up to 2^53,
  // where doubles stop holding each integer: a count crosses the wire
  // exactly. Keeps records compact and stable.
  if (d == std::floor(d) && std::fabs(d) < 0x1p53) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
    return buf;
  }
  if (exact) {
    // Shortest representation that parses back to exactly `d`. Round-trip
    // exactness is load-bearing for the study checkpoint journal: it re-reads
    // recorded RTTs, and a ulp of drift would flip marginal SOL verdicts on
    // resume.
    char buf[40];
    auto [end, ec] = std::to_chars(buf, buf + sizeof buf, d);
    if (ec != std::errc()) {
      std::snprintf(buf, sizeof buf, "%.17g", d);
      return buf;
    }
    return std::string(buf, end);
  }
  // Human-facing output: 10 significant digits, idempotent under
  // parse-then-dump (the nearest double to a 10-digit decimal prints back to
  // the same 10 digits), so re-serializing a journal-restored dataset is
  // byte-identical to serializing the original.
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", d);
  return buf;
}
}  // namespace

void Json::dump_to(std::string& out, int indent, int depth, bool exact_doubles) const {
  auto newline = [&](int d) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Number: out += number_to_string(num_, exact_doubles); break;
    case Type::String: out += json_escape(str_); break;
    case Type::Array: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        arr_[i].dump_to(out, indent, depth + 1, exact_doubles);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Type::Object: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        out += json_escape(k);
        out += indent < 0 ? ":" : ": ";
        v.dump_to(out, indent, depth + 1, exact_doubles);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0, /*exact_doubles=*/false);
  return out;
}

std::string Json::dump_exact(int indent) const {
  std::string out;
  dump_to(out, indent, 0, /*exact_doubles=*/true);
  return out;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::Null: return true;
    case Type::Bool: return bool_ == other.bool_;
    case Type::Number: return num_ == other.num_;
    case Type::String: return str_ == other.str_;
    case Type::Array: return arr_ == other.arr_;
    case Type::Object: return obj_ == other.obj_;
  }
  return false;
}

// ---------------------------------------------------------------- parsing

namespace {
struct Parser {
  std::string_view s;
  size_t i = 0;
  bool ok = true;

  void skip_ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool eat(char c) {
    skip_ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  char peek() {
    skip_ws();
    return i < s.size() ? s[i] : '\0';
  }

  Json parse_value() {
    skip_ws();
    if (i >= s.size()) {
      ok = false;
      return {};
    }
    char c = s[i];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return parse_string();
    if (c == 't' || c == 'f') return parse_bool();
    if (c == 'n') return parse_null();
    return parse_number();
  }

  Json parse_object() {
    ++i;  // '{'
    JsonObject obj;
    if (eat('}')) return Json(std::move(obj));
    while (ok) {
      skip_ws();
      if (i >= s.size() || s[i] != '"') {
        ok = false;
        break;
      }
      Json key = parse_string();
      if (!ok || !eat(':')) {
        ok = false;
        break;
      }
      obj[key.as_string()] = parse_value();
      if (!ok) break;
      if (eat(',')) continue;
      if (eat('}')) break;
      ok = false;
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    ++i;  // '['
    JsonArray arr;
    if (eat(']')) return Json(std::move(arr));
    while (ok) {
      arr.push_back(parse_value());
      if (!ok) break;
      if (eat(',')) continue;
      if (eat(']')) break;
      ok = false;
    }
    return Json(std::move(arr));
  }

  Json parse_string() {
    ++i;  // '"'
    std::string out;
    while (i < s.size()) {
      char c = s[i++];
      if (c == '"') return Json(std::move(out));
      if (c == '\\') {
        if (i >= s.size()) break;
        char e = s[i++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (i + 4 > s.size()) {
              ok = false;
              return {};
            }
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              char h = s[i++];
              code <<= 4;
              if (h >= '0' && h <= '9')
                code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else {
                ok = false;
                return {};
              }
            }
            // UTF-8 encode the BMP code point (surrogates not recombined;
            // measurement records are ASCII in practice).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            ok = false;
            return {};
        }
      } else {
        out += c;
      }
    }
    ok = false;
    return {};
  }

  Json parse_bool() {
    if (s.substr(i, 4) == "true") {
      i += 4;
      return Json(true);
    }
    if (s.substr(i, 5) == "false") {
      i += 5;
      return Json(false);
    }
    ok = false;
    return {};
  }

  Json parse_null() {
    if (s.substr(i, 4) == "null") {
      i += 4;
      return Json(nullptr);
    }
    ok = false;
    return {};
  }

  Json parse_number() {
    size_t start = i;
    if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
    bool any = false;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' || s[i] == 'e' ||
            s[i] == 'E' || s[i] == '-' || s[i] == '+')) {
      // Only allow sign right after an exponent marker.
      if ((s[i] == '-' || s[i] == '+') && !(i > start && (s[i - 1] == 'e' || s[i - 1] == 'E'))) break;
      any = any || std::isdigit(static_cast<unsigned char>(s[i]));
      ++i;
    }
    if (!any) {
      ok = false;
      return {};
    }
    return Json(std::strtod(std::string(s.substr(start, i - start)).c_str(), nullptr));
  }
};
}  // namespace

std::optional<Json> Json::parse(std::string_view text) {
  Parser p{text};
  Json v = p.parse_value();
  p.skip_ws();
  if (!p.ok || p.i != text.size()) return std::nullopt;
  return v;
}

}  // namespace gam::util
