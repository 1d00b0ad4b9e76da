#include "json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace pfdrl::e2e {

namespace {

[[noreturn]] void kind_error(const char* want) {
  throw std::runtime_error(std::string("json: value is not ") + want);
}

void escape_to(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json document() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json: " + std::string(what) + " at byte " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json value() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end");
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return Json(string());
    if (consume("true")) return Json(true);
    if (consume("false")) return Json(false);
    if (consume("null")) return Json();
    return number();
  }

  Json object() {
    Json obj = Json::object();
    ++pos_;  // '{'
    skip_ws();
    if (consume("}")) return obj;
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected key");
      std::string key = string();
      skip_ws();
      if (!consume(":")) fail("expected ':'");
      obj[key] = value();
      skip_ws();
      if (consume("}")) return obj;
      if (!consume(",")) fail("expected ',' or '}'");
    }
  }

  Json array() {
    Json arr = Json::array();
    ++pos_;  // '['
    skip_ws();
    if (consume("]")) return arr;
    for (;;) {
      arr.push_back(value());
      skip_ws();
      if (consume("]")) return arr;
      if (!consume(",")) fail("expected ',' or ']'");
    }
  }

  std::string string() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        c = text_[pos_++];
        switch (c) {
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            // The documents this reads are ASCII; keep BMP code points
            // below 0x80 and replace the rest.
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            const unsigned long cp = std::strtoul(
                std::string(text_.substr(pos_, 4)).c_str(), nullptr, 16);
            out.push_back(cp < 0x80 ? static_cast<char>(cp) : '?');
            pos_ += 4;
            break;
          }
          default: out.push_back(c);
        }
      } else {
        out.push_back(c);
      }
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  Json number() {
    const std::string rest(text_.substr(pos_, 64));
    char* end = nullptr;
    const double d = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) fail("unexpected character");
    pos_ += static_cast<std::size_t>(end - rest.c_str());
    return Json(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Json::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("a bool");
  return bool_;
}

double Json::as_number() const {
  if (kind_ != Kind::kNumber) kind_error("a number");
  return num_;
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString) kind_error("a string");
  return str_;
}

const std::vector<Json>& Json::elements() const {
  if (kind_ != Kind::kArray) kind_error("an array");
  return arr_;
}

const std::vector<std::pair<std::string, Json>>& Json::items() const {
  if (kind_ != Kind::kObject) kind_error("an object");
  return obj_;
}

Json& Json::operator[](std::string_view key) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  if (kind_ != Kind::kObject) kind_error("an object");
  for (auto& [k, v] : obj_) {
    if (k == key) return v;
  }
  obj_.emplace_back(std::string(key), Json());
  return obj_.back().second;
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  if (v == nullptr) {
    throw std::runtime_error("json: missing key \"" + std::string(key) + "\"");
  }
  return *v;
}

void Json::push_back(Json value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  if (kind_ != Kind::kArray) kind_error("an array");
  arr_.push_back(std::move(value));
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

void Json::dump_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: {
      if (!std::isfinite(num_)) {
        out += "null";
        break;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", num_);
      out += buf;
      break;
    }
    case Kind::kString: escape_to(str_, out); break;
    case Kind::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) out.push_back(',');
        arr_[i].dump_to(out);
      }
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      out.push_back('{');
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i > 0) out.push_back(',');
        escape_to(obj_[i].first, out);
        out.push_back(':');
        obj_[i].second.dump_to(out);
      }
      out.push_back('}');
      break;
    }
  }
}

Json Json::parse(std::string_view text) { return Parser(text).document(); }

}  // namespace pfdrl::e2e
