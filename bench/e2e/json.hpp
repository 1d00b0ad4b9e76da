// Minimal JSON document model for pfdrl_e2e's own files: the result line
// a child process hands its parent, the --out / baseline documents, the
// Chrome trace and BENCHMARK.json (read for the compare-mode bounds).
// Numbers are doubles; objects keep insertion order so written documents
// read in the order they were built.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pfdrl::e2e {

class Json {
 public:
  Json() = default;
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}  // NOLINT
  Json(double d) : kind_(Kind::kNumber), num_(d) {}  // NOLINT
  Json(int i) : Json(static_cast<double>(i)) {}  // NOLINT
  Json(std::size_t n) : Json(static_cast<double>(n)) {}  // NOLINT
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}  // NOLINT
  Json(const char* s) : Json(std::string(s)) {}  // NOLINT

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kNumber;
  }

  /// Typed reads; each throws std::runtime_error on a kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Json>& elements() const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& items() const;

  /// Object member, inserted as null if absent (turns a null into an
  /// object first).
  Json& operator[](std::string_view key);
  /// Object member or nullptr.
  [[nodiscard]] const Json* find(std::string_view key) const;
  /// Object member; throws std::runtime_error naming the key if absent.
  [[nodiscard]] const Json& at(std::string_view key) const;
  /// Append to an array (turns a null into an array first).
  void push_back(Json value);

  /// Compact serialization. Numbers keep all 17 significant digits;
  /// non-finite numbers are written as null.
  [[nodiscard]] std::string dump() const;
  /// Throws std::runtime_error with the byte offset on malformed input.
  static Json parse(std::string_view text);

 private:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  void dump_to(std::string& out) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace pfdrl::e2e
