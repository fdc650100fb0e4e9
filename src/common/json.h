#ifndef PAQOC_COMMON_JSON_H_
#define PAQOC_COMMON_JSON_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace paqoc {

/**
 * Minimal JSON document model shared by the pulse-schedule export, the
 * daemon wire protocol, and the bench JSON lines. Self-contained on
 * purpose: the container images carry no JSON library and the repo
 * bakes in no third-party code.
 *
 * Design points that matter to callers:
 *  - Objects preserve insertion order and dump() is deterministic, so
 *    two structurally identical documents serialize byte-identically
 *    (the service's determinism guarantee leans on this).
 *  - Numbers are doubles; integral values in the exact-double range
 *    (|v| < 2^53) print as printf's "%lld" would, everything else as
 *    its "%.17g", so doubles survive a round trip exactly. -0.0 prints
 *    "0". The writer formats with std::to_chars, whose output the
 *    standard defines as printf's.
 *  - The reader's numbers are strtod's, bit for bit: it converts each
 *    token in place with std::from_chars, which agrees with strtod on
 *    every token but two kinds, handed to strtod instead -- a leading
 *    '+' ("+5" reads 5), and an exponent out of range, where an
 *    underflow ("1e-400") reads as a signed zero and an overflow
 *    ("1e400") is rejected. Non-finite numbers are rejected.
 *  - parse() raises FatalError with a line/column position on any
 *    malformed input; it never partially succeeds.
 */
class Json
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Json() = default;
    Json(bool value) : type_(Type::Bool), bool_(value) {}
    Json(double value) : type_(Type::Number), number_(value) {}
    Json(int value) : Json(static_cast<double>(value)) {}
    Json(std::size_t value) : Json(static_cast<double>(value)) {}
    Json(const char *value) : type_(Type::String), string_(value) {}
    Json(std::string value)
        : type_(Type::String), string_(std::move(value))
    {}

    static Json array();
    static Json object();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Typed accessors; raise FatalError on a type mismatch. */
    bool asBool() const;
    double asNumber() const;
    /** asNumber() narrowed to int; rejects non-integral values. */
    int asInt() const;
    const std::string &asString() const;

    /** Array access. */
    std::size_t size() const;
    const Json &at(std::size_t index) const;
    /** Append an element (value must be an array). */
    Json &push(Json value);

    /** Object access. */
    bool contains(const std::string &key) const;
    /** Member lookup; raises FatalError when the key is absent. */
    const Json &at(const std::string &key) const;
    /** Member lookup returning `fallback` when the key is absent. */
    const Json &get(const std::string &key, const Json &fallback) const;
    /** Insert or overwrite a member (value must be an object). */
    Json &set(const std::string &key, Json value);

    const std::vector<Json> &items() const;
    const std::vector<std::pair<std::string, Json>> &members() const;

    /** Compact deterministic serialization. */
    std::string dump() const;

    /** Parse a complete JSON document (trailing junk is an error). */
    static Json parse(const std::string &text);

  private:
    /** dump() into one growing buffer. */
    void appendTo(std::string &out) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Json> array_;
    std::vector<std::pair<std::string, Json>> object_;
};

} // namespace paqoc

#endif // PAQOC_COMMON_JSON_H_
