#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "common/error.h"

namespace paqoc {

namespace {

const Json kNullJson;

void
appendEscaped(std::string &out, const std::string &s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    out += '"';
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
                const char u[6] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                   kHex[c & 0xf]};
                out.append(u, sizeof u);
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

void
appendNumber(std::string &out, double v)
{
    PAQOC_FATAL_IF(!std::isfinite(v),
                   "json: cannot serialize non-finite number");
    // Exact integers print without a fraction so counters look like
    // counters; everything else prints 17 significant digits for
    // lossless round trips. std::to_chars is specified as printf's
    // "%lld" and "%.17g" here, so these are printf's bytes.
    char buf[32];
    std::to_chars_result res;
    if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15)
        res = std::to_chars(buf, buf + sizeof buf,
                            static_cast<long long>(v));
    else
        res = std::to_chars(buf, buf + sizeof buf, v,
                            std::chars_format::general, 17);
    out.append(buf, res.ptr);
}

/** Recursive-descent parser over the raw text. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Json
    parseDocument()
    {
        Json value = parseValue();
        skipWhitespace();
        PAQOC_FATAL_IF(pos_ != text_.size(), "json: trailing characters ",
                       where());
        return value;
    }

  private:
    std::string
    where() const
    {
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        return "at line " + std::to_string(line) + " column "
            + std::to_string(col);
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size()
               && (text_[pos_] == ' ' || text_[pos_] == '\t'
                   || text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        skipWhitespace();
        PAQOC_FATAL_IF(pos_ >= text_.size(),
                       "json: unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        PAQOC_FATAL_IF(peek() != c, "json: expected '", c, "' ",
                       where());
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        const std::size_t len = std::char_traits<char>::length(lit);
        if (text_.compare(pos_, len, lit) != 0)
            return false;
        pos_ += len;
        return true;
    }

    Json
    parseValue()
    {
        switch (peek()) {
        case '{': return parseObject();
        case '[': return parseArray();
        case '"': return Json(parseString());
        case 't':
            PAQOC_FATAL_IF(!consumeLiteral("true"), "json: bad literal ",
                           where());
            return Json(true);
        case 'f':
            PAQOC_FATAL_IF(!consumeLiteral("false"),
                           "json: bad literal ", where());
            return Json(false);
        case 'n':
            PAQOC_FATAL_IF(!consumeLiteral("null"), "json: bad literal ",
                           where());
            return Json();
        default: return parseNumber();
        }
    }

    Json
    parseObject()
    {
        expect('{');
        Json obj = Json::object();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        for (;;) {
            PAQOC_FATAL_IF(peek() != '"', "json: expected member name ",
                           where());
            std::string key = parseString();
            expect(':');
            obj.set(key, parseValue());
            const char c = peek();
            ++pos_;
            if (c == '}')
                return obj;
            PAQOC_FATAL_IF(c != ',', "json: expected ',' or '}' ",
                           where());
        }
    }

    Json
    parseArray()
    {
        expect('[');
        Json arr = Json::array();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        for (;;) {
            arr.push(parseValue());
            const char c = peek();
            ++pos_;
            if (c == ']')
                return arr;
            PAQOC_FATAL_IF(c != ',', "json: expected ',' or ']' ",
                           where());
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            PAQOC_FATAL_IF(pos_ >= text_.size(),
                           "json: unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                PAQOC_FATAL_IF(static_cast<unsigned char>(c) < 0x20,
                               "json: raw control character in string ",
                               where());
                out += c;
                continue;
            }
            PAQOC_FATAL_IF(pos_ >= text_.size(),
                           "json: unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': appendCodepoint(out); break;
            default:
                PAQOC_FATAL_IF(true, "json: bad escape '\\", e, "' ",
                               where());
            }
        }
    }

    void
    appendCodepoint(std::string &out)
    {
        auto hex4 = [&]() -> unsigned {
            PAQOC_FATAL_IF(pos_ + 4 > text_.size(),
                           "json: truncated \\u escape");
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
                const char c = text_[pos_++];
                v <<= 4;
                if (c >= '0' && c <= '9')
                    v |= static_cast<unsigned>(c - '0');
                else if (c >= 'a' && c <= 'f')
                    v |= static_cast<unsigned>(c - 'a' + 10);
                else if (c >= 'A' && c <= 'F')
                    v |= static_cast<unsigned>(c - 'A' + 10);
                else
                    PAQOC_FATAL_IF(true, "json: bad \\u escape ",
                                   where());
            }
            return v;
        };
        std::uint32_t cp = hex4();
        if (cp >= 0xd800 && cp <= 0xdbff) {
            PAQOC_FATAL_IF(pos_ + 2 > text_.size()
                               || text_[pos_] != '\\'
                               || text_[pos_ + 1] != 'u',
                           "json: unpaired surrogate ", where());
            pos_ += 2;
            const std::uint32_t lo = hex4();
            PAQOC_FATAL_IF(lo < 0xdc00 || lo > 0xdfff,
                           "json: bad low surrogate ", where());
            cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
        }
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    Json
    parseNumber()
    {
        skipWhitespace();
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size()
               && ((text_[pos_] >= '0' && text_[pos_] <= '9')
                   || text_[pos_] == '.' || text_[pos_] == 'e'
                   || text_[pos_] == 'E' || text_[pos_] == '+'
                   || text_[pos_] == '-'))
            ++pos_;
        PAQOC_FATAL_IF(pos_ == start, "json: unexpected character ",
                       where());
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        double v = 0.0;
        const std::from_chars_result res = std::from_chars(first, last, v);
        bool ok = res.ec == std::errc() && res.ptr == last;
        if (*first == '+' || res.ec == std::errc::result_out_of_range) {
            // The two kinds of token strtod reads and from_chars does
            // not: a leading '+', and an exponent out of range. strtod
            // answers an underflow with a signed zero, which is kept,
            // and an overflow with HUGE_VAL, which is rejected.
            const std::string tok(first, last);
            char *end = nullptr;
            v = std::strtod(tok.c_str(), &end);
            ok = end == tok.c_str() + tok.size() && std::isfinite(v);
        }
        PAQOC_FATAL_IF(!ok, "json: bad number '", std::string(first, last),
                       "' ", where());
        return Json(v);
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

Json
Json::array()
{
    Json j;
    j.type_ = Type::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.type_ = Type::Object;
    return j;
}

bool
Json::asBool() const
{
    PAQOC_FATAL_IF(type_ != Type::Bool, "json: value is not a bool");
    return bool_;
}

double
Json::asNumber() const
{
    PAQOC_FATAL_IF(type_ != Type::Number, "json: value is not a number");
    return number_;
}

int
Json::asInt() const
{
    const double v = asNumber();
    PAQOC_FATAL_IF(v != std::floor(v) || std::abs(v) > 2147483647.0,
                   "json: number ", v, " is not a 32-bit integer");
    return static_cast<int>(v);
}

const std::string &
Json::asString() const
{
    PAQOC_FATAL_IF(type_ != Type::String, "json: value is not a string");
    return string_;
}

std::size_t
Json::size() const
{
    if (type_ == Type::Array)
        return array_.size();
    if (type_ == Type::Object)
        return object_.size();
    PAQOC_FATAL_IF(true, "json: value has no size");
    return 0;
}

const Json &
Json::at(std::size_t index) const
{
    PAQOC_FATAL_IF(type_ != Type::Array, "json: value is not an array");
    PAQOC_FATAL_IF(index >= array_.size(), "json: index ", index,
                   " out of range (size ", array_.size(), ")");
    return array_[index];
}

Json &
Json::push(Json value)
{
    PAQOC_FATAL_IF(type_ != Type::Array, "json: value is not an array");
    array_.push_back(std::move(value));
    return *this;
}

bool
Json::contains(const std::string &key) const
{
    if (type_ != Type::Object)
        return false;
    for (const auto &[k, v] : object_)
        if (k == key)
            return true;
    return false;
}

const Json &
Json::at(const std::string &key) const
{
    PAQOC_FATAL_IF(type_ != Type::Object, "json: value is not an object");
    for (const auto &[k, v] : object_)
        if (k == key)
            return v;
    PAQOC_FATAL_IF(true, "json: missing member '", key, "'");
    return kNullJson;
}

const Json &
Json::get(const std::string &key, const Json &fallback) const
{
    if (type_ != Type::Object)
        return fallback;
    for (const auto &[k, v] : object_)
        if (k == key)
            return v;
    return fallback;
}

Json &
Json::set(const std::string &key, Json value)
{
    PAQOC_FATAL_IF(type_ != Type::Object, "json: value is not an object");
    for (auto &[k, v] : object_) {
        if (k == key) {
            v = std::move(value);
            return *this;
        }
    }
    object_.emplace_back(key, std::move(value));
    return *this;
}

const std::vector<Json> &
Json::items() const
{
    PAQOC_FATAL_IF(type_ != Type::Array, "json: value is not an array");
    return array_;
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    PAQOC_FATAL_IF(type_ != Type::Object, "json: value is not an object");
    return object_;
}

std::string
Json::dump() const
{
    std::string out;
    appendTo(out);
    return out;
}

void
Json::appendTo(std::string &out) const
{
    switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Number: appendNumber(out, number_); break;
    case Type::String: appendEscaped(out, string_); break;
    case Type::Array: {
        out += '[';
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i > 0)
                out += ',';
            array_[i].appendTo(out);
        }
        out += ']';
        break;
    }
    case Type::Object: {
        out += '{';
        for (std::size_t i = 0; i < object_.size(); ++i) {
            if (i > 0)
                out += ',';
            appendEscaped(out, object_[i].first);
            out += ':';
            object_[i].second.appendTo(out);
        }
        out += '}';
        break;
    }
    }
}

Json
Json::parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

} // namespace paqoc
