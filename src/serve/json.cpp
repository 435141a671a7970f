#include "json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/log.h"

namespace smtflex {
namespace serve {

Json
Json::boolean(bool value)
{
    Json j;
    j.type_ = Type::kBool;
    j.bool_ = value;
    return j;
}

Json
Json::number(double value)
{
    Json j;
    j.type_ = Type::kNumber;
    j.number_ = value;
    return j;
}

Json
Json::number(std::uint64_t value)
{
    return number(static_cast<double>(value));
}

Json
Json::string(std::string value)
{
    Json j;
    j.type_ = Type::kString;
    j.string_ = std::move(value);
    return j;
}

Json
Json::array()
{
    Json j;
    j.type_ = Type::kArray;
    return j;
}

Json
Json::object()
{
    Json j;
    j.type_ = Type::kObject;
    return j;
}

void
Json::expect(Type type, const char *what) const
{
    if (type_ != type)
        fatal("json: node is not ", what);
}

bool
Json::asBool() const
{
    expect(Type::kBool, "a boolean");
    return bool_;
}

double
Json::asNumber() const
{
    expect(Type::kNumber, "a number");
    return number_;
}

const std::string &
Json::asString() const
{
    expect(Type::kString, "a string");
    return string_;
}

std::uint64_t
Json::asU64() const
{
    expect(Type::kNumber, "a number");
    if (number_ < 0.0)
        fatal("json: expected a non-negative integer, got ", number_);
    if (number_ > 9007199254740992.0) // 2^53
        fatal("json: integer ", number_, " too large");
    if (number_ != std::floor(number_))
        fatal("json: expected an integer, got ", number_);
    return static_cast<std::uint64_t>(number_);
}

bool
Json::has(const std::string &key) const
{
    return type_ == Type::kObject && object_.count(key) != 0;
}

const Json &
Json::at(const std::string &key) const
{
    expect(Type::kObject, "an object");
    const auto it = object_.find(key);
    if (it == object_.end())
        fatal("json: missing member '", key, "'");
    return it->second;
}

Json &
Json::set(const std::string &key, Json value)
{
    expect(Type::kObject, "an object");
    object_[key] = std::move(value);
    return *this;
}

const std::map<std::string, Json> &
Json::members() const
{
    expect(Type::kObject, "an object");
    return object_;
}

Json &
Json::push(Json value)
{
    expect(Type::kArray, "an array");
    array_.push_back(std::move(value));
    return *this;
}

const Json &
Json::at(std::size_t index) const
{
    expect(Type::kArray, "an array");
    if (index >= array_.size())
        fatal("json: index ", index, " out of range (size ",
              array_.size(), ")");
    return array_[index];
}

const std::vector<Json> &
Json::elements() const
{
    expect(Type::kArray, "an array");
    return array_;
}

std::size_t
Json::size() const
{
    if (type_ == Type::kArray)
        return array_.size();
    if (type_ == Type::kObject)
        return object_.size();
    fatal("json: size() on a scalar node");
}

std::string
Json::escape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

void
dumpNumber(std::string &out, double value)
{
    // Integral values inside the double-exact range print as plain
    // integers (ids, budgets, counters); everything else round-trips
    // through %.17g.
    if (value == std::floor(value) && std::abs(value) < 9007199254740992.0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(value));
        out += buf;
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += buf;
}

} // namespace

std::string
Json::dump() const
{
    std::string out;
    switch (type_) {
      case Type::kNull:
        out = "null";
        break;
      case Type::kBool:
        out = bool_ ? "true" : "false";
        break;
      case Type::kNumber:
        dumpNumber(out, number_);
        break;
      case Type::kString:
        out = '"' + escape(string_) + '"';
        break;
      case Type::kArray: {
        out = '[';
        bool first = true;
        for (const auto &element : array_) {
            if (!first)
                out += ',';
            first = false;
            out += element.dump();
        }
        out += ']';
        break;
      }
      case Type::kObject: {
        out = '{';
        bool first = true;
        for (const auto &[key, value] : object_) {
            if (!first)
                out += ',';
            first = false;
            out += '"' + escape(key) + "\":" + value.dump();
        }
        out += '}';
        break;
      }
    }
    return out;
}

namespace {

/** Recursive-descent parser over a complete in-memory document. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Json parseDocument()
    {
        const Json value = parseValue(0);
        skipWhitespace();
        if (pos_ != text_.size())
            fail("trailing characters after document");
        return value;
    }

  private:
    static constexpr int kMaxDepth = 64;

    [[noreturn]] void fail(const std::string &what) const
    {
        fatal("json: ", what, " at offset ", pos_);
    }

    void skipWhitespace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    char take()
    {
        const char c = peek();
        ++pos_;
        return c;
    }

    void expectLiteral(const char *literal)
    {
        for (const char *p = literal; *p; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                fail(std::string("invalid literal (expected '") + literal +
                     "')");
            ++pos_;
        }
    }

    Json parseValue(int depth)
    {
        if (depth > kMaxDepth)
            fail("nesting too deep");
        skipWhitespace();
        switch (peek()) {
          case '{':
            return parseObject(depth);
          case '[':
            return parseArray(depth);
          case '"':
            return Json::string(parseString());
          case 't':
            expectLiteral("true");
            return Json::boolean(true);
          case 'f':
            expectLiteral("false");
            return Json::boolean(false);
          case 'n':
            expectLiteral("null");
            return Json();
          default:
            return parseNumber();
        }
    }

    Json parseObject(int depth)
    {
        take(); // '{'
        Json obj = Json::object();
        skipWhitespace();
        if (peek() == '}') {
            take();
            return obj;
        }
        while (true) {
            skipWhitespace();
            if (peek() != '"')
                fail("expected a string object key");
            std::string key = parseString();
            skipWhitespace();
            if (take() != ':')
                fail("expected ':' after object key");
            const std::string *outer = std::exchange(member_, &key);
            obj.set(key, parseValue(depth + 1));
            member_ = outer;
            skipWhitespace();
            const char c = take();
            if (c == '}')
                return obj;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    Json parseArray(int depth)
    {
        take(); // '['
        Json arr = Json::array();
        skipWhitespace();
        if (peek() == ']') {
            take();
            return arr;
        }
        while (true) {
            arr.push(parseValue(depth + 1));
            skipWhitespace();
            const char c = take();
            if (c == ']')
                return arr;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    unsigned parseHex4()
    {
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = take();
            value <<= 4;
            if (c >= '0' && c <= '9')
                value |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                value |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                value |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("invalid \\u escape digit");
        }
        return value;
    }

    void appendUtf8(std::string &out, unsigned cp)
    {
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

    std::string parseString()
    {
        take(); // '"'
        std::string out;
        while (true) {
            const char c = take();
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            const char esc = take();
            switch (esc) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                unsigned cp = parseHex4();
                if (cp >= 0xd800 && cp <= 0xdbff) {
                    // High surrogate: a low surrogate must follow.
                    if (take() != '\\' || take() != 'u')
                        fail("unpaired surrogate");
                    const unsigned lo = parseHex4();
                    if (lo < 0xdc00 || lo > 0xdfff)
                        fail("invalid low surrogate");
                    cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                } else if (cp >= 0xdc00 && cp <= 0xdfff) {
                    fail("unpaired low surrogate");
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                fail("invalid escape character");
            }
        }
    }

    Json parseNumber()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        if (pos_ >= text_.size() ||
            !std::isdigit(static_cast<unsigned char>(text_[pos_])))
            fail("invalid number");
        // RFC 8259: no leading zeros ("01" is two tokens, i.e. invalid).
        if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
            std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))
            fail("invalid number (leading zero)");
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_])))
                fail("invalid number (bare decimal point)");
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_])))
                fail("invalid number (empty exponent)");
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        const std::string token = text_.substr(start, pos_ - start);
        const double value = std::strtod(token.c_str(), nullptr);
        if (std::isinf(value))
            fail("number " + token +
                 (member_ ? " of member '" + *member_ + "'" : "") +
                 " overflows a double");
        return Json::number(value);
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    /** Key of the object member being parsed (errors name it). */
    const std::string *member_ = nullptr;
};

} // namespace

Json
Json::parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

} // namespace serve
} // namespace smtflex
