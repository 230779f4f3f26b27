#include "sql/lexer.h"

#include <cctype>
#include <charconv>

namespace sqlarray::sql {

bool Token::IsKeyword(const char* kw) const {
  if (type != TokenType::kIdent) return false;
  size_t n = text.size();
  for (size_t i = 0; i < n; ++i) {
    if (kw[i] == '\0' ||
        std::toupper(static_cast<unsigned char>(text[i])) !=
            std::toupper(static_cast<unsigned char>(kw[i]))) {
      return false;
    }
  }
  return kw[n] == '\0';
}

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

Result<std::vector<Token>> Lex(std::string_view src) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = src.size();

  auto push = [&](TokenType type, size_t at) {
    Token t;
    t.type = type;
    t.offset = at;
    out.push_back(std::move(t));
  };

  while (i < n) {
    char c = src[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '-' && i + 1 < n && src[i + 1] == '-') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      size_t close = src.find("*/", i + 2);
      if (close == std::string_view::npos) {
        return Status::InvalidArgument("unterminated block comment");
      }
      i = close + 2;
      continue;
    }

    size_t start = i;
    // Binary literal 0x...
    if (c == '0' && i + 1 < n && (src[i + 1] == 'x' || src[i + 1] == 'X')) {
      size_t j = i + 2;
      std::vector<uint8_t> bytes;
      while (j + 1 < n && HexValue(src[j]) >= 0 && HexValue(src[j + 1]) >= 0) {
        bytes.push_back(
            static_cast<uint8_t>(HexValue(src[j]) * 16 + HexValue(src[j + 1])));
        j += 2;
      }
      if (j < n && HexValue(src[j]) >= 0) {
        return Status::InvalidArgument(
            "binary literal must have an even number of hex digits");
      }
      Token t;
      t.type = TokenType::kBinary;
      t.offset = start;
      t.binary_value = std::move(bytes);
      out.push_back(std::move(t));
      i = j;
      continue;
    }
    // Numbers.
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      size_t j = i;
      bool is_float = false;
      while (j < n && std::isdigit(static_cast<unsigned char>(src[j]))) ++j;
      if (j < n && src[j] == '.') {
        is_float = true;
        ++j;
        while (j < n && std::isdigit(static_cast<unsigned char>(src[j]))) ++j;
      }
      if (j < n && (src[j] == 'e' || src[j] == 'E')) {
        size_t k = j + 1;
        if (k < n && (src[k] == '+' || src[k] == '-')) ++k;
        if (k < n && std::isdigit(static_cast<unsigned char>(src[k]))) {
          is_float = true;
          j = k;
          while (j < n && std::isdigit(static_cast<unsigned char>(src[j]))) ++j;
        }
      }
      Token t;
      t.offset = start;
      std::string_view num = src.substr(start, j - start);
      if (is_float) {
        t.type = TokenType::kFloat;
        auto [p, ec] =
            std::from_chars(num.data(), num.data() + num.size(), t.float_value);
        if (ec != std::errc()) {
          return Status::InvalidArgument("malformed numeric literal");
        }
        (void)p;
      } else {
        t.type = TokenType::kInt;
        auto [p, ec] =
            std::from_chars(num.data(), num.data() + num.size(), t.int_value);
        if (ec == std::errc::result_out_of_range && !out.empty() &&
            out.back().type == TokenType::kMinus) {
          uint64_t magnitude = 0;
          if (std::from_chars(num.data(), num.data() + num.size(), magnitude)
                      .ec == std::errc() &&
              magnitude == uint64_t{1} << 63) {
            t.type = TokenType::kIntMinMagnitude;
            ec = std::errc();
          }
        }
        if (ec != std::errc()) {
          return Status::InvalidArgument("integer literal out of range");
        }
        (void)p;
      }
      out.push_back(std::move(t));
      i = j;
      continue;
    }
    // Strings.
    if (c == '\'') {
      std::string text;
      size_t j = i + 1;
      while (j < n) {
        if (src[j] == '\'') {
          if (j + 1 < n && src[j + 1] == '\'') {  // escaped quote
            text.push_back('\'');
            j += 2;
            continue;
          }
          break;
        }
        text.push_back(src[j]);
        ++j;
      }
      if (j >= n) return Status::InvalidArgument("unterminated string literal");
      Token t;
      t.type = TokenType::kString;
      t.offset = start;
      t.text = std::move(text);
      out.push_back(std::move(t));
      i = j + 1;
      continue;
    }
    // Variables.
    if (c == '@') {
      size_t j = i + 1;
      while (j < n && IsIdentChar(src[j])) ++j;
      if (j == i + 1) return Status::InvalidArgument("bare '@'");
      Token t;
      t.type = TokenType::kVariable;
      t.offset = start;
      t.text = std::string(src.substr(i + 1, j - i - 1));
      out.push_back(std::move(t));
      i = j;
      continue;
    }
    // Identifiers / keywords.
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(src[j])) ++j;
      Token t;
      t.type = TokenType::kIdent;
      t.offset = start;
      t.text = std::string(src.substr(i, j - i));
      out.push_back(std::move(t));
      i = j;
      continue;
    }
    // Operators and punctuation.
    switch (c) {
      case '(': push(TokenType::kLParen, start); ++i; break;
      case ')': push(TokenType::kRParen, start); ++i; break;
      case '[': push(TokenType::kLBracket, start); ++i; break;
      case ']': push(TokenType::kRBracket, start); ++i; break;
      case ',': push(TokenType::kComma, start); ++i; break;
      case '.': push(TokenType::kDot, start); ++i; break;
      case ';': push(TokenType::kSemicolon, start); ++i; break;
      case ':': push(TokenType::kColon, start); ++i; break;
      case '+': push(TokenType::kPlus, start); ++i; break;
      case '-': push(TokenType::kMinus, start); ++i; break;
      case '*': push(TokenType::kStar, start); ++i; break;
      case '/': push(TokenType::kSlash, start); ++i; break;
      case '%': push(TokenType::kPercent, start); ++i; break;
      case '=': push(TokenType::kEq, start); ++i; break;
      case '<':
        if (i + 1 < n && src[i + 1] == '=') {
          push(TokenType::kLe, start);
          i += 2;
        } else if (i + 1 < n && src[i + 1] == '>') {
          push(TokenType::kNe, start);
          i += 2;
        } else {
          push(TokenType::kLt, start);
          ++i;
        }
        break;
      case '>':
        if (i + 1 < n && src[i + 1] == '=') {
          push(TokenType::kGe, start);
          i += 2;
        } else {
          push(TokenType::kGt, start);
          ++i;
        }
        break;
      case '!':
        if (i + 1 < n && src[i + 1] == '=') {
          push(TokenType::kNe, start);
          i += 2;
        } else {
          return Status::InvalidArgument("unexpected '!'");
        }
        break;
      default:
        return Status::InvalidArgument(std::string("unexpected character '") +
                                       c + "' at offset " +
                                       std::to_string(start));
    }
  }
  push(TokenType::kEnd, n);
  return out;
}

}  // namespace sqlarray::sql
