// Token model for the T-SQL-flavored frontend.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sqlarray::sql {

enum class TokenType {
  kEnd,
  kIdent,      ///< identifier or keyword (case-insensitive)
  kVariable,   ///< @name
  kInt,        ///< integer literal
  /// 9223372036854775808 (2^63) right after '-': only unary minus may take
  /// it, giving INT64_MIN; the lexer rejects it anywhere else.
  kIntMinMagnitude,
  kFloat,      ///< floating literal
  kString,     ///< 'text'
  kBinary,     ///< 0x... literal
  kLParen, kRParen,
  kLBracket, kRBracket,
  kComma, kDot, kSemicolon, kColon,
  kPlus, kMinus, kStar, kSlash, kPercent,
  kEq, kNe, kLt, kLe, kGt, kGe,
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;       ///< identifier / variable name (without @)
  int64_t int_value = 0;
  double float_value = 0;
  std::vector<uint8_t> binary_value;
  size_t offset = 0;      ///< byte offset in the source, for diagnostics

  /// Case-insensitive keyword test for kIdent tokens.
  bool IsKeyword(const char* kw) const;
};

}  // namespace sqlarray::sql
