#include "sql/parser.h"

#include <cctype>

#include "sql/lexer.h"

namespace sqlarray::sql {

namespace {

using engine::BinaryOp;
using engine::Expr;
using engine::ExprPtr;
using engine::UnaryOp;
using engine::Value;

/// Words that may never be parsed as bare column identifiers.
bool IsReservedWord(const Token& t) {
  static const char* kReserved[] = {
      "SELECT", "FROM",  "WHERE", "GROUP", "BY",     "TOP",    "AS",
      "DECLARE", "SET",  "INSERT", "INTO", "VALUES", "CREATE", "TABLE",
      "WITH",   "ORDER", "AND",   "OR",    "NOT",    "DELETE"};
  for (const char* kw : kReserved) {
    if (t.IsKeyword(kw)) return true;
  }
  return false;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Script> ParseScript() {
    Script script;
    while (!At(TokenType::kEnd)) {
      if (Accept(TokenType::kSemicolon)) continue;
      SQLARRAY_ASSIGN_OR_RETURN(Statement stmt, ParseStatement());
      script.push_back(std::move(stmt));
    }
    return script;
  }

  Result<ExprPtr> ParseSingleExpression() {
    SQLARRAY_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (!At(TokenType::kEnd)) {
      return Status::InvalidArgument("trailing tokens after expression");
    }
    return e;
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Peek(int ahead = 1) const {
    size_t p = pos_ + ahead;
    return p < tokens_.size() ? tokens_[p] : tokens_.back();
  }
  bool At(TokenType t) const { return Cur().type == t; }
  bool AtKeyword(const char* kw) const { return Cur().IsKeyword(kw); }
  bool Accept(TokenType t) {
    if (!At(t)) return false;
    ++pos_;
    return true;
  }
  bool AcceptKeyword(const char* kw) {
    if (!AtKeyword(kw)) return false;
    ++pos_;
    return true;
  }
  Status Expect(TokenType t, const char* what) {
    if (!Accept(t)) {
      return Status::InvalidArgument(std::string("expected ") + what +
                                     " at offset " +
                                     std::to_string(Cur().offset));
    }
    return Status::OK();
  }
  Status ExpectKeyword(const char* kw) {
    if (!AcceptKeyword(kw)) {
      return Status::InvalidArgument(std::string("expected keyword ") + kw +
                                     " at offset " +
                                     std::to_string(Cur().offset));
    }
    return Status::OK();
  }

  Result<Statement> ParseStatement() {
    Statement stmt;
    if (AtKeyword("DECLARE")) {
      SQLARRAY_ASSIGN_OR_RETURN(stmt.declare, ParseDeclare());
      stmt.kind = Statement::Kind::kDeclare;
      return stmt;
    }
    if (AtKeyword("SET")) {
      // Session options are bare identifiers after SET; everything else is
      // the variable-assignment form.
      if (Peek().IsKeyword("STATEMENT_TIMEOUT_MS") ||
          Peek().IsKeyword("MEMORY_BUDGET_KB")) {
        SQLARRAY_ASSIGN_OR_RETURN(stmt.set_option, ParseSetOption());
        stmt.kind = Statement::Kind::kSetOption;
        return stmt;
      }
      SQLARRAY_ASSIGN_OR_RETURN(stmt.set, ParseSet());
      stmt.kind = Statement::Kind::kSet;
      return stmt;
    }
    if (AtKeyword("SELECT")) {
      SQLARRAY_ASSIGN_OR_RETURN(stmt.select, ParseSelect());
      stmt.kind = Statement::Kind::kSelect;
      return stmt;
    }
    if (AtKeyword("CREATE")) {
      SQLARRAY_ASSIGN_OR_RETURN(stmt.create_table, ParseCreateTable());
      stmt.kind = Statement::Kind::kCreateTable;
      return stmt;
    }
    if (AtKeyword("INSERT")) {
      SQLARRAY_ASSIGN_OR_RETURN(stmt.insert, ParseInsert());
      stmt.kind = Statement::Kind::kInsert;
      return stmt;
    }
    if (AtKeyword("DELETE")) {
      SQLARRAY_ASSIGN_OR_RETURN(stmt.del, ParseDelete());
      stmt.kind = Statement::Kind::kDelete;
      return stmt;
    }
    if (AcceptKeyword("EXPLAIN")) {
      // EXPLAIN is contextual: only meaningful in statement-leading
      // position, so it stays usable as an identifier elsewhere.
      if (!AcceptKeyword("ANALYZE")) {
        return Status::InvalidArgument(
            "EXPLAIN requires ANALYZE (plan-only EXPLAIN is not supported)");
      }
      if (AtKeyword("SELECT")) {
        SQLARRAY_ASSIGN_OR_RETURN(stmt.explain.select, ParseSelect());
        stmt.explain.target = ExplainStmt::Target::kSelect;
      } else if (AtKeyword("INSERT")) {
        SQLARRAY_ASSIGN_OR_RETURN(stmt.explain.insert, ParseInsert());
        stmt.explain.target = ExplainStmt::Target::kInsert;
      } else if (AtKeyword("DELETE")) {
        SQLARRAY_ASSIGN_OR_RETURN(stmt.explain.del, ParseDelete());
        stmt.explain.target = ExplainStmt::Target::kDelete;
      } else {
        return Status::InvalidArgument(
            "EXPLAIN ANALYZE requires a SELECT, INSERT, or DELETE statement");
      }
      stmt.explain.analyze = true;
      stmt.kind = Statement::Kind::kExplain;
      return stmt;
    }
    // Transaction control. Like EXPLAIN, these are contextual keywords,
    // recognized only in statement-leading position.
    if (AcceptKeyword("BEGIN")) {
      if (!AcceptKeyword("TRANSACTION")) AcceptKeyword("TRAN");
      stmt.kind = Statement::Kind::kBegin;
      return stmt;
    }
    if (AcceptKeyword("COMMIT")) {
      if (!AcceptKeyword("TRANSACTION")) AcceptKeyword("TRAN");
      stmt.kind = Statement::Kind::kCommit;
      return stmt;
    }
    if (AcceptKeyword("ROLLBACK")) {
      if (!AcceptKeyword("TRANSACTION")) AcceptKeyword("TRAN");
      stmt.kind = Statement::Kind::kRollback;
      return stmt;
    }
    if (AcceptKeyword("CHECKPOINT")) {
      stmt.kind = Statement::Kind::kCheckpoint;
      return stmt;
    }
    return Status::InvalidArgument("unrecognized statement at offset " +
                                   std::to_string(Cur().offset));
  }

  /// Type names: IDENT possibly followed by (n) or (MAX).
  Result<std::string> ParseTypeName(int32_t* capacity) {
    if (!At(TokenType::kIdent)) {
      return Status::InvalidArgument("expected a type name");
    }
    std::string name = Cur().text;
    ++pos_;
    *capacity = 0;
    if (Accept(TokenType::kLParen)) {
      if (AcceptKeyword("MAX")) {
        name += "(MAX)";
      } else if (At(TokenType::kInt)) {
        *capacity = static_cast<int32_t>(Cur().int_value);
        name += "(" + std::to_string(Cur().int_value) + ")";
        ++pos_;
      } else {
        return Status::InvalidArgument("expected a size or MAX");
      }
      SQLARRAY_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    }
    return name;
  }

  Result<DeclareStmt> ParseDeclare() {
    SQLARRAY_RETURN_IF_ERROR(ExpectKeyword("DECLARE"));
    DeclareStmt d;
    if (!At(TokenType::kVariable)) {
      return Status::InvalidArgument("expected @variable after DECLARE");
    }
    d.name = Cur().text;
    ++pos_;
    int32_t cap = 0;
    SQLARRAY_ASSIGN_OR_RETURN(d.type_name, ParseTypeName(&cap));
    if (Accept(TokenType::kEq)) {
      SQLARRAY_ASSIGN_OR_RETURN(d.init, ParseExpr());
    }
    return d;
  }

  Result<SetStmt> ParseSet() {
    SQLARRAY_RETURN_IF_ERROR(ExpectKeyword("SET"));
    SetStmt s;
    if (!At(TokenType::kVariable)) {
      return Status::InvalidArgument("expected @variable after SET");
    }
    s.name = Cur().text;
    ++pos_;
    // Element-assignment sugar: SET @a[i, j] = v becomes
    // SET @a = Array.UpdateItem(@a, i, j, v).
    if (Accept(TokenType::kLBracket)) {
      SQLARRAY_ASSIGN_OR_RETURN(std::vector<Subscript> subs,
                                ParseSubscripts());
      SQLARRAY_RETURN_IF_ERROR(Expect(TokenType::kEq, "'='"));
      SQLARRAY_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
      std::vector<ExprPtr> args;
      args.push_back(engine::Var(s.name));
      for (Subscript& sub : subs) {
        if (sub.hi != nullptr) {
          return Status::InvalidArgument(
              "slice assignment is not supported; assign one element");
        }
        args.push_back(std::move(sub.lo));
      }
      args.push_back(std::move(value));
      s.value = engine::Call("Array", "UpdateItem", std::move(args));
      return s;
    }
    SQLARRAY_RETURN_IF_ERROR(Expect(TokenType::kEq, "'='"));
    SQLARRAY_ASSIGN_OR_RETURN(s.value, ParseExpr());
    return s;
  }

  /// SET STATEMENT_TIMEOUT_MS = <n> / SET MEMORY_BUDGET_KB = <n>. The value
  /// must be a non-negative integer literal; 0 disables the limit.
  Result<SetOptionStmt> ParseSetOption() {
    SQLARRAY_RETURN_IF_ERROR(ExpectKeyword("SET"));
    SetOptionStmt s;
    if (Cur().IsKeyword("STATEMENT_TIMEOUT_MS")) {
      s.option = "STATEMENT_TIMEOUT_MS";
    } else if (Cur().IsKeyword("MEMORY_BUDGET_KB")) {
      s.option = "MEMORY_BUDGET_KB";
    } else {
      return Status::InvalidArgument("unknown session option");
    }
    ++pos_;
    SQLARRAY_RETURN_IF_ERROR(Expect(TokenType::kEq, "'='"));
    if (Accept(TokenType::kMinus)) {
      return Status::InvalidArgument("session option " + s.option +
                                     " requires a non-negative value");
    }
    if (!At(TokenType::kInt)) {
      return Status::InvalidArgument(
          "expected an integer literal for session option " + s.option);
    }
    s.value = Cur().int_value;
    ++pos_;
    return s;
  }

  Result<SelectStmt> ParseSelect() {
    SQLARRAY_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    SelectStmt sel;
    if (AcceptKeyword("TOP")) {
      bool paren = Accept(TokenType::kLParen);
      if (!At(TokenType::kInt)) {
        return Status::InvalidArgument("expected a row count after TOP");
      }
      sel.top = Cur().int_value;
      ++pos_;
      if (paren) SQLARRAY_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    }
    // Select list.
    while (true) {
      SelectListItem item;
      // @var = expr assignment target?
      if (At(TokenType::kVariable) && Peek().type == TokenType::kEq) {
        item.assign_var = Cur().text;
        pos_ += 2;
      }
      SQLARRAY_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (AcceptKeyword("AS")) {
        if (!At(TokenType::kIdent) && !At(TokenType::kString)) {
          return Status::InvalidArgument("expected a label after AS");
        }
        item.label = Cur().text;
        ++pos_;
      }
      sel.items.push_back(std::move(item));
      if (!Accept(TokenType::kComma)) break;
    }
    // FROM: a table name, dbo.table, or a table-valued function call.
    if (AcceptKeyword("FROM")) {
      if (!At(TokenType::kIdent)) {
        return Status::InvalidArgument("expected a table name after FROM");
      }
      std::string first = Cur().text;
      sel.from_table = first;
      ++pos_;
      if (Accept(TokenType::kDot)) {
        if (!At(TokenType::kIdent)) {
          return Status::InvalidArgument("expected a name after '.'");
        }
        sel.from_table = Cur().text;
        ++pos_;
        if (Accept(TokenType::kLParen)) {
          // FROM Schema.Func(args): a table-valued function source.
          sel.from_is_tvf = true;
          sel.from_schema = first;
          SQLARRAY_ASSIGN_OR_RETURN(sel.from_args, ParseArgs());
        }
        // Otherwise 'first' was a schema prefix like dbo.; ignore it.
      }
      // Time travel: FROM t AS OF <lsn-expr> | AS OF CHECKPOINT. (Table
      // aliases don't exist in this grammar, so AS here is unambiguous.)
      if (AcceptKeyword("AS")) {
        SQLARRAY_RETURN_IF_ERROR(ExpectKeyword("OF"));
        if (AcceptKeyword("CHECKPOINT")) {
          sel.as_of_checkpoint = true;
        } else {
          SQLARRAY_ASSIGN_OR_RETURN(sel.as_of, ParseExpr());
        }
      }
      if (AcceptKeyword("WITH")) {
        SQLARRAY_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
        SQLARRAY_RETURN_IF_ERROR(ExpectKeyword("NOLOCK"));
        SQLARRAY_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        sel.nolock = true;
      }
    }
    if (AcceptKeyword("WHERE")) {
      SQLARRAY_ASSIGN_OR_RETURN(sel.where, ParseExpr());
    }
    if (AcceptKeyword("GROUP")) {
      SQLARRAY_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        SQLARRAY_ASSIGN_OR_RETURN(ExprPtr g, ParseExpr());
        sel.group_by.push_back(std::move(g));
        if (!Accept(TokenType::kComma)) break;
      }
    }
    if (AcceptKeyword("ORDER")) {
      SQLARRAY_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        SelectStmt::OrderKey key;
        if (At(TokenType::kInt)) {
          key.position = static_cast<int>(Cur().int_value);
          ++pos_;
        } else if (At(TokenType::kIdent) && !IsReservedWord(Cur())) {
          key.label = Cur().text;
          ++pos_;
        } else {
          return Status::InvalidArgument(
              "ORDER BY takes a 1-based select-list ordinal or an output "
              "column label");
        }
        if (AcceptKeyword("DESC")) {
          key.descending = true;
        } else {
          AcceptKeyword("ASC");
        }
        sel.order_by.push_back(std::move(key));
        if (!Accept(TokenType::kComma)) break;
      }
    }
    return sel;
  }

  Result<CreateTableStmt> ParseCreateTable() {
    SQLARRAY_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
    SQLARRAY_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    CreateTableStmt ct;
    if (!At(TokenType::kIdent)) {
      return Status::InvalidArgument("expected a table name");
    }
    ct.name = Cur().text;
    ++pos_;
    SQLARRAY_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    while (true) {
      CreateTableStmt::Column col;
      if (!At(TokenType::kIdent)) {
        return Status::InvalidArgument("expected a column name");
      }
      col.name = Cur().text;
      ++pos_;
      SQLARRAY_ASSIGN_OR_RETURN(col.type_name, ParseTypeName(&col.capacity));
      // Accept and ignore NOT NULL / PRIMARY KEY decorations.
      while (AcceptKeyword("NOT") || AcceptKeyword("NULL") ||
             AcceptKeyword("PRIMARY") || AcceptKeyword("KEY") ||
             AcceptKeyword("CLUSTERED")) {
      }
      ct.columns.push_back(std::move(col));
      if (!Accept(TokenType::kComma)) break;
    }
    SQLARRAY_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    return ct;
  }

  Result<DeleteStmt> ParseDelete() {
    SQLARRAY_RETURN_IF_ERROR(ExpectKeyword("DELETE"));
    SQLARRAY_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    DeleteStmt del;
    if (!At(TokenType::kIdent)) {
      return Status::InvalidArgument("expected a table name");
    }
    del.table = Cur().text;
    ++pos_;
    if (AcceptKeyword("WHERE")) {
      SQLARRAY_ASSIGN_OR_RETURN(del.where, ParseExpr());
    }
    return del;
  }

  Result<InsertStmt> ParseInsert() {
    SQLARRAY_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
    SQLARRAY_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    InsertStmt ins;
    if (!At(TokenType::kIdent)) {
      return Status::InvalidArgument("expected a table name");
    }
    ins.table = Cur().text;
    ++pos_;
    if (AtKeyword("SELECT")) {
      SQLARRAY_ASSIGN_OR_RETURN(SelectStmt sel, ParseSelect());
      ins.select = std::make_unique<SelectStmt>(std::move(sel));
      return ins;
    }
    SQLARRAY_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    while (true) {
      SQLARRAY_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
      std::vector<ExprPtr> row;
      while (true) {
        SQLARRAY_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        row.push_back(std::move(e));
        if (!Accept(TokenType::kComma)) break;
      }
      SQLARRAY_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      ins.rows.push_back(std::move(row));
      if (!Accept(TokenType::kComma)) break;
    }
    return ins;
  }

  // --- expressions -------------------------------------------------------

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    SQLARRAY_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (AcceptKeyword("OR")) {
      SQLARRAY_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = engine::Bin(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    SQLARRAY_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (AcceptKeyword("AND")) {
      SQLARRAY_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = engine::Bin(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (AcceptKeyword("NOT")) {
      SQLARRAY_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return engine::Un(UnaryOp::kNot, std::move(operand));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    SQLARRAY_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    BinaryOp op;
    if (Accept(TokenType::kEq)) {
      op = BinaryOp::kEq;
    } else if (Accept(TokenType::kNe)) {
      op = BinaryOp::kNe;
    } else if (Accept(TokenType::kLt)) {
      op = BinaryOp::kLt;
    } else if (Accept(TokenType::kLe)) {
      op = BinaryOp::kLe;
    } else if (Accept(TokenType::kGt)) {
      op = BinaryOp::kGt;
    } else if (Accept(TokenType::kGe)) {
      op = BinaryOp::kGe;
    } else {
      return lhs;
    }
    SQLARRAY_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
    return engine::Bin(op, std::move(lhs), std::move(rhs));
  }

  Result<ExprPtr> ParseAdditive() {
    SQLARRAY_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (true) {
      BinaryOp op;
      if (Accept(TokenType::kPlus)) {
        op = BinaryOp::kAdd;
      } else if (Accept(TokenType::kMinus)) {
        op = BinaryOp::kSub;
      } else {
        return lhs;
      }
      SQLARRAY_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = engine::Bin(op, std::move(lhs), std::move(rhs));
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    SQLARRAY_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (true) {
      BinaryOp op;
      if (Accept(TokenType::kStar)) {
        op = BinaryOp::kMul;
      } else if (Accept(TokenType::kSlash)) {
        op = BinaryOp::kDiv;
      } else if (Accept(TokenType::kPercent)) {
        op = BinaryOp::kMod;
      } else {
        return lhs;
      }
      SQLARRAY_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = engine::Bin(op, std::move(lhs), std::move(rhs));
    }
  }

  Result<ExprPtr> ParseUnary() {
    if (Accept(TokenType::kMinus)) {
      if (Accept(TokenType::kIntMinMagnitude)) {
        return engine::Lit(Value::Int(INT64_MIN));
      }
      SQLARRAY_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return engine::Un(UnaryOp::kNeg, std::move(operand));
    }
    if (Accept(TokenType::kPlus)) return ParseUnary();
    return ParsePostfix();
  }

  /// One subscript entry: a scalar index or a lo:hi slice.
  struct Subscript {
    ExprPtr lo;
    ExprPtr hi;  ///< null for scalar indices
  };

  Result<std::vector<Subscript>> ParseSubscripts() {
    // Already past '['.
    std::vector<Subscript> subs;
    while (true) {
      Subscript s;
      SQLARRAY_ASSIGN_OR_RETURN(s.lo, ParseExpr());
      if (Accept(TokenType::kColon)) {
        SQLARRAY_ASSIGN_OR_RETURN(s.hi, ParseExpr());
      }
      subs.push_back(std::move(s));
      if (!Accept(TokenType::kComma)) break;
    }
    SQLARRAY_RETURN_IF_ERROR(Expect(TokenType::kRBracket, "']'"));
    return subs;
  }

  /// Desugars base[subscripts] into Array.Item / Array.Slice calls — the
  /// Sec. 8 "syntactic sugar to T-SQL" the paper proposes as future work.
  static ExprPtr DesugarSubscript(ExprPtr base, std::vector<Subscript> subs) {
    bool any_slice = false;
    for (const Subscript& s : subs) {
      if (s.hi != nullptr) any_slice = true;
    }
    std::vector<ExprPtr> args;
    args.push_back(std::move(base));
    if (!any_slice) {
      for (Subscript& s : subs) args.push_back(std::move(s.lo));
      return engine::Call("Array", "Item", std::move(args));
    }
    // Slice: per dimension (lo, hi, collapse) — scalar indices become
    // (i, i+1, collapse=1) so the dimension is dropped, like a[2, 0:3].
    for (Subscript& s : subs) {
      bool scalar = s.hi == nullptr;
      ExprPtr lo = engine::CloneExpr(*s.lo);
      ExprPtr hi = scalar ? engine::Bin(BinaryOp::kAdd,
                                        engine::CloneExpr(*s.lo),
                                        engine::Lit(Value::Int(1)))
                          : std::move(s.hi);
      args.push_back(std::move(lo));
      args.push_back(std::move(hi));
      args.push_back(engine::Lit(Value::Int(scalar ? 1 : 0)));
    }
    return engine::Call("Array", "Slice", std::move(args));
  }

  Result<ExprPtr> ParsePostfix() {
    SQLARRAY_ASSIGN_OR_RETURN(ExprPtr e, ParsePrimary());
    while (Accept(TokenType::kLBracket)) {
      SQLARRAY_ASSIGN_OR_RETURN(std::vector<Subscript> subs,
                                ParseSubscripts());
      e = DesugarSubscript(std::move(e), std::move(subs));
    }
    return e;
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Cur();
    switch (t.type) {
      case TokenType::kInt: {
        ++pos_;
        return engine::Lit(Value::Int(t.int_value));
      }
      case TokenType::kFloat: {
        ++pos_;
        return engine::Lit(Value::Double(t.float_value));
      }
      case TokenType::kString: {
        ++pos_;
        return engine::Lit(Value::Str(t.text));
      }
      case TokenType::kBinary: {
        ++pos_;
        return engine::Lit(Value::Bytes(t.binary_value));
      }
      case TokenType::kVariable: {
        ++pos_;
        return engine::Var(t.text);
      }
      case TokenType::kLParen: {
        ++pos_;
        SQLARRAY_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        SQLARRAY_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        return e;
      }
      case TokenType::kStar: {
        ++pos_;
        return engine::Star();
      }
      case TokenType::kIdent: {
        if (t.IsKeyword("NULL")) {
          ++pos_;
          return engine::Lit(Value::Null());
        }
        if (IsReservedWord(t)) {
          return Status::InvalidArgument(
              "reserved word '" + t.text + "' cannot start an expression");
        }
        // Schema.Func(args), Func(args), or a bare column name.
        std::string first = t.text;
        ++pos_;
        if (Accept(TokenType::kDot)) {
          if (!At(TokenType::kIdent)) {
            return Status::InvalidArgument("expected a name after '.'");
          }
          std::string second = Cur().text;
          ++pos_;
          SQLARRAY_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
          SQLARRAY_ASSIGN_OR_RETURN(std::vector<ExprPtr> args, ParseArgs());
          return engine::Call(first, second, std::move(args));
        }
        if (Accept(TokenType::kLParen)) {
          SQLARRAY_ASSIGN_OR_RETURN(std::vector<ExprPtr> args, ParseArgs());
          // Unqualified call: built-in aggregates and dbo functions.
          return engine::Call("", first, std::move(args));
        }
        return engine::Col(first);
      }
      case TokenType::kIntMinMagnitude:
        // 2^63 after a binary minus: only unary minus can take it.
        return Status::InvalidArgument("integer literal out of range");
      default:
        return Status::InvalidArgument("unexpected token at offset " +
                                       std::to_string(t.offset));
    }
  }

  /// Args up to the closing paren (already past the opening paren).
  Result<std::vector<ExprPtr>> ParseArgs() {
    std::vector<ExprPtr> args;
    if (Accept(TokenType::kRParen)) return args;
    while (true) {
      SQLARRAY_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      args.push_back(std::move(e));
      if (!Accept(TokenType::kComma)) break;
    }
    SQLARRAY_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    return args;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Script> Parse(std::string_view source) {
  SQLARRAY_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(source));
  Parser parser(std::move(tokens));
  return parser.ParseScript();
}

Result<engine::ExprPtr> ParseExpression(std::string_view source) {
  SQLARRAY_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(source));
  Parser parser(std::move(tokens));
  return parser.ParseSingleExpression();
}

}  // namespace sqlarray::sql
