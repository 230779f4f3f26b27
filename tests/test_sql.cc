// Tests for the T-SQL frontend: lexer, parser, session — including the
// paper's exact Sec. 5.1 statements and the Sec. 8 subscript sugar.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

#include "core/array.h"
#include "core/vec_kernels.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/session.h"
#include "udfs/register.h"

namespace sqlarray::sql {
namespace {

using engine::Value;

TEST(Lexer, TokenKinds) {
  auto tokens = Lex("SELECT @a = 1.5, 0xAB12 'str' (x) [1:2]").value();
  ASSERT_GE(tokens.size(), 12u);
  EXPECT_TRUE(tokens[0].IsKeyword("select"));
  EXPECT_EQ(tokens[1].type, TokenType::kVariable);
  EXPECT_EQ(tokens[1].text, "a");
  EXPECT_EQ(tokens[2].type, TokenType::kEq);
  EXPECT_EQ(tokens[3].type, TokenType::kFloat);
  EXPECT_EQ(tokens[3].float_value, 1.5);
  EXPECT_EQ(tokens[5].type, TokenType::kBinary);
  EXPECT_EQ(tokens[5].binary_value, (std::vector<uint8_t>{0xAB, 0x12}));
  EXPECT_EQ(tokens[6].type, TokenType::kString);
  EXPECT_EQ(tokens[6].text, "str");
}

TEST(Lexer, CommentsAndOperators) {
  auto tokens = Lex("a -- line comment\n /* block */ <= <> >= !=").value();
  EXPECT_EQ(tokens[0].type, TokenType::kIdent);
  EXPECT_EQ(tokens[1].type, TokenType::kLe);
  EXPECT_EQ(tokens[2].type, TokenType::kNe);
  EXPECT_EQ(tokens[3].type, TokenType::kGe);
  EXPECT_EQ(tokens[4].type, TokenType::kNe);
}

TEST(Lexer, Errors) {
  EXPECT_FALSE(Lex("'unterminated").ok());
  EXPECT_FALSE(Lex("@ alone").ok());
  EXPECT_FALSE(Lex("0xABC").ok());  // odd hex digits
  EXPECT_FALSE(Lex("/* open").ok());
  EXPECT_FALSE(Lex("a ? b").ok());
}

TEST(Lexer, EscapedQuoteInString) {
  auto tokens = Lex("'it''s'").value();
  EXPECT_EQ(tokens[0].text, "it's");
}

TEST(Parser, ExpressionPrecedence) {
  // 1 + 2 * 3 parses as 1 + (2 * 3).
  engine::ExprPtr e = ParseExpression("1 + 2 * 3").value();
  ASSERT_EQ(e->kind, engine::Expr::Kind::kBinary);
  EXPECT_EQ(e->binary_op, engine::BinaryOp::kAdd);
  EXPECT_EQ(e->args[1]->binary_op, engine::BinaryOp::kMul);
}

TEST(Parser, SchemaQualifiedCall) {
  engine::ExprPtr e =
      ParseExpression("FloatArray.Vector_2(1.0, 2.0)").value();
  ASSERT_EQ(e->kind, engine::Expr::Kind::kCall);
  EXPECT_EQ(e->schema_name, "FloatArray");
  EXPECT_EQ(e->func_name, "Vector_2");
  EXPECT_EQ(e->args.size(), 2u);
}

TEST(Parser, SubscriptSugarDesugarsToItem) {
  engine::ExprPtr e = ParseExpression("@a[1, 2]").value();
  ASSERT_EQ(e->kind, engine::Expr::Kind::kCall);
  EXPECT_EQ(e->schema_name, "Array");
  EXPECT_EQ(e->func_name, "Item");
  EXPECT_EQ(e->args.size(), 3u);
}

TEST(Parser, SliceSugarDesugarsToSlice) {
  engine::ExprPtr e = ParseExpression("@a[1:5, 2]").value();
  ASSERT_EQ(e->kind, engine::Expr::Kind::kCall);
  EXPECT_EQ(e->func_name, "Slice");
  EXPECT_EQ(e->args.size(), 7u);  // arr + 2 dims * 3
}

TEST(Parser, StatementsParse) {
  EXPECT_TRUE(Parse("DECLARE @a VARBINARY(100) = 1").ok());
  EXPECT_TRUE(Parse("SET @a = 2").ok());
  EXPECT_TRUE(Parse("SELECT 1; SELECT 2").ok());
  EXPECT_TRUE(Parse("SELECT TOP 5 id FROM t WITH (NOLOCK) WHERE id > 3 "
                    "GROUP BY id")
                  .ok());
  EXPECT_TRUE(
      Parse("CREATE TABLE t (id BIGINT, v VARBINARY(MAX))").ok());
  EXPECT_TRUE(Parse("INSERT INTO t VALUES (1, 0x00), (2, 0x01)").ok());
  EXPECT_FALSE(Parse("DROP TABLE t").ok());
  EXPECT_FALSE(Parse("SELECT FROM").ok());
}

class SessionTest : public ::testing::Test {
 protected:
  SessionTest()
      : executor_(&db_, &registry_), session_(&executor_) {
    EXPECT_TRUE(udfs::RegisterAllUdfs(&registry_).ok());
  }

  /// Runs a script expecting success.
  std::vector<engine::ResultSet> Run(const std::string& sqltext) {
    auto r = session_.Execute(sqltext);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nSQL: " << sqltext;
    return r.ok() ? std::move(r).value() : std::vector<engine::ResultSet>{};
  }

  /// Fetches the array currently held by a session variable.
  OwnedArray VarArray(const std::string& name) {
    Value v = session_.GetVariable(name).value();
    return OwnedArray::FromBlob(v.MaterializeBytes().value()).value();
  }

  storage::Database db_;
  engine::FunctionRegistry registry_;
  engine::Executor executor_;
  Session session_;
};

TEST_F(SessionTest, PaperExampleVectorAndItem) {
  // Sec. 5.1: DECLARE @a ... = FloatArray.Vector_5(...); Item_1(@a, 3).
  Run("DECLARE @a VARBINARY(100) = "
      "FloatArray.Vector_5(1.0, 2.0, 3.0, 4.0, 5.0)");
  auto results = Run("SELECT FloatArray.Item_1(@a, 3)");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].ScalarResult().value().AsDouble().value(), 4.0);
}

TEST_F(SessionTest, PaperExampleMatrixItem2) {
  Run("DECLARE @m VARBINARY(100) = "
      "FloatArray.Matrix_2(0.1, 0.2, 0.3, 0.4)");
  auto results = Run("SELECT FloatArray.Item_2(@m, 1, 0)");
  // Column-major: (1,0) is the second listed element.
  EXPECT_NEAR(results[0].ScalarResult().value().AsDouble().value(), 0.2,
              1e-12);
}

TEST_F(SessionTest, PaperExampleUpdateItem) {
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_5(1, 2, 3, 4, 5)");
  Run("SET @a = FloatArray.UpdateItem_1(@a, 3, 4.5)");
  auto results = Run("SELECT FloatArray.Item_1(@a, 3)");
  EXPECT_EQ(results[0].ScalarResult().value().AsDouble().value(), 4.5);
}

TEST_F(SessionTest, PaperExampleSubarray) {
  // A 10x10x10 max array of floats, subset 5x5x5 at (1, 4, 6) (Sec. 5.1).
  Run("DECLARE @a VARBINARY(MAX) = FloatArrayMax.Create(12, 12, 12)");
  Run("DECLARE @b VARBINARY(MAX)");
  Run("SET @a = FloatArrayMax.UpdateItem_3(@a, 2, 5, 7, 42.0)");
  Run("SET @b = FloatArrayMax.Subarray(@a, "
      "IntArray.Vector_3(1, 4, 6), IntArray.Vector_3(5, 5, 5), 0)");
  OwnedArray b = VarArray("b");
  EXPECT_EQ(b.dims(), (Dims{5, 5, 5}));
  EXPECT_EQ(b.ref().GetDoubleAt(Dims{1, 1, 1}).value(), 42.0);
}

TEST_F(SessionTest, SubarrayCollapseFlag) {
  Run("DECLARE @m VARBINARY(100) = FloatArray.Matrix_2(1, 2, 3, 4)");
  Run("DECLARE @col VARBINARY(100)");
  Run("SET @col = FloatArray.Subarray(@m, IntArray.Vector_2(0, 1), "
      "IntArray.Vector_2(2, 1), 1)");
  OwnedArray col = VarArray("col");
  EXPECT_EQ(col.dims(), (Dims{2}));
  EXPECT_EQ(col.ref().GetDouble(0).value(), 3.0);
}

TEST_F(SessionTest, TableScanWithAggregates) {
  Run("CREATE TABLE nums (id BIGINT, v FLOAT)");
  Run("INSERT INTO nums VALUES (1, 1.5), (2, 2.5), (3, 3.0)");
  auto results =
      Run("SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM nums");
  const auto& row = results[0].rows[0];
  EXPECT_EQ(row[0].AsInt().value(), 3);
  EXPECT_EQ(row[1].AsDouble().value(), 7.0);
  EXPECT_EQ(row[2].AsDouble().value(), 1.5);
  EXPECT_EQ(row[3].AsDouble().value(), 3.0);
  EXPECT_NEAR(row[4].AsDouble().value(), 7.0 / 3, 1e-12);
}

TEST_F(SessionTest, NolockScanAndWhere) {
  Run("CREATE TABLE t (id BIGINT, v FLOAT)");
  Run("INSERT INTO t VALUES (1, 10.0), (2, 20.0), (3, 30.0)");
  auto results =
      Run("SELECT SUM(v) FROM t WITH (NOLOCK) WHERE id >= 2");
  EXPECT_EQ(results[0].ScalarResult().value().AsDouble().value(), 50.0);
}

TEST_F(SessionTest, PaperExampleConcatAggregate) {
  // Sec. 5.1: assemble an array from rows with the Concat UDA.
  Run("CREATE TABLE cells (id BIGINT, ix BIGINT, v FLOAT)");
  Run("INSERT INTO cells VALUES (1, 0, 10.0), (2, 1, 11.0), (3, 2, 12.0), "
      "(4, 3, 13.0)");
  Run("DECLARE @l VARBINARY(100) = IntArray.Vector_1(4)");
  Run("DECLARE @a VARBINARY(MAX)");
  Run("SELECT @a = FloatArrayMax.Concat(@l, ix, v) FROM cells");
  OwnedArray a = VarArray("a");
  EXPECT_EQ(a.dims(), (Dims{4}));
  EXPECT_EQ(a.ref().GetDouble(2).value(), 12.0);
}

TEST_F(SessionTest, ReaderStyleConcatQueryMatchesUda) {
  Run("CREATE TABLE cells2 (id BIGINT, ix BIGINT, v FLOAT)");
  Run("INSERT INTO cells2 VALUES (1, 0, 5.0), (2, 1, 6.0), (3, 2, 7.0)");
  Run("DECLARE @l VARBINARY(100) = IntArray.Vector_1(3)");
  Run("DECLARE @u VARBINARY(MAX)");
  Run("DECLARE @r VARBINARY(MAX)");
  Run("SELECT @u = FloatArrayMax.Concat(@l, ix, v) FROM cells2");
  Run("SET @r = FloatArrayMax.ConcatQuery(@l, "
      "'SELECT ix, v FROM cells2')");
  OwnedArray u = VarArray("u");
  OwnedArray r = VarArray("r");
  ASSERT_EQ(u.dims(), r.dims());
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(u.ref().GetDouble(i).value(), r.ref().GetDouble(i).value());
  }
}

/// Renders result sets as text so results from different plans compare
/// exactly (doubles at full precision).
std::string Render(const std::vector<engine::ResultSet>& results) {
  std::string out;
  for (const engine::ResultSet& rs : results) {
    for (const std::vector<Value>& row : rs.rows) {
      for (const Value& v : row) {
        if (v.is_null()) {
          out += "NULL";
        } else if (v.kind() == Value::Kind::kInt64) {
          out += "i" + std::to_string(v.AsInt().value());
        } else {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "d%.17g", v.AsDouble().value());
          out += buf;
        }
        out += ",";
      }
      out += ";";
    }
    out += "|";
  }
  return out;
}

TEST_F(SessionTest, ReaderUdfInsideTableScan) {
  // A reader-style UDF (ConcatQuery re-enters the session) called once per
  // row of a table scan, in the four plan shapes a table query can take.
  Run("CREATE TABLE cells2 (id BIGINT, ix BIGINT, v FLOAT)");
  Run("INSERT INTO cells2 VALUES (1, 0, 5.0), (2, 1, 6.0), (3, 2, 7.0)");
  Run("DECLARE @l VARBINARY(100) = IntArray.Vector_1(3)");
  const std::string item =
      "FloatArray.Item_1(FloatArrayMax.ConcatQuery(@l, "
      "'SELECT ix, v FROM cells2'), id - 1)";
  const std::string rows_q =
      "SELECT id, " + item + " FROM cells2 WHERE id >= 2";
  const std::string sum_q = "SELECT SUM(" + item + ") FROM cells2";
  const std::string group_q = "SELECT id % 2, SUM(" + item +
                              ") FROM cells2 GROUP BY id % 2 ORDER BY 1";
  const std::string top_q = "SELECT TOP 2 id, " + item + " FROM cells2";
  executor_.set_min_pages_per_worker(0);
  for (int workers : {1, 4}) {
    for (int batch : {1, 1024}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " batch=" + std::to_string(batch));
      executor_.set_scan_workers(workers);
      executor_.set_batch_rows(batch);
      EXPECT_EQ(Render(Run(rows_q)), "i2,d6,;i3,d7,;|");
      EXPECT_EQ(Render(Run(sum_q)), "d18,;|");
      EXPECT_EQ(Render(Run(group_q)), "i0,d6,;i1,d12,;|");
      EXPECT_EQ(Render(Run(top_q)), "i1,d5,;i2,d6,;|");
    }
  }
}

TEST_F(SessionTest, TopAppliesAfterOrderBy) {
  // TOP n with ORDER BY keeps the first n rows of the SORTED result, not the
  // first n rows of the scan.
  Run("CREATE TABLE t (id BIGINT, v FLOAT)");
  Run("INSERT INTO t VALUES (1, 6.0), (2, 5.0), (3, 4.0), (4, 3.0), "
      "(5, 2.0), (6, 1.0)");
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_4(10, 40, 20, 30)");
  executor_.set_min_pages_per_worker(0);
  for (int workers : {1, 4}) {
    for (int batch : {1, 1024}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " batch=" + std::to_string(batch));
      executor_.set_scan_workers(workers);
      executor_.set_batch_rows(batch);
      EXPECT_EQ(Render(Run("SELECT TOP 2 id FROM t ORDER BY id DESC")),
                "i6,;i5,;|");
      EXPECT_EQ(
          Render(Run("SELECT TOP 3 id, v FROM t WHERE id > 1 ORDER BY v")),
          "i6,d1,;i5,d2,;i4,d3,;|");
      EXPECT_EQ(Render(Run("SELECT TOP 2 ix, v FROM FloatArray.ToTable(@a) "
                           "ORDER BY v DESC")),
                "i1,d40,;i3,d30,;|");
      EXPECT_EQ(Render(Run("SELECT TOP 2 id % 3 AS k, COUNT(*) FROM t "
                           "GROUP BY id % 3 ORDER BY k DESC")),
                "i2,i2,;i1,i2,;|");
    }
  }
  // The profile's root reports the rows the statement returned.
  auto explain = Run("EXPLAIN ANALYZE SELECT TOP 2 id FROM t ORDER BY id DESC");
  ASSERT_EQ(explain.size(), 1u);
  EXPECT_EQ(explain[0].rows[0][3].AsInt().value(), 2);  // rows_out
}

TEST_F(SessionTest, TopLimitsAggregateOutput) {
  Run("CREATE TABLE t (id BIGINT, v FLOAT)");
  Run("INSERT INTO t VALUES (1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0), "
      "(5, 5.0), (6, 6.0)");
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_4(10, 40, 20, 30)");
  executor_.set_min_pages_per_worker(0);
  for (int workers : {1, 4}) {
    for (int batch : {1, 1024}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " batch=" + std::to_string(batch));
      executor_.set_scan_workers(workers);
      executor_.set_batch_rows(batch);
      EXPECT_EQ(Render(Run("SELECT TOP 2 id % 3, COUNT(*) FROM t "
                           "GROUP BY id % 3")),
                "i0,i2,;i1,i2,;|");
      EXPECT_EQ(Render(Run("SELECT TOP 1 ix % 2, SUM(v) "
                           "FROM FloatArray.ToTable(@a) GROUP BY ix % 2")),
                "i0,d30,;|");
      EXPECT_EQ(Render(Run("SELECT TOP 5 COUNT(*) FROM t")), "i6,;|");
      EXPECT_EQ(Render(Run("SELECT TOP 0 COUNT(*) FROM t")), "|");
    }
  }
}

TEST_F(SessionTest, OrderByComparesLargeInt64Exactly) {
  // Above 2^53 neighbouring BIGINTs share one double; ORDER BY must still
  // order them exactly.
  Run("CREATE TABLE big (id BIGINT, v FLOAT)");
  Run("INSERT INTO big VALUES (9007199254740991, 1.0), "
      "(9007199254740992, 2.0), (9007199254740993, 3.0), "
      "(9223372036854775806, 4.0), (9223372036854775807, 5.0)");
  EXPECT_EQ(Render(Run("SELECT id FROM big ORDER BY id DESC")),
            "i9223372036854775807,;i9223372036854775806,;"
            "i9007199254740993,;i9007199254740992,;i9007199254740991,;|");
  EXPECT_EQ(Render(Run("SELECT 0 - id AS n FROM big ORDER BY n")),
            "i-9223372036854775807,;i-9223372036854775806,;"
            "i-9007199254740993,;i-9007199254740992,;i-9007199254740991,;|");
}

TEST_F(SessionTest, Int64OverflowWrapsIdenticallyOnEveryPath) {
  // Every int64 operator wraps modulo 2^64 on the row and the columnar
  // path alike; INT64_MIN / -1 and % -1 must not trap (SIGFPE).
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::string min_lit = "(-9223372036854775807 - 1)";
  Run("CREATE TABLE ovf (id BIGINT, v BIGINT)");
  // Enough rows for several morsels, so partial integer sums merge too.
  constexpr int kRows = 12001;
  for (int base = 1; base <= kRows; base += 1000) {
    std::string values;
    for (int id = base; id < base + 1000 && id <= kRows; ++id) {
      if (!values.empty()) values += ", ";
      values += "(" + std::to_string(id) + ", " + min_lit + ")";
    }
    Run("INSERT INTO ovf VALUES " + values);
  }
  const std::string from_less =
      "SELECT " + min_lit + " / -1, " + min_lit + " % -1, -" + min_lit +
      ", 9223372036854775807 + 1, 9223372036854775807 * 2, " + min_lit +
      " - 1";
  const std::string row_q =
      "SELECT v / -1, v % -1, -v, v + v, v * 2, v - 1 FROM ovf "
      "WHERE id <= 2";
  const std::string agg_q = "SELECT SUM(v), SUM(v / -1), SUM(v % -1) FROM ovf";
  auto i = [](int64_t x) { return "i" + std::to_string(x) + ","; };
  const std::string row = i(kMin) + i(0) + i(kMin) + i(0) + i(0) + i(kMax);
  // kRows is odd: kRows * INT64_MIN wraps to INT64_MIN.
  const std::string want = i(kMin) + i(0) + i(kMin) + i(kMin) + i(-2) +
                           i(kMax) + ";|" + row + ";" + row + ";|" + i(kMin) +
                           i(kMin) + i(0) + ";|";
  for (bool force_scalar : {false, true}) {
    col::SetForceScalar(force_scalar);
    for (bool vectorized : {false, true}) {
      for (int batch : {1, 1024}) {
        SCOPED_TRACE("scalar=" + std::to_string(force_scalar) +
                     " vectorized=" + std::to_string(vectorized) +
                     " batch=" + std::to_string(batch));
        executor_.set_vectorized(vectorized);
        executor_.set_batch_rows(batch);
        std::string got = Render(Run(from_less)) + Render(Run(row_q)) +
                          Render(Run(agg_q));
        EXPECT_EQ(got, want);
      }
    }
  }
  col::SetForceScalar(false);
}

TEST_F(SessionTest, FloatToIntCoercionIsDefinedOnEveryPath) {
  // % coerces FLOAT operands to BIGINT by truncation. NaN, +-inf and values
  // outside [-2^63, 2^63) become INT64_MIN on the row and the columnar path
  // alike, and INT64_MIN % 7 = -1.
  Run("CREATE TABLE f2i (id BIGINT, v FLOAT)");
  Run("INSERT INTO f2i VALUES (1, 1e300), (2, -1e300), (3, 1e308 * 10), "
      "(4, -1e308 * 10), (5, 1e308 * 10 - 1e308 * 10), "
      "(6, 9223372036854775808.0), (7, -9223372036854775808.0), "
      "(8, 12.75), (9, -12.75), (10, 9223372036854774784.0)");
  const std::string from_less =
      "SELECT 1e300 % 7, -1e300 % 7, 1e308 * 10 % 7, 12.75 % 7, "
      "-9223372036854775808.0 % 7";
  const std::string row_q = "SELECT v % 7 FROM f2i";
  const std::string agg_q = "SELECT SUM(v % 7) FROM f2i";
  // Rows 1-7 coerce to INT64_MIN; 12 % 7 = 5, -12 % 7 = -5 and
  // (2^63 - 1024) % 7 = 6.
  const std::string want = "i-1,i-1,i-1,i5,i-1,;|"
                           "i-1,;i-1,;i-1,;i-1,;i-1,;i-1,;i-1,;i5,;i-5,;i6,;|"
                           "i-1,;|";
  for (bool force_scalar : {false, true}) {
    col::SetForceScalar(force_scalar);
    for (bool vectorized : {false, true}) {
      for (int batch : {1, 1024}) {
        SCOPED_TRACE("scalar=" + std::to_string(force_scalar) +
                     " vectorized=" + std::to_string(vectorized) +
                     " batch=" + std::to_string(batch));
        executor_.set_vectorized(vectorized);
        executor_.set_batch_rows(batch);
        EXPECT_EQ(Render(Run(from_less)) + Render(Run(row_q)) +
                      Render(Run(agg_q)),
                  want);
      }
    }
  }
  col::SetForceScalar(false);
}

TEST_F(SessionTest, Int64MinLiteralOnlyUnderUnaryMinus) {
  EXPECT_EQ(Render(Run("SELECT -9223372036854775808, "
                       "-9223372036854775808 + 1, - -9223372036854775808")),
            "i-9223372036854775808,i-9223372036854775807,"
            "i-9223372036854775808,;|");
  // The bare magnitude, a binary minus and a parenthesized operand stay
  // out of range.
  for (const char* sql : {"SELECT 9223372036854775808",
                          "SELECT 1 -9223372036854775808",
                          "SELECT -(9223372036854775808)",
                          "SELECT -9223372036854775809"}) {
    auto r = session_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_NE(r.status().message().find("integer literal out of range"),
              std::string::npos)
        << sql << ": " << r.status().ToString();
  }
}

TEST_F(SessionTest, SubscriptSugarReadsAndSlices) {
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_5(10, 20, 30, 40, 50)");
  auto results = Run("SELECT @a[3]");
  EXPECT_EQ(results[0].ScalarResult().value().AsDouble().value(), 40.0);

  Run("DECLARE @m VARBINARY(100) = FloatArray.Matrix_2(1, 2, 3, 4)");
  auto item = Run("SELECT @m[1, 1]");
  EXPECT_EQ(item[0].ScalarResult().value().AsDouble().value(), 4.0);

  // Slice: first column of the matrix as a vector.
  Run("DECLARE @col VARBINARY(100)");
  Run("SET @col = @m[0:2, 0]");
  OwnedArray col = VarArray("col");
  EXPECT_EQ(col.dims(), (Dims{2}));
  EXPECT_EQ(col.ref().GetDouble(1).value(), 2.0);
}

TEST_F(SessionTest, SubscriptSugarAssignment) {
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_3(1, 2, 3)");
  Run("SET @a[1] = 99");
  auto results = Run("SELECT @a[1]");
  EXPECT_EQ(results[0].ScalarResult().value().AsDouble().value(), 99.0);
}

TEST_F(SessionTest, ArrayStringAndIntrospection) {
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_3(1, 2, 3)");
  auto rank = Run("SELECT Array.Rank(@a)");
  EXPECT_EQ(rank[0].ScalarResult().value().AsInt().value(), 1);
  auto len = Run("SELECT Array.Length(@a)");
  EXPECT_EQ(len[0].ScalarResult().value().AsInt().value(), 3);
  auto name = Run("SELECT Array.TypeName(@a)");
  EXPECT_EQ(name[0].ScalarResult().value().AsString().value(), "float64");
}

TEST_F(SessionTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(session_.Execute("SET @undeclared = 1").ok());
  EXPECT_FALSE(session_.Execute("SELECT * FROM missing_table").ok());
  EXPECT_FALSE(session_.Execute("SELECT Bogus.Func(1)").ok());
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_2(1, 2)");
  // Out-of-bounds item is a runtime error.
  EXPECT_FALSE(session_.Execute("SELECT FloatArray.Item_1(@a, 7)").ok());
}

TEST_F(SessionTest, TypeMismatchDetectedAtRuntime) {
  // Paper Sec. 3.5: passing a blob to the wrong schema's function fails.
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_2(1, 2)");
  EXPECT_FALSE(session_.Execute("SELECT IntArray.Item_1(@a, 0)").ok());
  EXPECT_FALSE(
      session_.Execute("SELECT FloatArrayMax.Item_1(@a, 0)").ok());
}

TEST_F(SessionTest, GroupByInSql) {
  Run("CREATE TABLE g (id BIGINT, k BIGINT, v FLOAT)");
  Run("INSERT INTO g VALUES (1, 0, 1.0), (2, 1, 2.0), (3, 0, 3.0), "
      "(4, 1, 4.0)");
  auto results = Run("SELECT k, SUM(v) FROM g GROUP BY k");
  ASSERT_EQ(results[0].rows.size(), 2u);
  double total = 0;
  for (const auto& row : results[0].rows) {
    total += row[1].AsDouble().value();
  }
  EXPECT_EQ(total, 10.0);
}

TEST_F(SessionTest, TableValuedFunctionExplodesArray) {
  // Sec. 5.1: "Arrays can be converted to tables by various table-valued
  // functions, e.g. ToTable, MatrixToTable etc."
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_4(10, 20, 30, 40)");
  auto rows = Run("SELECT ix, v FROM FloatArray.ToTable(@a)");
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].rows.size(), 4u);
  EXPECT_EQ(rows[0].rows[2][0].AsInt().value(), 2);
  EXPECT_EQ(rows[0].rows[2][1].AsDouble().value(), 30.0);
}

TEST_F(SessionTest, MatrixToTableYieldsTwoIndexColumns) {
  Run("DECLARE @m VARBINARY(100) = FloatArray.Matrix_2(1, 2, 3, 4)");
  auto rows = Run("SELECT ix, iy, v FROM FloatArray.MatrixToTable(@m)");
  ASSERT_EQ(rows[0].rows.size(), 4u);
  // Column-major: second row is (1, 0, 2.0).
  EXPECT_EQ(rows[0].rows[1][0].AsInt().value(), 1);
  EXPECT_EQ(rows[0].rows[1][1].AsInt().value(), 0);
  EXPECT_EQ(rows[0].rows[1][2].AsDouble().value(), 2.0);
}

TEST_F(SessionTest, TvfWithAggregatesAndWhere) {
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_5(1, 2, 3, 4, 5)");
  auto sum = Run("SELECT SUM(v) FROM FloatArray.ToTable(@a) WHERE ix >= 2");
  EXPECT_EQ(sum[0].ScalarResult().value().AsDouble().value(), 12.0);
  auto count = Run("SELECT COUNT(*) FROM FloatArray.ToTable(@a)");
  EXPECT_EQ(count[0].ScalarResult().value().AsInt().value(), 5);
}

TEST_F(SessionTest, TvfRoundTripThroughConcat) {
  // Explode an array to rows and reassemble it with the Concat aggregate.
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_3(7, 8, 9)");
  Run("DECLARE @dims VARBINARY(100) = IntArray.Vector_1(3)");
  Run("DECLARE @back VARBINARY(MAX)");
  Run("SELECT @back = FloatArrayMax.Concat(@dims, ix, v) "
      "FROM FloatArray.ToTable(@a)");
  OwnedArray back = VarArray("back");
  EXPECT_EQ(back.dims(), (Dims{3}));
  EXPECT_EQ(back.ref().GetDouble(2).value(), 9.0);
}

TEST_F(SessionTest, TvfErrors) {
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_3(1, 2, 3)");
  // Wrong rank for MatrixToTable.
  EXPECT_FALSE(
      session_.Execute("SELECT v FROM FloatArray.MatrixToTable(@a)").ok());
  // Wrong schema.
  EXPECT_FALSE(
      session_.Execute("SELECT v FROM IntArray.ToTable(@a)").ok());
  // Unknown TVF.
  EXPECT_FALSE(
      session_.Execute("SELECT v FROM FloatArray.NoSuchTvf(@a)").ok());
  // Wrong arity.
  EXPECT_FALSE(
      session_.Execute("SELECT v FROM FloatArray.ToTable(@a, 1)").ok());
}

TEST_F(SessionTest, InsertIntoSelectCopiesAndTransforms) {
  Run("CREATE TABLE src (id BIGINT, v FLOAT)");
  Run("INSERT INTO src VALUES (1, 1.5), (2, 2.5), (3, 3.5)");
  Run("CREATE TABLE dst (id BIGINT, doubled FLOAT)");
  Run("INSERT INTO dst SELECT id, v * 2 FROM src");
  auto rows = Run("SELECT doubled FROM dst ORDER BY 1");
  ASSERT_EQ(rows[0].rows.size(), 3u);
  EXPECT_EQ(rows[0].rows[0][0].AsDouble().value(), 3.0);
  EXPECT_EQ(rows[0].rows[2][0].AsDouble().value(), 7.0);
}

TEST_F(SessionTest, InsertIntoSelectBuildsVectorTable) {
  // The paper's own test setup, server-side: pack scalar columns into a
  // vector column with one INSERT ... SELECT.
  Run("CREATE TABLE scalars (id BIGINT, v1 FLOAT, v2 FLOAT)");
  Run("INSERT INTO scalars VALUES (1, 1.0, 2.0), (2, 3.0, 4.0)");
  Run("CREATE TABLE vectors (id BIGINT, v VARBINARY(64))");
  Run("INSERT INTO vectors SELECT id, FloatArray.Vector_2(v1, v2) "
      "FROM scalars");
  auto item =
      Run("SELECT SUM(FloatArray.Item_1(v, 1)) FROM vectors");
  EXPECT_EQ(item[0].ScalarResult().value().AsDouble().value(), 6.0);
}

TEST_F(SessionTest, InsertIntoSelectValidation) {
  Run("CREATE TABLE a2 (id BIGINT, v FLOAT)");
  Run("CREATE TABLE b2 (id BIGINT)");
  Run("INSERT INTO a2 VALUES (1, 1.0)");
  // Arity mismatch.
  EXPECT_FALSE(session_.Execute("INSERT INTO b2 SELECT id, v FROM a2").ok());
  // Duplicate keys from the source.
  Run("INSERT INTO b2 SELECT id FROM a2");
  EXPECT_FALSE(session_.Execute("INSERT INTO b2 SELECT id FROM a2").ok());
}

TEST_F(SessionTest, DeleteFromWithWhere) {
  Run("CREATE TABLE d (id BIGINT, v FLOAT)");
  Run("INSERT INTO d VALUES (1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)");
  Run("DELETE FROM d WHERE v > 2.5");
  auto rows = Run("SELECT COUNT(*), SUM(v) FROM d");
  EXPECT_EQ(rows[0].rows[0][0].AsInt().value(), 2);
  EXPECT_EQ(rows[0].rows[0][1].AsDouble().value(), 3.0);

  // Unconditional delete empties the table; reinsertion works.
  Run("DELETE FROM d");
  auto empty = Run("SELECT COUNT(*) FROM d");
  EXPECT_EQ(empty[0].ScalarResult().value().AsInt().value(), 0);
  Run("INSERT INTO d VALUES (1, 9.0)");
  auto one = Run("SELECT COUNT(*) FROM d");
  EXPECT_EQ(one[0].ScalarResult().value().AsInt().value(), 1);
  EXPECT_FALSE(session_.Execute("DELETE FROM missing").ok());
}

TEST_F(SessionTest, OrderByOrdinalAndLabel) {
  Run("CREATE TABLE o (id BIGINT, v FLOAT)");
  Run("INSERT INTO o VALUES (1, 3.0), (2, 1.0), (3, 2.0)");
  auto asc = Run("SELECT id, v AS val FROM o ORDER BY 2");
  ASSERT_EQ(asc[0].rows.size(), 3u);
  EXPECT_EQ(asc[0].rows[0][0].AsInt().value(), 2);
  EXPECT_EQ(asc[0].rows[2][0].AsInt().value(), 1);

  auto desc = Run("SELECT id, v AS val FROM o ORDER BY val DESC");
  EXPECT_EQ(desc[0].rows[0][0].AsInt().value(), 1);

  auto grouped = Run(
      "SELECT id % 2, COUNT(*) FROM o GROUP BY id % 2 ORDER BY 1 DESC");
  EXPECT_EQ(grouped[0].rows[0][0].AsInt().value(), 1);
  EXPECT_EQ(grouped[0].rows[1][0].AsInt().value(), 0);

  EXPECT_FALSE(session_.Execute("SELECT id FROM o ORDER BY 5").ok());
  EXPECT_FALSE(session_.Execute("SELECT id FROM o ORDER BY nope").ok());
}

TEST_F(SessionTest, OrderByMultipleKeys) {
  Run("CREATE TABLE m (id BIGINT, a BIGINT, b FLOAT)");
  Run("INSERT INTO m VALUES (1, 1, 2.0), (2, 0, 9.0), (3, 1, 1.0), "
      "(4, 0, 3.0)");
  auto rows = Run("SELECT a, b, id FROM m ORDER BY 1, 2 DESC");
  // a ascending, then b descending within each a.
  EXPECT_EQ(rows[0].rows[0][2].AsInt().value(), 2);  // (0, 9)
  EXPECT_EQ(rows[0].rows[1][2].AsInt().value(), 4);  // (0, 3)
  EXPECT_EQ(rows[0].rows[2][2].AsInt().value(), 1);  // (1, 2)
  EXPECT_EQ(rows[0].rows[3][2].AsInt().value(), 3);  // (1, 1)
}

TEST_F(SessionTest, MathUdfsFromSql) {
  Run("DECLARE @v VARBINARY(MAX) = "
      "FloatArrayMax.From(FloatArray.Vector_4(1, 2, 3, 4))");
  Run("DECLARE @f VARBINARY(MAX)");
  Run("SET @f = FloatArrayMax.FFTForward(@v)");
  OwnedArray f = VarArray("f");
  EXPECT_EQ(f.dtype(), DType::kComplex128);
  // DC bin = sum of inputs.
  EXPECT_NEAR(f.ref().GetComplex(0).value().real(), 10.0, 1e-9);
}

TEST_F(SessionTest, StorageCorruptionSurfacesAsSessionError) {
  // A rotted page under a query must come back to the client as a
  // kCorruption status naming the page — never a crash or a wrong answer.
  Run("CREATE TABLE rot (id BIGINT, v FLOAT)");
  for (int k = 0; k < 40; ++k) {
    Run("INSERT INTO rot VALUES (" + std::to_string(k) + ", 1.5)");
  }
  storage::Table* table = db_.GetTable("rot").value();
  storage::PageId leaf = table->clustered_index().first_leaf_page();
  db_.ClearCache();
  ASSERT_TRUE(db_.disk()->CorruptPageByte(leaf, 200).ok());

  auto r = session_.Execute("SELECT SUM(v) FROM rot");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find(std::to_string(leaf)),
            std::string::npos)
      << r.status().ToString();

  // Repairing the disk restores service in the same session.
  db_.ClearCache();
  ASSERT_TRUE(db_.disk()->CorruptPageByte(leaf, 200).ok());  // XOR undoes it
  auto ok = session_.Execute("SELECT SUM(v) FROM rot");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value()[0].ScalarResult().value().AsDouble().value(), 60.0);
}

}  // namespace
}  // namespace sqlarray::sql
