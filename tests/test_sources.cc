// Contract test for every FROM source the paper's array surface uses:
// user-defined aggregates over a table (FloatArrayMax.Concat, AvgVector,
// ungrouped and GROUP BY) and the ToTable table-valued functions
// (FloatArray and FloatArrayMax) with WHERE, TOP and aggregates. For each
// statement the result fingerprint, rows_scanned, udf_calls, the modeled CPU
// charge and the EXPLAIN ANALYZE operator tree are pinned, and must come out
// the same at every point of the executor grid: workers {1,4} x batch rows
// {1,1024} x columnar pipeline on/off. The UDA statements run once more
// under an MVCC snapshot.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/exec.h"
#include "mvcc/mvcc.h"
#include "sql/session.h"
#include "udfs/register.h"
#include "wal/wal.h"

namespace sqlarray {
namespace {

using engine::ResultSet;
using engine::Value;

constexpr int64_t kRows = 3000;
constexpr int64_t kGroups = 4;

/// FNV-1a over every value's kind tag and raw payload (int64 and float64
/// bits, inline bytes, strings): one-ulp float drift changes it.
std::string Fingerprint(const ResultSet& rs) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (const std::vector<Value>& row : rs.rows) {
    for (const Value& v : row) {
      const auto kind = static_cast<uint8_t>(v.kind());
      mix(&kind, 1);
      if (v.kind() == Value::Kind::kInt64) {
        const int64_t x = v.AsInt().value();
        mix(&x, sizeof(x));
      } else if (v.kind() == Value::Kind::kFloat64) {
        const double d = v.AsDouble().value();
        mix(&d, sizeof(d));
      } else if (v.kind() == Value::Kind::kBytes) {
        const std::vector<uint8_t>* b = v.AsBytes().value();
        mix(b->data(), b->size());
      } else if (v.kind() == Value::Kind::kString) {
        const std::string s = v.AsString().value();
        mix(s.data(), s.size());
      }
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Creates cells(id, ix, g, v) with ids [0, kRows): ix = id, g = id % 4, and
/// an association-sensitive v so any change in fold order moves the bits.
/// Declares @l (the full array's dims), @lg (one group's dims), @a (the
/// column v as one max array) and @s (a short array), the TVF inputs.
void LoadCells(sql::Session* s) {
  ASSERT_TRUE(s->Execute("CREATE TABLE cells "
                         "(id BIGINT, ix BIGINT, g BIGINT, v FLOAT)")
                  .ok());
  std::string values;
  for (int64_t id = 0; id < kRows; ++id) {
    char v[40];
    std::snprintf(v, sizeof(v), "%.17g",
                  static_cast<double>(id) * 0.1 + 1.0 / 3.0);
    if (!values.empty()) values += ", ";
    values += "(" + std::to_string(id) + ", " + std::to_string(id) + ", " +
              std::to_string(id % kGroups) + ", " + v + ")";
    if ((id + 1) % 500 == 0 || id + 1 == kRows) {
      ASSERT_TRUE(s->Execute("INSERT INTO cells VALUES " + values).ok());
      values.clear();
    }
  }
  ASSERT_TRUE(s->Execute("DECLARE @l VARBINARY(100) = IntArray.Vector_1(" +
                         std::to_string(kRows) +
                         "); DECLARE @lg VARBINARY(100) = IntArray.Vector_1(" +
                         std::to_string(kRows / kGroups) +
                         "); DECLARE @s VARBINARY(100) = "
                         "FloatArray.Vector_5(0.1, 0.7, -2.5, 1e10, 0.3); "
                         "DECLARE @a VARBINARY(MAX); "
                         "SELECT @a = FloatArrayMax.Concat(@l, ix, v) "
                         "FROM cells")
                  .ok());
}

/// One statement's observable contract: the result fingerprint, the
/// per-statement counters and the modeled CPU charge (as a hex float, so
/// its bits are compared too).
std::string Outcome(sql::Session* s, const std::string& sql) {
  auto r = s->Execute(sql);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nSQL: " << sql;
  if (!r.ok() || r->size() != 1) return "<error>";
  const ResultSet& rs = (*r)[0];
  char cpu[40];
  std::snprintf(cpu, sizeof(cpu), "%a", rs.stats.cpu_core_seconds);
  return "rows=" + std::to_string(rs.rows.size()) + " fp=" + Fingerprint(rs) +
         " scanned=" + std::to_string(rs.stats.rows_scanned) +
         " udf_calls=" + std::to_string(rs.stats.udf_calls) + " cpu=" + cpu;
}

/// The EXPLAIN ANALYZE operator tree: operator, detail, rows_in, rows_out
/// and udf_calls of every profile row (I/O and timing columns left out).
std::string Tree(sql::Session* s, const std::string& sql) {
  auto r = s->Execute("EXPLAIN ANALYZE " + sql);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nSQL: " << sql;
  if (!r.ok() || r->size() != 1) return "<error>";
  std::string out;
  for (const std::vector<Value>& row : (*r)[0].rows) {
    out += row[0].AsString().value() + "|" + row[1].AsString().value() + "|" +
           std::to_string(row[2].AsInt().value()) + "|" +
           std::to_string(row[3].AsInt().value()) + "|" +
           std::to_string(row[7].AsInt().value()) + "\n";
  }
  return out;
}

struct ContractCase {
  const char* sql;
  const char* outcome;
  const char* tree;
};

const ContractCase kUdaCases[] = {
    {"SELECT FloatArrayMax.Concat(@l, ix, v) FROM cells",
     "rows=1 fp=6bc3fa7e883b0c05 scanned=3000 udf_calls=3000 "
     "cpu=0x1.34a66559f6f24p-3",
     "select|aggregate|0|1|3000\n"
     "  aggregate|row|3000|1|0\n"
     "    scan|cells|0|3000|0\n"
     "  udf|FloatArrayMax.Concat|0|0|3000\n"},
    {"SELECT FloatArrayMax.AvgVector(FloatArray.Vector_2(v, id)) AS m "
     "FROM cells WHERE id % 5 <> 0",
     "rows=1 fp=fe33820123f072d2 scanned=3000 udf_calls=4801 "
     "cpu=0x1.7b37fc122c3f5p-7",
     "select|aggregate|0|1|4801\n"
     "  aggregate|row|2400|1|0\n"
     "    filter|row|3000|2400|0\n"
     "      scan|cells|0|3000|0\n"
     "  udf|FloatArray.Vector_2|0|0|2401\n"
     "  udf|FloatArrayMax.AvgVector|0|0|2400\n"},
    {"SELECT g, FloatArrayMax.Concat(@lg, id / 4, v), COUNT(*) FROM cells "
     "GROUP BY g",
     "rows=4 fp=77c27af71f9d490e scanned=3000 udf_calls=3000 "
     "cpu=0x1.5e0f7fcfc4126p-5",
     "select|group-by|0|4|3000\n"
     "  group-by|row|3000|4|0\n"
     "    scan|cells|0|3000|0\n"
     "  udf|FloatArrayMax.Concat|0|0|3000\n"},
    {"SELECT g, FloatArrayMax.AvgVector(FloatArray.Vector_2(v, ix)), SUM(v) "
     "FROM cells WHERE id >= 7 GROUP BY g",
     "rows=4 fp=212a678c08ba15b6 scanned=3000 udf_calls=5990 "
     "cpu=0x1.e66b1d492b34cp-7",
     "select|group-by|0|4|5990\n"
     "  group-by|row|2993|4|0\n"
     "    filter|row|3000|2993|0\n"
     "      scan|cells|0|3000|0\n"
     "  udf|FloatArray.Vector_2|0|0|2997\n"
     "  udf|FloatArrayMax.AvgVector|0|0|2993\n"},
};

const ContractCase kTvfCases[] = {
    {"SELECT ix, v FROM FloatArrayMax.ToTable(@a) WHERE ix % 7 = 3",
     "rows=429 fp=b808f5d9a7f079b3 scanned=3000 udf_calls=1 "
     "cpu=0x1.7a02fb5d031d8p-10",
     "select|project|0|429|1\n"
     "  filter|row|3000|429|0\n"
     "    scan|tvf FloatArrayMax.ToTable|0|3000|0\n"
     "  udf|FloatArrayMax.ToTable|0|0|1\n"},
    {"SELECT TOP 5 ix, v FROM FloatArrayMax.ToTable(@a) WHERE v > 10",
     "rows=5 fp=d91a946fac5d42f7 scanned=102 udf_calls=1 "
     "cpu=0x1.e288a0cdeb5bcp-11",
     "select|project|0|5|1\n"
     "  filter|row|102|5|0\n"
     "    scan|tvf FloatArrayMax.ToTable|0|102|0\n"
     "  udf|FloatArrayMax.ToTable|0|0|1\n"},
    {"SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) "
     "FROM FloatArrayMax.ToTable(@a) WHERE ix >= 100",
     "rows=1 fp=1a41770bff68a792 scanned=3000 udf_calls=1 "
     "cpu=0x1.ceaf251c18498p-9",
     "select|aggregate|0|1|1\n"
     "  aggregate|row|2900|1|0\n"
     "    filter|row|3000|2900|0\n"
     "      scan|tvf FloatArrayMax.ToTable|0|3000|0\n"
     "  udf|FloatArrayMax.ToTable|0|0|1\n"},
    {"SELECT ix % 3, SUM(v), COUNT(*) FROM FloatArrayMax.ToTable(@a) "
     "GROUP BY ix % 3",
     "rows=3 fp=b5190a1768f963c3 scanned=3000 udf_calls=1 "
     "cpu=0x1.03c8e25c81128p-9",
     "select|group-by|0|3|1\n"
     "  group-by|row|3000|3|0\n"
     "    scan|tvf FloatArrayMax.ToTable|0|3000|0\n"
     "  udf|FloatArrayMax.ToTable|0|0|1\n"},
    {"SELECT FloatArrayMax.Concat(@l, ix, v) FROM FloatArrayMax.ToTable(@a) "
     "WHERE ix < 2000",
     "rows=1 fp=cdfd78db291111db scanned=3000 udf_calls=2001 "
     "cpu=0x1.9ff7164c72cddp-4",
     "select|aggregate|0|1|2001\n"
     "  aggregate|row|2000|1|0\n"
     "    filter|row|3000|2000|0\n"
     "      scan|tvf FloatArrayMax.ToTable|0|3000|0\n"
     "  udf|FloatArrayMax.Concat|0|0|2000\n"
     "  udf|FloatArrayMax.ToTable|0|0|1\n"},
    {"SELECT SUM(v), COUNT(v) FROM FloatArray.ToTable(@s) WHERE ix <> 2",
     "rows=1 fp=23c7899e35486ddf scanned=5 udf_calls=1 "
     "cpu=0x1.87ea6f9ff5ff2p-18",
     "select|aggregate|0|1|1\n"
     "  aggregate|row|4|1|0\n"
     "    filter|row|5|4|0\n"
     "      scan|tvf FloatArray.ToTable|0|5|0\n"
     "  udf|FloatArray.ToTable|0|0|1\n"},
    {"SELECT TOP 3 ix, v * 2 FROM FloatArray.ToTable(@s)",
     "rows=3 fp=25ede85eb5d9be53 scanned=3 udf_calls=1 "
     "cpu=0x1.0f1eabe7a4ea6p-18",
     "select|project|0|3|1\n"
     "  scan|tvf FloatArray.ToTable|0|3|0\n"
     "  udf|FloatArray.ToTable|0|0|1\n"},
};

class SourceContractTest : public ::testing::Test {
 protected:
  SourceContractTest() : executor_(&db_, &registry_), session_(&executor_) {
    EXPECT_TRUE(udfs::RegisterAllUdfs(&registry_).ok());
    // Let parallel-safe plans really fan out on this small table.
    executor_.set_min_pages_per_worker(0);
  }

  /// Checks every case at every grid point against its pinned contract.
  void CheckGrid(const ContractCase* cases, size_t n) {
    for (int workers : {1, 4}) {
      for (int batch : {1, 1024}) {
        for (bool vectorized : {true, false}) {
          executor_.set_scan_workers(workers);
          executor_.set_batch_rows(batch);
          executor_.set_vectorized(vectorized);
          for (size_t i = 0; i < n; ++i) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         " batch=" + std::to_string(batch) +
                         " vectorized=" + std::to_string(vectorized) +
                         "\nSQL: " + cases[i].sql);
            EXPECT_EQ(Outcome(&session_, cases[i].sql), cases[i].outcome);
            EXPECT_EQ(Tree(&session_, cases[i].sql), cases[i].tree);
          }
        }
      }
    }
  }

  storage::Database db_;
  engine::FunctionRegistry registry_;
  engine::Executor executor_;
  sql::Session session_;
};

TEST_F(SourceContractTest, UdaQueriesMatchPinnedContract) {
  ASSERT_NO_FATAL_FAILURE(LoadCells(&session_));
  CheckGrid(kUdaCases, std::size(kUdaCases));
}

TEST_F(SourceContractTest, TvfQueriesMatchPinnedContract) {
  ASSERT_NO_FATAL_FAILURE(LoadCells(&session_));
  CheckGrid(kTvfCases, std::size(kTvfCases));
}

TEST(SourceContractMvcc, UdaQueriesUnderSnapshotMatchPinnedContract) {
  storage::Database db;
  wal::WalManager wal(&db);
  mvcc::MvccManager mvcc(&db, &wal);
  engine::FunctionRegistry registry;
  ASSERT_TRUE(udfs::RegisterAllUdfs(&registry).ok());
  engine::Executor executor(&db, &registry);
  executor.set_min_pages_per_worker(0);
  executor.set_scan_workers(4);
  sql::Session session(&executor);
  ASSERT_NO_FATAL_FAILURE(LoadCells(&session));
  for (const ContractCase& c : kUdaCases) {
    SCOPED_TRACE(c.sql);
    // Plain SELECTs read the latest committed snapshot here.
    EXPECT_EQ(Outcome(&session, c.sql), c.outcome);
  }
}

}  // namespace
}  // namespace sqlarray
