// ingest: a writer session inserts rows carrying short float arrays in
// multi-row transactions (BEGIN, one 4-row INSERT, COMMIT) into one table,
// with WAL and MVCC on. Most of the time goes to WAL
// group commit, B-tree inserts and MVCC commit-apply.
//
// Every row insert logs a full-page image (~8 KiB) and the simulated log
// disk lives in memory, so the window is cut into segments: each sets up a
// fresh database (the table starts with kPreloadRows bulk-loaded rows),
// commits kTxnsPerSegment transactions, crashes with
// WalManager::SimulateCrash(), recovers, and checks that every acknowledged
// row came back unchanged. Segments repeat until the window is spent.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/array.h"
#include "engine/exec.h"
#include "mvcc/mvcc.h"
#include "server/server.h"
#include "sql/parser.h"
#include "storage/table.h"
#include "udfs/register.h"
#include "wal/wal.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sqlarray;
using server::StatementOutcome;

// One writer, on the calling thread: a second one added no throughput (the
// WAL's DML lock serializes commit-apply; 21.4k vs 22.9k rows/s) and its
// lock hand-offs set a commit p99 that flipped between 0.3 ms and 1.3 ms
// from one set of runs to the next. Transaction and array sizes are
// assumptions (small science-catalog rows), not measured traffic.
constexpr int kRowsPerTxn = 4;
constexpr int64_t kPreloadRows = 200000;
constexpr int kArrayLen = 4;
/// Transactions per ingest-then-restart segment. A segment's log stays in
/// memory until its database is torn down, so this bounds the run's peak
/// memory whatever the window length.
constexpr int64_t kTxnsPerSegment = 1000;
/// Bytes of user data per row: id, t and a 4-double array.
constexpr double kUserBytesPerRow = 8 + 8 + 8 * kArrayLen;

struct Env {
  storage::Database db;
  std::unique_ptr<wal::WalManager> wal;
  std::unique_ptr<mvcc::MvccManager> mvcc;
  engine::FunctionRegistry registry;
  engine::Executor executor{&db, &registry};
  std::unique_ptr<server::ArrayServer> server;
  int64_t session = 0;  ///< the writer's session
};

std::unique_ptr<Env> SetUp(const Options& opts, Report* report) {
  auto env = std::make_unique<Env>();
  if (!Ok(udfs::RegisterAllUdfs(&env->registry), report, "setup.udfs")) {
    return nullptr;
  }
  using storage::ColumnType;
  auto schema = storage::Schema::Create({{"id", ColumnType::kInt64, 0},
                                         {"t", ColumnType::kInt64, 0},
                                         {"a", ColumnType::kBinary, 100}});
  auto table = env->db.CreateTable("ingest", std::move(*schema));
  if (!Ok(table.status(), report, "setup.create")) return nullptr;
  {
    auto load = (*table)->StartBulkLoad();
    if (!Ok(load.status(), report, "setup.preload")) return nullptr;
    Rng rng(opts.seed);
    for (int64_t id = 0; id < kPreloadRows; ++id) {
      const int64_t t = rng.UniformInt(0, 1 << 30);
      std::vector<uint8_t> blob =
          RandomArrayBlob({kArrayLen}, StorageClass::kShort, &rng);
      if (!Ok(load->Add({id, t, std::move(blob)}), report, "setup.preload")) {
        return nullptr;
      }
    }
    if (!Ok(load->Finish(), report, "setup.preload")) return nullptr;
  }
  env->wal = std::make_unique<wal::WalManager>(&env->db);
  if (!Ok(env->wal->NoteTableCreated(0, *table), report, "setup.wal") ||
      !Ok(env->wal->Checkpoint(), report, "setup.wal")) {
    return nullptr;
  }
  env->mvcc = std::make_unique<mvcc::MvccManager>(&env->db, env->wal.get());
  if (!Ok(env->mvcc->RefreshVisible(), report, "setup.mvcc")) return nullptr;
  env->server =
      std::make_unique<server::ArrayServer>(&env->executor, server::ServerConfig{});
  env->session = env->server->OpenSession();
  return env;
}

/// The seeded row stream of the writer; keys follow the preloaded ones.
class RowGenerator {
 public:
  explicit RowGenerator(uint64_t seed)
      : rng_(seed * 7919u + 1), next_key_(kPreloadRows) {}

  /// The INSERT of the next transaction; its first key goes to `*first_key`.
  std::string NextInsert(int64_t* first_key) {
    *first_key = next_key_;
    std::string sql = "INSERT INTO ingest VALUES ";
    for (int i = 0; i < kRowsPerTxn; ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s(%lld, %lld, FloatArray.Vector_%d(",
                    i == 0 ? "" : ", ", static_cast<long long>(next_key_),
                    static_cast<long long>(rng_.UniformInt(0, 1 << 30)),
                    kArrayLen);
      sql += buf;
      for (int k = 0; k < kArrayLen; ++k) {
        std::snprintf(buf, sizeof(buf), "%s%.17g", k == 0 ? "" : ", ",
                      rng_.Uniform(-1, 1));
        sql += buf;
      }
      sql += "))";
      ++next_key_;
    }
    return sql;
  }

 private:
  Rng rng_;
  int64_t next_key_;
};

/// What the writer saw in one segment.
struct WriterLog {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t retries = 0;
  std::vector<int64_t> acked_first_keys;
  std::vector<std::string> errors;
};

/// Runs `txns` insert transactions on the writer's session.
void RunWriter(Env* env, int64_t txns, RowGenerator* gen, WriterLog* log,
               bool measured, bool traced, Report* report, Tracer* tracer) {
  server::ArrayServer* srv = env->server.get();
  const int64_t session = env->session;
  const ExecFn exec = [srv, session](std::string_view sql) {
    return srv->Execute(session, sql);
  };
  Tracer* t = traced ? tracer : nullptr;
  for (int64_t n = 0; n < txns; ++n) {
    int64_t first_key = 0;
    const std::string insert = gen->NextInsert(&first_key);
    const int64_t txn_start = NowNs();
    bool ok = true;
    std::string error;
    for (const std::string& sql :
         {std::string("BEGIN TRANSACTION"), insert, std::string("COMMIT")}) {
      const bool commit = sql == "COMMIT";
      const int64_t stmt = tracer->NextStatementId();
      ScopedSpan root(t, commit ? "client.commit" : "client.statement", stmt);
      if (traced) {
        ScopedSpan span(tracer, "sql.parse", stmt);
        const int64_t t0 = NowNs();
        (void)sql::Parse(sql);
        report->AddSample("parse_us", static_cast<double>(NowNs() - t0) * 1e-3);
      }
      int64_t call_id = 0, call_end = 0;
      auto traced_exec = [&](std::string_view s) {
        ScopedSpan span(t, "server.execute", stmt);
        StatementOutcome out = exec(s);
        call_id = span.id();
        call_end = NowNs();
        return out;
      };
      OpResult r = RunWithRetry(traced_exec, sql, /*rollback_on_conflict=*/false);
      if (measured) {
        log->retries += r.retries;
        report->AddSample("stmt_ms", r.latency_ms);
        report->AddSample("rows_scanned",
                          static_cast<double>(r.outcome.stats.rows_scanned));
        report->AddSample("udf_calls",
                          static_cast<double>(r.outcome.stats.udf_calls));
        report->AddSample("rows_returned", 0);
        if (commit) report->AddSample("commit_ms", r.latency_ms);
        if (traced) {
          tracer->AddSpan(
              "engine.exec", call_id, stmt,
              call_end - static_cast<int64_t>(r.outcome.stats.wall_seconds * 1e9),
              call_end);
          report->AddSample("codec_us", CodecMicros(r.outcome));
        }
      }
      if (!r.outcome.ok()) {
        ok = false;
        error = r.outcome.status.ToString();
        (void)exec("ROLLBACK");
        break;
      }
    }
    const double txn_ms = static_cast<double>(NowNs() - txn_start) * 1e-6;
    if (ok) log->acked_first_keys.push_back(first_key);
    if (!measured) continue;
    ++log->attempted;
    report->AddSample(traced ? "op_ms.traced" : "op_ms.untraced", txn_ms);
    if (!ok) {
      ++log->failed;
      if (log->errors.size() < 5) log->errors.push_back(error);
    }
  }
}

/// Reads the table back: its fingerprint and row count, and whether every
/// acknowledged transaction's first and last key are present.
bool ReadBack(Env* env, int64_t session, const WriterLog& log, uint64_t* fp,
              int64_t* rows) {
  StatementOutcome out =
      env->server->Execute(session, "SELECT id, t, a FROM ingest");
  if (!out.ok() || out.result_sets.size() != 1) return false;
  *fp = Fingerprint(out.result_sets);
  *rows = static_cast<int64_t>(out.result_sets[0].rows.size());
  std::vector<int64_t> keys;
  for (const auto& row : out.result_sets[0].rows) {
    keys.push_back(row[0].AsInt().ok() ? *row[0].AsInt() : -1);
  }
  for (int64_t k : log.acked_first_keys) {
    if (!std::binary_search(keys.begin(), keys.end(), k) ||
        !std::binary_search(keys.begin(), keys.end(), k + kRowsPerTxn - 1)) {
      return false;
    }
  }
  return true;
}

/// What the measured segments add up to.
struct Totals {
  int64_t rows = 0;
  std::vector<double> plain_scan_ms;
  std::vector<double> udf_scan_ms;
};

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// One ingest-then-restart cycle on a fresh database. Returns the seconds
/// the writer ran, or a negative value when the segment could not run.
double RunSegment(const Options& opts, int index, int64_t txns, bool measured,
                  Report* report, Tracer* tracer, Totals* totals) {
  const bool traced = measured && opts.trace && index % 2 == 1;
  const int64_t setup_start = NowNs();
  std::unique_ptr<Env> env = SetUp(opts, report);
  if (env == nullptr) return -1;
  if (measured) report->AddSample("setup_s", SecondsSince(setup_start));

  RowGenerator gen(opts.seed * 131u + static_cast<uint64_t>(index));
  WriterLog log;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  const auto wal_before = env->wal->log_writer()->group_commit_stats();
  HistoryPeakMonitor history(env->mvcc.get());
  tracer->set_enabled(traced);
  const int64_t start = NowNs();
  RunWriter(env.get(), txns, &gen, &log, measured, traced, report, tracer);
  const double ingest_s = SecondsSince(start);
  tracer->set_enabled(false);
  const int64_t history_peak = history.Stop();
  const auto wal_after = env->wal->log_writer()->group_commit_stats();
  if (!measured) return ingest_s;

  report->AddCounterWindow("window", before,
                           obs::MetricsRegistry::Global().Snapshot());
  report->AddCount("group_commit_flushes", wal_after.flushes - wal_before.flushes);
  report->AddCount("group_commit_committers",
                   wal_after.committers - wal_before.committers);
  report->AddSample("mvcc_history_bytes_peak", static_cast<double>(history_peak));
  report->AddCount("attempted", log.attempted);
  report->AddCount("failed", log.failed);
  report->AddCount("retries", log.retries);
  const int64_t acked_txns = static_cast<int64_t>(log.acked_first_keys.size());
  for (const std::string& e : log.errors) {
    std::fprintf(stderr, "ingest: failed transaction: %s\n", e.c_str());
  }
  totals->rows += acked_txns * kRowsPerTxn;

  const int64_t check = env->server->OpenSession();
  uint64_t fp_before = 0, fp_after = 0;
  int64_t rows_before = 0, rows_after = 0;
  const std::string tag = "ingest.segment" + std::to_string(index);
  report->Check(tag + ".acknowledged_rows_before_crash",
                ReadBack(env.get(), check, log, &fp_before, &rows_before) &&
                    rows_before == kPreloadRows + acked_txns * kRowsPerTxn,
                std::to_string(acked_txns * kRowsPerTxn) + " acknowledged rows, " +
                    std::to_string(rows_before - kPreloadRows) + " present");
  tracer->set_enabled(traced);
  const bool restarted = Restart(env->wal.get(), tag, report, tracer);
  tracer->set_enabled(false);
  if (!restarted) return -1;
  report->Check(tag + ".acknowledged_rows_after_recover",
                ReadBack(env.get(), check, log, &fp_after, &rows_after) &&
                    rows_after == rows_before && fp_after == fp_before,
                std::to_string(rows_after) + " rows after restart, fingerprint " +
                    (fp_after == fp_before ? "equal" : "differs"));

  report->SetHost("pages.ingest",
                  std::to_string(env->db.GetTable("ingest").value()->data_page_count()));
  if (traced && index == 1) {
    MeasureCursorScans(env->db.GetTable("ingest").value(), rows_after, tag,
                       report, tracer);
    RunLayerProbe(&env->executor,
                  {{"SELECT COUNT(*) FROM ingest",
                    "SELECT SUM(FloatArray.Item_1(a, 0)) FROM ingest",
                    "SELECT id, t, a FROM ingest WHERE id < 300"},
                   "SELECT COUNT(*) FROM ingest",
                   "SELECT SUM(dbo.EmptyFunction(a, 0)) FROM ingest"},
                  report, tracer);
  }

  // Scans of the recovered table: a plain COUNT and a UDF aggregate, twice
  // each; the UDF sum must repeat exactly.
  double udf_sum = std::nan("");
  for (int i = 0; i < 2; ++i) {
    int64_t t0 = NowNs();
    StatementOutcome count = env->server->Execute(check, "SELECT COUNT(*) FROM ingest");
    totals->plain_scan_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    report->Check(tag + ".count_scan",
                  count.ok() && count.result_sets.size() == 1 &&
                      count.result_sets[0].rows[0][0].AsInt().ok() &&
                      *count.result_sets[0].rows[0][0].AsInt() == rows_after,
                  "COUNT(*) after restart");
    t0 = NowNs();
    StatementOutcome sum = env->server->Execute(
        check, "SELECT SUM(FloatArray.Item_1(a, 0)) FROM ingest");
    totals->udf_scan_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    const bool sum_ok = sum.ok() && sum.result_sets.size() == 1 &&
                        sum.result_sets[0].rows[0][0].AsDouble().ok();
    const double got = sum_ok ? *sum.result_sets[0].rows[0][0].AsDouble() : 0;
    report->Check(tag + ".udf_scan",
                  sum_ok && (std::isnan(udf_sum) || got == udf_sum),
                  "UDF SUM repeats exactly");
    udf_sum = got;
  }
  (void)env->server->CloseSession(check);
  return ingest_s;
}

}  // namespace

void RunIngest(const Options& opts, Report* report, Tracer* tracer) {
  report->SetHost("buffer_pool_pages", "8192");
  report->SetHost("rows_per_txn", std::to_string(kRowsPerTxn));
  report->SetHost("txns_per_segment", std::to_string(kTxnsPerSegment));
  report->SetHost("preload_rows", std::to_string(kPreloadRows));
  // Untimed warm-up segment.
  Totals warm_up;
  if (RunSegment(opts, -1, kTxnsPerSegment / 4, false, report, tracer,
                 &warm_up) < 0) {
    return;
  }
  Totals totals;
  const int64_t start = NowNs();
  double ingest_s = 0;
  int segments = 0;
  while (SecondsSince(start) < opts.seconds) {
    const double s = RunSegment(opts, segments++, kTxnsPerSegment, true, report,
                                tracer, &totals);
    if (s < 0) return;
    ingest_s += s;
  }
  report->SetValue("window_s", ingest_s);
  // The verification scans' speed differs from one fresh database to the
  // next (two modes ~40% apart, alike before and after the writes), so the
  // scan metrics are means over every segment; a median of a few segments
  // jumps between the modes.
  report->SetValue("plain_scan_ms", Mean(totals.plain_scan_ms));
  report->SetValue("udf_scan_ms", Mean(totals.udf_scan_ms));
  report->SetValue("rows_committed", static_cast<double>(totals.rows));
  report->SetValue("user_bytes_committed", totals.rows * kUserBytesPerRow);
  report->SetValue("peak_rss_mb", PeakRssMb());
  report->SetValue("segments", segments);
}

}  // namespace perfbench
