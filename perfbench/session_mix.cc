// session_mix: a closed loop of sessions on one in-process ArrayServer
// with admission on (one execution slot per session), WAL and MVCC
// attached, and data that fits in the buffer pool. The mix: range COUNTs,
// GROUP BY, a row-returning SELECT of a few hundred rows, Subarray point
// reads of max arrays (blob partial reads), single-row INSERTs into each
// session's private table and the hot-row delete+insert transaction. After
// the window the SELECTs are re-run through NetClient/NetServer over
// loopback and their results compared.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/net_client.h"
#include "common/rng.h"
#include "core/array.h"
#include "engine/exec.h"
#include "mvcc/mvcc.h"
#include "net/auth.h"
#include "net/net_server.h"
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

constexpr int64_t kSharedRows = 20000;
constexpr int kGroupKeys = 17;
constexpr int kArrays = 32;
constexpr int kArrayEdge = 16;  ///< 16^3 doubles = 32 KiB per max array
constexpr int kHotRows = 4;
constexpr int kCrossCheckLimit = 200;
constexpr int kTailInserts = 500;
constexpr int kProbeStatements = 200;
constexpr const char* kUser = "bench";
constexpr const char* kPassword = "bench-pw";

enum class Kind { kCount, kGroupBy, kRows, kSubarray, kInsert, kHot };

/// Sample series of each statement class's latency.
const char* ClassSeries(Kind k) {
  switch (k) {
    case Kind::kCount: return "class_ms.count";
    case Kind::kGroupBy: return "class_ms.group_by";
    case Kind::kRows: return "class_ms.rows";
    case Kind::kSubarray: return "class_ms.subarray";
    case Kind::kInsert: return "class_ms.insert";
    case Kind::kHot: return "class_ms.hot_txn";
  }
  return "class_ms.other";
}

struct Statement {
  Kind kind;
  std::string sql;
  int64_t expected_count = -1;  ///< kCount
  int64_t insert_key = -1;      ///< kInsert
};

/// The seeded statement stream of one session: 30% range COUNT, 15% GROUP
/// BY, 10% 300-row SELECT, 20% Subarray point read, 15% INSERT, 10% hot-row
/// rewrite. The shares are assumptions, not measured or published traffic:
/// they were chosen so the median statement falls inside one class (the
/// range COUNTs, above the 45% of fast point reads and writes) rather than
/// on the edge between the fast statements and the scans, where it jumped
/// from run to run. Each class's own median is reported beside the mix's.
class MixGenerator {
 public:
  MixGenerator(uint64_t seed, int client)
      : rng_(seed * 1000003u + static_cast<uint64_t>(client) + 1),
        client_(client) {}

  Statement Next() {
    const int64_t r = rng_.UniformInt(0, 99);
    Statement s;
    if (r < 30) {
      const int64_t lo = rng_.UniformInt(0, kSharedRows - 1);
      const int64_t hi = lo + rng_.UniformInt(100, 5000);
      s.kind = Kind::kCount;
      s.sql = "SELECT COUNT(*) FROM shared WHERE id >= " + std::to_string(lo) +
              " AND id < " + std::to_string(hi);
      s.expected_count = std::min(hi, kSharedRows) - lo;
    } else if (r < 45) {
      s.kind = Kind::kGroupBy;
      s.sql = "SELECT v, COUNT(*), SUM(w) FROM shared WHERE id < " +
              std::to_string(rng_.UniformInt(1000, kSharedRows)) +
              " GROUP BY v";
    } else if (r < 55) {
      const int64_t lo = rng_.UniformInt(0, kSharedRows - 300);
      s.kind = Kind::kRows;
      s.sql = "SELECT id, v, w FROM shared WHERE id >= " + std::to_string(lo) +
              " AND id < " + std::to_string(lo + 300);
    } else if (r < 75) {
      auto pos = [&] { return std::to_string(rng_.UniformInt(0, kArrayEdge - 2)); };
      s.kind = Kind::kSubarray;
      s.sql = "SELECT FloatArrayMax.Subarray(a, IntArray.Vector_3(" + pos() +
              ", " + pos() + ", " + pos() +
              "), IntArray.Vector_3(2, 2, 2), 0) FROM arrays WHERE id = " +
              std::to_string(rng_.UniformInt(0, kArrays - 1));
    } else if (r < 90) {
      s.kind = Kind::kInsert;
      s.insert_key = next_key_++;
      s.sql = "INSERT INTO p" + std::to_string(client_) + " VALUES (" +
              std::to_string(s.insert_key) + ", " +
              std::to_string(rng_.UniformInt(0, 1000000)) + ")";
    } else {
      const std::string k = std::to_string(rng_.UniformInt(0, kHotRows - 1));
      s.kind = Kind::kHot;
      s.sql = "BEGIN TRANSACTION; DELETE FROM hot WHERE id = " + k +
              "; INSERT INTO hot VALUES (" + k + ", " +
              std::to_string(client_) + "); COMMIT";
    }
    return s;
  }

 private:
  Rng rng_;
  int client_;
  int64_t next_key_ = 0;
};

bool IsWrite(Kind k) { return k == Kind::kInsert || k == Kind::kHot; }

struct Env {
  storage::Database db;
  std::unique_ptr<wal::WalManager> wal;
  std::unique_ptr<mvcc::MvccManager> mvcc;
  engine::FunctionRegistry registry;
  engine::Executor executor{&db, &registry};
  std::unique_ptr<server::ArrayServer> server;
  net::AuthManager auth;
  std::unique_ptr<net::NetServer> net;
  std::vector<int64_t> session_ids;
  std::unique_ptr<client::NetClient> client;  ///< cross-check connection

  ~Env() {
    if (client != nullptr) client->Close();
    if (net != nullptr) net->Stop();
  }
};

/// Starts a NetServer on the environment's ArrayServer and connects one
/// NetClient to it, for the post-window cross-check.
Status StartNet(Env* env) {
  SQLARRAY_RETURN_IF_ERROR(env->auth.AddUser(kUser, kPassword));
  env->net = std::make_unique<net::NetServer>(env->server.get(), &env->auth);
  SQLARRAY_RETURN_IF_ERROR(env->net->Start());
  SQLARRAY_ASSIGN_OR_RETURN(
      env->client, client::NetClient::Connect("127.0.0.1", env->net->port()));
  return env->client->Authenticate(kUser, kPassword);
}

std::unique_ptr<Env> SetUp(const Options& opts, Report* report) {
  auto env = std::make_unique<Env>();
  env->wal = std::make_unique<wal::WalManager>(&env->db);
  env->mvcc = std::make_unique<mvcc::MvccManager>(&env->db, env->wal.get());
  if (!Ok(udfs::RegisterAllUdfs(&env->registry), report, "setup.udfs")) {
    return nullptr;
  }
  server::ServerConfig cfg;
  cfg.admission.enabled = true;
  // One slot per session: with fewer slots than sessions every statement
  // waited on a condition-variable handoff, and on a host with CPU steal
  // that convoy moved run-to-run results by up to 40%.
  cfg.admission.max_concurrent = opts.clients;
  cfg.admission.max_queue = 16;
  env->server = std::make_unique<server::ArrayServer>(&env->executor, cfg);
  const int64_t setup = env->server->OpenSession();
  auto exec = [&](const std::string& sql) {
    return Ok(env->server->Execute(setup, sql).status, report,
              "setup: " + sql.substr(0, 60));
  };

  Rng rng(opts.seed);
  if (!exec("CREATE TABLE shared (id BIGINT, v BIGINT, w FLOAT)")) return nullptr;
  std::string values;
  for (int64_t i = 0; i < kSharedRows; ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s(%lld, %lld, %.17g)",
                  values.empty() ? "" : ", ", static_cast<long long>(i),
                  static_cast<long long>(rng.UniformInt(0, kGroupKeys - 1)),
                  rng.Uniform(-100, 100));
    values += buf;
    if (values.size() > 64000 || i + 1 == kSharedRows) {
      if (!exec("INSERT INTO shared VALUES " + values)) return nullptr;
      values.clear();
    }
  }
  if (!exec("CREATE TABLE arrays (id BIGINT, a VARBINARY(MAX))")) return nullptr;
  for (int k = 0; k < kArrays; ++k) {
    env->server->session(setup)->SetVariable(
        "a", engine::Value::Bytes(RandomArrayBlob(
                 {kArrayEdge, kArrayEdge, kArrayEdge}, StorageClass::kMax, &rng)));
    if (!exec("INSERT INTO arrays VALUES (" + std::to_string(k) + ", @a)")) {
      return nullptr;
    }
  }
  if (!exec("CREATE TABLE hot (id BIGINT, v BIGINT)")) return nullptr;
  if (!exec("INSERT INTO hot VALUES (0, 0), (1, 0), (2, 0), (3, 0)")) {
    return nullptr;
  }
  for (int c = 0; c < opts.clients; ++c) {
    if (!exec("CREATE TABLE p" + std::to_string(c) + " (id BIGINT, v BIGINT)")) {
      return nullptr;
    }
  }
  (void)env->server->CloseSession(setup);
  for (int c = 0; c < opts.clients; ++c) {
    env->session_ids.push_back(env->server->OpenSession());
  }
  return env;
}

/// What one session saw in the measured window.
struct ClientLog {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t retries = 0;
  int64_t rows_inserted = 0;
  std::vector<int64_t> acked_keys;
  std::map<std::string, uint64_t> fingerprints;  ///< SELECT text -> result
  std::vector<std::string> errors;
};

ExecFn ClientExec(Env* env, int c) {
  server::ArrayServer* srv = env->server.get();
  const int64_t id = env->session_ids[c];
  return [srv, id](std::string_view sql) { return srv->Execute(id, sql); };
}

void RunClient(Env* env, int c, const Options& opts, int64_t window_start,
               MixGenerator* gen, bool measured, ClientLog* log, Report* report,
               Tracer* tracer) {
  const ExecFn exec = ClientExec(env, c);
  while (SecondsSince(window_start) < opts.seconds) {
    const bool traced = measured && TracedSlice(opts, SecondsSince(window_start));
    const Statement s = gen->Next();
    const int64_t stmt = tracer->NextStatementId();
    ScopedSpan root(traced ? tracer : nullptr, "client.statement", stmt);
    if (traced) {
      ScopedSpan span(tracer, "sql.parse", stmt);
      const int64_t t0 = NowNs();
      (void)sql::Parse(s.sql);
      report->AddSample("parse_us", static_cast<double>(NowNs() - t0) * 1e-3);
    }
    int64_t call_id = 0, call_end = 0;
    auto traced_exec = [&](std::string_view sql) {
      ScopedSpan span(traced ? tracer : nullptr, "server.execute", stmt);
      StatementOutcome out = exec(sql);
      call_id = span.id();
      call_end = NowNs();
      return out;
    };
    OpResult r = RunWithRetry(traced_exec, s.sql, s.kind == Kind::kHot);
    // Acknowledged inserts count from the warm-up on: they are all in the
    // table at the end.
    if (r.outcome.ok() && s.kind == Kind::kInsert) {
      log->acked_keys.push_back(s.insert_key);
    }
    if (!measured) continue;
    ++log->attempted;
    log->retries += r.retries;
    if (!r.outcome.ok()) {
      ++log->failed;
      if (log->errors.size() < 5) log->errors.push_back(r.outcome.status.ToString());
      continue;
    }
    const StatementOutcome& out = r.outcome;
    report->AddSample("stmt_ms", r.latency_ms);
    report->AddSample(ClassSeries(s.kind), r.latency_ms);
    report->AddSample(traced ? "op_ms.traced" : "op_ms.untraced", r.latency_ms);
    if (!IsWrite(s.kind)) report->AddSample("exec_ms", out.stats.wall_seconds * 1e3);
    report->AddSample("rows_scanned", static_cast<double>(out.stats.rows_scanned));
    report->AddSample("udf_calls", static_cast<double>(out.stats.udf_calls));
    int64_t returned = 0;
    for (const auto& rs : out.result_sets) returned += rs.rows.size();
    report->AddSample("rows_returned", static_cast<double>(returned));
    if (traced) {
      tracer->AddSpan("engine.exec", call_id, stmt,
                      call_end - static_cast<int64_t>(out.stats.wall_seconds * 1e9),
                      call_end);
      report->AddSample("codec_us", CodecMicros(out));
    }
    if (s.kind == Kind::kCount) report->AddSample("plain_scan_ms", r.latency_ms);
    if (s.kind == Kind::kSubarray) report->AddSample("udf_scan_ms", r.latency_ms);
    if (IsWrite(s.kind)) {
      report->AddSample("commit_ms", r.latency_ms);
      ++log->rows_inserted;  // an INSERT or a hot-row rewrite: one row
      continue;
    }
    if (s.kind == Kind::kCount) {
      const bool ok = out.result_sets.size() == 1 &&
                      out.result_sets[0].rows.size() == 1 &&
                      out.result_sets[0].rows[0][0].AsInt().ok() &&
                      *out.result_sets[0].rows[0][0].AsInt() == s.expected_count;
      if (!ok) report->Check("session.count", false, s.sql);
    }
    const uint64_t fp = Fingerprint(out.result_sets);
    auto [it, fresh] = log->fingerprints.emplace(s.sql, fp);
    if (!fresh && it->second != fp) {
      report->Check("session.repeatable_reads", false, s.sql);
    }
  }
}

}  // namespace

void RunSessionMix(const Options& opts, Report* report, Tracer* tracer) {
  const std::string name = "session_mix";
  // The measured environment is the first set-up; the others run after
  // the checks (see RepeatSetUp).
  const int64_t setup_start = NowNs();
  std::unique_ptr<Env> env = SetUp(opts, report);
  if (env == nullptr) return;
  report->AddSample("setup_s", SecondsSince(setup_start));
  for (const char* t : {"shared", "arrays", "hot"}) {
    report->SetHost(std::string("pages.") + t,
                    std::to_string(env->db.GetTable(t).value()->data_page_count()));
  }
  report->SetHost("buffer_pool_pages", "8192");
  report->SetHost("admission_slots", std::to_string(opts.clients));

  std::vector<MixGenerator> gens;
  for (int c = 0; c < opts.clients; ++c) gens.emplace_back(opts.seed, c);
  std::vector<ClientLog> logs(opts.clients);
  auto run_all = [&](double seconds, bool measured) {
    Options o = opts;
    o.seconds = seconds;
    const int64_t start = NowNs();
    std::vector<std::thread> threads;
    for (int c = 0; c < opts.clients; ++c) {
      threads.emplace_back([&, c] {
        RunClient(env.get(), c, o, start, &gens[c], measured, &logs[c], report,
                  tracer);
      });
    }
    for (auto& t : threads) t.join();
    return SecondsSince(start);
  };
  // Untimed warm-up: the first statements of a fresh server run slower
  // (thread pools, allocator, lazily built plans); none of that is timed.
  run_all(std::min(2.0, opts.seconds / 4), /*measured=*/false);

  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  HistoryPeakMonitor history(env->mvcc.get());
  tracer->set_enabled(opts.trace);
  const double window_s = run_all(opts.seconds, /*measured=*/true);
  tracer->set_enabled(false);
  report->AddSample("mvcc_history_bytes_peak",
                    static_cast<double>(history.Stop()));
  report->AddCounterWindow("window", before,
                           obs::MetricsRegistry::Global().Snapshot());
  report->SetValue("window_s", window_s);

  int64_t attempted = 0, failed = 0, retries = 0, rows = 0;
  for (const ClientLog& log : logs) {
    attempted += log.attempted;
    failed += log.failed;
    retries += log.retries;
    rows += log.rows_inserted;
    for (const std::string& e : log.errors) {
      std::fprintf(stderr, "%s: failed statement: %s\n", name.c_str(), e.c_str());
    }
  }
  report->AddCount("attempted", attempted);
  report->AddCount("failed", failed);
  report->AddCount("retries", retries);
  report->SetValue("rows_committed", static_cast<double>(rows));
  report->SetValue("user_bytes_committed", static_cast<double>(rows) * 16.0);

  // Restart cost for a fixed amount of log: checkpoint, then kTailInserts
  // more acknowledged INSERTs per session, so every run replays the same
  // work whatever the window's throughput.
  if (!Ok(env->wal->Checkpoint(), report, name + ".checkpoint")) return;
  for (int c = 0; c < opts.clients; ++c) {
    const ExecFn exec = ClientExec(env.get(), c);
    for (int n = 0; n < kTailInserts;) {
      const Statement s = gens[c].Next();
      if (s.kind != Kind::kInsert) continue;
      ++n;
      if (RunWithRetry(exec, s.sql, false).outcome.ok()) {
        logs[c].acked_keys.push_back(s.insert_key);
      }
    }
  }
  report->SetValue("peak_rss_mb", PeakRssMb());

  // Restart: crash, recover, then check durability through the server.
  tracer->set_enabled(opts.trace);
  for (int i = 0; i < kRestarts; ++i) {
    if (!Restart(env->wal.get(), name, report, tracer)) return;
  }
  tracer->set_enabled(false);

  const int64_t check = env->server->OpenSession();
  for (int c = 0; c < opts.clients; ++c) {
    // Every acknowledged INSERT of the warm-up and the window, nothing else;
    // keys ascend per session, as the clustered scan returns them.
    auto out = env->server->Execute(check, "SELECT id FROM p" + std::to_string(c));
    std::vector<int64_t> got;
    if (out.ok() && out.result_sets.size() == 1) {
      for (const auto& row : out.result_sets[0].rows) {
        got.push_back(row[0].AsInt().ok() ? *row[0].AsInt() : -1);
      }
    }
    report->Check(name + ".private_table_p" + std::to_string(c),
                  out.ok() && got == logs[c].acked_keys,
                  std::to_string(logs[c].acked_keys.size()) +
                      " acknowledged inserts, " + std::to_string(got.size()) +
                      " present");
  }
  auto hot = env->server->Execute(check, "SELECT id FROM hot");
  bool hot_ok = hot.ok() && hot.result_sets.size() == 1 &&
                hot.result_sets[0].rows.size() == kHotRows;
  for (int i = 0; hot_ok && i < kHotRows; ++i) {
    hot_ok = hot.result_sets[0].rows[i][0].AsInt().ok() &&
             *hot.result_sets[0].rows[i][0].AsInt() == i;
  }
  report->Check(name + ".hot_rows", hot_ok, "hot holds exactly 4 rows");

  // Every SELECT's result must match the wire path's.
  if (!Ok(StartNet(env.get()), report, name + ".cross_check_net")) return;
  int64_t compared = 0, mismatched = 0;
  for (const ClientLog& log : logs) {
    for (const auto& [sql, fp] : log.fingerprints) {
      if (compared >= kCrossCheckLimit) break;
      StatementOutcome out = env->client->Execute(sql);
      ++compared;
      if (!out.ok() || Fingerprint(out.result_sets) != fp) {
        ++mismatched;
        std::fprintf(stderr, "%s: fingerprint differs: %s\n", name.c_str(),
                     sql.c_str());
      }
    }
  }
  report->Check(name + ".fingerprints_match_other_path",
                compared > 0 && mismatched == 0,
                std::to_string(compared) + " SELECTs compared, " +
                    std::to_string(mismatched) + " differ");
  report->Check(name + ".statements", attempted >= 1000,
                std::to_string(attempted) + " statements in the window");

  if (opts.trace) {
    MeasureCursorScans(env->db.GetTable("shared").value(), kSharedRows, name,
                       report, tracer);
  }

  if (opts.trace) {
    MixGenerator gen(opts.seed + 7, 0);
    ProbeStatements probe{{},
                          "SELECT COUNT(*) FROM shared",
                          "SELECT SUM(dbo.EmptyFunction(w, 0)) FROM shared"};
    while (static_cast<int>(probe.reads.size()) < kProbeStatements) {
      const Statement s = gen.Next();
      if (!IsWrite(s.kind)) probe.reads.push_back(s.sql);
    }
    RunLayerProbe(&env->executor, probe, report, tracer);
  }
  (void)env->server->CloseSession(check);
  env.reset();
  RepeatSetUp([&] { return SetUp(opts, report); }, report);
}

}  // namespace perfbench
