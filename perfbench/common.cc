#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <thread>

#include "client/net_client.h"
#include "common/crc32c.h"
#include "net/auth.h"
#include "net/net_server.h"
#include "net/wire.h"

namespace perfbench {

using sqlarray::StatusCode;
using sqlarray::server::StatementOutcome;

// --- Tracer -----------------------------------------------------------------

Tracer::ThreadBuffer* Tracer::Buffer() {
  // One buffer per (tracer, thread); the tracer owns it so spans survive the
  // thread. Lookup is by tracer address because a run has one tracer.
  thread_local const Tracer* owner = nullptr;
  thread_local ThreadBuffer* buf = nullptr;
  if (owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buf = buffers_.back().get();
    owner = this;
  }
  return buf;
}

int64_t Tracer::Open(const char* name, int64_t stmt) {
  if (!enabled()) return 0;
  ThreadBuffer* buf = Buffer();
  SpanRecord rec;
  rec.name = name;
  rec.id = next_id_.fetch_add(1) + 1;
  rec.parent = buf->open.empty() ? 0 : buf->spans[buf->open.back()].id;
  rec.stmt = stmt;
  rec.start_ns = NowNs();
  buf->open.push_back(buf->spans.size());
  buf->spans.push_back(rec);
  return rec.id;
}

void Tracer::Close(int64_t id) {
  ThreadBuffer* buf = Buffer();
  // Spans close in LIFO order on their thread (ScopedSpan guarantees it).
  if (buf->open.empty() || buf->spans[buf->open.back()].id != id) return;
  buf->spans[buf->open.back()].end_ns = NowNs();
  buf->open.pop_back();
}

void Tracer::AddSpan(const char* name, int64_t parent, int64_t stmt,
                     int64_t start_ns, int64_t end_ns) {
  if (parent == 0) return;
  ThreadBuffer* buf = Buffer();
  SpanRecord rec;
  rec.name = name;
  rec.id = next_id_.fetch_add(1) + 1;
  rec.parent = parent;
  rec.stmt = stmt;
  rec.start_ns = start_ns;
  rec.end_ns = end_ns;
  buf->spans.push_back(rec);
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : Spans()) {
    if (s.end_ns == 0) continue;
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %" PRId64 ", \"parent\": %" PRId64
                 ", \"stmt\": %" PRId64 ", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 "}\n",
                 s.name, s.id, s.parent, s.stmt, s.start_ns, s.end_ns);
  }
  return std::fclose(f) == 0;
}

// --- Report -----------------------------------------------------------------

void Report::Check(const std::string& name, bool ok, const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  checks_.push_back({name, ok, detail});
  if (!ok) std::fprintf(stderr, "CHECK FAILED %s: %s\n", name.c_str(),
                        detail.c_str());
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename Map, typename Fn>
void WriteObject(std::FILE* f, const char* key, const Map& m, Fn value,
                 bool last = false) {
  std::fprintf(f, "  %s: {", JsonString(key).c_str());
  bool first = true;
  for (const auto& [k, v] : m) {
    std::fprintf(f, "%s\n    %s: %s", first ? "" : ",", JsonString(k).c_str(),
                 value(v).c_str());
    first = false;
  }
  std::fprintf(f, "\n  }%s\n", last ? "" : ",");
}

}  // namespace

bool Report::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  WriteObject(f, "host", host_, [](const std::string& v) { return JsonString(v); });
  WriteObject(f, "values", values_, [](double v) { return JsonNumber(v); });
  WriteObject(f, "counts", counts_,
              [](int64_t v) { return std::to_string(v); });
  WriteObject(f, "samples", samples_, [](const std::vector<double>& v) {
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) s += ", ";
      s += JsonNumber(v[i]);
    }
    return s + "]";
  });
  std::fprintf(f, "  \"counter_windows\": [");
  for (size_t i = 0; i < windows_.size(); ++i) {
    std::fprintf(f, "%s\n  {\n  \"kind\": %s,\n", i == 0 ? "" : ",",
                 JsonString(windows_[i].kind).c_str());
    WriteObject(f, "before", windows_[i].before,
                [](int64_t v) { return std::to_string(v); });
    WriteObject(f, "after", windows_[i].after,
                [](int64_t v) { return std::to_string(v); }, /*last=*/true);
    std::fprintf(f, "  }");
  }
  std::fprintf(f, "\n  ],\n");
  std::fprintf(f, "  \"checks\": [");
  for (size_t i = 0; i < checks_.size(); ++i) {
    std::fprintf(f, "%s\n    {\"name\": %s, \"ok\": %s, \"detail\": %s}",
                 i == 0 ? "" : ",", JsonString(checks_[i].name).c_str(),
                 checks_[i].ok ? "true" : "false",
                 JsonString(checks_[i].detail).c_str());
  }
  std::fprintf(f, "\n  ]\n}\n");
  return std::fclose(f) == 0;
}

// --- Retry policy -------------------------------------------------------------

OpResult RunWithRetry(const ExecFn& exec, std::string_view sql,
                      bool rollback_on_conflict) {
  OpResult r;
  const int64_t start = NowNs();
  for (int attempt = 0;; ++attempt) {
    r.outcome = exec(sql);
    const StatusCode code = r.outcome.status.code();
    const bool conflict = code == StatusCode::kWriteConflict;
    const bool rejected = code == StatusCode::kResourceExhausted;
    if (r.outcome.ok() || !(conflict || rejected) || attempt == kMaxRetries) {
      break;
    }
    if (conflict && rollback_on_conflict) (void)exec("ROLLBACK");
    ++r.retries;
    int64_t wait_ms = std::max<int64_t>(r.outcome.retry_after_ms, 1)
                      << std::min(attempt, 4);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min(wait_ms, kMaxBackoffMs)));
  }
  r.latency_ms = static_cast<double>(NowNs() - start) * 1e-6;
  return r;
}

std::vector<uint8_t> RandomArrayBlob(sqlarray::Dims dims,
                                     sqlarray::StorageClass storage,
                                     sqlarray::Rng* rng) {
  auto arr = sqlarray::OwnedArray::Zeros(sqlarray::DType::kFloat64,
                                         std::move(dims), storage)
                 .value();
  std::vector<double> values(static_cast<size_t>(arr.num_elements()));
  for (double& x : values) x = rng->Uniform(-1, 1);
  std::memcpy(arr.mutable_payload().data(), values.data(),
              values.size() * sizeof(double));
  return std::move(arr).TakeBlob();
}

bool Restart(sqlarray::wal::WalManager* wal, const std::string& workload,
             Report* report, Tracer* tracer) {
  ScopedSpan span(tracer, "wal.recover", tracer->NextStatementId());
  wal->SimulateCrash();
  const int64_t t0 = NowNs();
  auto stats = wal->Recover();
  const double s = SecondsSince(t0);
  if (!Ok(stats.status(), report, workload + ".recover")) return false;
  report->AddSample("recover_s", s);
  report->AddSample("recovery_records",
                    static_cast<double>(stats->records_scanned));
  return true;
}

HistoryPeakMonitor::HistoryPeakMonitor(const sqlarray::mvcc::MvccManager* mvcc)
    : mvcc_(mvcc), thread_([this] {
        while (!done_.load()) {
          peak_ = std::max(peak_.load(), mvcc_->Stats().history_bytes);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }) {}

int64_t HistoryPeakMonitor::Stop() {
  done_ = true;
  if (thread_.joinable()) thread_.join();
  return peak_.load();
}

namespace {

/// The numbers RunLayerProbe reads from one EXPLAIN ANALYZE result.
struct Profile {
  bool ok = false;
  double exec_ms = 0;       ///< root operator wall time
  double scan_busy_ms = 0;  ///< scan operator, summed over workers
  double merge_ms = 0;      ///< aggregate / group-by operator
  int64_t udf_calls = 0;
};

/// Parses EXPLAIN ANALYZE rows: operator, detail, rows_in, rows_out,
/// pages_read, cache_hits, cache_misses, udf_calls, udf_bytes,
/// kernel_calls, boxed_calls, modeled_ms, wall_ms.
Profile ParseProfile(const StatementOutcome& out) {
  Profile p;
  if (!out.ok() || out.result_sets.empty()) return p;
  for (const auto& row : out.result_sets[0].rows) {
    if (row.size() < 13) return p;
    auto op = row[0].AsString();
    auto wall = row[12].AsDouble();
    if (!op.ok() || !wall.ok()) return p;
    const size_t indent = op->find_first_not_of(' ');
    const std::string name = indent == std::string::npos ? "" : op->substr(indent);
    if (name == "select") {
      p.exec_ms = *wall;
      p.udf_calls = row[7].AsInt().ok() ? *row[7].AsInt() : 0;
    } else if (name == "scan") {
      p.scan_busy_ms = *wall;
    } else if (name == "aggregate" || name == "group-by") {
      p.merge_ms = *wall;
    }
  }
  p.ok = true;
  return p;
}

}  // namespace

void RunLayerProbe(sqlarray::engine::Executor* executor,
                   const ProbeStatements& statements, Report* report,
                   Tracer* tracer) {
  namespace sa = sqlarray;
  constexpr int kTwinRepeats = 3;
  sa::server::ServerConfig config;
  config.admission.max_concurrent = 1;
  sa::server::ArrayServer srv(executor, config);
  sa::net::AuthManager auth;
  if (!Ok(auth.AddUser("probe", "probe-pw"), report, "probe.auth")) return;
  sa::net::NetServer net(&srv, &auth);
  if (!Ok(net.Start(), report, "probe.net")) return;
  auto client = sa::client::NetClient::Connect("127.0.0.1", net.port());
  if (!Ok(client.status(), report, "probe.connect") ||
      !Ok((*client)->Authenticate("probe", "probe-pw"), report, "probe.auth")) {
    return;
  }
  const int64_t a = srv.OpenSession();
  const int64_t b = srv.OpenSession();

  // Admission under contention: two sessions, one execution slot.
  auto& registry = sa::obs::MetricsRegistry::Global();
  const sa::obs::MetricsSnapshot before = registry.Snapshot();
  std::thread other([&] {
    for (const std::string& sql : statements.reads) (void)srv.Execute(b, sql);
  });
  for (const std::string& sql : statements.reads) (void)srv.Execute(a, sql);
  other.join();
  report->AddCounterWindow("probe", before, registry.Snapshot());

  // One statement at a time.
  const sa::obs::MetricsSnapshot wire_before = registry.Snapshot();
  tracer->set_enabled(true);
  for (const std::string& sql : statements.reads) {
    const Profile p = ParseProfile(srv.Execute(a, "EXPLAIN ANALYZE " + sql));
    if (p.ok) {
      report->AddSample("scan_ms", p.scan_busy_ms);
      report->AddSample("merge_ms", p.merge_ms);
    }
    const int64_t stmt = tracer->NextStatementId();
    int64_t t0 = NowNs();
    StatementOutcome in_process;
    {
      ScopedSpan span(tracer, "server.execute", stmt);
      in_process = srv.Execute(a, sql);
      const int64_t end = NowNs();
      tracer->AddSpan("engine.exec", span.id(), stmt,
                      end - static_cast<int64_t>(
                                in_process.stats.wall_seconds * 1e9),
                      end);
    }
    const double inproc_ms = static_cast<double>(NowNs() - t0) * 1e-6;
    t0 = NowNs();
    StatementOutcome wire;
    {
      ScopedSpan span(tracer, "client.execute", stmt);
      wire = (*client)->Execute(sql);
    }
    const double wire_ms = static_cast<double>(NowNs() - t0) * 1e-6;
    if (!in_process.ok() || !wire.ok()) {
      report->Check("probe.statement", false, sql);
      continue;
    }
    report->AddSample("probe_inproc_ms", inproc_ms);
    report->AddSample("probe_wire_ms", wire_ms);
    report->AddSample("exec_ms", in_process.stats.wall_seconds * 1e3);
    report->AddSample("codec_us", CodecMicros(in_process));
  }
  tracer->set_enabled(false);
  report->AddCounterWindow("wire", wire_before, registry.Snapshot());

  // The twins: same table, one UDF call per row apart.
  for (int i = 0; i < kTwinRepeats; ++i) {
    const Profile plain =
        ParseProfile(srv.Execute(a, "EXPLAIN ANALYZE " + statements.plain_twin));
    const Profile udf =
        ParseProfile(srv.Execute(a, "EXPLAIN ANALYZE " + statements.udf_twin));
    if (!plain.ok || !udf.ok) {
      report->Check("probe.twins", false, statements.udf_twin);
      continue;
    }
    report->AddSample("twin_plain_busy_ms", plain.scan_busy_ms);
    report->AddSample("twin_udf_busy_ms", udf.scan_busy_ms);
    report->AddSample("twin_udf_calls", static_cast<double>(udf.udf_calls));
  }
  (*client)->Close();
  net.Stop();
}

void MeasureCursorScans(sqlarray::storage::Table* table, int64_t expected_rows,
                        const std::string& workload, Report* report,
                        Tracer* tracer) {
  constexpr int kScans = 3;
  constexpr int32_t kBatchRows = 1024;
  tracer->set_enabled(true);
  std::vector<uint8_t> buf(static_cast<size_t>(table->schema().row_size()) *
                           kBatchRows);
  for (int i = 0; i < kScans; ++i) {
    ScopedSpan span(tracer, "storage.cursor_scan", tracer->NextStatementId());
    const int64_t t0 = NowNs();
    auto cursor = table->Scan();
    int64_t rows = 0;
    bool ok = cursor.ok();
    while (ok) {
      auto got = cursor->CopyRows(kBatchRows, buf.data());
      ok = got.ok();
      if (!ok || *got == 0) break;
      rows += *got;
    }
    report->AddSample("cursor_rows_per_s",
                      static_cast<double>(rows) / SecondsSince(t0));
    report->Check(workload + ".cursor_scan", ok && rows == expected_rows,
                  std::to_string(rows) + " rows, expected " +
                      std::to_string(expected_rows));
  }
  tracer->set_enabled(false);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Fingerprints and codec cost -------------------------------------------

namespace {

void Mix(uint64_t* h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ull;
  }
}

}  // namespace

uint64_t Fingerprint(const std::vector<sqlarray::engine::ResultSet>& sets) {
  using Kind = sqlarray::engine::Value::Kind;
  uint64_t h = 14695981039346656037ull;
  for (const auto& rs : sets) {
    for (const auto& row : rs.rows) {
      for (const auto& v : row) {
        // Blob references travel as bytes over the wire, so both hash as
        // bytes under one tag.
        const Kind kind = v.kind() == Kind::kBlob ? Kind::kBytes : v.kind();
        const uint8_t tag = static_cast<uint8_t>(kind);
        Mix(&h, &tag, 1);
        switch (kind) {
          case Kind::kNull:
            break;
          case Kind::kInt64: {
            int64_t x = v.AsInt().value();
            Mix(&h, &x, sizeof(x));
            break;
          }
          case Kind::kFloat64: {
            double x = v.AsDouble().value();
            Mix(&h, &x, sizeof(x));
            break;
          }
          case Kind::kString: {
            std::string s = v.AsString().value();
            Mix(&h, s.data(), s.size());
            break;
          }
          case Kind::kBytes:
          case Kind::kBlob: {
            auto bytes = v.MaterializeBytes();
            if (bytes.ok()) Mix(&h, bytes->data(), bytes->size());
            break;
          }
        }
      }
    }
  }
  return h;
}

double CodecMicros(const StatementOutcome& outcome) {
  namespace net = sqlarray::net;
  const int64_t start = NowNs();
  net::PayloadWriter w;
  for (const auto& rs : outcome.result_sets) {
    for (const auto& row : rs.rows) {
      for (const auto& v : row) (void)net::AppendValue(&w, v);
    }
  }
  net::AppendStatsTrailer(&w, outcome.stats);
  (void)sqlarray::Crc32c(w.buffer().data(), w.buffer().size());
  net::PayloadReader reader(w.buffer());
  for (const auto& rs : outcome.result_sets) {
    for (const auto& row : rs.rows) {
      for (size_t i = 0; i < row.size(); ++i) (void)net::ReadValue(&reader);
    }
  }
  return static_cast<double>(NowNs() - start) * 1e-3;
}

}  // namespace perfbench
