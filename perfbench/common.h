// Shared pieces of the benchmark binary: the run report, the span recorder,
// the fixed retry policy and small timing helpers.
//
// The benchmark measures the engine only from outside: it times calls into
// the public API of each module, takes deltas of obs::MetricsRegistry
// counters and reads EXPLAIN ANALYZE profiles. Metric math (percentiles, self time,
// ratios) happens in metrics.py; this side records raw samples.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/array.h"
#include "mvcc/mvcc.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "storage/table.h"
#include "wal/wal.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;        ///< raw report path
  std::string trace_out;  ///< span file path (trace runs)
  int clients = 2;        ///< client threads; table1_scan's reference width
};

// ---------------------------------------------------------------------------
// Spans. Kept in memory while the workload runs and written out at the end.
// A span records its name, start, end, parent span and statement id; the
// parent is the span open on the same thread when it started. Synthetic
// spans (AddSpan) carry a duration the program reported itself, such as
// QueryStats::wall_seconds, placed at the end of their parent's interval.
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name = "";
  int64_t id = 0;
  int64_t parent = 0;  ///< 0 = root
  int64_t stmt = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  /// Spans open only while enabled; the traced run turns this on for
  /// alternate slices of its window.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  int64_t NextStatementId() { return next_stmt_.fetch_add(1) + 1; }

  /// Opens a span on the calling thread; returns 0 when tracing is off.
  int64_t Open(const char* name, int64_t stmt);
  void Close(int64_t id);
  /// Records a finished span under `parent`, ending at `end_ns`.
  void AddSpan(const char* name, int64_t parent, int64_t stmt,
               int64_t start_ns, int64_t end_ns);

  /// All spans recorded so far (closed ones; open spans have end_ns 0).
  std::vector<SpanRecord> Spans() const;
  /// Writes one JSON object per line. Returns false on I/O failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct ThreadBuffer {
    std::vector<SpanRecord> spans;
    std::vector<size_t> open;  ///< stack of indexes into spans
  };
  ThreadBuffer* Buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> next_id_{0};
  std::atomic<int64_t> next_stmt_{0};
  mutable std::mutex mu_;  ///< guards buffers_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Opens a span for the enclosing scope when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t stmt)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Open(name, stmt) : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) tracer_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

// ---------------------------------------------------------------------------
// The raw report one run writes for run.py.
// ---------------------------------------------------------------------------

class Report {
 public:
  void AddSample(const std::string& series, double v) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_[series].push_back(v);
  }
  void SetValue(const std::string& name, double v) {
    std::lock_guard<std::mutex> lock(mu_);
    values_[name] = v;
  }
  void AddCount(const std::string& name, int64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    counts_[name] += n;
  }
  void SetHost(const std::string& key, const std::string& value) {
    std::lock_guard<std::mutex> lock(mu_);
    host_[key] = value;
  }
  /// Records one output check; a failed check fails the run.
  void Check(const std::string& name, bool ok, const std::string& detail);
  /// Registry snapshots bracketing one interval of kind `kind`
  /// ("window" for the measured window, "probe" for the layer probe);
  /// run.py sums the counter deltas over the intervals of a kind.
  void AddCounterWindow(const std::string& kind,
                        const sqlarray::obs::MetricsSnapshot& before,
                        const sqlarray::obs::MetricsSnapshot& after) {
    std::lock_guard<std::mutex> lock(mu_);
    windows_.push_back({kind, before.values(), after.values()});
  }

  bool Write(const std::string& path) const;

 private:
  struct CheckResult {
    std::string name;
    bool ok;
    std::string detail;
  };
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
  std::map<std::string, int64_t> counts_;
  std::map<std::string, std::string> host_;
  std::vector<CheckResult> checks_;
  struct CounterWindow {
    std::string kind;
    std::map<std::string, int64_t> before;
    std::map<std::string, int64_t> after;
  };
  std::vector<CounterWindow> windows_;
};

// ---------------------------------------------------------------------------
// One fixed retry policy for every client.
// ---------------------------------------------------------------------------

/// Write conflicts and admission rejections retry after the outcome's typed
/// retry_after_ms, doubled per attempt and capped, at most kMaxRetries
/// times. Anything else, or running out of retries, fails the operation.
inline constexpr int kMaxRetries = 8;
inline constexpr int64_t kMaxBackoffMs = 50;

using ExecFn = std::function<sqlarray::server::StatementOutcome(std::string_view)>;

struct OpResult {
  sqlarray::server::StatementOutcome outcome;
  int retries = 0;
  double latency_ms = 0;  ///< first submit to final completion
};

/// Runs `sql` through `exec` under the retry policy. `rollback_on_conflict`
/// sends ROLLBACK before a retry (explicit transaction batches).
OpResult RunWithRetry(const ExecFn& exec, std::string_view sql,
                      bool rollback_on_conflict);

/// The blob of an array of Uniform(-1, 1) doubles drawn from `rng`. The
/// payload is filled bytewise: a max array's header leaves it unaligned for
/// double.
std::vector<uint8_t> RandomArrayBlob(sqlarray::Dims dims,
                                     sqlarray::StorageClass storage,
                                     sqlarray::Rng* rng);

/// Records a failed check named `what` unless `st` is OK; returns st.ok().
inline bool Ok(const sqlarray::Status& st, Report* report,
               const std::string& what) {
  if (!st.ok()) report->Check(what, false, st.ToString());
  return st.ok();
}

/// One restart: WalManager::SimulateCrash() then Recover(), timed into the
/// recover_s and recovery_records samples under a wal.recover span.
bool Restart(sqlarray::wal::WalManager* wal, const std::string& workload,
             Report* report, Tracer* tracer);

/// Samples MvccStats::history_bytes every millisecond while alive:
/// retained history is a level, so its peak needs sampling.
class HistoryPeakMonitor {
 public:
  explicit HistoryPeakMonitor(const sqlarray::mvcc::MvccManager* mvcc);
  ~HistoryPeakMonitor() { Stop(); }
  HistoryPeakMonitor(const HistoryPeakMonitor&) = delete;
  HistoryPeakMonitor& operator=(const HistoryPeakMonitor&) = delete;

  /// Stops sampling and returns the peak in bytes.
  int64_t Stop();

 private:
  const sqlarray::mvcc::MvccManager* mvcc_;
  std::atomic<bool> done_{false};
  std::atomic<int64_t> peak_{0};
  std::thread thread_;
};

/// The statements a workload hands to RunLayerProbe: its own reads, and a
/// pair of twins over one table that differ only by a UDF call per row.
struct ProbeStatements {
  std::vector<std::string> reads;
  std::string plain_twin;  ///< e.g. SELECT COUNT(*) FROM t
  std::string udf_twin;    ///< e.g. SELECT SUM(dbo.EmptyFunction(c, 0)) FROM t
};

/// The traced run's layer probe, run after the window on the workload's
/// own executor and data, so every layer is measured on every workload:
///   * admission: two sessions run `reads` at once on a one-slot
///     ArrayServer (gov counters land in a "probe" counter window);
///   * one statement at a time: EXPLAIN ANALYZE (engine operator times),
///     ArrayServer::Execute and NetClient::Execute over loopback (wire
///     latency and codec cost; net counters land in a "wire" counter
///     window);
///   * the twins under EXPLAIN ANALYZE (UDF boundary cost per call).
void RunLayerProbe(sqlarray::engine::Executor* executor,
                   const ProbeStatements& statements, Report* report,
                   Tracer* tracer);

/// Scans `table` three times with a raw B-tree cursor (Table::Scan and
/// Cursor::CopyRows, no engine) and records rows per second; checks that
/// each scan returns `expected_rows`. Spans are named storage.cursor_scan.
void MeasureCursorScans(sqlarray::storage::Table* table, int64_t expected_rows,
                        const std::string& workload, Report* report,
                        Tracer* tracer);

/// Peak resident set of this process, MiB.
double PeakRssMb();

/// Order-sensitive fingerprint of result sets (FNV-1a over the values).
uint64_t Fingerprint(const std::vector<sqlarray::engine::ResultSet>& sets);

/// Microseconds to encode the result sets' values and stats trailer with
/// the net/wire.h codec, CRC32C the payload and decode the values again:
/// the wire codec's cost on these result sets, without the socket. Bytes and
/// frames per statement are not modelled here; they come from the net.*
/// counters around the layer probe's NetClient calls.
double CodecMicros(const sqlarray::server::StatementOutcome& outcome);

}  // namespace perfbench
