// The workloads. Each builds its inputs from the seed, sets up, runs an
// untimed warm-up, measures for the requested seconds, checks every output
// it can, and times further set-ups (the median is setup_s). Results go to
// the Report; spans to the Tracer when tracing.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

/// Set-ups per run; the report keeps each one and run.py takes the median.
inline constexpr int kSetups = 5;

/// Crash-and-recover cycles per run; recover_s is their median.
inline constexpr int kRestarts = 11;

/// Length of one tracing slice. The traced run alternates untraced and
/// traced slices so obs.trace_overhead_frac compares like with like.
inline constexpr double kTraceSliceSeconds = 1.0;

/// True when the traced run's slice that contains `elapsed_s` is traced.
inline bool TracedSlice(const Options& opts, double elapsed_s) {
  return opts.trace &&
         static_cast<int64_t>(elapsed_s / kTraceSliceSeconds) % 2 == 1;
}

/// Times kSetups - 1 further set-ups, each torn down before the next. They
/// run after the measured environment is gone: extra set-ups made before
/// the window left the measured environment measurably slower.
template <typename SetUpFn>
void RepeatSetUp(const SetUpFn& set_up, Report* report) {
  for (int i = 1; i < kSetups; ++i) {
    const int64_t t0 = NowNs();
    auto env = set_up();
    if (env == nullptr) return;
    report->AddSample("setup_s", SecondsSince(t0));
  }
}

/// Records the host block: nproc, CPU model, kernel tier, build, compiler.
void StampHost(Report* report);

void RunTable1Scan(const Options& opts, Report* report, Tracer* tracer);
void RunSessionMix(const Options& opts, Report* report, Tracer* tracer);
void RunIngest(const Options& opts, Report* report, Tracer* tracer);

}  // namespace perfbench
