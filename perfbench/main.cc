// perfbench: runs one benchmark workload and writes its raw report.
//
//   perfbench --workload table1_scan --seed 7 --seconds 10 --trace 0
//             --out report.json [--trace-out spans.jsonl]
//
// run.py builds this binary, runs it and turns the report into metrics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "core/vec_kernels.h"
#include "workloads.h"

namespace perfbench {

void StampHost(Report* report) {
  const unsigned nproc = std::thread::hardware_concurrency();
  report->SetHost("nproc", std::to_string(nproc));
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  report->SetHost("cpu_model", cpu);
  report->SetHost("kernel_tier", sqlarray::col::SimdAvailable() &&
                                         !sqlarray::col::ForceScalarActive()
                                     ? "avx2"
                                     : "scalar");
  report->SetHost("build_type", PERFBENCH_BUILD_TYPE);
  report->SetHost("compiler", PERFBENCH_COMPILER);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--out") {
      opts.out = value;
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (opts.out.empty() || opts.seconds <= 0) {
    std::fprintf(stderr, "usage: perfbench --workload W --seed N --seconds S "
                         "--trace 0|1 --out FILE [--trace-out FILE]\n");
    return 2;
  }
  // Half the cores: on a 4-vCPU host that shows 20-25% CPU steal under
  // load, keeping every vCPU busy made run-to-run spread exceed the
  // benchmark's bounds; half leaves the scheduler room to dodge stolen
  // vCPUs.
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  opts.clients = std::clamp(nproc / 2, 1, 4);

  perfbench::Report report;
  perfbench::Tracer tracer;
  perfbench::StampHost(&report);
  report.SetHost("clients", std::to_string(opts.clients));
  if (opts.workload == "table1_scan") {
    perfbench::RunTable1Scan(opts, &report, &tracer);
  } else if (opts.workload == "session_mix") {
    perfbench::RunSessionMix(opts, &report, &tracer);
  } else if (opts.workload == "ingest") {
    perfbench::RunIngest(opts, &report, &tracer);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", opts.workload.c_str());
    return 2;
  }
  if (!opts.trace_out.empty() && !tracer.WriteJsonl(opts.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", opts.trace_out.c_str());
    return 1;
  }
  if (!report.Write(opts.out)) {
    std::fprintf(stderr, "cannot write %s\n", opts.out.c_str());
    return 1;
  }
  return 0;
}
