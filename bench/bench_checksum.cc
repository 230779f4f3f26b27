// Experiment R1: cost of page checksums (PAGE_VERIFY CHECKSUM stand-in).
//
// Measures raw CRC32C throughput of both implementations, the portable
// slicing-by-8 tables (Crc32cPortable) and the dispatched Crc32c (the SSE4.2
// CRC32 instruction over three interleaved streams where the CPU has it),
// and the wall-clock overhead checksumming adds to the simulated disk's read
// and write paths. The point of reference is the ~7 us of modeled transfer
// time per 8 kB page at the paper's 1150 MB/s: the portable path costs about
// as much CPU per page as that transfer, the hardware path under 1 us.
#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/crc32c.h"
#include "storage/disk.h"

namespace sqlarray::bench {
namespace {

using storage::DiskConfig;
using storage::kPageSize;
using storage::Page;
using storage::PageId;
using storage::SimulatedDisk;

double Seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Raw CRC32C throughput over page-sized buffers, recorded as
/// raw_crc_<name> in pages per second.
void BenchRawCrc(const char* name,
                 uint32_t (*crc)(std::span<const uint8_t>, uint32_t),
                 int64_t pages) {
  std::vector<uint8_t> buf(kPageSize);
  for (int64_t i = 0; i < kPageSize; ++i) {
    buf[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  uint32_t acc = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < pages; ++i) {
    buf[0] = static_cast<uint8_t>(i);  // defeat result caching
    acc ^= crc(buf, 0);
  }
  auto t1 = std::chrono::steady_clock::now();
  double s = Seconds(t0, t1);
  std::printf("raw CRC32C %-10s: %7.0f MB/s  (%.3f us/page, acc=%08x)\n",
              name, pages * kPageSize / s / 1e6, s / pages * 1e6, acc);
  RecordJson("checksum", std::string("raw_crc_") + name, s, pages / s);
}

/// Write+read round trips through the simulated disk.
void BenchDiskPath(bool verify, int64_t pages) {
  DiskConfig config;
  config.verify_checksums = verify;
  SimulatedDisk disk(config);
  std::vector<PageId> ids;
  for (int64_t i = 0; i < pages; ++i) ids.push_back(disk.AllocatePage());

  Page page;
  for (int64_t i = 0; i < kPageSize; ++i) {
    page.data()[i] = static_cast<uint8_t>(i);
  }

  auto w0 = std::chrono::steady_clock::now();
  for (PageId id : ids) disk.WritePage(id, page);
  auto w1 = std::chrono::steady_clock::now();

  Page out;
  auto r0 = std::chrono::steady_clock::now();
  for (PageId id : ids) disk.ReadPage(id, &out);
  auto r1 = std::chrono::steady_clock::now();

  double ws = Seconds(w0, w1), rs = Seconds(r0, r1);
  std::printf("disk %-11s : write %7.0f MB/s (%.3f us/page)  "
              "read %7.0f MB/s (%.3f us/page)\n",
              verify ? "checksummed" : "unchecked",
              pages * kPageSize / ws / 1e6, ws / pages * 1e6,
              pages * kPageSize / rs / 1e6, rs / pages * 1e6);
}

void Run() {
  std::printf("\n=== R1 — page checksum overhead (CRC32C, 8 kB pages) ===\n");
  const int64_t pages = 20000;
  BenchRawCrc("portable", Crc32cPortable, pages);
  BenchRawCrc("dispatched", Crc32c, pages);
  BenchDiskPath(false, pages);
  BenchDiskPath(true, pages);
  std::printf("modeled transfer time per page at 1150 MB/s: %.3f us\n",
              kPageSize / 1150.0);
}

}  // namespace
}  // namespace sqlarray::bench

int main(int argc, char** argv) {
  sqlarray::bench::ParseBenchArgs(argc, argv);
  sqlarray::bench::Run();
  sqlarray::bench::FlushJson();
  return 0;
}
