// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78).
//
// The checksum production storage engines put on every page (SQL Server's
// PAGE_VERIFY CHECKSUM, LevelDB/RocksDB block trailers, ext4 metadata). The
// storage layer stamps each written page with a CRC32C and verifies it on
// read so torn writes and media bit rot surface as kCorruption instead of
// silently wrong query results. On x86-64 CPUs with SSE4.2 (detected once
// per process) it runs on the CRC32 instruction, three streams interleaved;
// everywhere else it runs as slicing-by-8 (Crc32cPortable). Both return
// identical values; bench/bench_checksum measures each.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace sqlarray {

/// CRC32C of `data`, starting from `seed` (pass a previous return value to
/// checksum a byte sequence incrementally). The seed/result are plain CRC
/// values — the pre/post inversion is handled internally.
uint32_t Crc32c(std::span<const uint8_t> data, uint32_t seed = 0);

/// The table-driven slicing-by-8 implementation: Crc32c's path on CPUs
/// without SSE4.2, and the reference tests and benches compare it against.
uint32_t Crc32cPortable(std::span<const uint8_t> data, uint32_t seed = 0);

/// Convenience overload for raw buffers.
inline uint32_t Crc32c(const void* data, size_t size, uint32_t seed = 0) {
  return Crc32c(
      std::span<const uint8_t>(static_cast<const uint8_t*>(data), size), seed);
}

}  // namespace sqlarray
