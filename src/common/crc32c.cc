#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace sqlarray {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

/// 8 slicing tables, generated once at first use. Table 0 is the classic
/// byte-at-a-time table; table k folds a byte k positions ahead.
struct Crc32cTables {
  std::array<std::array<uint32_t, 256>, 8> t;

  Crc32cTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (int k = 1; k < 8; ++k) {
        crc = (crc >> 8) ^ t[0][crc & 0xFF];
        t[k][i] = crc;
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

#if defined(__x86_64__)

/// Bytes each of the three interleaved streams covers per round. Three
/// blocks plus an 8-byte tail make one 8 KiB page, and 2728 is a multiple
/// of 8 so every stream runs on whole 64-bit words.
constexpr size_t kBlock = 2728;

/// a * b modulo P over GF(2), both in the reflected bit order CRC registers
/// use (bit 31 is x^0).
uint32_t MultiplyModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

/// x^n modulo P, by square-and-multiply.
uint32_t XPowModP(uint64_t n) {
  uint32_t result = 1u << 31;  // x^0
  uint32_t square = 1u << 30;  // x^1
  for (; n != 0; n >>= 1) {
    if (n & 1) result = MultiplyModP(result, square);
    square = MultiplyModP(square, square);
  }
  return result;
}

/// Multiplication by the fixed constant x^(8*kBlock) mod P, one table per
/// byte of the multiplicand (the product is linear in it). Shifting a
/// register by kBlock zero bytes is exactly this multiplication, which is
/// how a stream's CRC is moved past the blocks that follow it.
struct BlockShift {
  std::array<std::array<uint32_t, 256>, 4> t;

  BlockShift() {
    const uint32_t k = XPowModP(8 * kBlock);
    for (uint32_t i = 0; i < 256; ++i) {
      for (int byte = 0; byte < 4; ++byte) {
        t[byte][i] = MultiplyModP(i << (8 * byte), k);
      }
    }
  }

  uint32_t Apply(uint32_t crc) const {
    return t[0][crc & 0xFF] ^ t[1][(crc >> 8) & 0xFF] ^
           t[2][(crc >> 16) & 0xFF] ^ t[3][crc >> 24];
  }
};

const BlockShift& Shift() {
  static const BlockShift shift;
  return shift;
}

bool HaveSse42() {
  static const bool have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return have;
}

/// SSE4.2 CRC32 instruction path. `crc` is the raw register (pre-inverted).
/// The instruction has a 3-cycle latency but issues once per cycle, so three
/// independent streams over consecutive blocks keep it busy; their registers
/// are then recombined: crc(a||b||c) = (crc(a)*K ^ crc(b))*K ^ crc(c) with
/// K = x^(8*kBlock), where b and c start from a zero register.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const uint8_t* p,
                                                        size_t n,
                                                        uint32_t crc) {
  const BlockShift& shift = Shift();
  uint64_t c0 = crc;
  while (n >= 3 * kBlock) {
    uint64_t c1 = 0;
    uint64_t c2 = 0;
    for (size_t i = 0; i < kBlock; i += 8) {
      uint64_t w0, w1, w2;
      std::memcpy(&w0, p + i, 8);
      std::memcpy(&w1, p + kBlock + i, 8);
      std::memcpy(&w2, p + 2 * kBlock + i, 8);
      c0 = _mm_crc32_u64(c0, w0);
      c1 = _mm_crc32_u64(c1, w1);
      c2 = _mm_crc32_u64(c2, w2);
    }
    const uint32_t ab = shift.Apply(static_cast<uint32_t>(c0)) ^
                        static_cast<uint32_t>(c1);
    c0 = shift.Apply(ab) ^ static_cast<uint32_t>(c2);
    p += 3 * kBlock;
    n -= 3 * kBlock;
  }
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    c0 = _mm_crc32_u64(c0, word);
    p += 8;
    n -= 8;
  }
  uint32_t c = static_cast<uint32_t>(c0);
  while (n > 0) {
    c = _mm_crc32_u8(c, *p);
    ++p;
    --n;
  }
  return c;
}

#endif  // __x86_64__

}  // namespace

uint32_t Crc32cPortable(std::span<const uint8_t> data, uint32_t seed) {
  const auto& t = Tables().t;
  uint32_t crc = ~seed;
  const uint8_t* p = data.data();
  size_t n = data.size();

  // Byte-align is unnecessary: we load via memcpy. Process 8 bytes a round.
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    // Little-endian fold: low 4 bytes mix with the running crc.
    crc ^= static_cast<uint32_t>(word);
    uint32_t high = static_cast<uint32_t>(word >> 32);
    crc = t[7][crc & 0xFF] ^ t[6][(crc >> 8) & 0xFF] ^
          t[5][(crc >> 16) & 0xFF] ^ t[4][crc >> 24] ^
          t[3][high & 0xFF] ^ t[2][(high >> 8) & 0xFF] ^
          t[1][(high >> 16) & 0xFF] ^ t[0][high >> 24];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFF];
    ++p;
    --n;
  }
  return ~crc;
}

uint32_t Crc32c(std::span<const uint8_t> data, uint32_t seed) {
#if defined(__x86_64__)
  if (HaveSse42()) return ~Crc32cSse42(data.data(), data.size(), ~seed);
#endif
  return Crc32cPortable(data, seed);
}

}  // namespace sqlarray
