// Tests for Status/Result, dimension math, and byte codecs.
#include <gtest/gtest.h>

#include <vector>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/dims.h"
#include "common/rng.h"
#include "common/status.h"

namespace sqlarray {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad thing");
}

TEST(Status, CopyIsCheapAndEqual) {
  Status a = Status::Corruption("x");
  Status b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.code(), StatusCode::kCorruption);
}

TEST(Status, AllCodesHaveNames) {
  for (int i = 0; i <= static_cast<int>(StatusCode::kInternal); ++i) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(i)), "UNKNOWN");
  }
}

TEST(Status, EveryCodeNameIsExact) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OUT_OF_RANGE");
  EXPECT_STREQ(StatusCodeName(StatusCode::kTypeMismatch), "TYPE_MISMATCH");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCorruption), "CORRUPTION");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "ALREADY_EXISTS");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "UNIMPLEMENTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "INTERNAL");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Result, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

Result<int> Doubled(Result<int> in) {
  SQLARRAY_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(Result, AssignOrReturnMacroPropagates) {
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_EQ(Doubled(Status::Internal("x")).status().code(),
            StatusCode::kInternal);
}

TEST(Result, ErrorMessageSurvivesMoves) {
  Result<std::string> a(Status::Corruption("page 17 unreadable"));
  Result<std::string> b = std::move(a);
  Result<std::string> c = std::move(b);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(c.status().message(), "page 17 unreadable");
}

Result<std::vector<int>> Relay(Result<std::vector<int>> in) {
  SQLARRAY_ASSIGN_OR_RETURN(std::vector<int> v, std::move(in));
  return v;
}

TEST(Result, ErrorMessageSurvivesMacroRelayChain) {
  // The message attached at the origin must arrive intact after several
  // SQLARRAY_ASSIGN_OR_RETURN hops — the path every storage fault takes on
  // its way from the disk up to the session.
  auto r = Relay(Relay(Relay(Status::Corruption("checksum mismatch on page 3"))));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(r.status().message(), "checksum mismatch on page 3");
}

TEST(Result, MovedFromValueResultIsReusable) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
  r = Status::NotFound("gone");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  r = std::vector<int>{4, 5};
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST(Crc32c, KnownAnswerVectors) {
  // RFC 3720 appendix test vector for CRC32C (Castagnoli).
  const char* check = "123456789";
  EXPECT_EQ(Crc32c(reinterpret_cast<const uint8_t*>(check), 9), 0xE3069283u);
  // Empty input is the seed itself.
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  // 32 zero bytes (iSCSI test vector).
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  // Incremental computation matches one-shot.
  std::vector<uint8_t> data(1000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  uint32_t oneshot = Crc32c(data.data(), data.size());
  uint32_t split = Crc32c(data.data() + 400, 600,
                          Crc32c(data.data(), 400));
  EXPECT_EQ(oneshot, split);
  // Sensitivity: any single-bit difference changes the sum.
  data[500] ^= 0x10;
  EXPECT_NE(Crc32c(data.data(), data.size()), oneshot);
}

/// Bit-at-a-time CRC32C: the definition both implementations must match.
uint32_t BitwiseCrc32c(const uint8_t* p, size_t n, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
    }
  }
  return ~crc;
}

/// The hardware path interleaves three streams over 2728-byte blocks.
constexpr size_t kCrcBlock = 2728;

struct CrcCase {
  size_t offset;
  size_t length;
  uint32_t seed;
};

/// Every length 0-64, lengths around one, two and three blocks, one page
/// and a page plus a word, then random lengths up to 20,000 bytes at all 8
/// misalignments with random seeds.
std::vector<CrcCase> CrcCases() {
  std::vector<CrcCase> cases;
  for (size_t len = 0; len <= 64; ++len) {
    cases.push_back({len % 8, len, static_cast<uint32_t>(len * 0x9E3779B9u)});
  }
  for (size_t blocks = 1; blocks <= 3; ++blocks) {
    for (size_t len = blocks * kCrcBlock - 9; len <= blocks * kCrcBlock + 9;
         ++len) {
      cases.push_back({len % 8, len, 0});
    }
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    cases.push_back({offset, 8192, 0});
    cases.push_back({offset, 8200, 0xDEADBEEFu});
  }
  Rng rng(1234);
  for (int i = 0; i < 64; ++i) {
    size_t len = static_cast<size_t>(rng.UniformInt(0, 20000));
    for (size_t offset = 0; offset < 8; ++offset) {
      cases.push_back({offset, len, static_cast<uint32_t>(rng.NextU64())});
    }
  }
  return cases;
}

std::vector<uint8_t> CrcBuffer() {
  std::vector<uint8_t> buf(20000 + 8);
  Rng rng(99);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  return buf;
}

TEST(Crc32c, PortableMatchesBitwise) {
  const std::vector<uint8_t> buf = CrcBuffer();
  for (const CrcCase& c : CrcCases()) {
    const uint8_t* p = buf.data() + c.offset;
    EXPECT_EQ(Crc32cPortable({p, c.length}, c.seed),
              BitwiseCrc32c(p, c.length, c.seed))
        << "offset " << c.offset << " length " << c.length;
  }
}

TEST(Crc32c, HardwareMatchesPortableAndBitwise) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("sse4.2")) {
    GTEST_SKIP() << "CPU lacks SSE4.2: Crc32c runs the portable path, "
                    "which PortableMatchesBitwise covers";
  }
#else
  GTEST_SKIP() << "no hardware CRC32C path on this architecture: Crc32c "
                  "runs the portable path, which PortableMatchesBitwise "
                  "covers";
#endif
  const std::vector<uint8_t> buf = CrcBuffer();
  for (const CrcCase& c : CrcCases()) {
    const uint8_t* p = buf.data() + c.offset;
    const uint32_t hw = Crc32c(p, c.length, c.seed);
    EXPECT_EQ(hw, Crc32cPortable({p, c.length}, c.seed))
        << "offset " << c.offset << " length " << c.length;
    EXPECT_EQ(hw, BitwiseCrc32c(p, c.length, c.seed))
        << "offset " << c.offset << " length " << c.length;
  }
}

TEST(Crc32c, ChainsAcrossBlockBoundary) {
  const std::vector<uint8_t> buf = CrcBuffer();
  const size_t total = 8200;
  const uint32_t oneshot = Crc32c(buf.data(), total);
  for (size_t split : {size_t{1}, kCrcBlock - 1, kCrcBlock, kCrcBlock + 3,
                       3 * kCrcBlock - 5, 3 * kCrcBlock + 1, size_t{8192}}) {
    EXPECT_EQ(Crc32c(buf.data() + split, total - split,
                     Crc32c(buf.data(), split)),
              oneshot)
        << "split at " << split;
  }
  // The suffix covers a whole three-block round starting mid-buffer.
  EXPECT_EQ(Crc32c(buf.data() + kCrcBlock + 1, 3 * kCrcBlock,
                   Crc32c(buf.data(), kCrcBlock + 1)),
            Crc32c(buf.data(), 4 * kCrcBlock + 1));
}

TEST(Dims, ElementCountAndStrides) {
  Dims d{3, 4, 5};
  EXPECT_EQ(ElementCount(d), 60);
  Dims s = ColumnMajorStrides(d);
  EXPECT_EQ(s, (Dims{1, 3, 12}));
}

TEST(Dims, ElementCountOfEmptyDimIsZero) {
  Dims d{3, 0, 5};
  EXPECT_EQ(ElementCount(d), 0);
}

TEST(Dims, LinearIndexColumnMajor) {
  Dims d{3, 4};
  // (i, j) -> i + 3j: first index varies fastest.
  EXPECT_EQ(LinearIndex(d, Dims{0, 0}).value(), 0);
  EXPECT_EQ(LinearIndex(d, Dims{1, 0}).value(), 1);
  EXPECT_EQ(LinearIndex(d, Dims{0, 1}).value(), 3);
  EXPECT_EQ(LinearIndex(d, Dims{2, 3}).value(), 11);
}

TEST(Dims, LinearIndexValidation) {
  Dims d{3, 4};
  EXPECT_EQ(LinearIndex(d, Dims{3, 0}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(LinearIndex(d, Dims{-1, 0}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(LinearIndex(d, Dims{0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Dims, UnlinearizeRoundTrip) {
  Dims d{3, 4, 5};
  for (int64_t lin = 0; lin < 60; ++lin) {
    Dims idx = Unlinearize(d, lin);
    EXPECT_EQ(LinearIndex(d, idx).value(), lin);
  }
}

TEST(Dims, ValidateRejectsEmptyAndNegative) {
  EXPECT_FALSE(ValidateDims(Dims{}).ok());
  EXPECT_FALSE(ValidateDims(Dims{2, -1}).ok());
  EXPECT_TRUE(ValidateDims(Dims{2, 0, 3}).ok());
}

TEST(Bytes, RoundTripScalars) {
  uint8_t buf[8];
  EncodeLE<int32_t>(buf, -123456);
  EXPECT_EQ(DecodeLE<int32_t>(buf), -123456);
  EncodeLE<double>(buf, 3.14159);
  EXPECT_DOUBLE_EQ(DecodeLE<double>(buf), 3.14159);
  EncodeLE<int16_t>(buf, -32768);
  EXPECT_EQ(DecodeLE<int16_t>(buf), -32768);
}

TEST(Bytes, LittleEndianLayout) {
  uint8_t buf[4];
  EncodeLE<uint32_t>(buf, 0x01020304);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(Bytes, AppendGrowsVector) {
  std::vector<uint8_t> v;
  AppendLE<int64_t>(&v, 7);
  AppendLE<int16_t>(&v, 1);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(DecodeLE<int64_t>(v.data()), 7);
}

TEST(Rng, DeterministicWithSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
    int64_t k = rng.UniformInt(-5, 5);
    EXPECT_GE(k, -5);
    EXPECT_LE(k, 5);
  }
}

}  // namespace
}  // namespace sqlarray
