// Checkpoint byte encoding (src/sim/byte_io.h). The table-driven Crc32 must
// equal the plain bitwise CRC-32 kept here as the reference, for every
// length and alignment its eight-byte steps and bytewise tail can meet; the
// bulk writer and reader calls must mean the same bytes as their scalar
// counterparts. Labeled `snapshot` with the rest of the checkpoint tests.
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/sim/byte_io.h"
#include "src/sim/rng.h"

namespace graysim {
namespace {

// CRC-32 (reflected polynomial 0xEDB88320), one bit at a time.
std::uint32_t BitwiseCrc32(const std::uint8_t* data, std::size_t size, std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (std::uint8_t& b : bytes) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return bytes;
}

TEST(ByteIoTest, Crc32MatchesStandardCheckValue) {
  const std::string check = "123456789";
  const auto* data = reinterpret_cast<const std::uint8_t*>(check.data());
  EXPECT_EQ(Crc32(data, check.size()), 0xCBF43926u);
  EXPECT_EQ(BitwiseCrc32(data, check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(data, 0), 0u);
}

TEST(ByteIoTest, Crc32MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const std::vector<std::uint8_t> bytes = RandomBytes(1024 + 8, 0xC4C32);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(Crc32(bytes.data() + offset, len), BitwiseCrc32(bytes.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(ByteIoTest, Crc32ChainsThroughSeeds) {
  const std::vector<std::uint8_t> bytes = RandomBytes(777, 0x5EED);
  const std::uint32_t whole = BitwiseCrc32(bytes.data(), bytes.size());
  for (std::size_t split = 0; split <= bytes.size(); split += 37) {
    const std::uint32_t head = Crc32(bytes.data(), split);
    EXPECT_EQ(Crc32(bytes.data() + split, bytes.size() - split, head), whole) << split;
  }
  for (const std::uint32_t seed : {0x00000001u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
    EXPECT_EQ(Crc32(bytes.data(), bytes.size(), seed),
              BitwiseCrc32(bytes.data(), bytes.size(), seed));
  }
}

TEST(ByteIoTest, BulkWritesMatchScalarWrites) {
  ByteWriter scalar;
  scalar.U32(0);
  for (int i = 0; i < 5; ++i) {
    scalar.U8(0);
  }
  scalar.U64(0x0123456789ABCDEFULL);

  ByteWriter bulk;
  bulk.U32(0xFFFFFFFFu);
  bulk.Fill(0, 5);
  bulk.U64(0);
  bulk.PatchU32(0, 0);
  bulk.PatchU64(9, 0x0123456789ABCDEFULL);
  EXPECT_EQ(bulk.data(), scalar.data());
}

TEST(ByteIoTest, ReaderTakesAndSkipsInBulk) {
  const std::vector<std::uint8_t> bytes = {0, 0, 0, 7, 0, 1, 2, 3};
  ByteReader r(bytes.data(), bytes.size());
  EXPECT_EQ(r.SkipZeros(2), 2u);    // stops at the limit
  EXPECT_EQ(r.SkipZeros(100), 1u);  // stops at the first nonzero byte
  EXPECT_EQ(r.U8(), 7);
  EXPECT_EQ(r.SkipZeros(100), 1u);
  const std::uint8_t* taken = r.Take(3);
  ASSERT_NE(taken, nullptr);
  EXPECT_EQ(taken, bytes.data() + 5);
  EXPECT_TRUE(r.Done());
  EXPECT_EQ(r.SkipZeros(100), 0u);  // stops at the end
  EXPECT_EQ(r.Take(1), nullptr);    // past the end: fails, and stays failed
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace graysim
