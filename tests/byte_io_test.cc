// Checkpoint byte encoding (src/sim/byte_io.h). Crc32, and each of its two
// implementations on its own (the slice-by-8 loop and, on x86-64 CPUs with
// PCLMULQDQ, the carry-less fold), must equal the plain bitwise CRC-32 kept
// here as the reference, for every length and alignment their steps and
// tails can meet; the bulk writer and reader calls, SkipZeros's word steps
// included, must mean the same bytes as their scalar counterparts; a field
// list must encode each field as its type's row of the table in byte_io.h
// says; and a hash table must load with room for a lookup to miss. Labeled
// `snapshot` with the rest of the checkpoint tests.
#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/sim/byte_io.h"
#include "src/sim/flat_map.h"
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

// Crc32's implementations, each held to BitwiseCrc32 alone (Crc32 itself
// runs the one this CPU takes).
enum class Crc32Path { kSlice8, kClmul };
using Crc32Fn = std::uint32_t (*)(const std::uint8_t*, std::size_t, std::uint32_t);

// The implementation `path` names, or null where this target or CPU lacks it.
Crc32Fn Crc32Of(Crc32Path path) {
  if (path == Crc32Path::kSlice8) {
    return byte_io_internal::Crc32Slice8;
  }
#ifdef GRAYSIM_CRC32_CLMUL
  if (byte_io_internal::Crc32ClmulSupported()) {
    return byte_io_internal::Crc32Clmul;
  }
#endif
  return nullptr;
}

class Crc32PathTest : public ::testing::TestWithParam<Crc32Path> {
 protected:
  void SetUp() override {
    crc_ = Crc32Of(GetParam());
    if (crc_ == nullptr) {
      GTEST_SKIP() << "no carry-less CRC on this host: it needs an x86-64 CPU with PCLMULQDQ";
    }
  }

  Crc32Fn crc_ = nullptr;
};

TEST_P(Crc32PathTest, MatchesBitwiseReferenceAtEveryLengthAndStart) {
  const std::vector<std::uint8_t> bytes = RandomBytes(1024 + 16, 0xC1C32);
  for (std::size_t start = 0; start < 16; ++start) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(crc_(bytes.data() + start, len, 0), BitwiseCrc32(bytes.data() + start, len))
          << "start " << start << " length " << len;
    }
  }
}

TEST_P(Crc32PathTest, ContinuesASeedAcrossEvery16ByteSplit) {
  const std::vector<std::uint8_t> bytes = RandomBytes(1024 + 7, 0x5EED16);
  const std::uint32_t whole = BitwiseCrc32(bytes.data(), bytes.size());
  for (std::size_t split = 0; split <= bytes.size(); split += 16) {
    const std::uint32_t head = crc_(bytes.data(), split, 0);
    ASSERT_EQ(crc_(bytes.data() + split, bytes.size() - split, head), whole) << split;
  }
  for (const std::uint32_t seed : {0x00000001u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
    EXPECT_EQ(crc_(bytes.data(), bytes.size(), seed),
              BitwiseCrc32(bytes.data(), bytes.size(), seed));
  }
}

TEST_P(Crc32PathTest, MatchesBitwiseReferenceOverFourMiB) {
  const std::vector<std::uint8_t> bytes = RandomBytes(std::size_t{4} << 20, 0x4D1B);
  EXPECT_EQ(crc_(bytes.data(), bytes.size(), 0), BitwiseCrc32(bytes.data(), bytes.size()));
}

INSTANTIATE_TEST_SUITE_P(Paths, Crc32PathTest,
                         ::testing::Values(Crc32Path::kSlice8, Crc32Path::kClmul),
                         [](const ::testing::TestParamInfo<Crc32Path>& info) {
                           return info.param == Crc32Path::kSlice8 ? "Slice8" : "Clmul";
                         });

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

// SkipZeros's byte loop, the reference for its word steps: how many zero
// bytes open `bytes`, at most `max`.
std::size_t ZerosByByte(const std::vector<std::uint8_t>& bytes, std::size_t max) {
  std::size_t n = 0;
  while (n < std::min(max, bytes.size()) && bytes[n] == 0) {
    ++n;
  }
  return n;
}

TEST(ByteIoTest, SkipZerosMatchesTheByteLoop) {
  // A run of `run` zeros, `start` bytes into the input, that ends at a
  // nonzero byte (with zeros behind it), at `max`, or at the end of input.
  enum class End { kNonzero, kMax, kInput };
  for (const End end : {End::kNonzero, End::kMax, End::kInput}) {
    for (std::size_t start = 0; start < 8; ++start) {
      for (std::size_t run = 0; run <= 70; ++run) {
        std::vector<std::uint8_t> bytes(start + run, 0);
        std::fill(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(start), 0xA5);
        std::size_t max = run + 100;
        if (end == End::kNonzero) {
          bytes.push_back(0x01);
          bytes.resize(bytes.size() + 16, 0);
        } else if (end == End::kMax) {
          bytes.resize(bytes.size() + 16, 0);
          max = run;
        }
        const std::vector<std::uint8_t> tail(bytes.begin() + static_cast<std::ptrdiff_t>(start),
                                             bytes.end());
        const std::size_t expected = ZerosByByte(tail, max);
        ByteReader r(bytes.data(), bytes.size());
        (void)r.Take(start);
        ASSERT_EQ(r.SkipZeros(max), expected) << "start " << start << " run " << run;
        ASSERT_EQ(expected, run);
        ASSERT_EQ(r.remaining(), tail.size() - run) << "start " << start << " run " << run;
        ASSERT_TRUE(r.ok());
      }
    }
  }
}

enum class Color : std::uint8_t { kRed, kGreen, kBlue };
constexpr Color LastEnumerator(Color) { return Color::kBlue; }

struct Item {
  std::string name;
  std::uint32_t id = 0;

  template <class S, class V>
  static constexpr void VisitFields(S& s, V&& v) {
    v("name", s.name);
    v("id", s.id);
  }

  friend bool operator==(const Item&, const Item&) = default;
};

// One field of every row of the type table.
struct Sample {
  bool flag = false;
  std::uint8_t small = 0;
  Color color = Color::kRed;
  std::uint32_t word = 0;
  std::uint64_t wide = 0;
  std::int32_t offset = 0;
  double ratio = 0.0;
  std::string label;
  std::vector<Item> items;
  std::deque<std::int64_t> times;
  std::array<std::uint32_t, 2> pair{};

  template <class S, class V>
  static constexpr void VisitFields(S& s, V&& v) {
    v("flag", s.flag);
    v("small", s.small);
    v("color", s.color);
    v("word", s.word);
    v("wide", s.wide);
    v("offset", s.offset);
    v("ratio", s.ratio);
    v("label", s.label);
    v("items", s.items);
    v("times", s.times);
    v("pair", s.pair);
  }

  friend bool operator==(const Sample&, const Sample&) = default;
};

static_assert(kMinBytes<Item> == 8 + 4);

TEST(ByteIoTest, FieldListsEncodeEachFieldByItsType) {
  // The fewest bytes of a Sample: its scalars, three counts and the pair.
  // (Not a constant expression: a std::deque cannot be built in one.)
  EXPECT_EQ(kMinBytes<Sample>, 1u + 1 + 1 + 4 + 8 + 8 + 8 + 3 * 8 + 2 * 4);

  Sample s;
  s.flag = true;
  s.small = 0xAB;
  s.color = Color::kBlue;
  s.word = 0x01020304;
  s.wide = 0x1122334455667788ULL;
  s.offset = -5;
  s.ratio = 0.25;
  s.label = "gsim";
  s.items = {Item{"a", 1}, Item{"bc", 2}};
  s.times = {-1, 7};
  s.pair = {9, 10};

  ByteWriter expected;
  expected.Bool(true);
  expected.U8(0xAB);
  expected.U8(2);
  expected.U32(0x01020304);
  expected.U64(0x1122334455667788ULL);
  expected.I64(-5);
  expected.F64(0.25);
  expected.Str("gsim");
  expected.U64(2);
  expected.Str("a");
  expected.U32(1);
  expected.Str("bc");
  expected.U32(2);
  expected.U64(2);
  expected.I64(-1);
  expected.I64(7);
  expected.U32(9);
  expected.U32(10);

  ByteWriter w;
  w.Put(s);
  ASSERT_EQ(w.data(), expected.data());

  ByteReader r(w.data().data(), w.size());
  Sample back;
  r.Get(back);
  EXPECT_TRUE(r.Done());
  EXPECT_EQ(back, s);
}

TEST(ByteIoTest, FieldListReaderRejectsEnumsPastTheLastAndOversizedCounts) {
  Sample s;
  ByteWriter w;
  w.Put(s);
  std::vector<std::uint8_t> bytes = w.Take();

  bytes[2] = 3;  // color, one past kBlue
  ByteReader bad_enum(bytes.data(), bytes.size());
  Sample out;
  bad_enum.Get(out);
  EXPECT_FALSE(bad_enum.ok());

  bytes[2] = 0;
  // The item count sits after the 1 + 1 + 1 + 4 + 8 + 8 + 8 bytes of
  // scalars and the empty label's length. Two items need at least 24 bytes
  // behind the count; only the 8-byte deque count and the pair remain.
  constexpr std::size_t kItems = 31 + 8;
  bytes[kItems] = 2;
  ByteReader bad_count(bytes.data(), bytes.size());
  bad_count.Get(out);
  EXPECT_FALSE(bad_count.ok());
  EXPECT_TRUE(out.items.empty()) << "a count the input cannot hold sized the vector";
}

TEST(ByteIoTest, FlatMapReaderRejectsATableWithNoEmptySlot) {
  // A table of 16 slots holding `live` keys 1..live in slots 0..live-1.
  auto table = [](std::uint64_t live) {
    ByteWriter w;
    w.U64(16);
    w.U64(live);
    for (std::uint64_t i = 0; i < live; ++i) {
      w.U64(i);
      w.U64(i + 1);
      w.U32(7);
    }
    return w.Take();
  };
  const std::vector<std::uint8_t> three_quarters = table(12);
  ByteReader ok(three_quarters.data(), three_quarters.size());
  FlatMap<std::uint32_t> m;
  ok.Get(m);
  EXPECT_TRUE(ok.Done());
  EXPECT_EQ(m.size(), 12u);
  EXPECT_EQ(m.Find(99), nullptr);  // a miss ends at an empty slot

  const std::vector<std::uint8_t> full = table(16);
  ByteReader bad(full.data(), full.size());
  bad.Get(m);
  EXPECT_FALSE(bad.ok()) << "a lookup that misses in a full table never returns";
}

}  // namespace
}  // namespace graysim
