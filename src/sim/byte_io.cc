#include "src/sim/byte_io.h"

#include <array>

#ifdef GRAYSIM_CRC32_CLMUL
#include <immintrin.h>
#endif

namespace graysim {
namespace byte_io_internal {
namespace {

// Slice-by-8 tables for the reflected polynomial 0xEDB88320: row 0 is the
// classic bytewise table, and row k advances a byte's contribution past k
// further zero bytes, so eight input bytes fold in with eight lookups.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
    t[0][i] = c;
  }
  for (std::size_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

#ifdef GRAYSIM_CRC32_CLMUL

// One fold step: the 128 bits of `x`, multiplied forward by the distance
// whose constants `k` holds (low qword for x's low half, high qword for its
// high half), added to the 128 input bits found that far ahead.
__attribute__((target("pclmul"))) inline __m128i Fold(__m128i x, __m128i k, __m128i ahead) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11)), ahead);
}

__attribute__((target("pclmul"))) inline __m128i Load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

#endif  // GRAYSIM_CRC32_CLMUL

}  // namespace

std::uint32_t Crc32Slice8(const std::uint8_t* data, std::size_t size, std::uint32_t seed) {
  const Crc32Tables& t = kCrc32Tables;
  std::uint32_t crc = ~seed;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = crc ^ LoadLe32(data);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
          t[3][data[4]] ^ t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]];
  }
  for (; size > 0; ++data, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFFu];
  }
  return ~crc;
}

#ifdef GRAYSIM_CRC32_CLMUL

bool Crc32ClmulSupported() {
  // CPUID, read once per process: a function-local static is initialized
  // exactly once even when several threads make the first call together.
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return supported;
}

// Folding by carry-less multiplication (Gopal et al., "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in the
// bit-reflected form CRC-32 uses. With P the CRC polynomial 0x104C11DB7,
// each fold constant is x^d mod P for a distance d in bits, bit-reversed to
// 32 bits and shifted left once (reflected products land one bit low):
//   d = 4*128 + 32 and 4*128 - 32 fold each of four 128-bit lanes 64 bytes
//   ahead; d = 128 + 32 and 128 - 32 fold one lane 16 bytes ahead; d = 64
//   folds the last 64 bits to 32 plus the 32 zero bits a CRC appends.
// Barrett reduction then takes the 64-bit remainder to 32 bits with
// u = floor(x^64 / P) and P itself, each bit-reversed to 33 bits.
__attribute__((target("pclmul"))) std::uint32_t Crc32Clmul(const std::uint8_t* data,
                                                           std::size_t size, std::uint32_t seed) {
  if (size < 64) {
    return Crc32Slice8(data, size, seed);
  }
  const __m128i k1k2 = _mm_set_epi64x(0x1C6E41596, 0x154442BD4);  // 4*128 -/+ 32
  const __m128i k3k4 = _mm_set_epi64x(0x0CCAA009E, 0x1751997D0);  // 128 -/+ 32
  const __m128i k5 = _mm_set_epi64x(0, 0x163CD6124);              // 64
  const __m128i pu = _mm_set_epi64x(0x1F7011641, 0x1DB710641);    // u, P
  const __m128i low32 = _mm_set_epi32(0, 0, 0, -1);

  // The register adds into the first four bytes, as in the table loop.
  __m128i x0 = _mm_xor_si128(Load(data), _mm_cvtsi32_si128(static_cast<int>(~seed)));
  __m128i x1 = Load(data + 16);
  __m128i x2 = Load(data + 32);
  __m128i x3 = Load(data + 48);
  data += 64;
  size -= 64;
  for (; size >= 64; data += 64, size -= 64) {
    x0 = Fold(x0, k1k2, Load(data));
    x1 = Fold(x1, k1k2, Load(data + 16));
    x2 = Fold(x2, k1k2, Load(data + 32));
    x3 = Fold(x3, k1k2, Load(data + 48));
  }
  x0 = Fold(x0, k3k4, x1);
  x0 = Fold(x0, k3k4, x2);
  x0 = Fold(x0, k3k4, x3);
  for (; size >= 16; data += 16, size -= 16) {
    x0 = Fold(x0, k3k4, Load(data));
  }
  // 128 bits to 64: the low half times x^(128-32), added to the high half.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k3k4, 0x10));
  // 64 bits to 32 plus the appended zeros.
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00),
                     _mm_srli_si128(x0, 4));
  // Barrett: the quotient's estimate times P, cancelling all but 32 bits.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), pu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), pu, 0x00);
  const auto crc =
      static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(q, x0), 4)));
  // Fewer than 16 bytes remain; the table loop takes them from here.
  return Crc32Slice8(data, size, ~crc);
}

#endif  // GRAYSIM_CRC32_CLMUL

}  // namespace byte_io_internal

std::uint32_t Crc32(const std::uint8_t* data, std::size_t size, std::uint32_t seed) {
#ifdef GRAYSIM_CRC32_CLMUL
  if (byte_io_internal::Crc32ClmulSupported()) {
    return byte_io_internal::Crc32Clmul(data, size, seed);
  }
#endif
  return byte_io_internal::Crc32Slice8(data, size, seed);
}

}  // namespace graysim
