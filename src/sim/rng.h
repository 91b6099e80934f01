// Deterministic pseudo-random number generation for simulations and probes.
//
// xoroshiro128++ seeded through splitmix64. Deterministic across platforms
// (unlike std::mt19937 distributions), which keeps every experiment in the
// repository exactly reproducible.
#ifndef SRC_SIM_RNG_H_
#define SRC_SIM_RNG_H_

#include <cassert>
#include <cstdint>

namespace graysim {

// splitmix64: used to expand a single seed into stream state.
[[nodiscard]] constexpr std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoroshiro128++ generator.
class Rng {
 public:
  // Raw generator state, exposed so a machine snapshot can serialize every
  // RNG stream mid-sequence and a forked machine can resume drawing the
  // exact same values. A stream restored from State is indistinguishable
  // from one that kept running.
  struct State {
    std::uint64_t s0 = 0;
    std::uint64_t s1 = 0;

    template <class S, class V>
    static constexpr void VisitFields(S& s, V&& v) {
      v("s0", s.s0);
      v("s1", s.s1);
    }
  };

  explicit Rng(std::uint64_t seed) {
    std::uint64_t sm = seed;
    s0_ = SplitMix64(sm);
    s1_ = SplitMix64(sm);
    if (s0_ == 0 && s1_ == 0) {
      s1_ = 1;
    }
  }

  std::uint64_t Next() {
    const std::uint64_t a = s0_;
    std::uint64_t b = s1_;
    const std::uint64_t result = Rotl(a + b, 17) + a;
    b ^= a;
    s0_ = Rotl(a, 49) ^ b ^ (b << 21);
    s1_ = Rotl(b, 28);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0. Uses rejection sampling to
  // avoid modulo bias.
  std::uint64_t Below(std::uint64_t bound) {
    assert(bound > 0);
    const std::uint64_t threshold = (0ULL - bound) % bound;
    while (true) {
      const std::uint64_t r = Next();
      if (r >= threshold) {
        return r % bound;
      }
    }
  }

  // Uniform in [lo, hi] inclusive.
  std::uint64_t Range(std::uint64_t lo, std::uint64_t hi) {
    assert(lo <= hi);
    return lo + Below(hi - lo + 1);
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  bool Chance(double p) { return NextDouble() < p; }

  [[nodiscard]] State state() const { return State{s0_, s1_}; }
  void set_state(const State& s) {
    s0_ = s.s0;
    s1_ = s.s1;
  }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s0_;
  std::uint64_t s1_;
};

}  // namespace graysim

#endif  // SRC_SIM_RNG_H_
