// Deterministic random number generation for simulations.
//
// All stochastic inputs of a run (arrival times, turning decisions, car-follower
// dawdling) are drawn from a single seeded stream so that every experiment is
// exactly reproducible. We implement xoshiro256++ (public-domain, Blackman &
// Vigna) rather than relying on std::mt19937 so that the bit stream is stable
// across standard-library implementations, plus the distributions we need:
// uniform, exponential (Poisson inter-arrival times), Poisson counts and
// discrete choice.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace abp {

// xoshiro256++ engine. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  // Seeds the state via SplitMix64 so that nearby seeds give unrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept { return next(); }

  // Next raw 64-bit word of the stream.
  std::uint64_t next() noexcept;

  // Uniform double in [0, 1).
  double uniform01() noexcept;

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  // Exponentially distributed value with the given mean (= 1/rate).
  // Used for Poisson-process inter-arrival times (Table II of the paper).
  double exponential(double mean) noexcept;

  // True with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  // Index sampled according to `weights` (non-negative, not all zero).
  // Used for turning-probability draws (Table I).
  std::size_t discrete(std::span<const double> weights) noexcept;

  // Splits off an independent child stream; used to give each intersection /
  // entry road its own stream while keeping one master seed per run.
  Rng split() noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

// Counter-based (Philox-style) random stream: the value of draw k of stream s
// is a pure function mix(key(seed, s), k), with no state evolution beyond the
// counter. The micro sim's lane sweep gives every road its own stream, so the
// draws a road consumes depend only on that road's vehicle history. The mixer
// is four rounds of the Philox 2x64 bumped-key multiply-hi/lo round function
// (Salmon et al., SC'11), far more than needed for dawdling noise but still a
// handful of nanoseconds per draw.
class StreamRng {
 public:
  using result_type = std::uint64_t;

  StreamRng() noexcept = default;
  // Stream `stream` of master seed `seed`. Distinct (seed, stream) pairs give
  // statistically independent sequences.
  StreamRng(std::uint64_t seed, std::uint64_t stream) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept { return next(); }

  // Draw `ctr` of the stream keyed by `key`: four bumped-key Philox 2x64
  // rounds over (counter, key). A pure function — the determinism story of
  // the per-road streams, and what makes bulk draws possible: draw k is the
  // same value whether it is taken alone, in sequence, or in a batch.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t key, std::uint64_t ctr) noexcept {
    constexpr std::uint64_t kMul = 0xd2b74407b1ce6e93ULL;   // Philox M2x64
    constexpr std::uint64_t kWeyl = 0x9e3779b97f4a7c15ULL;  // golden-ratio bump
    std::uint64_t x0 = ctr;
    std::uint64_t x1 = key;
    std::uint64_t k = key;
    for (int round = 0; round < 4; ++round) {
      const unsigned __int128 product =
          static_cast<unsigned __int128>(x0) * static_cast<unsigned __int128>(kMul);
      const std::uint64_t hi = static_cast<std::uint64_t>(product >> 64);
      const std::uint64_t lo = static_cast<std::uint64_t>(product);
      x0 = hi ^ k ^ x1;
      x1 = lo;
      k += kWeyl;
    }
    return x0 ^ x1;
  }

  // Word -> uniform double in [0, 1): the 53-bit construction of Rng::uniform01.
  [[nodiscard]] static double to_u01(std::uint64_t word) noexcept {
    return static_cast<double>(word >> 11) * 0x1.0p-53;
  }

  // Next word of the stream: mixes the key with the counter, then advances
  // the counter. Inline: this is one draw per vehicle-step in the micro-sim
  // sweep, and a cross-TU call per draw is measurable at scale.
  std::uint64_t next() noexcept { return mix(key_, counter_++); }

  // Uniform double in [0, 1). Same 53-bit construction as Rng::uniform01.
  double uniform01() noexcept { return to_u01(next()); }

  // Bulk draw: fills dst[0..n) with exactly the values n sequential
  // uniform01() calls would produce, and advances the counter by n — the
  // stream-position accounting is indistinguishable from n scalar draws.
  // Because draw k is a pure function of (key, k), the loop body has no
  // loop-carried state: the four-round mixers of independent counters
  // pipeline across iterations instead of serializing on a state update,
  // which is what makes the micro-sim's per-lane bulk dawdle fill cheaper
  // than n scalar next() calls even though the arithmetic is identical.
  void fill_u01(double* dst, std::size_t n) noexcept {
    const std::uint64_t base = counter_;
    for (std::size_t j = 0; j < n; ++j) dst[j] = to_u01(mix(key_, base + j));
    counter_ += n;
  }

  // Bulk draw in tail-first consumption order: dst[i] receives draw
  // base + (n-1-i), so a kernel that assigns draws to lane slots head-first
  // (slot 0 = head) reproduces bit-for-bit the stream a tail-first scalar
  // loop (slot n-1 drawn first) consumed. Same counter advance as fill_u01;
  // only the destination order differs, keeping the hot speed-update loop's
  // read of the draws contiguous and forward.
  void fill_u01_tailfirst(double* dst, std::size_t n) noexcept {
    const std::uint64_t base = counter_;
    for (std::size_t j = 0; j < n; ++j) dst[n - 1 - j] = to_u01(mix(key_, base + j));
    counter_ += n;
  }

  // Uniform integer in [0, bound), unbiased, for bound >= 1. Lemire's
  // multiply-shift rejection (Lemire 2019, "Fast Random Integer Generation in
  // an Interval"): the naive `next() % bound` over-weights the low residues
  // whenever bound does not divide 2^64 — a small but real skew that a
  // uniformity test can pin. The widening multiply maps a 64-bit word onto
  // [0, bound) with its fractional part in the low word; only draws landing
  // in the partial (short) slice are rejected and redrawn, so almost every
  // call costs exactly one next(). Each accepted value consumes at least one
  // counter step, so bounded draws compose with the counter-accounting
  // contract like any other draw.
  std::uint64_t bounded(std::uint64_t bound) noexcept {
    for (;;) {
      const std::uint64_t word = next();
      unsigned __int128 product =
          static_cast<unsigned __int128>(word) * static_cast<unsigned __int128>(bound);
      const std::uint64_t low = static_cast<std::uint64_t>(product);
      if (low >= bound || low >= (0ULL - bound) % bound) {
        return static_cast<std::uint64_t>(product >> 64);
      }
    }
  }

  // Number of draws consumed so far; settable for replay/skip-ahead.
  [[nodiscard]] std::uint64_t counter() const noexcept { return counter_; }
  void set_counter(std::uint64_t counter) noexcept { counter_ = counter; }

 private:
  std::uint64_t key_ = 0;
  std::uint64_t counter_ = 0;
};

}  // namespace abp
