#include "src/util/rng.hpp"

#include <cmath>

namespace abp {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t x = seed;
  for (auto& word : s_) word = splitmix64(x);
  // All-zero state would lock the generator at zero; splitmix64 of any seed
  // cannot produce four zero words, but guard anyway.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform01() noexcept {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Lemire-style rejection-free multiply-shift is fine here; modulo bias for
  // spans far below 2^64 is negligible for simulation purposes, but we use
  // the widening multiply to avoid it anyway.
  const unsigned __int128 m =
      static_cast<unsigned __int128>(next()) * static_cast<unsigned __int128>(span);
  return lo + static_cast<std::int64_t>(m >> 64);
}

double Rng::exponential(double mean) noexcept {
  // Inverse CDF. 1 - u in (0,1] so the log argument is never zero.
  return -mean * std::log(1.0 - uniform01());
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

std::size_t Rng::discrete(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) return 0;
  double r = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (r < w) return i;
    r -= w;
  }
  return weights.size() - 1;
}

Rng Rng::split() noexcept {
  return Rng(next());
}

StreamRng::StreamRng(std::uint64_t seed, std::uint64_t stream) noexcept {
  // Derive the key by hashing both words through SplitMix64 so that nearby
  // seeds and consecutive stream ids land on unrelated keys.
  std::uint64_t x = seed;
  const std::uint64_t a = splitmix64(x);
  x = a ^ stream;
  key_ = splitmix64(x);
}

}  // namespace abp
