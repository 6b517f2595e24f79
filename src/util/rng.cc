#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

namespace entrace {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // Avoid the all-zero state (cannot occur from splitmix64, but be safe).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::fork(std::uint64_t stream_id) {
  // Mix the stream id into a fresh seed drawn from this generator so that
  // forked streams are decorrelated but deterministic.
  std::uint64_t base = next_u64();
  std::uint64_t x = base ^ (stream_id * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL);
  return Rng(splitmix64(x));
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t range = hi - lo + 1;
  if (range == 0) return next_u64();  // full 64-bit range
  // Rejection-free multiply-shift; bias is negligible for our ranges but we
  // use Lemire's method to keep it exact for small ranges.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * range;
  auto lo128 = static_cast<std::uint64_t>(m);
  if (lo128 < range) {
    const std::uint64_t threshold = -range % range;
    while (lo128 < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * range;
      lo128 = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::uint64_t>(m >> 64);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::exponential(double mean) {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::pareto(double alpha, double lo, double hi) {
  // Inverse-CDF sampling of a bounded Pareto.
  const double u = uniform();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  const double x = std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
  if (x < lo) return lo;
  if (x > hi) return hi;
  return x;
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

double Rng::normal(double mu, double sigma) {
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mu + sigma * r * std::cos(2.0 * std::numbers::pi * u2);
}

namespace {

// Cached harmonic CDF for Rng::zipf.  The sampled rank is a pure function
// of (u, n, s), so memoizing the table across calls cannot change any draw;
// cdf[i] reproduces the exact accumulation order of the original linear
// walk (term/norm added one rank at a time), keeping results bit-identical.
// Thread-local because trace generation runs concurrently on producer
// threads and analysis workers; the handful of (n, s) pairs the generators
// use build once per thread.
struct ZipfCdfCache {
  std::size_t n = 0;
  double s = 0.0;
  std::vector<double> cdf;
};

}  // namespace

std::size_t Rng::zipf(std::size_t n, double s) {
  if (n <= 1) return 0;
  // One uniform draw per call, exactly like the original implementation.
  const double u = uniform();
  thread_local std::vector<ZipfCdfCache> cache;
  const ZipfCdfCache* table = nullptr;
  for (const ZipfCdfCache& e : cache) {
    if (e.n == n && e.s == s) {
      table = &e;
      break;
    }
  }
  if (table == nullptr) {
    if (cache.size() >= 16) cache.clear();  // generators use only a few shapes
    ZipfCdfCache e;
    e.n = n;
    e.s = s;
    double norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      norm += 1.0 / std::pow(static_cast<double>(i + 1), s);
    }
    e.cdf.resize(n);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s) / norm;
      e.cdf[i] = acc;
    }
    cache.push_back(std::move(e));
    table = &cache.back();
  }
  // First rank with u < cdf[rank] — the first-hit condition of the walk.
  const auto it = std::upper_bound(table->cdf.begin(), table->cdf.end(), u);
  if (it == table->cdf.end()) return n - 1;
  return static_cast<std::size_t>(it - table->cdf.begin());
}

std::size_t Rng::weighted(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) total += w > 0 ? w : 0.0;
  if (total <= 0.0) return weights.empty() ? 0 : weights.size() - 1;
  double u = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0 ? weights[i] : 0.0;
    if (u < w) return i;
    u -= w;
  }
  return weights.size() - 1;
}

std::size_t Rng::weighted(std::initializer_list<double> weights) {
  return weighted(std::span<const double>(weights.begin(), weights.size()));
}

}  // namespace entrace
