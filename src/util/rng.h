// Deterministic pseudo-random number generation and the heavy-tailed
// distributions used throughout the synthetic trace generator.
//
// Determinism matters for this project: every dataset (D0..D4) is generated
// from a fixed seed so that tests and benchmark tables are exactly
// reproducible across runs and machines.  We therefore implement our own
// small generator (splitmix64 seeded xoshiro256**) instead of relying on
// std::mt19937 + std::distributions, whose results are not guaranteed to be
// identical across standard library implementations.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace entrace {

// xoshiro256** 1.0 — fast, high-quality 64-bit generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Derive an independent child generator; used to give each subnet /
  // session its own stream so adding traffic to one application does not
  // perturb another.
  Rng fork(std::uint64_t stream_id);

  std::uint64_t next_u64();

  // Uniform double in [0, 1).
  double uniform();
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  bool bernoulli(double p);

  // Exponential with the given mean (NOT rate).  mean must be > 0.
  double exponential(double mean);

  // Bounded Pareto on [lo, hi] with shape alpha.  Classic model for
  // heavy-tailed flow/object sizes (Barford & Crovella).
  double pareto(double alpha, double lo, double hi);

  // Log-normal given the mean and sigma of the underlying normal.
  double lognormal(double mu, double sigma);

  // Standard normal via Box-Muller.
  double normal(double mu, double sigma);

  // Zipf-like rank selection: returns rank in [0, n) with P(r) ~ 1/(r+1)^s.
  // Used for server/object popularity.
  std::size_t zipf(std::size_t n, double s);

  // Pick an index according to the given non-negative weights.
  // Returns weights.size() - 1 if all weights are zero.
  std::size_t weighted(std::span<const double> weights);
  std::size_t weighted(std::initializer_list<double> weights);

 private:
  std::uint64_t s_[4];
};

}  // namespace entrace
