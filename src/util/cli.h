// Shared command-line/environment parsing for the bench scaffolding, the
// examples, and the snapshot tools — one place for the "[D0..D4] [scale]"
// positional convention and the ENTRACE_* numeric knobs that used to be
// re-implemented per binary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace entrace::cli {

// ENTRACE_SCALE, falling back to `fallback` when unset, non-positive or
// not finite.
double env_scale(double fallback = 0.02);
// A positive integer environment knob (ENTRACE_BENCH_REPS, ...), falling
// back to `fallback` when unset or non-positive.
int env_int(const char* name, int fallback);

// True for the five paper dataset names D0..D4 (case-sensitive, as
// dataset_by_name expects them).
bool is_dataset_name(const std::string& s);
// Strict positive-double parse ("0.01"); false on garbage, <= 0, NaN, or a
// non-finite value ("inf", or "1e999", which overflows).
bool parse_scale(const std::string& s, double& out);
// Strict non-negative integer parse ("42"); false on a sign, garbage,
// trailing characters, or overflow.  The flag-hardening parser: unlike
// std::atoi it cannot turn "--retain -1" into SIZE_MAX or "--retain x"
// into 0.
bool parse_uint(const std::string& s, std::uint64_t& out);
// Strict non-negative double parse ("0", "1.5"); false on garbage, < 0,
// NaN, or a non-finite value ("inf", or "1e999", which overflows).
bool parse_nonneg_double(const std::string& s, double& out);
// "lo:hi" half-open index range; false unless both halves parse by
// parse_uint's rules (digits only, no overflow) and lo < hi.
bool parse_index_range(const std::string& s, std::size_t& lo, std::size_t& hi);

// The positional "[D0..D4] [scale]" dataset selection: consume up to two
// leading positionals from `args` (either may be omitted; order is name
// then scale).  Returns the number of positionals consumed, or -1 with
// *error set when a positional parses as neither.
struct DatasetArgs {
  std::string name = "D3";
  double scale = 0.02;
};
int parse_dataset_args(std::span<const char* const> args, DatasetArgs& out, std::string* error);

}  // namespace entrace::cli
