// Flow keys: the (src, dst, sport, dport, proto) five-tuple, plus the
// canonical (direction-independent) form used to index the flow table.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/ip_address.h"
#include "util/flat_index.h"

namespace entrace {

struct FiveTuple {
  Ipv4Address src;
  Ipv4Address dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t proto = 0;

  // Direction-independent key: orders (addr, port) pairs so A->B and B->A
  // map to the same flow.
  FiveTuple canonical() const;
  // True if this tuple is already in canonical order.
  bool is_canonical_order() const;
  FiveTuple reversed() const;

  std::string to_string() const;

  // Injective 16-byte packing of the tuple: `lo` carries the addresses,
  // `hi` the ports and protocol in disjoint bit ranges.  The flow table's
  // open-addressing map keys on the packed *canonical* tuple; std::hash
  // packs the tuple as-is (canonicalization is the caller's business).
  std::uint64_t packed_lo() const {
    return (static_cast<std::uint64_t>(src.value()) << 32) | dst.value();
  }
  std::uint64_t packed_hi() const {
    return (static_cast<std::uint64_t>(src_port) << 24) |
           (static_cast<std::uint64_t>(dst_port) << 8) | proto;
  }

  friend auto operator<=>(const FiveTuple&, const FiveTuple&) = default;
};

// The one hash both FiveTuple index structures use, built on the mix64
// finalizer (util/flat_index.h) every open-addressing table here shares.
inline std::uint64_t hash_packed_tuple(std::uint64_t lo, std::uint64_t hi) {
  return mix64(lo ^ mix64(hi ^ 0x9E3779B97F4A7C15ULL));
}

}  // namespace entrace

template <>
struct std::hash<entrace::FiveTuple> {
  std::size_t operator()(const entrace::FiveTuple& t) const noexcept {
    return static_cast<std::size_t>(entrace::hash_packed_tuple(t.packed_lo(), t.packed_hi()));
  }
};
