// IPv4 addresses and subnets.
//
// Addresses are stored in host byte order; serialization to/from the wire is
// the job of net/headers.h.  Subnet is a prefix (address + length) used both
// by the enterprise model (per-subnet taps) and the locality analysis
// (enterprise vs WAN classification).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace entrace {

class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  constexpr explicit Ipv4Address(std::uint32_t value) : value_(value) {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) | (std::uint32_t{c} << 8) | d) {}

  // Parse dotted-quad; returns the unspecified address on failure (use
  // try_parse when failure must be detected).
  static Ipv4Address parse(const std::string& text);
  static bool try_parse(const std::string& text, Ipv4Address& out);

  constexpr std::uint32_t value() const { return value_; }
  std::string to_string() const;

  constexpr bool is_multicast() const { return (value_ >> 28) == 0xE; }  // 224.0.0.0/4
  constexpr bool is_broadcast() const { return value_ == 0xFFFFFFFFu; }
  constexpr bool is_unspecified() const { return value_ == 0; }

  friend constexpr auto operator<=>(Ipv4Address a, Ipv4Address b) = default;

 private:
  std::uint32_t value_ = 0;
};

class Subnet {
 public:
  constexpr Subnet() = default;
  constexpr Subnet(Ipv4Address base, int prefix_len)
      : base_(base.value() & mask_for(prefix_len)), prefix_len_(prefix_len) {}

  static Subnet parse(const std::string& cidr);  // "a.b.c.d/len"

  constexpr bool contains(Ipv4Address addr) const {
    return (addr.value() & mask_for(prefix_len_)) == base_;
  }
  constexpr Ipv4Address base() const { return Ipv4Address(base_); }
  constexpr int prefix_len() const { return prefix_len_; }
  // Host address at the given offset within the subnet.
  constexpr Ipv4Address host(std::uint32_t offset) const { return Ipv4Address(base_ + offset); }

  friend constexpr auto operator<=>(const Subnet&, const Subnet&) = default;

 private:
  static constexpr std::uint32_t mask_for(int len) {
    return len <= 0 ? 0 : (len >= 32 ? 0xFFFFFFFFu : ~((1u << (32 - len)) - 1));
  }
  std::uint32_t base_ = 0;
  int prefix_len_ = 0;
};

}  // namespace entrace

template <>
struct std::hash<entrace::Ipv4Address> {
  std::size_t operator()(entrace::Ipv4Address a) const noexcept {
    // Fibonacci hashing of the 32-bit value.
    return static_cast<std::size_t>(a.value()) * 0x9E3779B97F4A7C15ULL >> 16;
  }
};
