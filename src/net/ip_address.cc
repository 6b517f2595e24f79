#include "net/ip_address.h"

#include <cstdio>

#include "util/strings.h"

namespace entrace {

Ipv4Address Ipv4Address::parse(const std::string& text) {
  Ipv4Address out;
  try_parse(text, out);
  return out;
}

bool Ipv4Address::try_parse(const std::string& text, Ipv4Address& out) {
  unsigned a = 0, b = 0, c = 0, d = 0;
  char extra = 0;
  if (std::sscanf(text.c_str(), "%u.%u.%u.%u%c", &a, &b, &c, &d, &extra) != 4) return false;
  if (a > 255 || b > 255 || c > 255 || d > 255) return false;
  out = Ipv4Address(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b),
                    static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(d));
  return true;
}

std::string Ipv4Address::to_string() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (value_ >> 24) & 0xFF, (value_ >> 16) & 0xFF,
                (value_ >> 8) & 0xFF, value_ & 0xFF);
  return buf;
}

Subnet Subnet::parse(const std::string& cidr) {
  const auto slash = cidr.find('/');
  if (slash == std::string::npos) return Subnet(Ipv4Address::parse(cidr), 32);
  const Ipv4Address base = Ipv4Address::parse(cidr.substr(0, slash));
  const int len = std::atoi(cidr.c_str() + slash + 1);
  return Subnet(base, len);
}

}  // namespace entrace
