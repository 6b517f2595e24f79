#include "analysis/http_analysis.h"

#include "net/headers.h"
#include "proto/registry.h"
#include "util/strings.h"

namespace entrace {

const char* to_string(HttpClientKind k) {
  switch (k) {
    case HttpClientKind::kNormal: return "normal";
    case HttpClientKind::kScan1: return "scan1";
    case HttpClientKind::kGoogle1: return "google1";
    case HttpClientKind::kGoogle2: return "google2";
    case HttpClientKind::kIfolder: return "ifolder";
  }
  return "?";
}

HttpClientKind classify_http_client(const HttpTransaction& txn) {
  const std::string ua = to_lower(txn.user_agent);
  if (ua.find("scanner") != std::string::npos) return HttpClientKind::kScan1;
  if (ua.find("googlebot/1") != std::string::npos) return HttpClientKind::kGoogle1;
  if (ua.find("googlebot/2") != std::string::npos) return HttpClientKind::kGoogle2;
  if (ua.find("ifolder") != std::string::npos) return HttpClientKind::kIfolder;
  return HttpClientKind::kNormal;
}

namespace {

std::string coarse_content_type(const std::string& content_type) {
  const std::size_t slash = content_type.find('/');
  const std::string major = to_lower(slash == std::string::npos ? content_type
                                                                : content_type.substr(0, slash));
  if (major == "text" || major == "image" || major == "application") return major;
  return "other";
}

bool is_wan(Ipv4Address src, Ipv4Address dst, const SiteConfig& site) {
  return !site.is_internal(src) || !site.is_internal(dst);
}

}  // namespace

double HttpAnalysis::automated_request_fraction() const {
  if (internal_requests == 0) return 0.0;
  std::uint64_t n = 0;
  for (const auto& [k, row] : automated) n += row.requests;
  return static_cast<double>(n) / static_cast<double>(internal_requests);
}

double HttpAnalysis::automated_byte_fraction() const {
  if (internal_bytes == 0) return 0.0;
  std::uint64_t n = 0;
  for (const auto& [k, row] : automated) n += row.bytes;
  return static_cast<double>(n) / static_cast<double>(internal_bytes);
}

HttpAnalysis HttpAnalysis::compute(std::span<const HttpTransaction> txns,
                                   std::span<const Connection* const> conns,
                                   const SiteConfig& site) {
  HttpAnalysis out;
  // Figure 3's fan-out: servers per client, from the transactions of
  // normal clients (scanners and crawlers have pathological fan-out and
  // the paper removes them before this analysis).
  PeerCounter servers(txns.size());

  for (const auto& txn : txns) {
    const bool wan = is_wan(txn.src, txn.dst, site);
    const HttpClientKind kind = classify_http_client(txn);
    const std::uint64_t body = txn.has_response ? txn.resp_body_len : 0;

    // Table 6 covers internal HTTP traffic.
    if (!wan) {
      ++out.internal_requests;
      out.internal_bytes += body;
      if (kind != HttpClientKind::kNormal) {
        auto& row = out.automated[kind];
        ++row.requests;
        row.bytes += body;
      }
    }

    if (kind != HttpClientKind::kNormal) continue;  // excluded from the rest
    servers.add(txn.src, txn.dst);

    // Conditional GET accounting.
    if (wan) {
      ++out.wan_requests;
      out.wan_bytes += body;
      if (txn.conditional) {
        ++out.wan_conditional;
        out.wan_conditional_bytes += body;
      }
    } else {
      ++out.ent_requests;
      out.ent_bytes += body;
      if (txn.conditional) {
        ++out.ent_conditional;
        out.ent_conditional_bytes += body;
      }
    }
    if (txn.has_response && ((txn.status >= 200 && txn.status < 300) || txn.status == 304))
      ++out.request_successes;

    // Table 7 + Figure 4 use successful GET replies with a body.
    if (txn.has_response && (txn.status == 200 || txn.status == 206)) {
      const std::string coarse = coarse_content_type(txn.content_type);
      auto& counter = wan ? out.content_wan : out.content_ent;
      counter.add(coarse, 1, body);
      if (body > 0) {
        (wan ? out.reply_size_wan : out.reply_size_ent).add(static_cast<double>(body));
      }
    }
  }

  // Success rates from connection summaries.
  std::vector<const Connection*> http_conns;
  for (const Connection* c : conns) {
    const auto app = static_cast<AppProtocol>(c->app_id);
    if (app == AppProtocol::kHttp) http_conns.push_back(c);
  }
  out.ent_success = HostPairOutcomes::compute(
      http_conns, [&site](const Connection& c) { return !is_wan(c.key.src, c.key.dst, site); });
  out.wan_success = HostPairOutcomes::compute(
      http_conns, [&site](const Connection& c) { return is_wan(c.key.src, c.key.dst, site); });

  servers.count(site, out.fanout.ent, out.fanout.wan, [](Ipv4Address) { return true; });
  return out;
}

}  // namespace entrace
