#include "core/report.h"

#include <array>
#include <functional>
#include <optional>
#include <stdexcept>

#include "analysis/backup_analysis.h"
#include "analysis/breakdown.h"
#include "analysis/email_analysis.h"
#include "analysis/http_analysis.h"
#include "analysis/load.h"
#include "analysis/locality.h"
#include "analysis/name_analysis.h"
#include "analysis/netfile_analysis.h"
#include "analysis/windows_analysis.h"
#include "net/headers.h"
#include "obs/exposition.h"
#include "util/cdf_plot.h"
#include "util/strings.h"
#include "util/table.h"

namespace entrace::report {
namespace {

std::string pct(double f) { return format_pct(f); }

std::vector<std::string> names_row(Inputs in, const std::string& head) {
  std::vector<std::string> row{head};
  for (const auto& i : in) row.push_back(i.analysis->name);
  return row;
}

template <typename T, typename Compute>
const T& once(std::optional<T>& slot, Compute compute) {
  if (!slot) slot.emplace(compute());
  return *slot;
}

// Each input's analysis of one kind, from the render's cache.
template <typename T>
std::vector<std::reference_wrapper<const T>> each(
    Inputs in, RenderCache& cache, const T& (RenderCache::*get)(const DatasetAnalysis&)) {
  std::vector<std::reference_wrapper<const T>> v;
  for (const auto& i : in) v.push_back((cache.*get)(*i.analysis));
  return v;
}

// Every renderer takes the render's inputs and its cache; the sections
// that read no derived analysis ignore the cache.
std::string table1_datasets(Inputs in, RenderCache&) {
  TextTable t("Table 1: Dataset characteristics (synthetic reproduction, scaled)");
  t.set_header(names_row(in, ""));
  auto row = [&t, &in](const std::string& label, auto getter) {
    std::vector<std::string> r{label};
    for (const auto& i : in) r.push_back(getter(i));
    t.add_row(std::move(r));
  };
  row("Duration", [](const ReportInput& i) {
    if (!i.spec) return std::string("?");
    const double d = i.spec->trace_duration;
    return d >= 3600 ? format_double(d / 3600, 0) + " hr" : format_double(d / 60, 0) + " min";
  });
  row("Per Tap", [](const ReportInput& i) {
    return i.spec ? std::to_string(i.spec->traces_per_subnet) : "?";
  });
  row("# Subnets", [](const ReportInput& i) {
    return i.spec ? std::to_string(i.spec->num_subnets) : "?";
  });
  row("# Packets", [](const ReportInput& i) { return format_count(i.analysis->total_packets); });
  row("Snaplen", [](const ReportInput& i) {
    return i.spec ? std::to_string(i.spec->snaplen) : "?";
  });
  row("Mon. Hosts", [](const ReportInput& i) {
    return std::to_string(i.analysis->monitored_hosts.size());
  });
  row("LBNL Hosts", [](const ReportInput& i) {
    return std::to_string(i.analysis->lbnl_hosts.size());
  });
  row("Remote Hosts", [](const ReportInput& i) {
    return std::to_string(i.analysis->remote_hosts.size());
  });
  return t.render();
}

// Measurement-artifact accounting per dataset: packets seen / decoded /
// dropped, plus the non-zero anomaly kinds (truncation, checksum failures,
// parse errors).  Not a paper table: real captures need it (§2 discusses
// the LBNL traces' own artifacts) and the fault-injection tests assert it.
std::string capture_quality(Inputs in, RenderCache&) {
  TextTable t("Capture quality: per-dataset packet accounting "
              "(seen == decoded + dropped) and anomaly kinds");
  t.set_header(names_row(in, ""));
  auto row = [&t, &in](const std::string& label, auto getter) {
    std::vector<std::string> r{label};
    for (const auto& i : in) r.push_back(getter(i.analysis->quality));
    t.add_row(std::move(r));
  };
  row("Seen", [](const CaptureQuality& q) { return format_count(q.packets_seen); });
  row("Decoded", [](const CaptureQuality& q) { return format_count(q.packets_ok); });
  row("Dropped", [](const CaptureQuality& q) { return format_count(q.packets_dropped); });
  t.add_rule();
  // One row per anomaly kind that is non-zero in at least one dataset.
  for (std::size_t k = 0; k < kAnomalyKindCount; ++k) {
    const AnomalyKind kind = static_cast<AnomalyKind>(k);
    bool any = false;
    for (const auto& i : in) any = any || i.analysis->quality.anomalies[kind] != 0;
    if (!any) continue;
    std::vector<std::string> r{to_string(kind)};
    for (const auto& i : in) r.push_back(format_count(i.analysis->quality.anomalies[kind]));
    t.add_row(std::move(r));
  }
  return t.render();
}

std::string table2_network_layer(Inputs in, RenderCache&) {
  TextTable t("Table 2: Network-layer protocol mix (IP as % of all packets; "
              "ARP/IPX/Other as % of non-IP)");
  t.set_header(names_row(in, ""));
  auto row = [&t, &in](const std::string& label, auto getter) {
    std::vector<std::string> r{label};
    for (const auto& i : in) r.push_back(getter(i.analysis->l3));
    t.add_row(std::move(r));
  };
  row("IP", [](const NetworkLayerBreakdown& b) { return pct(b.ip_fraction()); });
  row("!IP", [](const NetworkLayerBreakdown& b) { return pct(b.non_ip_fraction()); });
  t.add_rule();
  row("ARP", [](const NetworkLayerBreakdown& b) { return pct(b.arp_of_non_ip()); });
  row("IPX", [](const NetworkLayerBreakdown& b) { return pct(b.ipx_of_non_ip()); });
  row("Other", [](const NetworkLayerBreakdown& b) { return pct(b.other_of_non_ip()); });
  return t.render();
}

// Includes the scanner-removal row and the §3 ablation: the connection
// mix with scanner traffic kept.
std::string table3_transport(Inputs in, RenderCache&) {
  TextTable t("Table 3: Transport breakdown (scanner traffic removed)");
  t.set_header(names_row(in, ""));
  std::vector<TransportBreakdown> tb;
  tb.reserve(in.size());
  for (const auto& i : in) tb.push_back(TransportBreakdown::compute(i.analysis->connections));

  auto row = [&t, &tb](const std::string& label, auto getter) {
    std::vector<std::string> r{label};
    for (const auto& b : tb) r.push_back(getter(b));
    t.add_row(std::move(r));
  };
  row("Bytes", [](const TransportBreakdown& b) { return format_bytes(b.bytes); });
  row("TCP", [](const TransportBreakdown& b) { return pct(b.byte_fraction(ipproto::kTcp)); });
  row("UDP", [](const TransportBreakdown& b) { return pct(b.byte_fraction(ipproto::kUdp)); });
  row("ICMP", [](const TransportBreakdown& b) { return pct(b.byte_fraction(ipproto::kIcmp)); });
  t.add_rule();
  row("Conns", [](const TransportBreakdown& b) { return format_count(b.conns); });
  row("TCP", [](const TransportBreakdown& b) { return pct(b.conn_fraction(ipproto::kTcp)); });
  row("UDP", [](const TransportBreakdown& b) { return pct(b.conn_fraction(ipproto::kUdp)); });
  row("ICMP", [](const TransportBreakdown& b) { return pct(b.conn_fraction(ipproto::kIcmp)); });
  t.add_rule();
  {
    std::vector<std::string> r{"Scanner conns removed"};
    for (const auto& i : in) r.push_back(pct(i.analysis->scanner_removed_fraction()));
    t.add_row(std::move(r));
  }

  // Ablation (§3): the connection mix the scanner filter corrects.
  TextTable ablation("Ablation: connection fractions without scanner removal");
  ablation.set_header(names_row(in, ""));
  std::vector<TransportBreakdown> kept;
  for (const auto& i : in) kept.push_back(TransportBreakdown::compute(i.analysis->all_connections));
  for (const auto& [label, proto] : {std::pair{"TCP", ipproto::kTcp},
                                     std::pair{"UDP", ipproto::kUdp},
                                     std::pair{"ICMP", ipproto::kIcmp}}) {
    std::vector<std::string> r{label};
    for (const auto& b : kept) r.push_back(pct(b.conn_fraction(proto)));
    ablation.add_row(std::move(r));
  }
  return t.render() + ablation.render();
}

std::string figure1_app_breakdown(Inputs in, RenderCache&) {
  static constexpr std::array<AppCategory, 13> kOrder = {
      AppCategory::kWeb,       AppCategory::kEmail,   AppCategory::kNetFile,
      AppCategory::kBackup,    AppCategory::kBulk,    AppCategory::kName,
      AppCategory::kInteractive, AppCategory::kWindows, AppCategory::kStreaming,
      AppCategory::kNetMgnt,   AppCategory::kMisc,    AppCategory::kOtherTcp,
      AppCategory::kOtherUdp};

  std::vector<AppCategoryBreakdown> breakdowns;
  breakdowns.reserve(in.size());
  for (const auto& i : in) {
    breakdowns.push_back(
        AppCategoryBreakdown::compute(i.analysis->connections, i.analysis->site));
  }

  std::string out;
  {
    TextTable t("Figure 1(a): % of unicast payload bytes by category (ent+wan = total; "
                "wan part in parentheses)");
    t.set_header(names_row(in, "category"));
    for (AppCategory c : kOrder) {
      std::vector<std::string> row{to_string(c)};
      for (const auto& b : breakdowns) {
        const double ent = b.byte_fraction(c, false);
        const double wan = b.byte_fraction(c, true);
        row.push_back(pct(ent + wan) + " (" + pct(wan) + ")");
      }
      t.add_row(std::move(row));
    }
    out += t.render();
  }
  {
    TextTable t("Figure 1(b): % of unicast connections by category");
    t.set_header(names_row(in, "category"));
    for (AppCategory c : kOrder) {
      std::vector<std::string> row{to_string(c)};
      for (const auto& b : breakdowns) {
        const double ent = b.conn_fraction(c, false);
        const double wan = b.conn_fraction(c, true);
        row.push_back(pct(ent + wan) + " (" + pct(wan) + ")");
      }
      t.add_row(std::move(row));
    }
    out += t.render();
  }
  {
    TextTable t("Figure 1 callout: multicast (as % of ALL payload bytes / connections)");
    t.set_header(names_row(in, "category"));
    for (AppCategory c : {AppCategory::kStreaming, AppCategory::kName, AppCategory::kNetMgnt}) {
      std::vector<std::string> row{to_string(c)};
      for (const auto& b : breakdowns) {
        row.push_back(pct(b.multicast_byte_fraction(c)) + " / " +
                      pct(b.multicast_conn_fraction(c)));
      }
      t.add_row(std::move(row));
    }
    out += t.render();
  }
  return out;
}

std::string origins_summary(Inputs in, RenderCache&) {
  TextTable t("Section 4: flow origins (fractions of all flows)");
  t.set_header(names_row(in, ""));
  std::vector<OriginBreakdown> ob;
  for (const auto& i : in)
    ob.push_back(OriginBreakdown::compute(i.analysis->connections, i.analysis->site));
  auto row = [&t, &ob](const std::string& label, auto getter) {
    std::vector<std::string> r{label};
    for (const auto& b : ob) r.push_back(getter(b));
    t.add_row(std::move(r));
  };
  row("ent -> ent", [](const OriginBreakdown& b) { return pct(b.fraction(b.ent_to_ent)); });
  row("ent -> wan", [](const OriginBreakdown& b) { return pct(b.fraction(b.ent_to_wan)); });
  row("wan -> ent", [](const OriginBreakdown& b) { return pct(b.fraction(b.wan_to_ent)); });
  row("mcast ent-src",
      [](const OriginBreakdown& b) { return pct(b.fraction(b.multicast_ent_src)); });
  row("mcast wan-src",
      [](const OriginBreakdown& b) { return pct(b.fraction(b.multicast_wan_src)); });
  return t.render();
}

// Drawn per dataset: one pair of plots per input.
std::string figure2_fan(Inputs in, RenderCache&) {
  std::string out;
  for (const auto& i : in) {
    const DatasetAnalysis& a = *i.analysis;
    FanResult fan = compute_fan(a.connections, a.site,
                                [&a](Ipv4Address h) { return a.is_monitored_host(h); });
    if (!out.empty()) out += "\n";
    CdfPlot fin("Figure 2(a): Fan-in (" + a.name + ")", "peers", true);
    fin.add_series("enterprise", fan.fan_in_ent);
    fin.add_series("wan", fan.fan_in_wan);
    out += fin.render();
    CdfPlot fout("Figure 2(b): Fan-out (" + a.name + ")", "peers", true);
    fout.add_series("enterprise", fan.fan_out_ent);
    fout.add_series("wan", fan.fan_out_wan);
    out += fout.render();
    out += "hosts with only-internal fan-in: " + pct(fan.only_internal_fan_in) +
           " (paper: one-third to one-half)\n";
    out += "hosts with only-internal fan-out: " + pct(fan.only_internal_fan_out) +
           " (paper: more than half)\n";
  }
  return out;
}

std::string table6_http_automation(Inputs in, RenderCache& cache) {
  TextTable t("Table 6: Automated clients' share of internal HTTP traffic (requests / bytes)");
  t.set_header(names_row(in, ""));
  const auto https = each(in, cache, &RenderCache::http);
  {
    std::vector<std::string> r{"Total (reqs/bytes)"};
    for (const HttpAnalysis& h : https)
      r.push_back(std::to_string(h.internal_requests) + " / " + format_bytes(h.internal_bytes));
    t.add_row(std::move(r));
  }
  for (HttpClientKind k : {HttpClientKind::kScan1, HttpClientKind::kGoogle1,
                           HttpClientKind::kGoogle2, HttpClientKind::kIfolder}) {
    std::vector<std::string> r{to_string(k)};
    for (const HttpAnalysis& h : https) {
      auto it = h.automated.find(k);
      const std::uint64_t reqs = it != h.automated.end() ? it->second.requests : 0;
      const std::uint64_t bytes = it != h.automated.end() ? it->second.bytes : 0;
      const double rf = h.internal_requests
                            ? static_cast<double>(reqs) / static_cast<double>(h.internal_requests)
                            : 0;
      const double bf = h.internal_bytes
                            ? static_cast<double>(bytes) / static_cast<double>(h.internal_bytes)
                            : 0;
      r.push_back(pct(rf) + " / " + pct(bf));
    }
    t.add_row(std::move(r));
  }
  {
    std::vector<std::string> r{"All automated"};
    for (const HttpAnalysis& h : https)
      r.push_back(pct(h.automated_request_fraction()) + " / " + pct(h.automated_byte_fraction()));
    t.add_row(std::move(r));
  }
  return t.render();
}

std::string http_findings(Inputs in, RenderCache& cache) {
  TextTable t("HTTP findings (§5.1.1): success rates and conditional GETs");
  t.set_header(names_row(in, ""));
  const auto https = each(in, cache, &RenderCache::http);
  auto row = [&t, &https](const std::string& label, auto getter) {
    std::vector<std::string> r{label};
    for (const HttpAnalysis& h : https) r.push_back(getter(h));
    t.add_row(std::move(r));
  };
  row("ent conn success (host pairs)",
      [](const HttpAnalysis& h) { return pct(h.ent_success.success_rate()); });
  row("wan conn success (host pairs)",
      [](const HttpAnalysis& h) { return pct(h.wan_success.success_rate()); });
  row("cond. GETs, ent (reqs)", [](const HttpAnalysis& h) {
    return h.ent_requests ? pct(static_cast<double>(h.ent_conditional) /
                                static_cast<double>(h.ent_requests))
                          : std::string("-");
  });
  row("cond. GETs, wan (reqs)", [](const HttpAnalysis& h) {
    return h.wan_requests ? pct(static_cast<double>(h.wan_conditional) /
                                static_cast<double>(h.wan_requests))
                          : std::string("-");
  });
  row("cond. GET bytes, ent", [](const HttpAnalysis& h) {
    return h.ent_bytes ? pct(static_cast<double>(h.ent_conditional_bytes) /
                             static_cast<double>(h.ent_bytes))
                       : std::string("-");
  });
  row("cond. GET bytes, wan", [](const HttpAnalysis& h) {
    return h.wan_bytes ? pct(static_cast<double>(h.wan_conditional_bytes) /
                             static_cast<double>(h.wan_bytes))
                       : std::string("-");
  });
  row("request success (2xx/304)", [](const HttpAnalysis& h) {
    const std::uint64_t reqs = h.ent_requests + h.wan_requests;
    return reqs ? pct(static_cast<double>(h.request_successes) / static_cast<double>(reqs))
                : std::string("-");
  });
  return t.render();
}

std::string figure3_http_fanout(Inputs in, RenderCache& cache) {
  std::string out;
  const auto https = each(in, cache, &RenderCache::http);
  CdfPlot plot("Figure 3: HTTP fan-out (servers per client)", "peers per source", true);
  for (std::size_t i = 0; i < in.size(); ++i) {
    plot.add_series("ent:" + in[i].analysis->name, https[i].get().fanout.ent);
    plot.add_series("wan:" + in[i].analysis->name, https[i].get().fanout.wan);
  }
  out += plot.render();
  return out;
}

std::string table7_http_content_types(Inputs in, RenderCache& cache) {
  TextTable t("Table 7: HTTP content types (requests% / bytes%)");
  std::vector<std::string> header{"type"};
  for (const auto& i : in) {
    header.push_back(i.analysis->name + "/ent");
    header.push_back(i.analysis->name + "/wan");
  }
  t.set_header(std::move(header));
  const auto https = each(in, cache, &RenderCache::http);
  for (const std::string type : {"text", "image", "application", "other"}) {
    std::vector<std::string> row{type};
    for (const HttpAnalysis& h : https) {
      row.push_back(pct(h.content_ent.count_fraction(type)) + " / " +
                    pct(h.content_ent.bytes_fraction(type)));
      row.push_back(pct(h.content_wan.count_fraction(type)) + " / " +
                    pct(h.content_wan.bytes_fraction(type)));
    }
    t.add_row(std::move(row));
  }
  return t.render();
}

std::string figure4_http_reply_sizes(Inputs in, RenderCache& cache) {
  const auto https = each(in, cache, &RenderCache::http);
  CdfPlot plot("Figure 4: HTTP reply size (bytes, when present)", "bytes", true);
  for (std::size_t i = 0; i < in.size(); ++i) {
    plot.add_series("ent:" + in[i].analysis->name, https[i].get().reply_size_ent);
    plot.add_series("wan:" + in[i].analysis->name, https[i].get().reply_size_wan);
  }
  return plot.render();
}

std::string table8_email_sizes(Inputs in, RenderCache& cache) {
  TextTable t("Table 8: Email traffic size (payload bytes)");
  t.set_header(names_row(in, ""));
  const auto emails = each(in, cache, &RenderCache::email);
  auto row = [&t, &emails](const std::string& label, auto getter) {
    std::vector<std::string> r{label};
    for (const EmailAnalysis& e : emails) r.push_back(format_bytes(getter(e)));
    t.add_row(std::move(r));
  };
  row("SMTP", [](const EmailAnalysis& e) { return e.smtp_bytes; });
  row("SIMAP", [](const EmailAnalysis& e) { return e.imaps_bytes; });
  row("IMAP4", [](const EmailAnalysis& e) { return e.imap4_bytes; });
  row("Other", [](const EmailAnalysis& e) { return e.other_bytes; });
  return t.render();
}

std::string figure5_email_durations(Inputs in, RenderCache& cache) {
  const auto emails = each(in, cache, &RenderCache::email);
  std::string out;
  {
    CdfPlot plot("Figure 5(a): SMTP connection durations (s)", "seconds", true);
    for (std::size_t i = 0; i < in.size(); ++i) {
      plot.add_series("ent:" + in[i].analysis->name, emails[i].get().smtp_dur_ent);
      plot.add_series("wan:" + in[i].analysis->name, emails[i].get().smtp_dur_wan);
    }
    out += plot.render();
  }
  {
    CdfPlot plot("Figure 5(b): IMAP/S connection durations (s)", "seconds", true);
    for (std::size_t i = 0; i < in.size(); ++i) {
      plot.add_series("ent:" + in[i].analysis->name, emails[i].get().imaps_dur_ent);
      plot.add_series("wan:" + in[i].analysis->name, emails[i].get().imaps_dur_wan);
    }
    out += plot.render();
  }
  {
    TextTable t("Email success rates (host pairs)");
    t.set_header(names_row(in, ""));
    auto row = [&t, &emails](const std::string& label, auto getter) {
      std::vector<std::string> r{label};
      for (const EmailAnalysis& e : emails) r.push_back(getter(e));
      t.add_row(std::move(r));
    };
    row("SMTP ent", [](const EmailAnalysis& e) { return pct(e.smtp_ent.success_rate()); });
    row("SMTP wan", [](const EmailAnalysis& e) { return pct(e.smtp_wan.success_rate()); });
    row("IMAP/S", [](const EmailAnalysis& e) { return pct(e.imaps_all.success_rate()); });
    out += t.render();
  }
  return out;
}

std::string figure6_email_sizes(Inputs in, RenderCache& cache) {
  const auto emails = each(in, cache, &RenderCache::email);
  std::string out;
  {
    CdfPlot plot("Figure 6(a): SMTP flow size from client (bytes)", "bytes", true);
    for (std::size_t i = 0; i < in.size(); ++i) {
      plot.add_series("ent:" + in[i].analysis->name, emails[i].get().smtp_size_ent);
      plot.add_series("wan:" + in[i].analysis->name, emails[i].get().smtp_size_wan);
    }
    out += plot.render();
  }
  {
    CdfPlot plot("Figure 6(b): IMAP/S flow size from server (bytes)", "bytes", true);
    for (std::size_t i = 0; i < in.size(); ++i) {
      plot.add_series("ent:" + in[i].analysis->name, emails[i].get().imaps_size_ent);
      plot.add_series("wan:" + in[i].analysis->name, emails[i].get().imaps_size_wan);
    }
    out += plot.render();
  }
  return out;
}

std::string name_service_findings(Inputs in, RenderCache&) {
  TextTable t("Name services (§5.1.3)");
  t.set_header(names_row(in, ""));
  std::vector<NameAnalysis> names;
  for (const auto& i : in) {
    names.push_back(
        NameAnalysis::compute(i.analysis->events.dns, i.analysis->events.nbns, i.analysis->site));
  }
  auto row = [&t, &names](const std::string& label, auto getter) {
    std::vector<std::string> r{label};
    for (const auto& n : names) r.push_back(getter(n));
    t.add_row(std::move(r));
  };
  row("DNS median latency ent (ms)", [](const NameAnalysis& n) {
    return n.dns_latency_ent.empty() ? std::string("-")
                                     : format_double(n.dns_latency_ent.median() * 1000, 2);
  });
  row("DNS median latency wan (ms)", [](const NameAnalysis& n) {
    return n.dns_latency_wan.empty() ? std::string("-")
                                     : format_double(n.dns_latency_wan.median() * 1000, 2);
  });
  auto frac = [](std::uint64_t n, std::uint64_t d) {
    return d == 0 ? std::string("-") : pct(static_cast<double>(n) / static_cast<double>(d));
  };
  row("A requests", [&frac](const NameAnalysis& n) { return frac(n.dns_a, n.dns_requests); });
  row("AAAA requests",
      [&frac](const NameAnalysis& n) { return frac(n.dns_aaaa, n.dns_requests); });
  row("PTR requests",
      [&frac](const NameAnalysis& n) { return frac(n.dns_ptr, n.dns_requests); });
  row("MX requests", [&frac](const NameAnalysis& n) { return frac(n.dns_mx, n.dns_requests); });
  row("DNS NOERROR",
      [&frac](const NameAnalysis& n) { return frac(n.dns_noerror, n.dns_responses); });
  row("DNS NXDOMAIN",
      [&frac](const NameAnalysis& n) { return frac(n.dns_nxdomain, n.dns_responses); });
  row("DNS top-2 client share",
      [](const NameAnalysis& n) { return pct(n.dns_top2_client_share); });
  t.add_rule();
  row("NBNS queries",
      [&frac](const NameAnalysis& n) { return frac(n.nbns_queries, n.nbns_requests); });
  row("NBNS refresh",
      [&frac](const NameAnalysis& n) { return frac(n.nbns_refresh, n.nbns_requests); });
  row("NBNS wkst+server names", [&frac](const NameAnalysis& n) {
    return frac(n.nbns_type_workstation_server, n.nbns_requests);
  });
  row("NBNS domain/browser names",
      [&frac](const NameAnalysis& n) { return frac(n.nbns_type_domain, n.nbns_requests); });
  row("NBNS failure rate (distinct ops)",
      [](const NameAnalysis& n) { return pct(n.nbns_failure_rate()); });
  row("NBNS top-10 client share",
      [](const NameAnalysis& n) { return pct(n.nbns_top10_client_share); });
  return t.render();
}

// Includes the §5 ablation: CIFS success counted per raw connection
// instead of per host pair.
std::string table9_windows_success(Inputs in, RenderCache& cache) {
  TextTable t("Table 9: Windows connection outcomes by host pairs (internal traffic)");
  t.set_header(names_row(in, ""));
  const auto ws = each(in, cache, &RenderCache::windows);
  auto row = [&t, &ws](const std::string& label, auto getter) {
    std::vector<std::string> r{label};
    for (const WindowsAnalysis& w : ws) r.push_back(getter(w));
    t.add_row(std::move(r));
  };
  auto outcome = [](const HostPairOutcomes& o) {
    return std::to_string(o.pairs) + " pairs: " + format_pct(o.success_rate()) + " ok, " +
           format_pct(o.rejected_rate()) + " rej, " + format_pct(o.unanswered_rate()) + " unans";
  };
  row("Netbios/SSN (139)",
      [&outcome](const WindowsAnalysis& w) { return outcome(w.nbss_conns); });
  row("CIFS (445)", [&outcome](const WindowsAnalysis& w) { return outcome(w.cifs_conns); });
  row("Endpoint Mapper (135)",
      [&outcome](const WindowsAnalysis& w) { return outcome(w.epm_conns); });
  row("NBSS handshake ok",
      [](const WindowsAnalysis& w) { return format_pct(w.nbss_handshake_rate()); });

  // Ablation (§5): raw connection counts, which automated retries skew.
  TextTable ablation("Ablation: raw CIFS connection success (not host pairs)");
  ablation.set_header(names_row(in, ""));
  std::vector<std::string> raw{"CIFS(445) conns ok"};
  for (const auto& i : in) {
    const SiteConfig& site = i.analysis->site;
    std::uint64_t ok = 0, total = 0;
    for (const Connection* c : i.analysis->connections) {
      if (static_cast<AppProtocol>(c->app_id) != AppProtocol::kCifs) continue;
      if (!site.is_internal(c->key.src) || !site.is_internal(c->key.dst)) continue;
      ++total;
      if (c->successful()) ++ok;
    }
    raw.push_back(total ? pct(static_cast<double>(ok) / static_cast<double>(total))
                        : std::string("-"));
  }
  ablation.add_row(std::move(raw));
  return t.render() + ablation.render();
}

std::string table10_cifs_commands(Inputs in, RenderCache& cache) {
  TextTable t("Table 10: CIFS command breakdown (requests% / bytes%)");
  t.set_header(names_row(in, ""));
  const auto ws = each(in, cache, &RenderCache::windows);
  {
    std::vector<std::string> r{"Total (reqs/bytes)"};
    for (const WindowsAnalysis& w : ws)
      r.push_back(std::to_string(w.cifs_total_requests) + " / " +
                  format_bytes(w.cifs_total_bytes));
    t.add_row(std::move(r));
  }
  for (std::size_t c = 0; c < 5; ++c) {
    std::vector<std::string> r{to_string(static_cast<CifsCategory>(c))};
    for (const WindowsAnalysis& w : ws) {
      const auto& cell = w.cifs_categories[c];
      const double rf = w.cifs_total_requests ? static_cast<double>(cell.requests) /
                                                    static_cast<double>(w.cifs_total_requests)
                                              : 0;
      const double bf = w.cifs_total_bytes ? static_cast<double>(cell.bytes) /
                                                 static_cast<double>(w.cifs_total_bytes)
                                           : 0;
      r.push_back(pct(rf) + " / " + pct(bf));
    }
    t.add_row(std::move(r));
  }
  return t.render();
}

std::string table11_dcerpc_functions(Inputs in, RenderCache& cache) {
  TextTable t("Table 11: DCE/RPC function breakdown (requests% / bytes%)");
  t.set_header(names_row(in, ""));
  const auto ws = each(in, cache, &RenderCache::windows);
  {
    std::vector<std::string> r{"Total (reqs/bytes)"};
    for (const WindowsAnalysis& w : ws)
      r.push_back(std::to_string(w.rpc_total_requests) + " / " +
                  format_bytes(w.rpc_total_bytes));
    t.add_row(std::move(r));
  }
  auto row = [&t, &ws](const std::string& label, auto member) {
    std::vector<std::string> r{label};
    for (const WindowsAnalysis& w : ws) {
      const WindowsAnalysis::RpcRow& cell = w.*member;
      const double rf = w.rpc_total_requests ? static_cast<double>(cell.requests) /
                                                   static_cast<double>(w.rpc_total_requests)
                                             : 0;
      const double bf = w.rpc_total_bytes ? static_cast<double>(cell.bytes) /
                                                static_cast<double>(w.rpc_total_bytes)
                                          : 0;
      r.push_back(pct(rf) + " / " + pct(bf));
    }
    t.add_row(std::move(r));
  };
  row("NetLogon", &WindowsAnalysis::rpc_netlogon);
  row("LsaRPC", &WindowsAnalysis::rpc_lsarpc);
  row("Spoolss/WritePrinter", &WindowsAnalysis::rpc_spoolss_write);
  row("Spoolss/other", &WindowsAnalysis::rpc_spoolss_other);
  row("Other", &WindowsAnalysis::rpc_other);
  {
    std::vector<std::string> r{"over pipes / standalone"};
    for (const WindowsAnalysis& w : ws)
      r.push_back(std::to_string(w.rpc_over_pipe) + " / " + std::to_string(w.rpc_standalone));
    t.add_row(std::move(r));
  }
  return t.render();
}

std::string table12_netfile_sizes(Inputs in, RenderCache& cache) {
  TextTable t("Table 12: NFS/NCP connections and bytes");
  t.set_header(names_row(in, ""));
  const auto nf = each(in, cache, &RenderCache::netfile);
  auto row = [&t, &nf](const std::string& label, auto getter) {
    std::vector<std::string> r{label};
    for (const NetFileAnalysis& n : nf) r.push_back(getter(n));
    t.add_row(std::move(r));
  };
  row("NFS conns", [](const NetFileAnalysis& n) { return std::to_string(n.nfs_conns); });
  row("NFS bytes", [](const NetFileAnalysis& n) { return format_bytes(n.nfs_bytes); });
  row("NCP conns", [](const NetFileAnalysis& n) { return std::to_string(n.ncp_conns); });
  row("NCP bytes", [](const NetFileAnalysis& n) { return format_bytes(n.ncp_bytes); });
  t.add_rule();
  row("NFS top-3 pair byte share",
      [](const NetFileAnalysis& n) { return pct(n.nfs_top3_pair_byte_share); });
  row("NCP top-3 pair byte share",
      [](const NetFileAnalysis& n) { return pct(n.ncp_top3_pair_byte_share); });
  row("NCP keepalive-only conns",
      [](const NetFileAnalysis& n) { return pct(n.ncp_keepalive_only_fraction()); });
  row("NFS UDP byte share", [](const NetFileAnalysis& n) {
    const std::uint64_t total = n.nfs_udp_bytes + n.nfs_tcp_bytes;
    return total ? pct(static_cast<double>(n.nfs_udp_bytes) / static_cast<double>(total))
                 : std::string("-");
  });
  row("NFS UDP/TCP pairs", [](const NetFileAnalysis& n) {
    return std::to_string(n.nfs_udp_pairs) + " / " + std::to_string(n.nfs_tcp_pairs);
  });
  return t.render();
}

std::string req_data_cell(const NetFileAnalysis::Row& row, std::uint64_t total_reqs,
                          std::uint64_t total_data) {
  const double rf =
      total_reqs ? static_cast<double>(row.requests) / static_cast<double>(total_reqs) : 0;
  const double bf =
      total_data ? static_cast<double>(row.bytes) / static_cast<double>(total_data) : 0;
  return format_pct(rf) + " / " + format_pct(bf);
}

std::string table13_nfs_requests(Inputs in, RenderCache& cache) {
  TextTable t("Table 13: NFS request breakdown (requests% / data%)");
  t.set_header(names_row(in, ""));
  const auto nf = each(in, cache, &RenderCache::netfile);
  {
    std::vector<std::string> r{"Total (reqs/data)"};
    for (const NetFileAnalysis& n : nf)
      r.push_back(std::to_string(n.nfs_total_requests) + " / " + format_bytes(n.nfs_total_data));
    t.add_row(std::move(r));
  }
  auto row = [&t, &nf](const std::string& label, auto member) {
    std::vector<std::string> r{label};
    for (const NetFileAnalysis& n : nf)
      r.push_back(req_data_cell(n.*member, n.nfs_total_requests, n.nfs_total_data));
    t.add_row(std::move(r));
  };
  row("Read", &NetFileAnalysis::nfs_read);
  row("Write", &NetFileAnalysis::nfs_write);
  row("GetAttr", &NetFileAnalysis::nfs_getattr);
  row("LookUp", &NetFileAnalysis::nfs_lookup);
  row("Access", &NetFileAnalysis::nfs_access);
  row("Other", &NetFileAnalysis::nfs_other);
  {
    std::vector<std::string> r{"request success"};
    for (const NetFileAnalysis& n : nf)
      r.push_back(n.nfs_replies ? pct(static_cast<double>(n.nfs_ok) /
                                      static_cast<double>(n.nfs_replies))
                                : std::string("-"));
    t.add_row(std::move(r));
  }
  return t.render();
}

std::string table14_ncp_requests(Inputs in, RenderCache& cache) {
  TextTable t("Table 14: NCP request breakdown (requests% / data%)");
  t.set_header(names_row(in, ""));
  const auto nf = each(in, cache, &RenderCache::netfile);
  {
    std::vector<std::string> r{"Total (reqs/data)"};
    for (const NetFileAnalysis& n : nf)
      r.push_back(std::to_string(n.ncp_total_requests) + " / " + format_bytes(n.ncp_total_data));
    t.add_row(std::move(r));
  }
  for (std::size_t f = 0; f < 8; ++f) {
    std::vector<std::string> r{to_string(static_cast<NcpFunction>(f))};
    for (const NetFileAnalysis& n : nf)
      r.push_back(req_data_cell(n.ncp_rows[f], n.ncp_total_requests, n.ncp_total_data));
    t.add_row(std::move(r));
  }
  {
    std::vector<std::string> r{"request success"};
    for (const NetFileAnalysis& n : nf)
      r.push_back(n.ncp_replies ? pct(static_cast<double>(n.ncp_ok) /
                                      static_cast<double>(n.ncp_replies))
                                : std::string("-"));
    t.add_row(std::move(r));
  }
  return t.render();
}

std::string figure7_requests_per_pair(Inputs in, RenderCache& cache) {
  const auto nf = each(in, cache, &RenderCache::netfile);
  std::string out;
  {
    CdfPlot plot("Figure 7(a): NFS requests per host pair", "requests", true);
    for (std::size_t i = 0; i < in.size(); ++i)
      plot.add_series("ent:" + in[i].analysis->name, nf[i].get().nfs_reqs_per_pair);
    out += plot.render();
  }
  {
    CdfPlot plot("Figure 7(b): NCP requests per host pair", "requests", true);
    for (std::size_t i = 0; i < in.size(); ++i)
      plot.add_series("ent:" + in[i].analysis->name, nf[i].get().ncp_reqs_per_pair);
    out += plot.render();
  }
  return out;
}

std::string figure8_netfile_message_sizes(Inputs in, RenderCache& cache) {
  const auto nf = each(in, cache, &RenderCache::netfile);
  std::string out;
  {
    CdfPlot plot("Figure 8(a): NFS request sizes (bytes)", "bytes", true);
    for (std::size_t i = 0; i < in.size(); ++i)
      plot.add_series(in[i].analysis->name, nf[i].get().nfs_req_sizes);
    out += plot.render();
  }
  {
    CdfPlot plot("Figure 8(b): NFS reply sizes (bytes)", "bytes", true);
    for (std::size_t i = 0; i < in.size(); ++i)
      plot.add_series(in[i].analysis->name, nf[i].get().nfs_reply_sizes);
    out += plot.render();
  }
  {
    CdfPlot plot("Figure 8(c): NCP request sizes (bytes)", "bytes", true);
    for (std::size_t i = 0; i < in.size(); ++i)
      plot.add_series(in[i].analysis->name, nf[i].get().ncp_req_sizes);
    out += plot.render();
  }
  {
    CdfPlot plot("Figure 8(d): NCP reply sizes (bytes)", "bytes", true);
    for (std::size_t i = 0; i < in.size(); ++i)
      plot.add_series(in[i].analysis->name, nf[i].get().ncp_reply_sizes);
    out += plot.render();
  }
  return out;
}

std::string table15_backup(Inputs in, RenderCache&) {
  TextTable t("Table 15: Backup applications (aggregated across datasets)");
  t.set_header({"", "Connections", "Bytes", "c->s share", "bidir conns (>1MB both ways)"});
  // Aggregate across all inputs, as the paper's Table 15 does.
  BackupAnalysis agg;
  for (const auto& i : in) {
    BackupAnalysis b = BackupAnalysis::compute(i.analysis->connections, i.analysis->site);
    auto merge = [](BackupAnalysis::AppRow& into, const BackupAnalysis::AppRow& from) {
      into.conns += from.conns;
      into.bytes += from.bytes;
      into.client_to_server_bytes += from.client_to_server_bytes;
      into.server_to_client_bytes += from.server_to_client_bytes;
      into.bidirectional_conns += from.bidirectional_conns;
    };
    merge(agg.veritas_ctrl, b.veritas_ctrl);
    merge(agg.veritas_data, b.veritas_data);
    merge(agg.dantz, b.dantz);
    merge(agg.connected, b.connected);
  }
  auto row = [&t](const std::string& label, const BackupAnalysis::AppRow& r) {
    t.add_row({label, std::to_string(r.conns), format_bytes(r.bytes), pct(r.c2s_fraction()),
               std::to_string(r.bidirectional_conns)});
  };
  row("VERITAS-BACKUP-CTRL", agg.veritas_ctrl);
  row("VERITAS-BACKUP-DATA", agg.veritas_data);
  row("DANTZ", agg.dantz);
  row("CONNECTED-BACKUP", agg.connected);
  return t.render();
}

// Drawn per dataset: one pair of plots per input.
std::string figure9_utilization(Inputs in, RenderCache& cache) {
  std::string out;
  for (const auto& i : in) {
    const LoadAnalysis& load = cache.load(*i.analysis);
    if (!out.empty()) out += "\n";
    CdfPlot peaks("Figure 9(a): peak utilization per trace, " + i.analysis->name + " (Mbps)",
                  "Mbps", true);
    peaks.add_series("1 second", load.peak_1s);
    peaks.add_series("10 seconds", load.peak_10s);
    peaks.add_series("60 seconds", load.peak_60s);
    out += peaks.render();
    CdfPlot stats("Figure 9(b): 1-second utilization statistics per trace (Mbps)", "Mbps", true);
    stats.add_series("Minimum", load.min_1s);
    stats.add_series("Maximum", load.max_1s);
    stats.add_series("Average", load.avg_1s);
    stats.add_series("25th perc.", load.p25_1s);
    stats.add_series("Median", load.median_1s);
    stats.add_series("75th perc.", load.p75_1s);
    out += stats.render();
  }
  return out;
}

// Includes the §6 ablation: the internal median if 1-byte keepalive
// retransmissions were counted.
std::string figure10_retransmissions(Inputs in, RenderCache& cache) {
  TextTable t("Figure 10: TCP retransmission rates across traces (keepalives excluded)");
  t.set_header({"dataset", "traces", "ent median", "ent p90", "ent max", "wan median",
                "wan p90", "wan max", "ent traces >1%", "keepalive retx excluded"});
  // Ablation (§6): the internal rate over the same traces, with each
  // trace's internal keepalives counted as retransmitted packets.
  TextTable ablation("Ablation: internal retx rate if keepalives were counted");
  ablation.set_header({"dataset", "median (keepalives excluded)", "median (included)"});
  for (const auto& i : in) {
    const DatasetAnalysis& a = *i.analysis;
    const LoadAnalysis& load = cache.load(a);
    std::uint64_t over_1pct = 0;
    for (double r : load.retx_ent_by_trace)
      if (r > 0.01) ++over_1pct;
    t.add_row({a.name, std::to_string(a.load_raw.size()),
               pct(load.retx_ent.median()), pct(load.retx_ent.quantile(0.9)),
               pct(load.retx_ent.max()), pct(load.retx_wan.median()),
               pct(load.retx_wan.quantile(0.9)), pct(load.retx_wan.max()),
               std::to_string(over_1pct), std::to_string(load.keepalives_excluded)});

    EmpiricalCdf counted;
    for (std::size_t k = 0; k < a.load_raw.size(); ++k) {
      if (load.retx_ent_by_trace[k] < 0) continue;  // outside Figure 10's population
      // The trace's own connections: TraceLoadRaw::keepalive_excluded also
      // counts WAN keepalives.
      std::uint64_t keepalives = 0;
      for (const Connection& c : a.trace_connections[k]) {
        if (a.site.is_internal(c.key.src) && a.site.is_internal(c.key.dst))
          keepalives += c.keepalive_retx;
      }
      const TraceLoadRaw& raw = a.load_raw[k];
      counted.add(static_cast<double>(raw.ent_retx + keepalives) /
                  static_cast<double>(raw.ent_tcp_pkts + keepalives));
    }
    ablation.add_row({a.name, pct(load.retx_ent.median()), pct(counted.median())});
  }
  return t.render() + ablation.render();
}

// Runtime telemetry: the pipeline's own semantic metrics per dataset
// (source/decode/flow/app/scanner counters).  Semantic-class only, so the
// table, like every other section, is byte-identical across thread counts
// and shard partitions; timing metrics are exposed solely via
// --metrics-out (obs::render_json / render_prometheus).
std::string telemetry(Inputs in, RenderCache&) {
  std::string out;
  for (const auto& i : in) {
    if (i.analysis->metrics.empty()) continue;
    if (!out.empty()) out += "\n";
    out += obs::render_table(i.analysis->metrics,
                             "Pipeline telemetry (semantic metrics): " + i.analysis->name,
                             /*include_timing=*/false);
  }
  return out;
}

constexpr Section kSections[] = {
    {"table1", table1_datasets, false,
     "             D0      D1      D2      D3      D4\n"
     "Duration     10 min  1 hr    1 hr    1 hr    1 hr\n"
     "Per Tap      1       2       1       1       1-2\n"
     "# Subnets    22      22      22      18      18\n"
     "# Packets    17.8M   64.7M   28.1M   21.6M   27.7M   (ours are scaled by ENTRACE_SCALE)\n"
     "Snaplen      1500    68      68      1500    1500\n"
     "Mon. Hosts   2,531   2,102   2,088   1,561   1,558\n"
     "LBNL Hosts   4,767   5,761   5,210   5,234   5,698\n"
     "Remote Hosts 4,342   10,478  7,138   16,404  23,267"},
    {"capture_quality", capture_quality, false, ""},
    {"table2", table2_network_layer, false,
     "       D0    D1    D2    D3    D4\n"
     "IP     99%   97%   96%   98%   96%\n"
     "!IP    1%    3%    4%    2%    4%\n"
     "ARP    10%   6%    5%    27%   16%   (of non-IP)\n"
     "IPX    80%   77%   65%   57%   32%   (of non-IP)\n"
     "Other  10%   17%   29%   16%   52%   (of non-IP)"},
    {"table3", table3_transport, false,
     "        D0     D1     D2     D3     D4\n"
     "Bytes   13.12  31.88  13.20  8.98   11.75  GB (ours scaled)\n"
     "TCP     66%    95%    90%    77%    82%\n"
     "UDP     34%    5%     10%    23%    18%\n"
     "ICMP    0%     0%     0%     0%     0%\n"
     "Conns   0.16M  1.17M  0.54M  0.75M  1.15M  (ours scaled)\n"
     "TCP     26%    19%    23%    10%    8%\n"
     "UDP     68%    74%    70%    85%    87%\n"
     "ICMP    6%     6%     8%     5%     5%\n"
     "Scanner removal: 4-18% of connections across datasets"},
    {"figure1", figure1_app_breakdown, false,
     "Figure 1 (read off the bars):\n"
     "- bytes: bulk + net-file + backup constitute a majority in every dataset;\n"
     "  web is the largest mostly-WAN category; windows/streaming/interactive\n"
     "  contribute 5-10% each in some datasets.\n"
     "- connections: name is 45-65% of connections in every dataset, yet <1% of\n"
     "  bytes; net-mgnt, misc and other-udp show the same pattern.\n"
     "- web and email contribute non-negligibly to BOTH bytes and connections.\n"
     "- most traffic is enterprise-internal; 3-4x more categories appear\n"
     "  internally than crossing the border.\n"
     "- multicast: streaming 5-10% of all bytes; SrvLoc (name) and SAP\n"
     "  (net-mgnt) each 5-10% of all connections."},
    {"origins", origins_summary, false,
     "Origins (all datasets): ent->ent 71-79%, ent->wan 2-3%, wan->ent 6-11%,\n"
     "multicast ent-sourced 5-10%, multicast wan-sourced 4-7%."},
    {"figure2", figure2_fan, false,
     "Figure 2: hosts have more internal peers than WAN peers for both fan-in\n"
     "and fan-out; one-third to one-half of hosts have only-internal fan-in,\n"
     "more than half only-internal fan-out; >90% of hosts talk to at most a\n"
     "couple dozen peers; tails reach hundreds (servers, SrvLoc peers)."},
    {"table6", table6_http_automation, true,
     "Table 6 (share of internal HTTP requests / data bytes):\n"
     "          D0          D3          D4\n"
     "scan1     20% / 0.1%  45% / 0.9%  19% / 1%\n"
     "google1   23% / 45%   0%  / 0%    1%  / 0.1%\n"
     "google2   14% / 51%   8%  / 69%   4%  / 48%\n"
     "ifolder   1%  / 0.0%  0.2%/ 0.0%  10% / 9%\n"
     "All       58% / 96%   54% / 70%   34% / 59%"},
    {"http_findings", http_findings, true,
     "Findings: internal success 72-92% vs WAN 95-99% (failures mostly server\n"
     "RSTs); conditional GETs 29-53% of internal requests vs 12-21% WAN, but\n"
     "only 1-9% / 1-7% of the data bytes; >90% of requests succeed (2xx/304)."},
    {"figure3", figure3_http_fanout, true,
     "Clients visit roughly an order of magnitude more external HTTP servers\n"
     "than internal ones (ent N=127-302 clients, wan N=358-684; WAN curve\n"
     "shifted right of the enterprise curve across all datasets)."},
    {"table7", table7_http_content_types, true,
     "             requests          data bytes\n"
     "             ent       wan     ent       wan\n"
     "text         18-30%    14-26%  7-28%     13-27%\n"
     "image        67-76%    44-68%  10-34%    16-27%\n"
     "application  3-7%      9-42%   57-73%    33-60%\n"
     "other        0-2%      0.3-1%  0-9%      11-13%\n"
     "(no significant internal-vs-WAN difference in type mix)"},
    {"figure4", figure4_http_reply_sizes, true,
     "No significant difference between internal and WAN reply sizes; bodies\n"
     "span 1 B to ~100 MB with medians in the few-KB range; about half of web\n"
     "sessions fetch a single object, 10-20% fetch 10+."},
    {"table8", table8_email_sizes, false,
     "        D0      D1      D2      D3     D4\n"
     "SMTP    152MB   1658MB  393MB   20MB   59MB   (ours scaled)\n"
     "SIMAP   185MB   1855MB  612MB   236MB  258MB\n"
     "IMAP4   216MB   2MB     0.7MB   0.2MB  0.8MB  (policy change after D0)\n"
     "Other   9MB     68MB    21MB    12MB   21MB\n"
     "Key shape: IMAP4 -> IMAP/S transition between D0 and D1; D0-D2 monitor\n"
     "the mail-server subnets so their volumes dwarf D3-D4's."},
    {"figure5", figure5_email_durations, false,
     "SMTP: internal durations ~0.2-0.4 s median vs WAN 1.5-6 s (an order of\n"
     "magnitude, tracking RTT).  IMAP/S: internal connections last 1-2 orders\n"
     "of magnitude LONGER than WAN ones (clients poll ~every 10 minutes;\n"
     "durations cap near 50 min in hour-long traces).\n"
     "Success: SMTP internal 95-98%; WAN 71-93% in D0-2 (busy MXs) vs\n"
     "99-100% in D3-4; IMAP/S 99-100% everywhere."},
    {"figure6", figure6_email_sizes, false,
     "Flow sizes show no significant internal/WAN difference; traffic is\n"
     "largely unidirectional (to SMTP servers, to IMAP/S clients); over 95%\n"
     "of flows stay below 1 MB with significant upper tails (to ~1 GB axis)."},
    {"name_services", name_service_findings, true,
     "DNS: median latency ~0.4 ms internal vs ~20 ms external; request types\n"
     "A 50-66%, AAAA 17-25% (hosts resolve A+AAAA in parallel), PTR 10-18%,\n"
     "MX 4-7%; NOERROR 77-86%, NXDOMAIN 11-21%; a few clients (the two main\n"
     "SMTP servers) dominate the query load.\n"
     "Netbios/NS: queries 81-85%, refresh 12-15%; 63-71% of queried names are\n"
     "workstations/servers, 22-32% domain/browser; 36-50% of distinct queries\n"
     "fail (stale names), spread across clients (top-10 < 40% of requests)."},
    {"table9", table9_windows_success, true,
     "Host pairs:      Netbios/SSN    CIFS        Endpoint Mapper\n"
     "Total            595-1464       373-732     119-497\n"
     "Successful       82-92%         46-68%      99-100%\n"
     "Rejected         0.2-0.8%       26-37%      0%\n"
     "Unanswered       8-19%          5-19%       0.2-0.8%\n"
     "NBSS handshake success: 89-99%.  CIFS failures stem from clients\n"
     "dialing 139 and 445 in parallel against servers that only listen on 139."},
    {"table10", table10_cifs_commands, true,
     "                      requests              data bytes\n"
     "                      D0    D3    D4        D0    D3    D4\n"
     "Total                 49120 45954 123607    18MB  32MB  198MB (ours scaled)\n"
     "SMB Basic             36%   52%   24%       15%   12%   3%\n"
     "RPC Pipes             48%   33%   46%       32%   64%   77%\n"
     "Windows File Sharing  13%   11%   27%       43%   8%    17%\n"
     "LANMAN                1%    3%    1%        10%   15%   3%\n"
     "Other                 2%    0.6%  1.0%      0.2%  0.3%  0.8%\n"
     "Key finding: DCE/RPC pipes, not file sharing, are the most active\n"
     "component of CIFS traffic."},
    {"table11", table11_dcerpc_functions, true,
     "                      requests              data bytes\n"
     "                      D0    D3    D4        D0    D3    D4\n"
     "Total                 14191 13620 56912     4MB   19MB  146MB (ours scaled)\n"
     "NetLogon              42%   5%    0.5%      45%   0.9%  0.1%\n"
     "LsaRPC                26%   5%    0.6%      7%    0.3%  0.0%\n"
     "Spoolss/WritePrinter  0.0%  29%   81%       0.0%  80%   96%\n"
     "Spoolss/other         24%   34%   10%       42%   14%   3%\n"
     "Other                 8%    27%   8%        6%    4%    0.6%\n"
     "Vantage point effect: D0 monitors the auth server (NetLogon/LsaRPC\n"
     "dominate); D3-4 monitor the print server (Spoolss dominates)."},
    {"table12", table12_netfile_sizes, false,
     "          D0      D1      D2      D3      D4\n"
     "NFS conns 1067    5260    4144    3038    3347\n"
     "NFS bytes 6318MB  4094MB  3586MB  1030MB  1151MB  (ours scaled)\n"
     "NCP conns 2590    4436    2892    628     802\n"
     "NCP bytes 777MB   2574MB  2353MB  352MB   233MB   (ours scaled)\n"
     "Top-3 NFS host pairs carry 89-94% of NFS bytes; top-3 NCP pairs 35-62%.\n"
     "40-80% of NCP connections are keepalive-only (1-byte retransmissions).\n"
     "NFS-over-UDP byte share: 66% / 16% / 31% / 94% / 7% across D0-D4;\n"
     "90% of NFS host pairs use UDP, 21% TCP."},
    {"table13", table13_nfs_requests, true,
     "         requests                data\n"
     "         D0     D3     D4        D0     D3     D4\n"
     "Total    697512 303386 607108    5843MB 676MB  1064MB (ours scaled)\n"
     "Read     70%    25%    1%        64%    92%    6%\n"
     "Write    15%    1%     19%       35%    2%     83%\n"
     "GetAttr  9%     53%    50%       0.2%   4%     5%\n"
     "LookUp   4%     16%    23%       0.1%   2%     4%\n"
     "Access   0.5%   4%     5%        0.0%   0.4%   0.6%\n"
     "Other    2%     0.9%   2%        0.1%   0.2%   1%\n"
     "NFS requests succeed 84-95%; failures dominated by lookups of\n"
     "non-existent files."},
    {"table14", table14_ncp_requests, true,
     "                  requests              data\n"
     "                  D0     D3     D4      D0     D3     D4\n"
     "Total             869765 219819 267942  712MB  345MB  222MB (ours scaled)\n"
     "Read              42%    44%    41%     82%    70%    82%\n"
     "Write             1%     21%    2%      10%    28%    11%\n"
     "FileDirInfo       27%    16%    26%     5%     0.9%   3%\n"
     "File Open/Close   9%     2%     7%      0.9%   0.1%   0.5%\n"
     "File Size         9%     7%     5%      0.2%   0.1%   0.1%\n"
     "File Search       9%     7%     16%     1%     0.6%   4%\n"
     "Directory Service 2%     0.7%   1%      0.7%   0.1%   0.4%\n"
     "Other             3%     3%     2%      0.2%   0.1%   0.1%\n"
     "~95% of NCP requests succeed once connected (88-98% connect success);\n"
     "failures dominated by File/Dir Info requests."},
    {"figure7", figure7_requests_per_pair, true,
     "Requests per host pair span a handful to hundreds of thousands\n"
     "(N: NFS 104/48/57 pairs, NCP 441/168/188 pairs in D0/D3/D4); the\n"
     "inter-request interval within a client is generally <= 10 ms.\n"
     "(Our request counts scale with ENTRACE_SCALE; pair counts do not.)"},
    {"figure8", figure8_netfile_message_sizes, true,
     "NFS requests/replies are dual-mode: ~100 bytes for everything except\n"
     "write requests and read replies, which sit at the ~8 KB transfer size.\n"
     "NCP requests mode at 14 bytes (reads); reply sizes show vertical rises\n"
     "at 2 bytes (completion-only), 10 bytes (GetFileSize) and 260 bytes\n"
     "(a fraction of ReadFile replies)."},
    {"table15", table15_backup, false,
     "                     Connections   Bytes\n"
     "VERITAS-BACKUP-CTRL  1271          0.1MB    (ours scaled)\n"
     "VERITAS-BACKUP-DATA  352           6781MB\n"
     "DANTZ                1013          10967MB\n"
     "CONNECTED-BACKUP     105           214MB\n"
     "Veritas data flows are strictly client->server; Dantz connections show\n"
     "significant bidirectionality (tens of MB both ways within single\n"
     "connections); Connected backs up to an external provider."},
    {"figure9", figure9_utilization, false,
     "Networks are under-utilized at every timescale: 1-second peaks can\n"
     "reach saturation (100 Mbps) but peak utilization falls as the interval\n"
     "widens; typical (median) 1-second utilization is 1-2 orders of\n"
     "magnitude below the peak and 2-3 orders below the 100 Mbps capacity.\n"
     "(At ENTRACE_SCALE the absolute Mbps shift down by the scale factor;\n"
     "the orders-of-magnitude gaps are what reproduce.)"},
    {"figure10", figure10_retransmissions, false,
     "Retransmission rate < 1% in the vast majority of traces for both\n"
     "internal and WAN traffic; internal < WAN as expected; internal rate\n"
     "sometimes eclipses 2%, peaking ~5% in one trace dominated by a single\n"
     "Veritas backup connection (congestion or flaky NIC downstream of the\n"
     "tap).  Spurious 1-byte keepalive retransmissions (NCP, SSH) are\n"
     "excluded before computing the rates."},
    {"telemetry", telemetry, false, ""},
};

}  // namespace

struct RenderCache::Entry {
  std::optional<LoadAnalysis> load;
  std::optional<HttpAnalysis> http;
  std::optional<EmailAnalysis> email;
  std::optional<WindowsAnalysis> windows;
  std::optional<NetFileAnalysis> netfile;
};

RenderCache::RenderCache() = default;
RenderCache::~RenderCache() = default;

RenderCache::Entry& RenderCache::entry(const DatasetAnalysis& a) {
  for (auto& [analysis, e] : entries_) {
    if (analysis == &a) return *e;
  }
  return *entries_.emplace_back(&a, std::make_unique<Entry>()).second;
}

const LoadAnalysis& RenderCache::load(const DatasetAnalysis& a) {
  return once(entry(a).load, [&a] { return LoadAnalysis::compute(a.load_raw); });
}

const HttpAnalysis& RenderCache::http(const DatasetAnalysis& a) {
  return once(entry(a).http,
              [&a] { return HttpAnalysis::compute(a.events.http, a.connections, a.site); });
}

const EmailAnalysis& RenderCache::email(const DatasetAnalysis& a) {
  return once(entry(a).email, [&a] { return EmailAnalysis::compute(a.connections, a.site); });
}

const WindowsAnalysis& RenderCache::windows(const DatasetAnalysis& a) {
  return once(entry(a).windows,
              [&a] { return WindowsAnalysis::compute(a.events, a.connections, a.site); });
}

const NetFileAnalysis& RenderCache::netfile(const DatasetAnalysis& a) {
  return once(entry(a).netfile,
              [&a] { return NetFileAnalysis::compute(a.events, a.connections, a.site); });
}

std::span<const Section> sections() { return kSections; }

const Section& section(std::string_view name) {
  for (const Section& s : kSections) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("report: no section named '" + std::string(name) + "'");
}

std::string render_section(const Section& section, Inputs in) {
  RenderCache cache;
  return render_section(section, in, cache);
}

std::string render_section(const Section& section, Inputs in, RenderCache& cache) {
  if (!section.payload_only) return section.render(in, cache);
  std::vector<ReportInput> payload;
  for (const auto& i : in)
    if (i.spec == nullptr || i.spec->payload_analysis()) payload.push_back(i);
  return section.render(payload, cache);
}

std::string full_report(Inputs in) {
  RenderCache cache;
  std::string out;
  for (const Section& section : kSections) {
    const std::string text = render_section(section, in, cache);
    if (text.empty()) continue;
    if (!out.empty()) out += "\n";
    out += text;
  }
  return out;
}

}  // namespace entrace::report
