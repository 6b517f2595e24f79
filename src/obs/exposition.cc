#include "obs/exposition.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/table.h"

namespace entrace::obs {
namespace {

// Shortest round-trippable formatting for doubles so JSON output is stable
// and exact.  %.17g round-trips any double; trim to %g when lossless.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  if (std::strtod(buf, nullptr) == v) return buf;
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Prometheus metric names allow [a-zA-Z0-9_:]; our dotted names map '.' and
// any other invalid byte to '_'.
std::string prom_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (!out.empty() && std::isdigit(static_cast<unsigned char>(out[0]))) out.insert(0, 1, '_');
  return out;
}

std::string prom_bound(double b) {
  if (std::isinf(b)) return "+Inf";
  return fmt_double(b);
}

std::string summarize_value(const Metric& m) {
  switch (m.kind) {
    case MetricKind::kCounter: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%" PRIu64, m.counter.value());
      return buf;
    }
    case MetricKind::kGauge:
      return fmt_double(m.gauge.value());
    case MetricKind::kHistogram: {
      char buf[96];
      const std::uint64_t n = m.histogram->count();
      const double mean = n == 0 ? 0.0 : m.histogram->sum() / static_cast<double>(n);
      std::snprintf(buf, sizeof(buf), "n=%" PRIu64 " mean=%.4g", n, mean);
      return buf;
    }
  }
  return "?";
}

}  // namespace

std::string render_table(const Registry& reg, const std::string& title, bool include_timing) {
  TextTable t(title);
  t.set_header({"metric", "kind", "value"});
  for (const Metric* m : reg.metrics()) {
    if (!include_timing && m->cls == MetricClass::kTiming) continue;
    t.add_row({m->name, to_string(m->kind), summarize_value(*m)});
  }
  return t.render();
}

std::string render_json(const Registry& reg, bool include_timing) {
  std::ostringstream os;
  os << "{\n";
  bool first = true;
  for (const Metric* m : reg.metrics()) {
    if (!include_timing && m->cls == MetricClass::kTiming) continue;
    if (!first) os << ",\n";
    first = false;
    os << "  \"" << json_escape(m->name) << "\": {\"class\": \"" << to_string(m->cls)
       << "\", \"kind\": \"" << to_string(m->kind) << "\", ";
    switch (m->kind) {
      case MetricKind::kCounter:
        os << "\"value\": " << m->counter.value();
        break;
      case MetricKind::kGauge:
        os << "\"value\": " << fmt_double(m->gauge.value());
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *m->histogram;
        os << "\"count\": " << h.count() << ", \"sum\": " << fmt_double(h.sum())
           << ", \"bounds\": [";
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          if (i) os << ", ";
          os << fmt_double(h.bounds()[i]);
        }
        os << "], \"buckets\": [";
        for (std::size_t i = 0; i < h.buckets().size(); ++i) {
          if (i) os << ", ";
          os << h.buckets()[i];
        }
        os << "]";
        break;
      }
    }
    os << "}";
  }
  os << "\n}\n";
  return os.str();
}

std::string render_prometheus(const Registry& reg, bool include_timing) {
  std::ostringstream os;
  for (const Metric* m : reg.metrics()) {
    if (!include_timing && m->cls == MetricClass::kTiming) continue;
    const std::string name = prom_name(m->name);
    if (!m->help.empty()) os << "# HELP " << name << " " << m->help << "\n";
    os << "# TYPE " << name << " "
       << (m->kind == MetricKind::kGauge ? "gauge"
                                         : (m->kind == MetricKind::kCounter ? "counter"
                                                                            : "histogram"))
       << "\n";
    const std::string cls_label = std::string("class=\"") + to_string(m->cls) + "\"";
    switch (m->kind) {
      case MetricKind::kCounter:
        os << name << "{" << cls_label << "} " << m->counter.value() << "\n";
        break;
      case MetricKind::kGauge:
        os << name << "{" << cls_label << "} " << fmt_double(m->gauge.value()) << "\n";
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *m->histogram;
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < h.buckets().size(); ++i) {
          cum += h.buckets()[i];
          const double bound =
              i < h.bounds().size() ? h.bounds()[i] : std::numeric_limits<double>::infinity();
          os << name << "_bucket{" << cls_label << ",le=\"" << prom_bound(bound) << "\"} " << cum
             << "\n";
        }
        os << name << "_sum{" << cls_label << "} " << fmt_double(h.sum()) << "\n";
        os << name << "_count{" << cls_label << "} " << h.count() << "\n";
        break;
      }
    }
  }
  return os.str();
}

void write_metrics_file(const Registry& reg, const std::string& path, bool include_timing) {
  const bool json = path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  // Write-then-rename so a killed process never leaves a half-written file
  // under the destination name (same crash-safety contract as
  // snapshot::SnapshotWriter; scrapers read these paths).
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open metrics output file: " + tmp);
    out << (json ? render_json(reg, include_timing) : render_prometheus(reg, include_timing));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error("failed writing metrics output file: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " onto metrics output file " + path);
  }
}

}  // namespace entrace::obs
