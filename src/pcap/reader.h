// pcap capture-file reader; handles both byte orders.
//
// Opening a file that cannot be read as a pcap capture throws.  A record
// whose body is cut off by EOF is salvaged (the partial bytes are returned
// as a snap-style truncated capture), and every corrupt-record condition
// is classified into anomalies() so callers can account for what the file
// actually contained.  next() clips every record
// to the global header's snaplen (a snaplen of 0 reads as 262,144,
// libpcap's rule for a bogus one).  Only Ethernet captures (link type 1)
// are accepted.
#pragma once

#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "net/anomaly.h"
#include "net/packet.h"

namespace entrace {

class PcapReader {
 public:
  // Throws std::runtime_error on open failure or a bad global header.
  // Error messages name the file, the byte offset, and (for bad magic or
  // a non-Ethernet link type) the observed value.
  explicit PcapReader(const std::string& path);
  ~PcapReader();

  PcapReader(const PcapReader&) = delete;
  PcapReader& operator=(const PcapReader&) = delete;

  // Next packet, or nullopt at end of file.  Corrupt-record conditions
  // (short record header, truncated body, absurd caplen) are counted in
  // anomalies(); a truncated body is salvaged, the others end the file.
  // The first record that ends the file ends it for good: every later
  // call returns nullopt too, whatever bytes follow it.
  std::optional<RawPacket> next();

  std::uint32_t snaplen() const { return snaplen_; }
  std::uint32_t link_type() const { return link_type_; }

  // File-level anomalies observed so far (pcap record layer only).
  const AnomalyCounts& anomalies() const { return anomalies_; }

 private:
  std::uint32_t read_u32(const std::uint8_t* p) const;

  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f) std::fclose(f);
    }
  };
  std::unique_ptr<std::FILE, FileCloser> file_;
  bool swapped_ = false;
  std::uint32_t snaplen_ = 0;
  std::uint32_t link_type_ = 0;
  AnomalyCounts anomalies_;
};

}  // namespace entrace
