// ProtocolDispatcher: the glue between the flow table and the application
// parsers.  Identifies each connection (port-based plus dynamic DCE/RPC
// endpoints), instantiates the right parser and feeds it stream data.  The
// DCE/RPC parsers (stand-alone and CIFS pipes) register each Endpoint
// Mapper reply in the same registry as they decode it, so later
// ephemeral-port connections are classified — mirroring the two-channel
// DCE/RPC analysis of §5.2.1.
#pragma once

#include <memory>
#include <vector>

#include "flow/flow_table.h"
#include "proto/events.h"
#include "proto/parser.h"
#include "proto/registry.h"

namespace entrace {

class ProtocolDispatcher : public FlowObserver {
 public:
  // payload_analysis=false (header-only snaplen datasets D1/D2) identifies
  // connections but runs no payload parsers, as in the paper.
  // `anomalies` (optional) receives kAppParseError counts from the stream
  // parsers; it must outlive the dispatcher.
  ProtocolDispatcher(AppRegistry& registry, AppEvents& events, bool payload_analysis,
                     AnomalyCounts* anomalies = nullptr);

  void on_new_connection(Connection& conn) override;
  void on_data(Connection& conn, Direction dir, double ts, std::span<const std::uint8_t> data,
               std::uint32_t wire_len) override;
  void on_close(Connection& conn) override;

 private:
  std::unique_ptr<AppParser> make_parser(const Connection& conn, AppProtocol app);

  AppRegistry& registry_;
  AppEvents& events_;
  bool payload_analysis_;
  AnomalyCounts* anomalies_;
  // Parsers are addressed by Connection::parser_slot, so a data packet
  // finds its parser without a hash lookup.  A slot's parser is destroyed
  // at on_close and the slot index recycled through free_slots_, so an
  // endless stream's slot table is bounded by the peak number of
  // simultaneously open parsed connections.
  std::vector<std::unique_ptr<AppParser>> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace entrace
