// WiFi front-end: terminates RADIUS from access points.
//
// Table 1 maps WiFi's access control, subscriber management, and session
// management all onto "RADIUS AAA"; this module converts that dialect into
// the same generic Accessd calls the cellular front-ends use. CHAP-style
// challenge/response authentication runs against the subscriber row's WiFi
// credential; sessions are installed untunneled (plain IP from the AP).
// This is the path behind the paper's "carrier WiFi" and AccessParks-style
// deployments (§4.3.1, Figure 10).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "agw/accessd.h"
#include "common/ids.h"
#include "net/channel.h"
#include "proto/wifi/radius.h"

namespace magma::agw {

struct WifiFrontendStats {
  std::uint64_t access_requests = 0;
  std::uint64_t challenges_sent = 0;
  std::uint64_t accepts = 0;
  std::uint64_t rejects = 0;
  std::uint64_t acct_starts = 0;
  std::uint64_t acct_stops = 0;
  std::uint64_t acct_interims = 0;
  std::uint64_t decode_errors = 0;
};

class WifiFrontend {
 public:
  explicit WifiFrontend(Accessd& accessd);

  void add_ap_channel(net::Channel& channel);

  const WifiFrontendStats& stats() const { return stats_; }

 private:
  void on_message(net::Channel& conn, common::Bytes raw);
  void handle(net::Channel& conn, const proto::wifi::RadiusPacket& packet);
  void send(net::Channel& conn, const proto::wifi::RadiusPacket& packet);
  void send_reject(net::Channel& conn, std::uint8_t identifier,
                   const std::string& user);

  Accessd& accessd_;
  WifiFrontendStats stats_;
};

}  // namespace magma::agw
