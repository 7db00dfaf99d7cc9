#include "agw/pipelined.h"

#include <algorithm>

#include "rpc/fields.h"

namespace magma::agw {

namespace dp = magma::datapath;

MAGMA_WIRE_FIELDS(SessionFlows, m.cookie, m.ue_ip, m.tunneled, m.agw_teid_ul,
                  m.enb_teid_dl, m.enb_address, m.dl_rate_bps, m.ul_rate_bps,
                  m.blocked, m.idle, m.home_routed, m.home_teid_remote,
                  m.home_agg_address, m.home_teid_local);

common::Bytes SessionFlows::serialize() const {
  return rpc::encode_record(*this);
}

common::Result<SessionFlows> SessionFlows::deserialize(
    common::BytesView data) {
  return rpc::decode_record<SessionFlows>(data, "corrupt SessionFlows");
}

Pipelined::Pipelined() = default;

common::Status Pipelined::install_session(const SessionFlows& flows,
                                          sim::TimePoint now) {
  obs::svc_request(status_);
  if (auto it = sessions_.find(flows.cookie); it != sessions_.end()) {
    if (it->second == flows) return common::Status::Ok();  // idempotent
    // Changed spec: reinstall below.
    remove_session(flows.cookie).ok();
  }

  const dp::IpPrefix ue_host{flows.ue_ip, 32};

  // Table 0 — classify. LTE/5G uplink arrives GTP-encapsulated from the
  // RAN; WiFi uplink is plain IP from the AP. An idle session has no radio
  // connection, hence no uplink rules at all.
  if (!flows.idle) {
    dp::FlowEntry ul;
    ul.priority = 10;
    ul.cookie = flows.cookie;
    ul.match.direction = dp::Direction::kUplink;
    if (flows.tunneled) {
      ul.match.tunnel_id = flows.agw_teid_ul;
      ul.actions = {dp::Action::pop_gtpu(),
                    dp::Action::goto_table(dp::kTableEnforce)};
    } else {
      ul.match.ip_src = ue_host;
      ul.actions = {dp::Action::goto_table(dp::kTableEnforce)};
    }
    pipeline_.table(dp::kTableClassify).add(std::move(ul));
  }
  {

    dp::FlowEntry dl;
    dl.priority = 10;
    dl.cookie = flows.cookie;
    dl.match.direction = dp::Direction::kDownlink;
    if (flows.home_routed) {
      // Downlink arrives tunneled from the GTP aggregator.
      dl.match.tunnel_id = flows.home_teid_local;
      dl.actions = {dp::Action::pop_gtpu(),
                    dp::Action::goto_table(dp::kTableEnforce)};
    } else {
      dl.match.ip_dst = ue_host;
      dl.actions = {dp::Action::goto_table(dp::kTableEnforce)};
    }
    pipeline_.table(dp::kTableClassify).add(std::move(dl));
  }

  // Table 1 — enforcement: meters (or hard block). Block rules carry a
  // flagged cookie so their hit counters do not pollute usage accounting
  // (blocked traffic is not usage).
  if (flows.blocked) {
    dp::FlowEntry block;
    block.priority = 20;  // above the metered rules
    block.cookie = flows.cookie | kBlockCookieFlag;
    // One rule per direction so the match is unambiguous.
    dp::FlowEntry block_dl = block;
    block_dl.match.direction = dp::Direction::kDownlink;
    block_dl.match.ip_dst = ue_host;
    block_dl.actions = {dp::Action::drop()};
    pipeline_.table(dp::kTableEnforce).add(std::move(block_dl));

    dp::FlowEntry block_ul = block;
    block_ul.match.direction = dp::Direction::kUplink;
    block_ul.match.ip_src = ue_host;
    block_ul.actions = {dp::Action::drop()};
    pipeline_.table(dp::kTableEnforce).add(std::move(block_ul));
  }
  {
    if (flows.dl_rate_bps > 0) {
      pipeline_.meters().install(
          dl_meter_id(flows.cookie),
          dp::MeterConfig{static_cast<double>(flows.dl_rate_bps),
                          std::max<std::uint64_t>(flows.dl_rate_bps / 8 / 4,
                                                  64 * 1024)},
          now);
    }
    if (flows.ul_rate_bps > 0) {
      pipeline_.meters().install(
          ul_meter_id(flows.cookie),
          dp::MeterConfig{static_cast<double>(flows.ul_rate_bps),
                          std::max<std::uint64_t>(flows.ul_rate_bps / 8 / 4,
                                                  64 * 1024)},
          now);
    }

    dp::FlowEntry dl;
    dl.priority = 10;
    dl.cookie = flows.cookie;
    dl.match.direction = dp::Direction::kDownlink;
    dl.match.ip_dst = ue_host;
    if (flows.dl_rate_bps > 0) {
      dl.actions.push_back(dp::Action::set_meter(dl_meter_id(flows.cookie)));
    }
    dl.actions.push_back(dp::Action::goto_table(dp::kTableEgress));
    pipeline_.table(dp::kTableEnforce).add(std::move(dl));

    if (!flows.idle) {
      dp::FlowEntry ul;
      ul.priority = 10;
      ul.cookie = flows.cookie;
      ul.match.direction = dp::Direction::kUplink;
      ul.match.ip_src = ue_host;
      if (flows.ul_rate_bps > 0) {
        ul.actions.push_back(
            dp::Action::set_meter(ul_meter_id(flows.cookie)));
      }
      ul.actions.push_back(dp::Action::goto_table(dp::kTableEgress));
      pipeline_.table(dp::kTableEnforce).add(std::move(ul));
    }
  }

  // Table 2 — egress.
  {
    if (!flows.idle) {
      dp::FlowEntry ul;
      ul.priority = 10;
      ul.cookie = flows.cookie;
      ul.match.direction = dp::Direction::kUplink;
      ul.match.ip_src = ue_host;
      if (flows.home_routed) {
        ul.actions = {dp::Action::push_gtpu(flows.home_teid_remote,
                                            flows.home_agg_address),
                      dp::Action::output(dp::kPortSgi)};
      } else {
        ul.actions = {dp::Action::output(dp::kPortSgi)};
      }
      pipeline_.table(dp::kTableEgress).add(std::move(ul));
    }

    dp::FlowEntry dl;
    dl.priority = 10;
    dl.cookie = flows.cookie;
    dl.match.direction = dp::Direction::kDownlink;
    dl.match.ip_dst = ue_host;
    if (flows.idle) {
      // No radio path: deliver to the local port, which triggers paging.
      // Flagged cookie: paging triggers are not subscriber usage.
      dl.cookie = flows.cookie | kBlockCookieFlag;
      dl.actions = {dp::Action::output(dp::kPortLocal)};
    } else if (flows.tunneled) {
      dl.actions = {
          dp::Action::push_gtpu(flows.enb_teid_dl, flows.enb_address),
          dp::Action::output(dp::kPortRan)};
    } else {
      dl.actions = {dp::Action::output(dp::kPortRan)};
    }
    pipeline_.table(dp::kTableEgress).add(std::move(dl));
  }

  sessions_[flows.cookie] = flows;
  ++stats_.sessions_installed;
  return common::Status::Ok();
}

common::Status Pipelined::remove_session(std::uint64_t cookie) {
  obs::svc_request(status_);
  auto it = sessions_.find(cookie);
  if (it == sessions_.end()) {
    return common::Error{common::ErrorCode::kNotFound, "no such session"};
  }
  pipeline_.remove_session_rules(cookie);
  pipeline_.remove_session_rules(cookie | kBlockCookieFlag);
  pipeline_.meters().remove(dl_meter_id(cookie));
  pipeline_.meters().remove(ul_meter_id(cookie));
  sessions_.erase(it);
  ++stats_.sessions_removed;
  return common::Status::Ok();
}

bool Pipelined::has_session(std::uint64_t cookie) const {
  return sessions_.contains(cookie);
}

std::vector<std::uint64_t> Pipelined::installed_cookies() const {
  std::vector<std::uint64_t> out;
  out.reserve(sessions_.size());
  for (const auto& [cookie, _] : sessions_) out.push_back(cookie);
  std::sort(out.begin(), out.end());
  return out;
}

void Pipelined::set_desired_sessions(
    const std::vector<SessionFlows>& sessions, sim::TimePoint now) {
  obs::svc_request(status_);
  ++stats_.reconciliations;
  // Remove sessions not in the desired set (or whose spec changed).
  std::unordered_map<std::uint64_t, const SessionFlows*> desired;
  for (const SessionFlows& f : sessions) desired[f.cookie] = &f;

  std::vector<std::uint64_t> to_remove;
  for (const auto& [cookie, current] : sessions_) {
    auto it = desired.find(cookie);
    if (it == desired.end() || !(*it->second == current)) {
      to_remove.push_back(cookie);
    }
  }
  for (std::uint64_t cookie : to_remove) remove_session(cookie).ok();

  // Install new/changed sessions; unchanged ones are untouched.
  for (const SessionFlows& f : sessions) {
    if (!sessions_.contains(f.cookie)) install_session(f, now).ok();
  }
}

datapath::FlowCounters Pipelined::session_usage(std::uint64_t cookie) const {
  // Egress-table counters: charged exactly once per *delivered* packet
  // (post-policing), on the inner (user) packet form.
  return pipeline_.table(dp::kTableEgress).counters_for_cookie(cookie);
}

void Pipelined::read_usage(datapath::CookieCounters& out) const {
  out.fill(pipeline_.table(dp::kTableEgress));
}

}  // namespace magma::agw
