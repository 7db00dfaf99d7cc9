#include "datapath/flow_table.h"

#include <algorithm>

namespace magma::datapath {

bool FlowMatch::matches(const Packet& pkt, Direction dir) const {
  if (direction && *direction != dir) return false;
  if (ip_src && !ip_src->matches(pkt.ip.src)) return false;
  if (ip_dst && !ip_dst->matches(pkt.ip.dst)) return false;
  if (ip_proto && *ip_proto != pkt.ip.protocol) return false;
  if (l4_src && *l4_src != pkt.l4.src_port) return false;
  if (l4_dst && *l4_dst != pkt.l4.dst_port) return false;
  if (tunnel_id) {
    if (!pkt.gtpu || pkt.gtpu->teid != *tunnel_id) return false;
  }
  return true;
}

void FlowTable::add(FlowEntry entry) {
  // Stable position: after all entries with priority >= new priority —
  // upper_bound on the descending-sorted vector keeps FIFO order among
  // equal priorities (first-added wins ties, like the list did).
  auto it = std::upper_bound(entries_.begin(), entries_.end(), entry.priority,
                             [](std::uint16_t priority, const FlowEntry& e) {
                               return e.priority < priority;
                             });
  entries_.insert(it, std::move(entry));
  ++generation_;
}

std::size_t FlowTable::remove_by_cookie(std::uint64_t cookie) {
  const auto before = entries_.size();
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [cookie](const FlowEntry& e) {
                                  return e.cookie == cookie;
                                }),
                 entries_.end());
  if (entries_.size() != before) ++generation_;
  return before - entries_.size();
}

FlowEntry* FlowTable::lookup(const Packet& pkt, Direction dir) {
  for (FlowEntry& entry : entries_) {
    if (entry.match.matches(pkt, dir)) {
      return &entry;
    }
  }
  return nullptr;
}

FlowCounters FlowTable::counters_for_cookie(std::uint64_t cookie) const {
  FlowCounters total;
  for (const FlowEntry& entry : entries_) {
    if (entry.cookie == cookie) {
      total.packets += entry.counters.packets;
      total.bytes += entry.counters.bytes;
    }
  }
  return total;
}

void CookieCounters::fill(const FlowTable& table) {
  sums_.clear();
  for (const FlowEntry& entry : table.entries()) {
    sums_.emplace_back(entry.cookie, entry.counters);
  }
  std::sort(sums_.begin(), sums_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Fold each run of one cookie into a single sum.
  std::size_t n = 0;
  for (std::size_t i = 0; i < sums_.size(); ++i) {
    if (n > 0 && sums_[n - 1].first == sums_[i].first) {
      sums_[n - 1].second.packets += sums_[i].second.packets;
      sums_[n - 1].second.bytes += sums_[i].second.bytes;
    } else {
      sums_[n++] = sums_[i];
    }
  }
  sums_.resize(n);
}

FlowCounters CookieCounters::get(std::uint64_t cookie) const {
  auto it = std::lower_bound(
      sums_.begin(), sums_.end(), cookie,
      [](const auto& sum, std::uint64_t c) { return sum.first < c; });
  return it != sums_.end() && it->first == cookie ? it->second
                                                  : FlowCounters{};
}

}  // namespace magma::datapath
