#include "obs/events.h"

#include <algorithm>

#include "rpc/fields.h"

namespace magma::obs {

MAGMA_WIRE_FIELDS(TraceContext, m.trace_id, m.span_id);
MAGMA_WIRE_FIELDS(Event, m.time, m.gateway_id, m.type, m.source, m.message,
                  m.severity, m.trace);

common::Bytes encode_event_report(const std::vector<Event>& events) {
  return rpc::encode_record(events);
}

common::Result<std::vector<Event>> decode_event_report(
    common::BytesView data) {
  auto events =
      rpc::decode_record<std::vector<Event>>(data, "corrupt event report");
  if (!events.ok()) return events;
  for (const Event& e : events.value()) {
    if (e.severity > EventSeverity::kError) {
      return common::Error{common::ErrorCode::kInvalidArgument,
                           "bad event severity"};
    }
  }
  return events;
}

void EventBuffer::push(Event event) {
  ++pushed_;
  if (capacity_ == 0) {
    ++dropped_;
    return;
  }
  if (buffer_.size() >= capacity_) {
    buffer_.pop_front();
    ++dropped_;
  }
  buffer_.push_back(std::move(event));
}

std::vector<Event> EventBuffer::take(std::size_t max_count) {
  const std::size_t n = std::min(max_count, buffer_.size());
  std::vector<Event> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::move(buffer_.front()));
    buffer_.pop_front();
  }
  return out;
}

}  // namespace magma::obs
