// Streamer wire types: desired-state configuration sync (§3.4).
//
// The orchestrator is the sole writer of configuration state; AGWs poll
// GetUpdates with the (epoch, version) they have. The streamer answers one
// of three ways:
//   * kNoop  — the caller is current; nothing on the wire but the header.
//   * kDelta — the caller is behind by a range the orchestrator's delta log
//              still covers: a coalesced list of add/remove entries, so one
//              config change fans out to N gateways without N full-set
//              transfers.
//   * kFull  — everything else (first sync, epoch change after an
//              orchestrator restart, a version regression, or a gap older
//              than the delta log): the *entire* desired state ("the set of
//              sessions is now X, Y, Z" generalized to config). Idempotent
//              full-set transfer is the self-healing path — the property
//              bench/ablation_state_sync measures against a CRUD baseline —
//              and deltas are strictly an optimization layered on top of it.
//
// The epoch distinguishes orchestrator incarnations: a gateway holding
// version 40 from epoch 2 must not interpret version 3 of epoch 3 (a
// restarted orchestrator with a rebuilt store) as "stale", nor splice epoch-3
// deltas onto epoch-2 state. Any epoch mismatch degrades to kFull.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "agw/subscriberdb.h"
#include "common/bytes.h"
#include "common/result.h"
#include "core/policy.h"
#include "rpc/fields.h"

namespace magma::orc8r {

struct GetUpdatesRequest {
  std::string gateway_id;
  std::uint64_t have_version = 0;
  std::uint64_t have_epoch = 0;  // 0: never synced (epochs start at 1)

  common::Bytes serialize() const;
  static common::Result<GetUpdatesRequest> deserialize(common::BytesView d);
};

// Full desired-state payload (carried inside a kFull DesiredUpdate).
struct DesiredState {
  std::uint64_t version = 0;
  std::vector<agw::SubscriberData> subscribers;
  std::vector<core::Policy> policies;

  common::Bytes serialize() const;
  static common::Result<DesiredState> deserialize(common::BytesView d);
};

enum class SyncMode : std::uint8_t {
  kNoop = 0,
  kFull = 1,
  kDelta = 2,
};

// One coalesced config mutation. `key` is the subscriber IMSI or policy
// name; `blob` the serialized object for upserts, empty for removes.
struct DeltaEntry {
  enum class Kind : std::uint8_t { kSubscriber = 0, kPolicy = 1 };
  Kind kind = Kind::kSubscriber;
  bool remove = false;
  std::string key;
  common::Bytes blob;
};

// GetUpdates response envelope.
struct DesiredUpdate {
  std::uint64_t version = 0;
  std::uint64_t epoch = 0;
  SyncMode mode = SyncMode::kNoop;
  std::vector<DeltaEntry> entries;  // kDelta only
  common::Bytes full;               // kFull only: a serialized DesiredState

  common::Bytes serialize() const;
  static common::Result<DesiredUpdate> deserialize(common::BytesView d);
};

// Service/method names (orchestrator-side RPC surface).
inline constexpr const char* kStreamerService = "streamer";
inline constexpr const char* kGetUpdates = "GetUpdates";

inline constexpr const char* kBootstrapperService = "bootstrapper";
inline constexpr const char* kCheckin = "Checkin";

// The heartbeat: `status` is the gateway's Service303 snapshot, an
// obs::encode_gateway_status blob.
struct CheckinRequest {
  std::string gateway_id;
  std::string description;
  common::Bytes status;
};
MAGMA_WIRE_FIELDS(CheckinRequest, m.gateway_id, m.description, m.status);

// The ack carries the fleet tail-sampling budget: the gateway's assigned
// keep-per-op K (0: unmanaged, keep the local config).
struct CheckinResponse {
  bool ok = false;
  std::uint64_t keep_per_op = 0;
};
MAGMA_WIRE_FIELDS(CheckinResponse, m.ok, m.keep_per_op);

inline constexpr const char* kStateService = "state";
inline constexpr const char* kReportCheckpoint = "ReportCheckpoint";

// A gateway's runtime image (agw::AccessGateway::checkpoint), which orc8r
// hands to its backup on failover.
struct CheckpointReport {
  std::string gateway_id;
  common::Bytes image;
};
MAGMA_WIRE_FIELDS(CheckpointReport, m.gateway_id, m.image);

inline constexpr const char* kMetricsService = "metricsd";
inline constexpr const char* kReportMetrics = "Report";
inline constexpr const char* kReportHistograms = "ReportHistograms";
inline constexpr const char* kReportTraceSummaries = "ReportTraceSummaries";
inline constexpr const char* kReportSketches = "ReportSketches";

inline constexpr const char* kEventService = "eventd";
inline constexpr const char* kLogEvents = "LogEvents";

}  // namespace magma::orc8r
