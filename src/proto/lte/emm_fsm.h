// EMM (EPS Mobility Management) state machine, TS 24.301 §5.
//
// §3.4: "Backwards compatibility with existing user devices and RAN
// equipment requires Magma to implement standards-defined state machines."
// Both sides of the NAS dialogue use this validated FSM: the UE model in
// src/ran/ue.cpp and the MME role inside the AGW's access management
// service. Invalid transitions are rejected (and counted), never applied —
// a malformed or replayed message must not corrupt a UE context.
#pragma once

#include <cstdint>
#include <string>

namespace magma::proto::lte {

enum class EmmState : std::uint8_t {
  kDeregistered = 0,
  kAuthPending,       // AuthenticationRequest outstanding
  kSecurityPending,   // SecurityModeCommand outstanding
  kContextPending,    // bearer/context setup in flight (network side)
  kRegistered,
  kDeregisterPending,
};

enum class EmmEvent : std::uint8_t {
  kAttachRequested = 0,  // Deregistered -> AuthPending
  kAuthSucceeded,        // AuthPending -> SecurityPending
  kAuthFailed,           // AuthPending -> Deregistered
  kSecurityEstablished,  // SecurityPending -> ContextPending
  kSecurityRejected,     // SecurityPending -> Deregistered
  kContextEstablished,   // ContextPending -> Registered
  kContextFailed,        // ContextPending -> Deregistered
  kDetachRequested,      // Registered -> DeregisterPending
  kDetachComplete,       // DeregisterPending -> Deregistered
  kImplicitDetach,       // any -> Deregistered (timeout / failure)
};

// NAS retransmission/guard timers (TS 24.301 §10.2). These bound how long
// an attach attempt can remain outstanding before it is counted as failed —
// load-bearing in the Figure 6 CSR experiment.
struct EmmTimers {
  // T3410: attach attempt guard (UE side).
  static constexpr std::int64_t kT3410_ms = 15000;
  // T3460: authentication/security procedure guard (network side).
  static constexpr std::int64_t kT3460_ms = 6000;
  // T3450: attach-complete guard (network side).
  static constexpr std::int64_t kT3450_ms = 6000;
  // Mobile-reachable / implicit detach (network side), shortened from the
  // standard's ~58 min to keep simulations brisk; behaviourally identical.
  static constexpr std::int64_t kImplicitDetach_ms = 120000;
};

class EmmFsm {
 public:
  EmmState state() const { return state_; }

  // Apply the event if valid; returns false (and leaves the state unchanged)
  // otherwise.
  bool handle(EmmEvent event);
  static bool valid(EmmState from, EmmEvent event, EmmState* to = nullptr);

  std::uint32_t invalid_transitions() const { return invalid_; }

 private:
  EmmState state_ = EmmState::kDeregistered;
  std::uint32_t invalid_ = 0;
};

}  // namespace magma::proto::lte
