#include "proto/lte/emm_fsm.h"

namespace magma::proto::lte {

bool EmmFsm::valid(EmmState from, EmmEvent event, EmmState* to) {
  EmmState next = from;
  bool ok = true;
  switch (event) {
    case EmmEvent::kAttachRequested:
      ok = from == EmmState::kDeregistered;
      next = EmmState::kAuthPending;
      break;
    case EmmEvent::kAuthSucceeded:
      ok = from == EmmState::kAuthPending;
      next = EmmState::kSecurityPending;
      break;
    case EmmEvent::kAuthFailed:
      ok = from == EmmState::kAuthPending;
      next = EmmState::kDeregistered;
      break;
    case EmmEvent::kSecurityEstablished:
      ok = from == EmmState::kSecurityPending;
      next = EmmState::kContextPending;
      break;
    case EmmEvent::kSecurityRejected:
      ok = from == EmmState::kSecurityPending;
      next = EmmState::kDeregistered;
      break;
    case EmmEvent::kContextEstablished:
      ok = from == EmmState::kContextPending;
      next = EmmState::kRegistered;
      break;
    case EmmEvent::kContextFailed:
      ok = from == EmmState::kContextPending;
      next = EmmState::kDeregistered;
      break;
    case EmmEvent::kDetachRequested:
      ok = from == EmmState::kRegistered;
      next = EmmState::kDeregisterPending;
      break;
    case EmmEvent::kDetachComplete:
      ok = from == EmmState::kDeregisterPending;
      next = EmmState::kDeregistered;
      break;
    case EmmEvent::kImplicitDetach:
      ok = true;  // always allowed: the network can give up on any UE
      next = EmmState::kDeregistered;
      break;
  }
  if (ok && to != nullptr) *to = next;
  return ok;
}

bool EmmFsm::handle(EmmEvent event) {
  EmmState next;
  if (!valid(state_, event, &next)) {
    ++invalid_;
    return false;
  }
  state_ = next;
  return true;
}

}  // namespace magma::proto::lte
