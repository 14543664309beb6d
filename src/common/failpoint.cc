#include "common/failpoint.h"

#include <cstdlib>
#include <iostream>

#include "common/str_util.h"

namespace eve {

Failpoints& Failpoints::Instance() {
  static Failpoints* instance = new Failpoints();
  return *instance;
}

Failpoints::Failpoints() {
  if (const char* spec = std::getenv("EVE_FAILPOINTS")) {
    const Status status = ArmFromSpec(spec);
    if (!status.ok()) {
      std::cerr << "EVE_FAILPOINTS ignored: " << status << std::endl;
    }
  }
}

void Failpoints::Arm(const std::string& site, FailpointAction action,
                     int on_hit) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_[site] = Arming{action, on_hit < 1 ? 1 : on_hit};
}

void Failpoints::Disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.erase(site);
}

void Failpoints::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.clear();
  hits_.clear();
}

Status Failpoints::Hit(const char* site) {
  FailpointAction fired_action;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++hits_[site];
    auto it = armed_.find(site);
    if (it == armed_.end()) return Status::OK();
    if (--it->second.remaining > 0) return Status::OK();
    fired_action = it->second.action;
    armed_.erase(it);  // one-shot: auto-disarm once fired
  }
  if (fired_action == FailpointAction::kCrash) throw SimulatedCrash(site);
  return Status::Internal(std::string("failpoint fired: ") + site);
}

uint64_t Failpoints::HitCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hits_.find(site);
  return it == hits_.end() ? 0 : it->second;
}

const std::vector<std::string>& Failpoints::KnownSites() {
  static const std::vector<std::string>* sites = new std::vector<std::string>{
      fp::kApplyChangeBeforeJournal,
      fp::kApplyChangeAfterJournal,
      fp::kApplyChangeAfterMkbEvolve,
      fp::kApplyChangeBeforeCommit,
      fp::kApplyChangesMidBatch,
      fp::kExtendMkbAfterJournal,
      fp::kRegisterViewAfterJournal,
      fp::kRetractConstraintAfterJournal,
      fp::kSourceLeavesBetweenChanges,
      fp::kSourceLeavesBeforeCommit,
      fp::kSetMembershipAfterJournal,
      fp::kSyncViewStart,
      fp::kSyncDeadlineExpired,
      fp::kAdmissionEnqueue,
      fp::kAdmissionDrain,
      fp::kFederationProbeSend,
      fp::kFederationProbeTimeout,
      fp::kFederationProbeSlow,
      fp::kFederationProbeCorrupt,
      fp::kFederationProbeFlap,
      fp::kJournalAppendBeforeWrite,
      fp::kJournalAppendPartialWrite,
      fp::kJournalAppendBeforeFsync,
      fp::kAtomicWriteAfterTemp,
      fp::kAtomicWriteBeforeRename,
      fp::kCheckpointLoadValidate,
      fp::kViewPoolLoadValidate,
      fp::kMisdAppendParse,
      fp::kPrepareChangeComplete,
      fp::kVersionBeforeSwap,
      fp::kVersionAfterSwap,
      fp::kRollbackBeforeJournal,
      fp::kRollbackAfterJournal,
      fp::kRollbackAfterRestore,
      fp::kVersionScrub,
      fp::kShardedCommitShard,
      fp::kNetAccept,
      fp::kNetSessionStart,
      fp::kNetFrameRead,
      fp::kNetFrameWrite,
      fp::kNetDrain,
      fp::kNetShutdown,
      fp::kReplHello,
      fp::kReplSnapshotRender,
      fp::kReplShipRecord,
      fp::kReplApplyRecord,
      fp::kReplAckSend,
      fp::kReplPromote,
  };
  return *sites;
}

Status Failpoints::ArmFromSpec(std::string_view spec) {
  for (const std::string& entry : Split(spec, ',')) {
    const std::string_view trimmed = Trim(entry);
    if (trimmed.empty()) continue;
    const size_t eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("failpoint spec entry missing '=': " +
                                     std::string(trimmed));
    }
    const std::string site(Trim(trimmed.substr(0, eq)));
    std::string_view action_spec = Trim(trimmed.substr(eq + 1));
    int on_hit = 1;
    const size_t at = action_spec.find('@');
    if (at != std::string_view::npos) {
      const std::string count(Trim(action_spec.substr(at + 1)));
      char* end = nullptr;
      on_hit = static_cast<int>(std::strtol(count.c_str(), &end, 10));
      if (end == count.c_str() || *end != '\0' || on_hit < 1) {
        return Status::InvalidArgument("bad failpoint hit count: " + count);
      }
      action_spec = Trim(action_spec.substr(0, at));
    }
    FailpointAction action;
    if (EqualsIgnoreCase(action_spec, "error")) {
      action = FailpointAction::kError;
    } else if (EqualsIgnoreCase(action_spec, "crash")) {
      action = FailpointAction::kCrash;
    } else {
      return Status::InvalidArgument("bad failpoint action: " +
                                     std::string(action_spec));
    }
    Arm(site, action, on_hit);
  }
  return Status::OK();
}

}  // namespace eve
