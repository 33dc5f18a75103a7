// Seeded protocol mutations: the fault-injection analogue for the *control
// plane* (src/verify/).
//
// The model checker (tools/gencoll_verify) proves the recovery control plane
// correct by exhausting interleavings of faithful protocol models. To prove
// the *checker* correct, each mutation below weakens one load-bearing rule of
// a protocol — in the model AND in the runtime, through this single shared
// enum — so that
//
//   1. the model checker must find a counterexample for every mutation
//      (tests/verify/mutation_test.cpp), and
//   2. replaying that counterexample's FaultPlan against the mutated runtime
//      must reproduce the failure dynamically
//      (tests/fault/mutation_replay_test.cpp).
//
// A mutation that the checker cannot catch, or whose counterexample does not
// reproduce, is a model-drift bug: the model and the runtime have diverged.
// Production code paths read a single relaxed atomic that is kNone unless a
// test installs a ScopedMutation — the same cost class as the FaultPlan null
// check on the data plane.
#pragma once

#include <atomic>
#include <optional>
#include <string_view>

namespace gencoll::fault {

enum class ProtocolMutation {
  kNone = 0,
  /// Membership::try_commit returns success immediately, without the
  /// rendezvous: a rank whose step program finishes just before a late peer
  /// crash returns a full-p result while the survivors shrink and retry.
  kSkipCommitRendezvous,
  /// RevokeFlag::revoke and Membership::revoke drop the monotonic watermark
  /// guard: a straggler's stale-epoch revocation regresses the revoked-epoch
  /// watermark below the live epoch, un-poisoning an epoch that peers are
  /// actively recovering from.
  kRegressRevokeWatermark,
  /// The last joiner's epoch install skips the stale-epoch mailbox purge:
  /// in-flight messages from the interrupted attempt linger as permanent
  /// pending() leaks on channels the shrunk schedules never match again.
  kSkipInstallPurge,
  /// ShmTree::publish_buffers advances the generation counter without
  /// updating the published buffer pointers: the reader observes generation
  /// g with generation g-1's buffers (null/empty for the first publication)
  /// — the publication-order half of the seqlock contract, violated without
  /// a data race so the failure is a deterministic wrong answer, not UB.
  kSeqlockPublishBeforeData,
  /// The reliable receiver accepts already-delivered sequence numbers as
  /// fresh: a retransmitted or fault-duplicated envelope is handed to the
  /// app twice, breaking at-most-once delivery.
  kSkipDupDiscard,
};

/// The installed mutation (kNone in production). A single process-wide
/// atomic: rank threads read it on the mutated paths only.
ProtocolMutation protocol_mutation();

/// Install `m` process-wide. Tests use ScopedMutation instead.
void set_protocol_mutation(ProtocolMutation m);

/// True when `m` is the installed mutation (the one-branch check the
/// runtime's mutation sites use).
bool mutation_active(ProtocolMutation m);

const char* mutation_name(ProtocolMutation m);

/// Parse a mutation_name() string ("skip_commit_rendezvous", ...).
std::optional<ProtocolMutation> parse_mutation(std::string_view name);

/// All mutations except kNone, for sweeps.
inline constexpr ProtocolMutation kAllMutations[] = {
    ProtocolMutation::kSkipCommitRendezvous,
    ProtocolMutation::kRegressRevokeWatermark,
    ProtocolMutation::kSkipInstallPurge,
    ProtocolMutation::kSeqlockPublishBeforeData,
    ProtocolMutation::kSkipDupDiscard,
};

/// RAII installer for tests: sets the mutation on construction, restores the
/// previous one on destruction. Not nestable across threads — mutation
/// replay tests run one scenario at a time.
class ScopedMutation {
 public:
  explicit ScopedMutation(ProtocolMutation m) : previous_(protocol_mutation()) {
    set_protocol_mutation(m);
  }
  ~ScopedMutation() { set_protocol_mutation(previous_); }
  ScopedMutation(const ScopedMutation&) = delete;
  ScopedMutation& operator=(const ScopedMutation&) = delete;

 private:
  ProtocolMutation previous_;
};

}  // namespace gencoll::fault
