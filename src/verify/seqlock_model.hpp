// Small-scope model of the shared-segment seqlock protocol as the one-level
// small-payload path runs it on runtime::ShmTree (runtime/shm_group.hpp,
// core/hierarchy.cpp execute_tree_hier): one leader and g-1 members run R
// rounds of buffer publication (every rank: publish_buffers), leader take
// (buffers_of each member in rank order, then fold), fan-out publication
// (leader: fanout_publish), member fan-out read and ack (await_fanout, copy
// out of the leader's buffer, ack_fanout) and the leader's ack fence
// (await_fanout_acks), with the generation counters advanced by the SAME
// runtime::seqlock::next_generation / awaited_generation /
// publication_visible / fragment_target / commit_target rules the runtime
// compiles — drift breaks the build. With SeqlockConfig::no_fanout every
// round is instead a reduce without a root hop: the leader bumps its done
// counter after the takes, and members fence on it rather than on a
// fan-out. Every rank commits its done counter on exit in both shapes.
//
// Payloads are abstracted to their generation number: a rank's `data_gen`
// records which publication its buffer pointers currently expose. A correct
// publish stores the pointers before advancing the counter, so every
// consumer that observes generation t reads generation-t buffers. The
// kSeqlockPublishBeforeData mutation advances the counter with the previous
// generation's pointers still in place — the reader then consumes
// generation t-1 buffers under counter t, which is exactly the
// publication-order invariant checked at every take and fan-out read:
//
//     data_gen == seqlock::awaited_generation(rounds consumed)
//
// Crashes (<= max_crashes) revoke the group's epoch; every survivor's next
// wait wakes with FaultError(kRevoked) (modeled as a wake action enabled in
// every waiting/active phase once revoked). The explorer's deadlock
// detection proves no interleaving of a crash with the handshake leaves a
// peer blocked forever; the clean-completion check proves all counters end
// in lockstep (pub == R, fo == R or 0, done == commit after R rounds on
// every rank) when nobody crashed. A member that left a round before the
// leader took its input would publish the next round's buffers under it,
// so a broken exit fence surfaces as the same publication-order violation
// once a second round runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/mutation.hpp"

namespace gencoll::verify {

struct SeqlockConfig {
  int g = 3;           ///< group size (leader + g-1 members), 2..5
  int rounds = 2;      ///< back-to-back collectives over the same group
  int max_crashes = 1; ///< crashes injected (0..1)
  /// Reduce without a root hop: members fence on the leader's done counter.
  bool no_fanout = false;
};

class SeqlockModel {
 public:
  enum class Phase : std::int8_t {
    // members (proc 1..g-1)
    kMemberPublish,
    kMemberAwaitFanout,
    kMemberAck,
    kMemberAwaitDone,
    kMemberLocal,
    // leader (proc 0)
    kLeaderPublish,
    kLeaderTake,
    kLeaderFanout,
    kLeaderAwaitAcks,
    kLeaderCommit,
    kLeaderLocal,
    // terminals
    kDone,
    kCrashed,
    kAborted,  ///< woken by revocation (FaultError(kRevoked))
  };

  enum class Kind : std::int8_t {
    kPublish,      ///< publish_buffers() (any rank)
    kTake,         ///< leader buffers_of(member) + fold of its input; the
                   ///< last one also bumps the leader's done counter
    kFanout,       ///< leader fanout_publish()
    kAwaitFanout,  ///< member await_fanout() + copy of the leader's buffer
    kAck,          ///< member ack_fanout() + done commit
    kAwaitAcks,    ///< leader await_fanout_acks() + done commit
    kAwaitDone,    ///< no_fanout member: await the leader's done + commit
    kCommit,       ///< no_fanout leader: done commit
    kLocalStep,    ///< rank-private compute between rounds (POR-local)
    kCrash,        ///< proc dies; the World revokes the group's epoch
    kWakeRevoked,  ///< survivor wakes with kRevoked at its next wait
  };

  struct Action {
    Kind kind = Kind::kPublish;
    std::int8_t proc = -1;
    bool operator==(const Action&) const = default;
  };

  struct Proc {
    Phase phase = Phase::kMemberPublish;
    std::int8_t round = 0;
    std::int8_t take_idx = 1;  ///< leader's fan-in cursor
    bool operator==(const Proc&) const = default;
  };

  /// One rank's cache-line Node, protocol-relevant content only.
  /// `data_gen` is the generation whose buffers the pointers expose.
  struct Node {
    std::int8_t pub = 0;  ///< buffer publications
    std::int8_t data_gen = 0;
    std::int8_t fo = 0;   ///< leader: fan-out seq; member: fan-out acks
    std::int8_t done = 0;  ///< fan-in progress and exit commits
    bool operator==(const Node&) const = default;
  };

  struct State {
    std::vector<Proc> procs;  ///< [0] = leader
    std::vector<Node> nodes;  ///< [rank]
    std::int8_t crashes = 0;
    bool revoked = false;
    std::string violation;
    bool operator==(const State&) const = default;
  };

  explicit SeqlockModel(
      SeqlockConfig config,
      fault::ProtocolMutation mutation = fault::ProtocolMutation::kNone);

  [[nodiscard]] State initial() const;
  void enabled(const State& s, std::vector<Action>& out) const;
  [[nodiscard]] State apply(const State& s, const Action& a) const;
  [[nodiscard]] std::optional<std::string> check(const State& s) const;
  [[nodiscard]] bool done(const State& s) const;
  [[nodiscard]] std::size_t hash(const State& s) const;
  [[nodiscard]] bool local(const State& s, const Action& a) const;
  [[nodiscard]] std::string describe(const Action& a) const;

  [[nodiscard]] const SeqlockConfig& config() const { return config_; }
  [[nodiscard]] fault::ProtocolMutation mutation() const { return mutation_; }

 private:
  [[nodiscard]] static bool terminal(Phase ph) {
    return ph == Phase::kDone || ph == Phase::kCrashed || ph == Phase::kAborted;
  }
  /// Seqlock publication: pointers first, counter last — unless mutated,
  /// in which case the counter advances over the stale pointers.
  void publish_node(Node& node) const;

  SeqlockConfig config_;
  fault::ProtocolMutation mutation_;
};

}  // namespace gencoll::verify
