#include "verify/seqlock_model.hpp"

#include "runtime/shm_group.hpp"
#include "verify/explorer.hpp"

namespace gencoll::verify {

namespace sl = gencoll::runtime::seqlock;

namespace {

[[nodiscard]] const char* kind_name(SeqlockModel::Kind k) {
  using Kind = SeqlockModel::Kind;
  switch (k) {
    case Kind::kPublish: return "publish_buffers";
    case Kind::kTake: return "leader_take";
    case Kind::kFanout: return "fanout_publish";
    case Kind::kAwaitFanout: return "await_fanout";
    case Kind::kAck: return "ack_fanout";
    case Kind::kAwaitAcks: return "await_fanout_acks";
    case Kind::kAwaitDone: return "await_done";
    case Kind::kCommit: return "commit_done";
    case Kind::kLocalStep: return "local";
    case Kind::kCrash: return "crash";
    case Kind::kWakeRevoked: return "wake_revoked";
  }
  return "?";
}

[[nodiscard]] std::int8_t gen_of(std::int8_t counter) {
  return static_cast<std::int8_t>(
      sl::next_generation(static_cast<std::uint64_t>(counter)));
}

[[nodiscard]] bool visible(std::int8_t seq, std::int8_t consumed) {
  return sl::publication_visible(static_cast<std::uint64_t>(seq),
                                 static_cast<std::uint64_t>(consumed));
}

/// Done-counter budget of one small-path round: one fragment, F + 1.
constexpr std::uint64_t kQuantum = 2;

/// The group's uniform done count at the start of `round`.
[[nodiscard]] std::uint64_t done_base(std::int8_t round) {
  return kQuantum * static_cast<std::uint64_t>(round);
}

[[nodiscard]] std::int8_t fold_done(std::int8_t round) {
  return static_cast<std::int8_t>(sl::fragment_target(done_base(round), 0));
}

[[nodiscard]] std::int8_t exit_done(std::int8_t round) {
  return static_cast<std::int8_t>(
      sl::commit_target(done_base(round), kQuantum));
}

}  // namespace

SeqlockModel::SeqlockModel(SeqlockConfig config,
                           fault::ProtocolMutation mutation)
    : config_(config), mutation_(mutation) {}

void SeqlockModel::publish_node(Node& node) const {
  const auto next = gen_of(node.pub);
  if (mutation_ != fault::ProtocolMutation::kSeqlockPublishBeforeData) {
    // Faithful order: the pointers land before the counter release-store.
    node.data_gen = next;
  }
  // The breach itself is observed by the consumer (at the take or the
  // fan-out read), not here: the publisher cannot tell its own store order
  // went wrong.
  node.pub = next;
}

SeqlockModel::State SeqlockModel::initial() const {
  State s;
  s.procs.resize(static_cast<std::size_t>(config_.g));
  s.procs[0].phase = Phase::kLeaderPublish;
  for (int m = 1; m < config_.g; ++m) {
    s.procs[static_cast<std::size_t>(m)].phase = Phase::kMemberPublish;
  }
  s.nodes.resize(static_cast<std::size_t>(config_.g));
  return s;
}

void SeqlockModel::enabled(const State& s, std::vector<Action>& out) const {
  out.clear();
  if (!s.violation.empty()) return;  // freeze: check() reports it
  const Node& leader = s.nodes[0];
  for (int pi = 0; pi < config_.g; ++pi) {
    const Proc& p = s.procs[static_cast<std::size_t>(pi)];
    const auto proc = static_cast<std::int8_t>(pi);
    if (terminal(p.phase)) continue;
    const bool in_local =
        p.phase == Phase::kMemberLocal || p.phase == Phase::kLeaderLocal;
    // Crashes fire at p2p/shm protocol sites, never mid-compute (faithful
    // to the FaultPlan crash points) — which also keeps the local step
    // independent of the environment for the partial-order reduction.
    if (!in_local && s.crashes < config_.max_crashes) {
      out.push_back({Kind::kCrash, proc});
    }
    // Once the epoch is revoked every survivor's next wait (or the wait it
    // is already parked in) wakes with FaultError(kRevoked).
    if (!in_local && s.revoked) {
      out.push_back({Kind::kWakeRevoked, proc});
    }
    switch (p.phase) {
      case Phase::kMemberPublish:
      case Phase::kLeaderPublish:
        out.push_back({Kind::kPublish, proc});
        break;
      case Phase::kMemberAwaitFanout:
        if (visible(leader.fo, s.nodes[static_cast<std::size_t>(pi)].fo)) {
          out.push_back({Kind::kAwaitFanout, proc});
        }
        break;
      case Phase::kMemberAck:
        out.push_back({Kind::kAck, proc});
        break;
      case Phase::kMemberAwaitDone:
        if (leader.done >= fold_done(p.round)) {
          out.push_back({Kind::kAwaitDone, proc});
        }
        break;
      case Phase::kLeaderCommit:
        out.push_back({Kind::kCommit, proc});
        break;
      case Phase::kMemberLocal:
      case Phase::kLeaderLocal:
        out.push_back({Kind::kLocalStep, proc});
        break;
      case Phase::kLeaderTake:
        // buffers_of(member, own generation): every rank publishes once
        // per round, so the leader has consumed `round` publications.
        if (visible(s.nodes[static_cast<std::size_t>(p.take_idx)].pub,
                    p.round)) {
          out.push_back({Kind::kTake, proc});
        }
        break;
      case Phase::kLeaderFanout:
        out.push_back({Kind::kFanout, proc});
        break;
      case Phase::kLeaderAwaitAcks: {
        bool all = true;
        for (int m = 1; m < config_.g; ++m) {
          if (s.nodes[static_cast<std::size_t>(m)].fo < leader.fo) {
            all = false;
            break;
          }
        }
        if (all) out.push_back({Kind::kAwaitAcks, proc});
        break;
      }
      case Phase::kDone:
      case Phase::kCrashed:
      case Phase::kAborted:
        break;
    }
  }
}

SeqlockModel::State SeqlockModel::apply(const State& s0,
                                        const Action& a) const {
  State s = s0;
  Proc& p = s.procs[static_cast<std::size_t>(a.proc)];
  Node& self = s.nodes[static_cast<std::size_t>(a.proc)];
  const auto awaited = gen_of(p.round);
  switch (a.kind) {
    case Kind::kPublish:
      publish_node(self);
      p.phase = a.proc == 0              ? Phase::kLeaderTake
                : config_.no_fanout ? Phase::kMemberAwaitDone
                                    : Phase::kMemberAwaitFanout;
      break;
    case Kind::kTake: {
      const Node& t = s.nodes[static_cast<std::size_t>(p.take_idx)];
      if (t.data_gen != awaited) {
        s.violation = "seqlock publication order: leader consumed member " +
                      std::to_string(p.take_idx) + "'s generation " +
                      std::to_string(awaited) + " but its buffers are " +
                      "generation " + std::to_string(t.data_gen) +
                      " (counter advanced before the data landed)";
        break;
      }
      p.take_idx = static_cast<std::int8_t>(p.take_idx + 1);
      if (p.take_idx >= config_.g) {
        self.done = fold_done(p.round);
        p.phase =
            config_.no_fanout ? Phase::kLeaderCommit : Phase::kLeaderFanout;
      }
      break;
    }
    case Kind::kFanout:
      self.fo = gen_of(self.fo);
      p.phase = Phase::kLeaderAwaitAcks;
      break;
    case Kind::kAwaitFanout: {
      const Node& leader = s.nodes[0];
      if (leader.data_gen != awaited) {
        s.violation = "seqlock publication order: member " +
                      std::to_string(a.proc) + " read the leader's " +
                      "generation " + std::to_string(awaited) +
                      " but its buffers are generation " +
                      std::to_string(leader.data_gen) +
                      " (counter advanced before the data landed)";
        break;
      }
      p.phase = Phase::kMemberAck;
      break;
    }
    case Kind::kAck:
      self.fo = gen_of(self.fo);
      self.done = exit_done(p.round);
      p.phase = Phase::kMemberLocal;
      break;
    case Kind::kAwaitAcks:
    case Kind::kCommit:
      self.done = exit_done(p.round);
      p.phase = Phase::kLeaderLocal;
      break;
    case Kind::kAwaitDone:
      self.done = exit_done(p.round);
      p.phase = Phase::kMemberLocal;
      break;
    case Kind::kLocalStep:
      p.round = static_cast<std::int8_t>(p.round + 1);
      if (p.round >= config_.rounds) {
        p.phase = Phase::kDone;
      } else if (a.proc == 0) {
        p.phase = Phase::kLeaderPublish;
        p.take_idx = 1;
      } else {
        p.phase = Phase::kMemberPublish;
      }
      break;
    case Kind::kCrash:
      p.phase = Phase::kCrashed;
      s.crashes = static_cast<std::int8_t>(s.crashes + 1);
      // The World announces the death and revokes the group's epoch; every
      // shm wait polls the flag, so revocation reaches all survivors.
      s.revoked = true;
      break;
    case Kind::kWakeRevoked:
      p.phase = Phase::kAborted;
      break;
  }
  return s;
}

std::optional<std::string> SeqlockModel::check(const State& s) const {
  if (!s.violation.empty()) return s.violation;
  if (done(s) && s.crashes == 0) {
    // Clean completion: every handshake counter must sit in lockstep —
    // `rounds` publications and fan-outs, the done counter at the last
    // round's commit — a lost ack or phantom publication shows up here as
    // a skewed counter.
    const auto expect = static_cast<std::int8_t>(config_.rounds);
    const std::int8_t expect_fo = config_.no_fanout ? 0 : expect;
    const std::int8_t expect_done = exit_done(
        static_cast<std::int8_t>(config_.rounds - 1));
    for (int r = 0; r < config_.g; ++r) {
      const Node& node = s.nodes[static_cast<std::size_t>(r)];
      if (node.pub != expect || node.fo != expect_fo ||
          node.done != expect_done) {
        return "seqlock lockstep: rank " + std::to_string(r) +
               " finished with pub=" + std::to_string(node.pub) +
               " fo=" + std::to_string(node.fo) +
               " done=" + std::to_string(node.done) + ", expected " +
               std::to_string(expect) + "/" + std::to_string(expect_fo) +
               "/" + std::to_string(expect_done);
      }
    }
  }
  return std::nullopt;
}

bool SeqlockModel::done(const State& s) const {
  for (const Proc& p : s.procs) {
    if (!terminal(p.phase)) return false;
  }
  return true;
}

std::size_t SeqlockModel::hash(const State& s) const {
  StateHasher h;
  for (const Proc& p : s.procs) {
    h.add_signed(static_cast<std::int64_t>(p.phase));
    h.add_signed(p.round);
    h.add_signed(p.take_idx);
  }
  for (const Node& node : s.nodes) {
    h.add_signed(node.pub);
    h.add_signed(node.data_gen);
    h.add_signed(node.fo);
    h.add_signed(node.done);
  }
  h.add_signed(s.crashes);
  h.add(s.revoked ? 1U : 0U);
  h.add(s.violation.size());
  return h.value();
}

bool SeqlockModel::local(const State& s, const Action& a) const {
  // The between-rounds compute touches only the process's own pc and is
  // invisible to every invariant — but only while it stays non-terminal:
  // the final local step flips done() and must stay interleaved.
  if (a.kind != Kind::kLocalStep) return false;
  const Proc& p = s.procs[static_cast<std::size_t>(a.proc)];
  return p.round + 1 < config_.rounds;
}

std::string SeqlockModel::describe(const Action& a) const {
  return std::string(kind_name(a.kind)) + "(proc=" +
         std::to_string(a.proc) + ")";
}

}  // namespace gencoll::verify
