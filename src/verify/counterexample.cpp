#include "verify/counterexample.hpp"

#include <string>
#include <vector>

namespace gencoll::verify {

namespace {

/// Fixed seed for class-level message-fault replay: any value works (the
/// runtime derives per-message fates from it deterministically); this one
/// is stamped into counterexamples so reports are recognizable.
constexpr std::uint64_t kReplaySeed = 0xCE0CE0ULL;

/// Stall far past every default timeout: turns a "silent crash" (hang) into
/// the declared-dead-but-running zombie dynamically.
constexpr double kZombieStallUs = 5'000'000.0;

void json_escape(std::string& out, const std::string& in) {
  for (const char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += hex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
        break;
    }
  }
}

void append_str(std::string& out, const char* key, const std::string& value) {
  out += '"';
  out += key;
  out += "\":\"";
  json_escape(out, value);
  out += '"';
}

template <typename Model>
std::vector<std::string> describe_trace(const Model& model,
                                        const Verdict<Model>& verdict) {
  std::vector<std::string> out;
  out.reserve(verdict.trace.size());
  for (const auto& action : verdict.trace) {
    out.push_back(model.describe(action));
  }
  return out;
}

template <typename Model>
void fill_common(Counterexample& cex, const Model& model,
                 const Verdict<Model>& verdict) {
  cex.mutation = fault::mutation_name(model.mutation());
  cex.kind = verdict.kind;
  cex.invariant = verdict.detail;
  cex.trace = describe_trace(model, verdict);
  cex.stats = verdict.stats;
}

}  // namespace

std::string Counterexample::to_json() const {
  std::string out = "{";
  append_str(out, "model", model);
  out += ',';
  append_str(out, "config", config);
  out += ',';
  append_str(out, "mutation", mutation);
  out += ',';
  append_str(out, "verdict", verdict_name(kind));
  out += ',';
  append_str(out, "invariant", invariant);
  out += ",\"trace\":[";
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    json_escape(out, trace[i]);
    out += '"';
  }
  out += "],";
  append_str(out, "fault_plan", plan.describe());
  out += ",\"stats\":{\"states\":" + std::to_string(stats.states) +
         ",\"transitions\":" + std::to_string(stats.transitions) +
         ",\"ample_states\":" + std::to_string(stats.ample_states) +
         ",\"max_depth\":" + std::to_string(stats.max_depth) +
         ",\"complete\":" + (stats.complete ? "true" : "false") + "}}";
  return out;
}

Counterexample make_counterexample(const MembershipModel& model,
                                   const Verdict<MembershipModel>& verdict) {
  using Kind = MembershipModel::Kind;
  Counterexample cex;
  cex.model = "membership";
  cex.config = "p=" + std::to_string(model.config().p) +
               " crashes<=" + std::to_string(model.config().max_crashes);
  fill_common(cex, model, verdict);
  cex.plan.seed = kReplaySeed;
  // Crash mapping is exact: count the crashed rank's completed p2p ops
  // (posts + consumes) in the trace prefix — the runtime's crash counter
  // fires entering the (after_ops+1)-th op, the same position the model
  // crash occupies (crashes are only enabled at the send/recv sites).
  std::vector<int> ops(static_cast<std::size_t>(model.config().p), 0);
  for (const auto& action : verdict.trace) {
    const auto r = static_cast<std::size_t>(action.rank);
    switch (action.kind) {
      case Kind::kPost:
      case Kind::kConsume:
        ++ops[r];
        break;
      case Kind::kCrashAnnounced:
        cex.plan.crashes.push_back(
            {static_cast<int>(action.rank), ops[r]});
        break;
      case Kind::kCrashSilent:
        // A hang, not a death: a stall past every timeout reproduces the
        // declared-dead-but-running zombie interleaving.
        cex.plan.slow_ranks.push_back(
            {static_cast<int>(action.rank), kZombieStallUs});
        break;
      default:
        break;
    }
  }
  return cex;
}

Counterexample make_counterexample(const SeqlockModel& model,
                                   const Verdict<SeqlockModel>& verdict) {
  Counterexample cex;
  cex.model = "seqlock";
  cex.config = "g=" + std::to_string(model.config().g) +
               " rounds=" + std::to_string(model.config().rounds) +
               " crashes<=" + std::to_string(model.config().max_crashes) +
               (model.config().no_fanout ? " no_fanout" : "");
  fill_common(cex, model, verdict);
  cex.plan.seed = kReplaySeed;
  // Shm handshake steps are not p2p ops, so the op counter has no exact
  // runtime analogue: map a crash to "at the next p2p op" (after_ops = 0) —
  // class-exact, position-approximate.
  for (const auto& action : verdict.trace) {
    if (action.kind == SeqlockModel::Kind::kCrash) {
      cex.plan.crashes.push_back({static_cast<int>(action.proc), 0});
    }
  }
  return cex;
}

Counterexample make_counterexample(const PartitionModel& model,
                                   const Verdict<PartitionModel>& verdict) {
  Counterexample cex;
  cex.model = "partition";
  std::string shape;
  for (std::size_t i = 0; i < model.config().levels.size(); ++i) {
    if (i != 0) shape += 'x';
    shape += std::to_string(model.config().levels[i]);
  }
  cex.config = "levels=" + shape +
               " s=" + std::to_string(model.config().population) +
               " fragments=" + std::to_string(model.config().fragments) +
               " crashes<=" + std::to_string(model.config().max_crashes);
  fill_common(cex, model, verdict);
  cex.plan.seed = kReplaySeed;
  // Like the seqlock model: shm fragment steps are not p2p ops, so crashes
  // map class-exactly to "at the next p2p op".
  for (const auto& action : verdict.trace) {
    if (action.kind == PartitionModel::Kind::kCrash) {
      cex.plan.crashes.push_back({static_cast<int>(action.proc), 0});
    }
  }
  return cex;
}

Counterexample make_counterexample(const TransportModel& model,
                                   const Verdict<TransportModel>& verdict) {
  using Kind = TransportModel::Kind;
  Counterexample cex;
  cex.model = "transport";
  cex.config = "messages=" + std::to_string(model.config().messages) +
               " attempts=" + std::to_string(model.config().max_attempts) +
               " drops<=" + std::to_string(model.config().drop_budget) +
               " dups<=" + std::to_string(model.config().dup_budget) +
               " delays<=" + std::to_string(model.config().delay_budget);
  fill_common(cex, model, verdict);
  cex.plan.seed = kReplaySeed;
  // Message fates are drawn from the seed stream at runtime: reproduce the
  // fault *class* the trace used. Retransmit-induced duplicates need dup
  // pressure too — a spurious timeout and a wire dup land the same way on
  // the receiver.
  bool drops = false;
  bool dups = false;
  bool delays = false;
  for (const auto& action : verdict.trace) {
    drops |= action.kind == Kind::kDrop || action.kind == Kind::kAckDrop;
    dups |= action.kind == Kind::kDup || action.kind == Kind::kRetransmit;
    delays |= action.kind == Kind::kAppRecv && action.arg > 0;
  }
  if (drops) cex.plan.drop_prob = 0.3;
  if (dups) cex.plan.dup_prob = 0.5;
  if (delays) {
    cex.plan.delay_prob = 0.5;
    cex.plan.max_delay_ms = 5.0;
  }
  return cex;
}

}  // namespace gencoll::verify
