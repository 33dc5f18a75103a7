#include "service/bandit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gencoll::service {

namespace {

/// Exponentially-weighted update: weight approaches 1/(1-decay), the mean
/// tracks the last ~1/(1-decay) observations. First observation lands
/// exactly (weight 0 -> 1, mean -> x).
void ew_update(double& mean, double& weight, double decay, double x) {
  weight = 1.0 + decay * weight;
  mean += (x - mean) / weight;
}

constexpr double kFastDecay = 0.6;  ///< shift-detector fast stream (~3 obs)

}  // namespace

OnlineSelector::OnlineSelector(OnlineSelectorConfig config, int p)
    : config_(std::move(config)), p_(p), rng_(config_.seed) {}

OnlineSelector::KeyState& OnlineSelector::state_for(const ArmKey& key,
                                                    core::CollOp op,
                                                    std::size_t count,
                                                    std::size_t elem_size) {
  auto it = keys_.find(key);
  if (it != keys_.end()) return it->second;

  KeyState state;
  state.epsilon = config_.epsilon0;
  for (const Arm& arm : enumerate_arms(op, p_, count, elem_size, config_.arms)) {
    state.arms.push_back(ArmStats{arm, 0.0, 0.0, 0});
  }
  // Seed the prior: the tuned rule for this traffic becomes the starting
  // exploit choice. A prior outside the enumerated space is appended — the
  // tuned tables are trusted even when the pruned arm space missed them.
  if (const auto prior = config_.priors.lookup(op, count * elem_size)) {
    const Arm prior_arm = arm_of(*prior);
    auto found = std::find_if(
        state.arms.begin(), state.arms.end(),
        [&](const ArmStats& s) { return s.arm == prior_arm; });
    if (found == state.arms.end()) {
      state.arms.push_back(ArmStats{prior_arm, 0.0, 0.0, 0});
      found = std::prev(state.arms.end());
    }
    state.prior_arm = static_cast<int>(found - state.arms.begin());
  }
  return keys_.emplace(key, std::move(state)).first->second;
}

int OnlineSelector::exploit_index(const KeyState& state) const {
  const auto score_of = [&](const ArmStats& s) {
    return s.mean_us * (1.0 - config_.ucb_c / std::sqrt(s.weight));
  };
  int best = -1;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < state.arms.size(); ++i) {
    const ArmStats& s = state.arms[i];
    if (s.weight <= 0.0) continue;  // the epsilon stream discovers new arms
    const double score = score_of(s);
    if (score < best_score) {
      best_score = score;
      best = static_cast<int>(i);
    }
  }
  // Hysteresis: estimates wobble by a few percent under jitter, so a
  // challenger must beat the incumbent by >2% — flapping between near-equal
  // arms buys nothing and poisons the shift-detector stream.
  if (best >= 0 && state.last_arm >= 0 && state.last_arm != best &&
      state.last_arm < static_cast<int>(state.arms.size())) {
    const ArmStats& incumbent =
        state.arms[static_cast<std::size_t>(state.last_arm)];
    if (incumbent.weight > 0.0 && best_score > 0.98 * score_of(incumbent)) {
      return state.last_arm;
    }
  }
  if (best >= 0) return best;
  if (state.prior_arm >= 0) return state.prior_arm;
  return state.arms.empty() ? -1 : 0;
}

Arm OnlineSelector::choose(const ArmKey& key, core::CollOp op, std::size_t count,
                           std::size_t elem_size, double now_us) {
  const std::lock_guard<std::mutex> lock(mu_);
  return choose_locked(key, op, count, elem_size, now_us);
}

Arm OnlineSelector::choose_locked(const ArmKey& key, core::CollOp op,
                                  std::size_t count, std::size_t elem_size,
                                  double now_us) {
  KeyState& state = state_for(key, op, count, elem_size);
  if (state.arms.empty()) {
    // No registered algorithm for the op at all — callers guard against
    // this; return the default-constructed arm as a last resort.
    return Arm{};
  }
  ++decisions_;
  ++state.key_decisions;

  const int exploit = exploit_index(state);
  int chosen = exploit;
  if (rng_.uniform() < state.epsilon) {
    // Unseen arms first: systematic coverage beats resampling known-bad
    // arms.
    chosen = -1;
    for (std::size_t i = 0; i < state.arms.size(); ++i) {
      if (state.arms[i].weight <= 0.0) {
        chosen = static_cast<int>(i);
        break;
      }
    }
    if (chosen < 0) {
      // Everything seen: mostly probe *viable* challengers (within 3x of
      // the best known mean — an arm 10x off is not going to win by
      // estimation error), with a 1-in-4 unguarded draw so even written-off
      // arms keep a nonzero probe rate and a changed world is eventually
      // noticed from the exploration side too.
      if (rng_.uniform() < 0.25) {
        chosen = static_cast<int>(rng_.below(state.arms.size()));
      } else {
        double best_mean = std::numeric_limits<double>::infinity();
        for (const ArmStats& s : state.arms) {
          if (s.weight > 0.0 && s.mean_us < best_mean) best_mean = s.mean_us;
        }
        std::vector<int> viable;
        for (std::size_t i = 0; i < state.arms.size(); ++i) {
          if (state.arms[i].weight > 0.0 &&
              state.arms[i].mean_us <= 3.0 * best_mean) {
            viable.push_back(static_cast<int>(i));
          }
        }
        chosen = viable.empty()
                     ? static_cast<int>(rng_.below(state.arms.size()))
                     : viable[rng_.below(viable.size())];
      }
    }
  }
  state.epsilon =
      std::max(config_.epsilon_floor, state.epsilon * config_.epsilon_decay);

  // Switch accounting tracks the *policy* (exploit choice), not the epsilon
  // stream's deliberate detours.
  const bool switched = state.last_arm >= 0 && exploit != state.last_arm;
  if (switched) ++arm_switches_;
  state.last_arm = exploit;

  if (sink_ != nullptr) {
    obs::InstantEvent ev;
    ev.rank = key.tenant;
    ev.peer = -1;
    ev.tag = chosen;
    ev.bytes = count * elem_size;
    ev.time_us = now_us;
    ev.kind = obs::InstantKind::kSelection;
    sink_->instant(ev);
    if (switched) {
      ev.kind = obs::InstantKind::kArmSwitch;
      ev.tag = exploit;
      sink_->instant(ev);
    }
  }
  return state.arms[static_cast<std::size_t>(chosen)].arm;
}

void OnlineSelector::record(const ArmKey& key, const Arm& arm,
                            double latency_us) {
  const std::lock_guard<std::mutex> lock(mu_);
  record_locked(key, arm, latency_us);
}

void OnlineSelector::record_locked(const ArmKey& key, const Arm& arm,
                                   double latency_us) {
  auto it = keys_.find(key);
  if (it == keys_.end()) {
    // Feedback without a prior decision (api fallbacks): open the key with
    // just this arm; the next choose() will not re-enumerate, which is fine
    // because record-first keys only occur for forced per-call overrides.
    KeyState state;
    state.epsilon = config_.epsilon0;
    it = keys_.emplace(key, std::move(state)).first;
  }
  KeyState& state = it->second;
  // The stream membership test uses the exploit index as of the decision
  // this observation came from — i.e. before the update below moves it.
  const int exploit = exploit_index(state);
  auto found = std::find_if(state.arms.begin(), state.arms.end(),
                            [&](const ArmStats& s) { return s.arm == arm; });
  if (found == state.arms.end()) {
    state.arms.push_back(ArmStats{arm, 0.0, 0.0, 0});
    found = std::prev(state.arms.end());
  }
  ArmStats& stats = *found;
  ew_update(stats.mean_us, stats.weight, config_.stat_decay, latency_us);
  ++stats.pulls;

  // Shift detection listens to the exploit arm's observation stream only:
  // that is the arm whose latency regime defines "what the service gets".
  const int arm_index = static_cast<int>(found - state.arms.begin());
  if (arm_index == exploit) {
    if (state.stream_arm != arm_index) {
      state.stream_arm = arm_index;
      state.fast_mean = state.slow_mean = 0.0;
      state.fast_weight = state.slow_weight = 0.0;
    }
    ew_update(state.fast_mean, state.fast_weight, kFastDecay, latency_us);
    ew_update(state.slow_mean, state.slow_weight, config_.stat_decay, latency_us);
    detect_shift(state);
  }
}

void OnlineSelector::detect_shift(KeyState& state) {
  // Both streams need history before a ratio is meaningful. slow_weight is
  // a decayed count, so compare against the observation count implied by
  // shift_min_obs capped at the stream's asymptotic weight.
  const double need =
      std::min(static_cast<double>(config_.shift_min_obs),
               0.8 / (1.0 - config_.stat_decay));
  if (state.slow_weight < need || state.slow_mean <= 0.0) return;
  const double ratio = state.fast_mean / state.slow_mean;
  if (ratio < config_.shift_factor && ratio > 1.0 / config_.shift_factor) return;

  ++shifts_;
  state.epsilon = config_.epsilon0;
  for (ArmStats& s : state.arms) s.weight *= 0.2;  // age stale evidence hard
  // Adopt the new regime as the baseline so one shift fires once.
  state.slow_mean = state.fast_mean;
  state.slow_weight = 1.0;
  state.fast_weight = 1.0;
}

Arm OnlineSelector::choose_at(const ArmKey& key, core::CollOp op,
                              std::size_t count, std::size_t elem_size,
                              std::uint64_t round, double now_us) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = rounds_.find({key, round});
  if (it != rounds_.end() && it->second.decided) return it->second.arm;

  // Backstop GC: a rank that died mid-collective leaves its round entry
  // unretired; sweep this key's rounds far behind the current one.
  for (auto sweep = rounds_.lower_bound({key, 0}); sweep != rounds_.end();) {
    if (!(sweep->first.first == key)) break;
    if (sweep->first.second + 64 < round) {
      sweep = rounds_.erase(sweep);
    } else {
      ++sweep;
    }
  }

  RoundState& state = rounds_[{key, round}];
  state.arm = choose_locked(key, op, count, elem_size, now_us);
  state.decided = true;
  return state.arm;
}

void OnlineSelector::record_at(const ArmKey& key, std::uint64_t round,
                               const Arm& arm, double latency_us,
                               int participants) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = rounds_.find({key, round});
  if (it == rounds_.end()) {
    // Round already retired (or never decided here): fall back to a direct
    // single-observation record so the signal is not lost entirely.
    record_locked(key, arm, latency_us);
    return;
  }
  RoundState& state = it->second;
  state.max_latency_us = std::max(state.max_latency_us, latency_us);
  if (++state.reports >= participants) {
    record_locked(key, arm, state.max_latency_us);
    rounds_.erase(it);
  }
}

tuning::AlgorithmChoice OnlineSelector::choose_choice(int tenant, core::CollOp op,
                                                      std::size_t count,
                                                      std::size_t elem_size,
                                                      double now_us) {
  const ArmKey key{op, size_class(count * elem_size), tenant};
  return choice_of(choose(key, op, count, elem_size, now_us));
}

void OnlineSelector::record_choice(int tenant, core::CollOp op, std::size_t count,
                                   std::size_t elem_size,
                                   const tuning::AlgorithmChoice& choice,
                                   double latency_us) {
  const ArmKey key{op, size_class(count * elem_size), tenant};
  record(key, arm_of(choice), latency_us);
}

void OnlineSelector::set_sink(obs::TraceSink* sink) {
  const std::lock_guard<std::mutex> lock(mu_);
  sink_ = sink;
}

void OnlineSelector::rescale_world(int p) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (p == p_) return;
  p_ = p;
  // Every enumerated arm space embedded the old p (group-size divisibility,
  // radix support): drop the keys so the next decision re-enumerates, and
  // retire open synchronized rounds — their participant counts named the
  // pre-shrink world and would never fill.
  keys_.clear();
  rounds_.clear();
}

int OnlineSelector::world_size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return p_;
}

std::optional<Arm> OnlineSelector::best_arm(const ArmKey& key) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = keys_.find(key);
  if (it == keys_.end()) return std::nullopt;
  const int index = exploit_index(it->second);
  if (index < 0) return std::nullopt;
  return it->second.arms[static_cast<std::size_t>(index)].arm;
}

std::vector<ArmStats> OnlineSelector::stats(const ArmKey& key) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = keys_.find(key);
  return it == keys_.end() ? std::vector<ArmStats>{} : it->second.arms;
}

std::size_t OnlineSelector::keys() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return keys_.size();
}

std::uint64_t OnlineSelector::decisions() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return decisions_;
}

std::uint64_t OnlineSelector::arm_switches() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return arm_switches_;
}

std::uint64_t OnlineSelector::shifts_detected() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return shifts_;
}

tuning::SelectionConfig OnlineSelector::export_rules(double min_weight) const {
  const std::lock_guard<std::mutex> lock(mu_);

  // Aggregate per (op, size-class) across tenants by decayed weight.
  struct Agg {
    std::vector<ArmStats> arms;
  };
  std::map<std::pair<core::CollOp, int>, Agg> merged;
  for (const auto& [key, state] : keys_) {
    Agg& agg = merged[{key.op, key.size_class}];
    for (const ArmStats& s : state.arms) {
      if (s.weight <= 0.0) continue;
      auto found = std::find_if(agg.arms.begin(), agg.arms.end(),
                                [&](const ArmStats& a) { return a.arm == s.arm; });
      if (found == agg.arms.end()) {
        agg.arms.push_back(s);
      } else {
        const double total = found->weight + s.weight;
        found->mean_us =
            (found->mean_us * found->weight + s.mean_us * s.weight) / total;
        found->weight = total;
        found->pulls += s.pulls;
      }
    }
  }

  tuning::SelectionConfig config;
  config.machine = "online-learned";
  for (const auto& [op_class, agg] : merged) {
    const ArmStats* best = nullptr;
    for (const ArmStats& s : agg.arms) {
      if (s.weight < min_weight) continue;
      if (best == nullptr || s.mean_us < best->mean_us) best = &s;
    }
    if (best == nullptr) continue;
    tuning::SelectionRule rule;
    rule.op = op_class.first;
    rule.min_bytes = size_class_min_bytes(op_class.second);
    rule.max_bytes = size_class_max_bytes(op_class.second);
    rule.algorithm = best->arm.algorithm;
    rule.k = best->arm.k;
    rule.group_size = best->arm.group_size;
    config.add_rule(rule);  // (op, class) keys are unique: no duplicates
  }
  return config;
}

}  // namespace gencoll::service
