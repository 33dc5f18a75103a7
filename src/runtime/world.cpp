#include "runtime/world.hpp"

#include <exception>
#include <stdexcept>
#include <thread>

#include "fault/error.hpp"
#include "fault/mutation.hpp"
#include "runtime/shm_group.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"

namespace gencoll::runtime {

namespace {

/// Default receive deadline: explicit option > GENCOLL_RECV_TIMEOUT_MS > 60 s.
/// Read once per World so tests can setenv() between Worlds.
std::chrono::milliseconds resolve_recv_timeout(const WorldOptions& options) {
  if (options.recv_timeout) return *options.recv_timeout;
  constexpr std::int64_t kDefaultMs = 60 * 1000;
  return std::chrono::milliseconds(
      util::env_int("GENCOLL_RECV_TIMEOUT_MS", kDefaultMs, 1, INT64_MAX / 2));
}

/// Crash policy: explicit option > GENCOLL_ON_CRASH ("abort"/"shrink") >
/// kAbort. An unrecognized value warns and falls back to fail-fast.
fault::CrashPolicy resolve_crash_policy(const WorldOptions& options) {
  if (options.on_crash) return *options.on_crash;
  if (const auto v = util::env_string("GENCOLL_ON_CRASH")) {
    if (const auto policy = fault::parse_crash_policy(*v)) return *policy;
    GENCOLL_LOG(kWarn)
        << "GENCOLL_ON_CRASH=\"" << *v
        << "\" is not \"abort\" or \"shrink\"; using abort";
  }
  return fault::CrashPolicy::kAbort;
}

/// Recovery caps: explicit option > GENCOLL_MAX_RECOVERIES /
/// GENCOLL_AGREE_TIMEOUT_MS > struct defaults.
fault::RecoveryConfig resolve_recovery(const WorldOptions& options) {
  if (options.recovery) return *options.recovery;
  fault::RecoveryConfig cfg;
  cfg.max_recoveries = static_cast<int>(
      util::env_int("GENCOLL_MAX_RECOVERIES", cfg.max_recoveries, 1, 1 << 20));
  cfg.agree_timeout = std::chrono::milliseconds(util::env_int(
      "GENCOLL_AGREE_TIMEOUT_MS", cfg.agree_timeout.count(), 1, INT64_MAX / 2));
  return cfg;
}

/// Mailboxes poll before parking only when every rank can have a hardware
/// thread. Read once per process: the query is a syscall, and event-engine
/// callers build a p=1024 World per collective.
bool poll_mailboxes(int size) {
  static const unsigned hardware_threads = std::thread::hardware_concurrency();
  return static_cast<unsigned>(size) <= hardware_threads;
}

}  // namespace

World::World(int size, WorldOptions options)
    : size_(size),
      options_(std::move(options)),
      recv_timeout_(resolve_recv_timeout(options_)),
      crash_policy_(resolve_crash_policy(options_)),
      membership_(size > 0 ? size : 1, resolve_recovery(options_),
                  [this](int new_epoch) {
                    // Runs under the membership lock at epoch install, before
                    // any agreement waiter returns: drop stale-epoch traffic
                    // and reset the barrier so the shrunk world starts clean.
                    if (!fault::mutation_active(
                            fault::ProtocolMutation::kSkipInstallPurge)) {
                      for (const auto& mb : mailboxes_) mb->purge_stale(new_epoch);
                    }
                    std::lock_guard<std::mutex> lock(barrier_mu_);
                    barrier_arrived_ = 0;
                  }) {
  if (size <= 0) throw std::invalid_argument("World: size must be positive");
  if (options_.fault_plan != nullptr) options_.fault_plan->check();
  if (options_.pool != nullptr) pool_ = options_.pool;
  view_ledgers_ = std::make_unique<ViewLedger[]>(static_cast<std::size_t>(size));
  mailboxes_.reserve(static_cast<std::size_t>(size));
  const bool poll = poll_mailboxes(size);
  for (int i = 0; i < size; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    mailboxes_.back()->set_abort_flag(&abort_);
    mailboxes_.back()->set_revoke_flag(&membership_.revoke_flag());
    mailboxes_.back()->set_poll(poll);
  }
}

World::~World() = default;

Mailbox& World::mailbox(int rank) {
  return *mailboxes_.at(static_cast<std::size_t>(rank));
}

ViewLedger& World::view_ledger(int rank) {
  if (rank < 0 || rank >= size_) {
    throw std::out_of_range("World::view_ledger: rank out of range");
  }
  return view_ledgers_[static_cast<std::size_t>(rank)];
}

ShmTree& World::shm_tree(int base_rank, int size) {
  if (size < 1 || base_rank < 0 || base_rank + size > size_) {
    throw std::invalid_argument("World::shm_tree: group outside world");
  }
  const int epoch = membership_.epoch();
  std::lock_guard<std::mutex> lock(shm_mu_);
  auto& entry = shm_trees_[{epoch, base_rank, size}];
  if (!entry) {
    entry = std::make_unique<ShmTree>(*this, base_rank, size, epoch);
  }
  return *entry;
}

void World::barrier_wait(int epoch) {
  std::unique_lock<std::mutex> lock(barrier_mu_);
  if (abort_.raised()) {
    throw FaultError(FaultKind::kAborted, -1, -1, -1,
                     "barrier entered on poisoned World (" + abort_.reason() + ")");
  }
  const fault::RevokeFlag& revoke = membership_.revoke_flag();
  if (revoke.revoked(epoch)) {
    throw FaultError(FaultKind::kRevoked, -1, -1, -1,
                     "barrier entered on revoked epoch " + std::to_string(epoch) +
                         " (" + revoke.reason() + ")");
  }
  const bool sense = barrier_sense_;
  if (++barrier_arrived_ >= membership_.alive_count()) {
    barrier_arrived_ = 0;
    barrier_sense_ = !barrier_sense_;
    barrier_cv_.notify_all();
  } else {
    // Peer-dependent wait: on the event engine this stalls a worker until
    // the last rank arrives, so let the pool compensate (event_pool.hpp).
    BlockingGuard guard;
    barrier_cv_.wait(lock, [&] {
      return barrier_sense_ != sense || abort_.raised() || revoke.revoked(epoch);
    });
    if (barrier_sense_ == sense) {  // woken by poison, not by the last arrival
      if (revoke.revoked(epoch) && !abort_.raised()) {
        throw FaultError(FaultKind::kRevoked, -1, -1, -1,
                         "barrier interrupted by epoch revocation (" +
                             revoke.reason() + ")");
      }
      throw FaultError(FaultKind::kAborted, -1, -1, -1,
                       "barrier interrupted by abort (" + abort_.reason() + ")");
    }
  }
}

std::size_t World::pending_messages() const {
  std::size_t total = 0;
  for (const auto& mb : mailboxes_) total += mb->pending();
  return total;
}

TransportCounters World::transport_counters() const {
  TransportCounters total;
  for (const auto& mb : mailboxes_) total += mb->counters();
  return total;
}

void World::abort(int rank, const std::string& reason) {
  abort_.raise(rank, reason);
  {
    // Pair the notify with the barrier mutex so a waiter cannot re-check its
    // predicate between our flag raise and notify and then sleep forever.
    std::lock_guard<std::mutex> lock(barrier_mu_);
  }
  barrier_cv_.notify_all();
  for (const auto& mb : mailboxes_) mb->interrupt();
}

void World::announce_death(int rank, const std::string& reason) {
  membership_.announce_death(rank, reason);
  {
    std::lock_guard<std::mutex> lock(barrier_mu_);
  }
  barrier_cv_.notify_all();
  for (const auto& mb : mailboxes_) mb->interrupt();
}

void World::revoke(int epoch, int rank, const std::string& reason) {
  membership_.revoke(epoch, rank, reason);
  {
    std::lock_guard<std::mutex> lock(barrier_mu_);
  }
  barrier_cv_.notify_all();
  for (const auto& mb : mailboxes_) mb->interrupt();
}

EpochView World::join_recovery(int epoch, int rank) {
  return membership_.agree_and_shrink(epoch, rank);
}

void World::run(int size, const std::function<void(Communicator&)>& fn) {
  run(size, fn, WorldOptions{});
}

void RankFailures::record(int rank) {
  if (world_.crash_policy() == fault::CrashPolicy::kShrink) {
    // Elastic mode: this rank's death is survivable — announce it
    // (idempotent; the crash site usually already did) and let the surviving
    // ranks shrink and finish. Any *other* exception is a real failure and
    // falls through to the fail-fast path.
    try {
      throw;
    } catch (const FaultError& e) {
      if (e.kind() == FaultKind::kRankDeath) {
        world_.announce_death(rank, e.what());
        std::lock_guard<std::mutex> lock(mu_);
        ++deaths_;
        return;
      }
    } catch (...) {
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  // Fail fast: wake every peer blocked on this rank's messages. The first
  // (recorded) exception stays the one re-thrown.
  try {
    throw;
  } catch (const std::exception& e) {
    world_.abort(rank, e.what());
  } catch (...) {
    world_.abort(rank, "non-standard exception");
  }
}

void RankFailures::rethrow() const {
  if (first_error_) std::rethrow_exception(first_error_);
  if (deaths_ == world_.size()) {
    throw FaultError(FaultKind::kRankDeath, -1, -1, -1,
                     "every rank died; no survivors to complete the collective");
  }
}

void World::run(int size, const std::function<void(Communicator&)>& fn,
                const WorldOptions& options) {
  World world(size, options);
  RankFailures failures(world);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    threads.emplace_back([&world, &failures, &fn, r] {
      try {
        Communicator comm(&world, r);
        fn(comm);
      } catch (...) {
        failures.record(r);
      }
    });
  }
  for (auto& t : threads) t.join();
  failures.rethrow();
}

}  // namespace gencoll::runtime
