#include "core/event_exec.hpp"

#include <memory>
#include <optional>
#include <vector>

#include "runtime/event_pool.hpp"

namespace gencoll::core::exec_detail {

namespace {

using runtime::EventPool;

/// One rank's body as an event task: owns the rank's Communicator, re-queues
/// itself on every deposit into (or interrupt of) the rank's mailbox, and
/// hands any escaping exception to the World's per-rank failure policy.
class RankTask final : public EventPool::Task, public runtime::MailboxWaiter {
 public:
  RankTask(runtime::World& world, runtime::RankFailures& failures,
           EventPool& pool, int rank, RankBody& body)
      : world_(world), failures_(failures), pool_(pool), rank_(rank), body_(body) {}

  void on_mailbox_event() override { pool_.wake(this); }

  StepResult step() override {
    try {
      if (!comm_) {
        comm_.emplace(&world_, rank_);
        // Attached before the first poll, so no wakeup can be lost; the
        // index is the ORIGINAL rank, stable across epoch shrinks.
        world_.mailbox(rank_).set_waiter(this);
      }
      const ScheduleRunner::Outcome o = body_.advance(*comm_, /*blocking=*/false);
      switch (o.run) {
        case ScheduleRunner::Run::kYielded: return {Status::kYield, o.wake_at};
        case ScheduleRunner::Run::kParked: return {Status::kPark, o.wake_at};
        case ScheduleRunner::Run::kComplete: break;
      }
    } catch (...) {
      failures_.record(rank_);
    }
    if (comm_) world_.mailbox(rank_).set_waiter(nullptr);
    return {Status::kDone, ScheduleRunner::clock::time_point::max()};
  }

 private:
  runtime::World& world_;
  runtime::RankFailures& failures_;
  EventPool& pool_;
  const int rank_;
  RankBody& body_;
  std::optional<runtime::Communicator> comm_;
};

}  // namespace

void run_ranks(runtime::ExecutorKind engine, int p,
               const runtime::WorldOptions& options,
               const std::function<RankBody&(int rank)>& body) {
  if (engine == runtime::ExecutorKind::kThreaded) {
    runtime::World::run(
        p, [&](runtime::Communicator& comm) { body(comm.rank()).advance(comm, true); },
        options);
    return;
  }
  // Declaration order is the teardown contract: tasks (holding Communicators
  // into the World) die before it; the pool joins its workers first, after
  // wait_all proved no task can run again — the same buffer-lifetime
  // guarantee World::run's join gives, which is what keeps zero-copy sound.
  runtime::World world(p, options);
  runtime::RankFailures failures(world);
  std::vector<std::unique_ptr<RankTask>> tasks;
  tasks.reserve(static_cast<std::size_t>(p));
  EventPool pool;
  for (int r = 0; r < p; ++r) {
    tasks.push_back(std::make_unique<RankTask>(world, failures, pool, r, body(r)));
  }
  for (auto& t : tasks) pool.submit(t.get());
  pool.wait_all();
  failures.rethrow();
}

}  // namespace gencoll::core::exec_detail
