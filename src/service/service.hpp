// The collective service: a long-running loop where concurrent tenants
// issue mixed collectives (workload.hpp) and every request's (algorithm, k,
// g, intra) is decided online by the bandit selector (bandit.hpp).
//
// Backend: requests execute on the netsim discrete-event simulator — the
// same Schedule objects the threaded executor runs, with per-request jitter
// drawn from a seeded stream, so a soak run is bit-reproducible and its
// regret-vs-oracle number is exact rather than a wallclock estimate.
//
// Oracle and regret: the oracle for a request shape is the arm (from the
// *same* arm space the selector explores) minimizing the jitter-free
// simulated latency. Regret over a window of requests is
//   sum(deterministic latency of the chosen arms) / sum(oracle latencies),
// i.e. 1.0 = perfect, computed from deterministic latencies on *both* sides
// so jitter cancels out of the metric. Oracle and deterministic-latency
// caches are keyed per epoch; flipping Degradation mid-run bumps the epoch
// (invalidating the caches) but tells the selector nothing — it must notice
// the regime change through its own shift detector and re-converge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "netsim/machine.hpp"
#include "netsim/simulator.hpp"
#include "service/bandit.hpp"
#include "service/workload.hpp"

namespace gencoll::service {

struct ServiceOptions {
  /// Machine the simulator runs on; its total_ranks() is the communicator
  /// size every tenant issues over.
  netsim::MachineConfig machine;
  std::uint64_t seed = 1;
  std::size_t requests = 4000;
  /// Fraction of the run [0, 1) after which `degradation` is applied to the
  /// machine (a mid-run fabric fault); negative = stays healthy throughout.
  double degrade_at = -1.0;
  netsim::Degradation degradation;
  /// Per-request multiplicative latency jitter fed to the selector (the
  /// regret metric itself is jitter-free on both sides).
  double sim_jitter = 0.08;
  /// Requests per regret window.
  std::size_t regret_window = 250;
  WorkloadOptions workload;
  OnlineSelectorConfig selector;
};

struct TenantReport {
  int tenant = 0;
  std::string mix;
  std::size_t requests = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Regret over one window of `ServiceOptions::regret_window` requests.
struct RegretPoint {
  std::size_t upto = 0;  ///< requests completed at the window's end
  double regret = 1.0;   ///< chosen/oracle deterministic-latency ratio
  bool degraded = false; ///< window ran (fully or partly) degraded
};

struct ServiceReport {
  std::size_t requests = 0;
  int ranks = 0;
  std::size_t keys = 0;
  std::uint64_t decisions = 0;
  std::uint64_t arm_switches = 0;
  std::uint64_t shifts_detected = 0;
  /// Whole-run regret (includes the exploration ramp, so always > final).
  double regret_total = 1.0;
  /// Regret of the last full window before degradation (or of the run's last
  /// window when the run stays healthy): the converged healthy number.
  double regret_healthy_final = 1.0;
  /// Regret of the run's last window after a degradation flip (1.0 when the
  /// run stays healthy): the re-converged number.
  double regret_degraded_final = 1.0;
  std::vector<RegretPoint> windows;
  std::vector<TenantReport> tenants;
  /// Rules learned by the run (export of the selector's converged choices).
  tuning::SelectionConfig learned;

  /// bench_gate-compatible JSON: an empty "configs" array (no per-config
  /// ratio gating) plus top-level summary fields for bench_diff.py
  /// --require / --require-max, plus per-tenant percentile objects.
  [[nodiscard]] std::string to_json(const std::string& benchmark_name) const;
};

/// Single-threaded deterministic soak driver.
class Service {
 public:
  explicit Service(ServiceOptions options);

  /// Run the soak to completion and report.
  ServiceReport run();

  /// Observability hook (kSelection / kArmSwitch instants). Optional; must
  /// outlive run().
  void set_sink(obs::TraceSink* sink) { selector_.set_sink(sink); }

  [[nodiscard]] OnlineSelector& selector() { return selector_; }

 private:
  /// Stable storage for one built-and-compiled schedule (CompiledSchedule
  /// keeps a pointer into `sched`, so entries live behind unique_ptr).
  struct Compiled {
    core::Schedule sched;
    netsim::CompiledSchedule compiled;
    explicit Compiled(core::Schedule s)
        : sched(std::move(s)), compiled(sched) {}
  };

  struct ShapeKey {
    core::CollOp op;
    std::size_t count;
    std::size_t elem_size;
    friend bool operator<(const ShapeKey& a, const ShapeKey& b) {
      if (a.op != b.op) return a.op < b.op;
      if (a.count != b.count) return a.count < b.count;
      return a.elem_size < b.elem_size;
    }
  };
  struct ArmShapeKey {
    ShapeKey shape;
    Arm arm;
    friend bool operator<(const ArmShapeKey& a, const ArmShapeKey& b) {
      if (a.shape < b.shape) return true;
      if (b.shape < a.shape) return false;
      if (a.arm.algorithm != b.arm.algorithm) return a.arm.algorithm < b.arm.algorithm;
      if (a.arm.k != b.arm.k) return a.arm.k < b.arm.k;
      return a.arm.group_size < b.arm.group_size;
    }
  };

  const Compiled& compiled_for(const ShapeKey& shape, const Arm& arm);
  /// Jitter-free latency of `arm` on `shape` under the current machine
  /// (epoch-cached).
  double deterministic_us(const ShapeKey& shape, const Arm& arm);
  /// Minimum deterministic latency over the full arm space (epoch-cached).
  double oracle_us(const ShapeKey& shape);
  /// Jittered latency observation for one request.
  double observe_us(const ShapeKey& shape, const Arm& arm,
                    std::uint64_t request_index);

  ServiceOptions options_;
  int p_;
  OnlineSelector selector_;
  Workload workload_;
  // Schedules survive epoch flips (topology does not change, only costs),
  // but deterministic/oracle caches are per-epoch.
  std::map<ArmShapeKey, std::unique_ptr<Compiled>> schedules_;
  std::map<ArmShapeKey, double> det_cache_;
  std::map<ShapeKey, double> oracle_cache_;
  int epoch_ = 0;
};

}  // namespace gencoll::service
