#include "service/service.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "core/hierarchy.hpp"
#include "core/registry.hpp"
#include "util/stats.hpp"

namespace gencoll::service {

namespace {

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

Service::Service(ServiceOptions options)
    : options_(std::move(options)),
      p_(options_.machine.total_ranks()),
      selector_(
          [&] {
            OnlineSelectorConfig cfg = options_.selector;
            if (cfg.seed == 1) cfg.seed = options_.seed;
            return cfg;
          }(),
          options_.machine.total_ranks()),
      workload_([&] {
        WorkloadOptions w = options_.workload;
        if (w.seed == 1) w.seed = options_.seed;
        return w;
      }()) {
  if (p_ < 2) throw std::invalid_argument("service: machine needs >= 2 ranks");
  options_.machine.check();
}

const Service::Compiled& Service::compiled_for(const ShapeKey& shape,
                                               const Arm& arm) {
  const ArmShapeKey key{shape, arm};
  auto it = schedules_.find(key);
  if (it != schedules_.end()) return *it->second;

  core::CollParams params;
  params.op = shape.op;
  params.p = p_;
  params.root = 0;
  params.count = shape.count;
  params.elem_size = shape.elem_size;
  params.k = arm.k;

  core::Schedule sched = [&] {
    try {
      if (arm.group_size <= 1) {
        return core::build_schedule(arm.algorithm, params);
      }
      core::HierSpec spec;
      spec.group_size = arm.group_size;
      spec.inter_alg = arm.algorithm;
      spec.inter_k = arm.k;
      return core::build_hierarchical_schedule(spec, params);
    } catch (const std::exception&) {
      // An arm outside the buildable space (a prior imported for a machine
      // with different divisibility, say) executes as the flat k-nomial
      // fallback; the bandit charges the arm that fallback's latency, which
      // keeps it honestly unattractive without killing the run.
      params.k = 2;
      return core::build_schedule(core::Algorithm::kKnomial, params);
    }
  }();
  auto entry = std::make_unique<Compiled>(std::move(sched));
  return *schedules_.emplace(key, std::move(entry)).first->second;
}

double Service::deterministic_us(const ShapeKey& shape, const Arm& arm) {
  const ArmShapeKey key{shape, arm};
  auto it = det_cache_.find(key);
  if (it != det_cache_.end()) return it->second;
  netsim::SimOptions sim;
  sim.jitter = 0.0;
  sim.validate = false;  // CompiledSchedule already matched the schedule
  const double us =
      compiled_for(shape, arm).compiled.run(options_.machine, sim).time_us;
  det_cache_.emplace(key, us);
  return us;
}

double Service::oracle_us(const ShapeKey& shape) {
  auto it = oracle_cache_.find(shape);
  if (it != oracle_cache_.end()) return it->second;
  // The oracle sweeps exactly the space the selector explores: the regret
  // ratio measures selection quality, not arm-space coverage.
  double best = 0.0;
  bool seen = false;
  for (const Arm& arm : enumerate_arms(shape.op, p_, shape.count,
                                       shape.elem_size, options_.selector.arms)) {
    const double us = deterministic_us(shape, arm);
    if (!seen || us < best) {
      best = us;
      seen = true;
    }
  }
  if (!seen) throw std::logic_error("service: no arm buildable for shape");
  oracle_cache_.emplace(shape, best);
  return best;
}

double Service::observe_us(const ShapeKey& shape, const Arm& arm,
                           std::uint64_t request_index) {
  netsim::SimOptions sim;
  sim.jitter = options_.sim_jitter;
  // Independent jitter stream per request, deterministic in (seed, index).
  sim.jitter_seed =
      options_.seed ^ (0x5851F42D4C957F2DULL * (request_index + 1));
  sim.validate = false;
  return compiled_for(shape, arm).compiled.run(options_.machine, sim).time_us;
}

ServiceReport Service::run() {
  ServiceReport report;
  report.ranks = p_;

  std::map<int, std::vector<double>> tenant_samples;
  const std::size_t flip_at =
      options_.degrade_at >= 0.0
          ? static_cast<std::size_t>(options_.degrade_at *
                                     static_cast<double>(options_.requests))
          : options_.requests + 1;
  bool degraded = false;

  double total_chosen = 0.0;
  double total_oracle = 0.0;
  double window_chosen = 0.0;
  double window_oracle = 0.0;
  bool window_touched_degraded = false;
  std::size_t window_start = 0;

  const std::size_t window =
      std::max<std::size_t>(1, options_.regret_window);

  for (std::size_t i = 0; i < options_.requests; ++i) {
    if (!degraded && i >= flip_at && options_.degrade_at >= 0.0) {
      degraded = true;
      options_.machine.degradation = options_.degradation;
      ++epoch_;
      det_cache_.clear();
      oracle_cache_.clear();
    }
    const WorkloadRequest req = workload_.next();
    const ShapeKey shape{req.op, req.count, req.elem_size};
    const ArmKey key{req.op, size_class(req.count * req.elem_size), req.tenant};
    const Arm arm =
        selector_.choose(key, req.op, req.count, req.elem_size, req.issue_us);

    const double observed = observe_us(shape, arm, i);
    selector_.record(key, arm, observed);
    tenant_samples[req.tenant].push_back(observed);

    const double chosen_det = deterministic_us(shape, arm);
    const double oracle_det = oracle_us(shape);
    total_chosen += chosen_det;
    total_oracle += oracle_det;
    window_chosen += chosen_det;
    window_oracle += oracle_det;
    window_touched_degraded = window_touched_degraded || degraded;

    if (i + 1 - window_start >= window || i + 1 == options_.requests) {
      RegretPoint point;
      point.upto = i + 1;
      point.regret = window_oracle > 0.0 ? window_chosen / window_oracle : 1.0;
      point.degraded = window_touched_degraded;
      report.windows.push_back(point);
      window_chosen = 0.0;
      window_oracle = 0.0;
      window_touched_degraded = false;
      window_start = i + 1;
    }
  }

  report.requests = options_.requests;
  report.keys = selector_.keys();
  report.decisions = selector_.decisions();
  report.arm_switches = selector_.arm_switches();
  report.shifts_detected = selector_.shifts_detected();
  report.regret_total = total_oracle > 0.0 ? total_chosen / total_oracle : 1.0;

  for (const RegretPoint& point : report.windows) {
    if (!point.degraded) report.regret_healthy_final = point.regret;
  }
  if (!report.windows.empty() && report.windows.back().degraded) {
    report.regret_degraded_final = report.windows.back().regret;
  }

  for (auto& [tenant, samples] : tenant_samples) {
    std::sort(samples.begin(), samples.end());
    TenantReport tr;
    tr.tenant = tenant;
    for (const TenantSpec& spec : workload_.tenants()) {
      if (spec.tenant == tenant) tr.mix = mix_name(spec.mix);
    }
    tr.requests = samples.size();
    double sum = 0.0;
    for (double s : samples) sum += s;
    tr.mean_us = samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
    tr.p50_us = util::percentile(samples, 0.50);
    tr.p99_us = util::percentile(samples, 0.99);
    report.tenants.push_back(tr);
  }

  report.learned = selector_.export_rules();
  return report;
}

std::string ServiceReport::to_json(const std::string& benchmark_name) const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"benchmark\": \"" << benchmark_name << "\",\n";
  os << "  \"ranks\": " << ranks << ",\n";
  os << "  \"requests\": " << requests << ",\n";
  os << "  \"keys\": " << keys << ",\n";
  os << "  \"decisions\": " << decisions << ",\n";
  os << "  \"arm_switches\": " << arm_switches << ",\n";
  os << "  \"shifts_detected\": " << shifts_detected << ",\n";
  os << "  \"learned_rules\": " << learned.rules().size() << ",\n";
  os << "  \"regret_total\": " << json_num(regret_total) << ",\n";
  os << "  \"regret_healthy_final\": " << json_num(regret_healthy_final) << ",\n";
  os << "  \"regret_degraded_final\": " << json_num(regret_degraded_final) << ",\n";
  os << "  \"windows\": [";
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (i > 0) os << ", ";
    os << "{\"upto\": " << windows[i].upto
       << ", \"regret\": " << json_num(windows[i].regret)
       << ", \"degraded\": " << (windows[i].degraded ? "true" : "false") << "}";
  }
  os << "],\n";
  os << "  \"tenants\": [";
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const TenantReport& t = tenants[i];
    if (i > 0) os << ", ";
    os << "{\"tenant\": " << t.tenant << ", \"mix\": \"" << t.mix
       << "\", \"requests\": " << t.requests
       << ", \"mean_us\": " << json_num(t.mean_us)
       << ", \"p50_us\": " << json_num(t.p50_us)
       << ", \"p99_us\": " << json_num(t.p99_us) << "}";
  }
  os << "],\n";
  os << "  \"configs\": []\n";
  os << "}\n";
  return os.str();
}

}  // namespace gencoll::service
