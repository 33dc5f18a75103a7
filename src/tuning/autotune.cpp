#include "tuning/autotune.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "core/hierarchy.hpp"
#include "core/registry.hpp"
#include "util/bytes.hpp"

namespace gencoll::tuning {

using core::Algorithm;
using core::CollOp;
using core::CollParams;

std::vector<int> pruned_radixes(CollOp op, Algorithm alg, int p,
                                const netsim::MachineConfig& machine,
                                const std::vector<int>& requested) {
  const std::vector<int> full = core::candidate_radixes(op, alg, p);
  if (!core::is_generalized(alg)) return full;  // singleton anyway

  std::set<int> wanted;
  if (!requested.empty()) {
    wanted.insert(requested.begin(), requested.end());
  } else {
    // Powers of two up to p, plus the hardware-suggested values the paper's
    // analysis singles out: the port count (recursive multiplying) and the
    // processes-per-node (k-ring), and p itself (flat k-nomial trees).
    for (int k = 2; k <= p; k *= 2) wanted.insert(k);
    wanted.insert(machine.ports_per_node);
    wanted.insert(machine.ports_per_node * 2);
    wanted.insert(machine.ppn);
    wanted.insert(p);
  }
  std::vector<int> out;
  for (int k : full) {
    if (wanted.count(k) != 0) out.push_back(k);
  }
  return out;
}

AutotuneReport autotune_op(CollOp op, const netsim::MachineConfig& machine,
                           const AutotuneOptions& options) {
  machine.check();
  const int p = machine.total_ranks();
  std::vector<std::uint64_t> sizes = options.sizes;
  if (sizes.empty()) sizes = util::osu_message_sizes();
  std::sort(sizes.begin(), sizes.end());

  AutotuneReport report;
  report.config.machine = machine.name;
  report.config.nodes = machine.nodes;
  report.config.ppn = machine.ppn;

  for (std::size_t si = 0; si < sizes.size(); ++si) {
    const std::size_t nbytes = sizes[si];
    MeasuredPoint best;
    best.latency_us = std::numeric_limits<double>::infinity();

    for (Algorithm alg : core::algorithms_for(op)) {
      for (int k : pruned_radixes(op, alg, p, machine, options.radixes)) {
        CollParams params;
        params.op = op;
        params.p = p;
        params.count = nbytes;
        params.elem_size = 1;
        params.k = k;
        if (!core::supports_params(alg, params)) continue;
        const double us = netsim::simulate_us(core::build_schedule(alg, params),
                                              machine, options.sim);
        MeasuredPoint point{op, nbytes, alg, core::effective_radix(alg, k), 1, us};
        report.all_points.push_back(point);
        if (us < best.latency_us) best = point;
      }
    }

    // Hierarchical candidates: intra phase over shared segments, `alg` as the
    // inter-group kernel over the p/g leaders. The composed schedule is
    // simulated like any flat one; the intra hops route over the machine's
    // intra link, so the simulator prices the two-level structure directly.
    std::set<int> gset;
    if (!options.group_sizes.empty()) {
      gset.insert(options.group_sizes.begin(), options.group_sizes.end());
    } else {
      gset.insert({2, 4, 8});
      gset.insert(machine.ppn);
    }
    bool ppn_measured = false;  // some `hier <ppn>` candidate was simulated
    for (int g : gset) {
      if (g < 2 || p % g != 0 || p / g < 2) continue;
      // Intra shapes for this g: the flat fan-in plus every two-factor
      // level split {a, g/a} — the composed multi-level IR (chunked
      // concurrent fan-in) is simulated directly, so the tuner prices the
      // tree structure instead of assuming it helps.
      std::vector<std::vector<int>> shapes{{}};
      for (int a = 2; a * a <= g; ++a) {
        if (g % a != 0 || g / a < 2) continue;
        shapes.push_back({a, g / a});
        if (a != g / a) shapes.push_back({g / a, a});
      }
      for (const std::vector<int>& shape : shapes) {
        for (Algorithm alg : core::algorithms_for(op)) {
          for (int k : pruned_radixes(op, alg, p / g, machine, options.radixes)) {
            CollParams params;
            params.op = op;
            params.p = p;
            params.count = nbytes;
            params.elem_size = 1;
            params.k = k;
            core::HierSpec spec;
            spec.group_size = g;
            spec.inter_alg = alg;
            spec.inter_k = k;
            spec.levels = shape;
            if (!core::supports_hierarchical(spec, params)) continue;
            const double us = netsim::simulate_us(
                core::build_hierarchical_schedule(spec, params), machine,
                options.sim);
            MeasuredPoint point{op, nbytes, alg, core::effective_radix(alg, k),
                                g,  us, shape};
            report.all_points.push_back(point);
            if (us < best.latency_us) best = point;
            if (g == machine.ppn) ppn_measured = true;
          }
        }
      }
    }
    report.winners.push_back(best);

    SelectionRule rule;
    rule.op = op;
    // Rule boundaries: midpoint between consecutive probed sizes, so the
    // winner at each probe governs its neighborhood. Runs of the same
    // (algorithm, k) merge into one rule.
    rule.min_bytes = si == 0 ? 0 : (sizes[si - 1] + nbytes) / 2 + 1;
    rule.max_bytes =
        si + 1 == sizes.size() ? SIZE_MAX : (nbytes + sizes[si + 1]) / 2 + 1;
    rule.algorithm = best.algorithm;
    rule.k = best.k;
    rule.group_size = best.group_size;
    rule.levels = best.levels;
    // A flat winner that beat `hier <ppn>` is written as `hier 1`, so the
    // API's co-located default cannot override the measured choice.
    rule.flat_pinned = best.group_size <= 1 && ppn_measured;
    if (!report.config.rules().empty()) {
      const SelectionRule& prev = report.config.rules().back();
      if (prev.op == rule.op && prev.algorithm == rule.algorithm &&
          prev.k == rule.k && prev.group_size == rule.group_size &&
          prev.levels == rule.levels && prev.flat_pinned == rule.flat_pinned &&
          prev.max_bytes == rule.min_bytes) {
        report.config.mutable_rules().back().max_bytes = rule.max_bytes;
        continue;
      }
    }
    report.config.add_rule(rule);
  }
  return report;
}

AutotuneReport autotune_all(const netsim::MachineConfig& machine,
                            const AutotuneOptions& options) {
  AutotuneReport all;
  all.config.machine = machine.name;
  all.config.nodes = machine.nodes;
  all.config.ppn = machine.ppn;
  for (CollOp op : core::kAllCollOps) {
    AutotuneReport one = autotune_op(op, machine, options);
    for (const auto& rule : one.config.rules()) all.config.add_rule(rule);
    all.winners.insert(all.winners.end(), one.winners.begin(), one.winners.end());
    all.all_points.insert(all.all_points.end(), one.all_points.begin(),
                          one.all_points.end());
  }
  return all;
}

}  // namespace gencoll::tuning
