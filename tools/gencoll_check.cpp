// gencoll_check — symbolic schedule prover CLI.
//
// Single-config mode proves one (op, algorithm, p, k, count) schedule and
// prints the full report; --sweep proves every kernel in the registry over a
// process-count / radix / payload grid (the CI leg). Exit status is nonzero
// iff any violation was found, so both modes gate merges directly.
//
//   gencoll_check --op allreduce --alg kring --p 12 --k 4 --count 64
//   gencoll_check --sweep --pmax 64 --json
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "core/algorithms.hpp"
#include "core/coll_params.hpp"
#include "core/hierarchy.hpp"
#include "core/registry.hpp"
#include "util/cli.hpp"

namespace {

using gencoll::check::CheckOptions;
using gencoll::check::CheckReport;
using gencoll::check::Violation;
using gencoll::core::Algorithm;
using gencoll::core::CollOp;
using gencoll::core::CollParams;
using gencoll::core::Schedule;

struct Failure {
  std::string name;
  std::string params;
  std::vector<Violation> violations;
};

struct SweepTotals {
  std::size_t checked = 0;
  std::size_t skipped = 0;   ///< UnsupportedParams (expected; not failures)
  std::size_t shrunk_checked = 0;  ///< crash-at-rank-r rebuilds proven
  std::size_t rounds_checked = 0;
  std::size_t intergroup_checked = 0;
  std::size_t hier_levels_checked = 0;  ///< multi-level (level-vector) trees proven
  std::size_t single_group_checked = 0;  ///< one-group (g == p) compositions proven
  gencoll::check::HazardStats hazards;
  std::vector<Failure> failures;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void print_report_human(const Schedule& sched, const CheckReport& report) {
  std::cout << sched.name << " [" << sched.params.describe() << "]\n"
            << "  total_send_bytes      " << report.total_send_bytes << "\n"
            << "  rounds (chain depth)  " << report.rounds << "\n"
            << "  intergroup_bytes      " << report.intergroup_send_bytes << "\n"
            << "  hazards: zero_copy_races=" << report.hazards.zero_copy_races
            << " benign_reorder=" << report.hazards.benign_reorder_pairs
            << " fifo_fail_stop=" << report.hazards.fifo_fail_stop_pairs
            << " fifo_silent=" << report.hazards.fifo_silent_pairs << "\n";
  for (const Violation& v : report.violations) {
    std::cout << "  VIOLATION " << gencoll::check::describe(v) << "\n";
  }
  std::cout << (report.ok() ? "OK" : "FAILED") << "\n";
}

void print_report_json(const Schedule& sched, const CheckReport& report) {
  std::cout << "{\"schedule\":\"" << json_escape(sched.name) << "\","
            << "\"params\":\"" << json_escape(sched.params.describe()) << "\","
            << "\"total_send_bytes\":" << report.total_send_bytes << ","
            << "\"rounds\":" << report.rounds << ","
            << "\"intergroup_send_bytes\":" << report.intergroup_send_bytes << ","
            << "\"hazards\":{"
            << "\"zero_copy_races\":" << report.hazards.zero_copy_races << ","
            << "\"benign_reorder_pairs\":" << report.hazards.benign_reorder_pairs
            << ",\"fifo_fail_stop_pairs\":" << report.hazards.fifo_fail_stop_pairs
            << ",\"fifo_silent_pairs\":" << report.hazards.fifo_silent_pairs
            << "},\"violations\":[";
  for (std::size_t i = 0; i < report.violations.size(); ++i) {
    const Violation& v = report.violations[i];
    if (i) std::cout << ",";
    std::cout << "{\"kind\":\"" << gencoll::check::violation_kind_name(v.kind)
              << "\",\"rank\":" << v.rank << ",\"step\":" << v.step
              << ",\"byte_off\":" << v.byte_off << ",\"byte_len\":" << v.byte_len
              << ",\"detail\":\"" << json_escape(v.detail) << "\"}";
  }
  std::cout << "],\"ok\":" << (report.ok() ? "true" : "false") << "}\n";
}

std::vector<std::size_t> sweep_counts(int p, const std::vector<std::int64_t>& user) {
  if (!user.empty()) {
    std::vector<std::size_t> out;
    for (std::int64_t c : user) out.push_back(static_cast<std::size_t>(c));
    return out;
  }
  // Below-p (every block-chain form degenerate), exact-p, unbalanced
  // partition, and a larger prime so offsets are never byte-aligned twice.
  const auto up = static_cast<std::size_t>(p);
  std::vector<std::size_t> counts{1, up, 3 * up + 1, 257};
  if (p == 1) counts.erase(counts.begin() + 1);  // dedup 1
  return counts;
}

bool rooted(CollOp op) {
  return op == CollOp::kBcast || op == CollOp::kReduce ||
         op == CollOp::kGather || op == CollOp::kScatter;
}

void record_report(const Schedule& sched, const CheckReport& report,
                   SweepTotals& totals, const std::string& suffix = {}) {
  ++totals.checked;
  totals.hazards.zero_copy_races += report.hazards.zero_copy_races;
  totals.hazards.benign_reorder_pairs += report.hazards.benign_reorder_pairs;
  totals.hazards.fifo_fail_stop_pairs += report.hazards.fifo_fail_stop_pairs;
  totals.hazards.fifo_silent_pairs += report.hazards.fifo_silent_pairs;
  if (!report.ok()) {
    totals.failures.push_back(
        Failure{sched.name, sched.params.describe() + suffix, report.violations});
  }
}

void check_and_record(const Schedule& sched, Algorithm alg,
                      const CheckOptions& opts, SweepTotals& totals) {
  record_report(sched, gencoll::check::check_schedule(sched, alg, opts), totals);
}

/// Crash-at-rank-r dimension: rebuild the kernel for the survivor set that a
/// shrink at `victim` agrees on (every rank but the victim, ascending — the
/// dense remap contract) and prove the rebuilt schedule with the shrunk-
/// schedule guard, exactly the audit the elastic retry path runs mid-recovery
/// (DESIGN.md section 11). Rooted ops promote the lowest survivor when the
/// root itself is the victim, as the elastic phase machine does.
void sweep_shrunk(Algorithm alg, const CollParams& full, int victim,
                  const CheckOptions& opts, SweepTotals& totals) {
  std::vector<int> survivors;
  for (int r = 0; r < full.p; ++r) {
    if (r != victim) survivors.push_back(r);
  }
  CollParams params = full;
  params.p = full.p - 1;
  if (rooted(full.op)) {
    const int root_orig = victim == full.root ? survivors.front() : full.root;
    params.root = static_cast<int>(
        std::find(survivors.begin(), survivors.end(), root_orig) -
        survivors.begin());
  }
  Schedule sched;
  try {
    sched = gencoll::core::build_schedule(alg, params);
  } catch (const gencoll::core::UnsupportedParams&) {
    ++totals.skipped;
    return;
  }
  ++totals.shrunk_checked;
  record_report(sched,
                gencoll::check::check_shrunk_schedule(sched, alg, survivors, opts),
                totals, " shrunk:victim=" + std::to_string(victim));
}

void sweep_one(Algorithm alg, const CollParams& params, const CheckOptions& opts,
               SweepTotals& totals) {
  Schedule sched;
  try {
    sched = gencoll::core::build_schedule(alg, params);
  } catch (const gencoll::core::UnsupportedParams&) {
    ++totals.skipped;
    return;
  }
  check_and_record(sched, alg, opts, totals);
}

void sweep_hier(const gencoll::core::HierSpec& spec, const CollParams& params,
                const CheckOptions& opts, SweepTotals& totals) {
  Schedule sched;
  try {
    sched = gencoll::core::build_hierarchical_schedule(spec, params);
  } catch (const gencoll::core::UnsupportedParams&) {
    ++totals.skipped;
    return;
  }
  if (!spec.levels.empty()) ++totals.hier_levels_checked;
  if (params.p <= spec.group_size) ++totals.single_group_checked;
  check_and_record(sched, spec.inter_alg, opts, totals);
}

/// Level-vector shapes to prove for a nominal group size g: the flat
/// single-level tree plus every multi-level factorization the autotuner
/// proposes (two-factor splits in both orders), and the full binary split
/// for g=8 so a depth-3 chain is in the matrix.
std::vector<std::vector<int>> hier_level_shapes(int g) {
  std::vector<std::vector<int>> shapes{{}};
  for (int a = 2; a * a <= g; ++a) {
    if (g % a != 0 || g / a < 2) continue;
    shapes.push_back({a, g / a});
    if (a != g / a) shapes.push_back({g / a, a});
  }
  if (g == 8) shapes.push_back({2, 2, 2});
  return shapes;
}

int run_sweep(const gencoll::util::Cli& cli, const CheckOptions& opts) {
  const int pmax = static_cast<int>(cli.get_int("pmax").value_or(64));
  std::vector<int> pset;
  if (const auto user = cli.get_int_list("pset"); !user.empty()) {
    for (std::int64_t p : user) pset.push_back(static_cast<int>(p));
  } else {
    // Powers and near-powers of 2 and 3, primes, and mixed composites: the
    // shapes that exercise folds, uneven groups, and wrapped partitions.
    for (int p : {1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 24, 25, 27, 32, 33,
                  48, 64}) {
      if (p <= pmax) pset.push_back(p);
    }
  }
  const auto user_counts = cli.get_int_list("counts");
  const auto elem = static_cast<std::size_t>(cli.get_int("elem").value_or(4));

  SweepTotals totals;
  for (CollOp op : gencoll::core::kAllCollOps) {
    for (Algorithm alg : gencoll::core::algorithms_for(op)) {
      for (int p : pset) {
        for (int k : gencoll::core::candidate_radixes(op, alg, p)) {
          for (std::size_t count : sweep_counts(p, user_counts)) {
            CollParams params;
            params.op = op;
            params.p = p;
            params.count = count;
            params.elem_size = elem;
            params.k = k;
            std::vector<int> roots{0};
            if (rooted(op) && p > 1) roots.push_back(p - 1);
            for (int root : roots) {
              params.root = root;
              sweep_one(alg, params, opts, totals);
            }
          }
        }
      }
    }
  }

  // Crash-at-rank-r: for every kernel shape the elastic path could rebuild
  // after a single death, prove the shrunk schedule against the survivor
  // set (victims at the head, middle, and tail of the rank space — the
  // positions that reshape trees, rings, and folds differently).
  for (CollOp op : gencoll::core::kAllCollOps) {
    for (Algorithm alg : gencoll::core::algorithms_for(op)) {
      for (int p : pset) {
        if (p < 3) continue;  // a shrink below p=2 leaves nothing to prove
        for (int k : gencoll::core::candidate_radixes(op, alg, p - 1)) {
          for (std::size_t count : sweep_counts(p - 1, user_counts)) {
            CollParams params;
            params.op = op;
            params.p = p;
            params.count = count;
            params.elem_size = elem;
            params.k = k;
            std::vector<int> victims{0, p / 2, p - 1};
            victims.erase(std::unique(victims.begin(), victims.end()),
                          victims.end());
            for (int victim : victims) {
              params.root = 0;
              sweep_shrunk(alg, params, victim, opts, totals);
              if (rooted(op)) {
                // Tail root: the victim set then covers root-survives,
                // root-dies, and mid-tree cases for both root positions.
                params.root = p - 1;
                sweep_shrunk(alg, params, victim, opts, totals);
              }
            }
          }
        }
      }
    }
  }

  // Hierarchical compositions (core/hierarchy.hpp): shared-segment intra
  // phases spliced with each offset-preserving generalized kernel over the
  // p/g leaders. Proving the composed flat IR checks both the splice
  // transform and the hierarchical closed forms (conformance dispatches on
  // Schedule::hier).
  const CollOp hier_ops[] = {CollOp::kBcast, CollOp::kReduce,
                             CollOp::kAllreduce, CollOp::kAllgather};
  const Algorithm hier_algs[] = {Algorithm::kKnomial,
                                 Algorithm::kRecursiveMultiplying,
                                 Algorithm::kKring};
  for (CollOp op : hier_ops) {
    for (Algorithm alg : hier_algs) {
      for (int p : pset) {
        for (int g : {2, 4, 8}) {
          if (p % g != 0 || p / g < 2) continue;
          for (const std::vector<int>& shape : hier_level_shapes(g)) {
            for (int k : gencoll::core::candidate_radixes(op, alg, p / g)) {
              for (std::size_t count : sweep_counts(p, user_counts)) {
                CollParams params;
                params.op = op;
                params.p = p;
                params.count = count;
                params.elem_size = elem;
                params.k = k;
                gencoll::core::HierSpec spec;
                spec.group_size = g;
                spec.levels = shape;
                spec.inter_alg = alg;
                spec.inter_k = k;
                std::vector<int> roots{0};
                if (rooted(op) && p > 1) roots.push_back(p - 1);
                for (int root : roots) {
                  params.root = root;
                  sweep_hier(spec, params, opts, totals);
                }
              }
            }
          }
        }
      }
    }
  }

  // Ragged last group (g does not divide p): only level-vector trees carry
  // it (truncated-membership rules), and Allgather is excluded by
  // construction. p=12 under 2x4 and p=6 under partitioned-flat {4} are the
  // PPN-mismatch shapes from the acceptance matrix; prove them across every
  // inter kernel with roots inside and outside the ragged tail group.
  {
    struct RaggedScope {
      int p;
      std::vector<int> levels;
    };
    const RaggedScope ragged_scopes[] = {{12, {2, 4}}, {6, {4}}};
    const CollOp ragged_ops[] = {CollOp::kBcast, CollOp::kReduce,
                                 CollOp::kAllreduce};
    for (const RaggedScope& scope : ragged_scopes) {
      if (scope.p > pmax) continue;
      const int g = gencoll::core::hier_levels_product(scope.levels);
      const int leaders = (scope.p + g - 1) / g;
      for (CollOp op : ragged_ops) {
        for (Algorithm alg : hier_algs) {
          for (int k : gencoll::core::candidate_radixes(op, alg, leaders)) {
            for (std::size_t count : sweep_counts(scope.p, user_counts)) {
              CollParams params;
              params.op = op;
              params.p = scope.p;
              params.count = count;
              params.elem_size = elem;
              params.k = k;
              gencoll::core::HierSpec spec;
              spec.group_size = g;
              spec.levels = scope.levels;
              spec.inter_alg = alg;
              spec.inter_k = k;
              std::vector<int> roots{0};
              if (rooted(op)) roots.push_back(scope.p - 1);
              for (int root : roots) {
                params.root = root;
                sweep_hier(spec, params, opts, totals);
              }
            }
          }
        }
      }
    }
  }

  // Single group (g == p): no leader phase, so the composition accepts any
  // kernel the rule names, including non-offset-preserving ones (the shipped
  // configs' `linear`). This is the shape Collectives' co-located default
  // runs on a one-node World; counts straddle the 256 KiB zero-copy gate
  // that bounds it (every count a multiple of p, so allgather composes).
  const std::size_t gate_count = gencoll::core::ExecTuning{}.pipeline_threshold / elem;
  for (CollOp op : hier_ops) {
    for (Algorithm alg : gencoll::core::algorithms_for(op)) {
      for (int g : {2, 4, 8}) {
        if (g > pmax) continue;
        const int p = g;
        const auto up = static_cast<std::size_t>(p);
        std::vector<std::size_t> counts = sweep_counts(p, user_counts);
        counts.insert(counts.end(), {gate_count - up, gate_count, gate_count + up});
        for (const std::vector<int>& shape : hier_level_shapes(g)) {
          for (std::size_t count : counts) {
            CollParams params;
            params.op = op;
            params.p = p;
            params.count = count;
            params.elem_size = elem;
            params.k = gencoll::core::candidate_radixes(op, alg, p).front();
            gencoll::core::HierSpec spec;
            spec.group_size = g;
            spec.levels = shape;
            spec.inter_alg = alg;
            spec.inter_k = params.k;
            std::vector<int> roots{0};
            if (rooted(op)) roots.push_back(p - 1);
            for (int root : roots) {
              params.root = root;
              sweep_hier(spec, params, opts, totals);
            }
          }
        }
      }
    }
  }

  const bool json = cli.get_bool("json");
  if (json) {
    std::cout << "{\"checked\":" << totals.checked << ","
              << "\"skipped\":" << totals.skipped << ","
              << "\"shrunk_checked\":" << totals.shrunk_checked << ","
              << "\"hier_levels_checked\":" << totals.hier_levels_checked << ","
              << "\"single_group_checked\":" << totals.single_group_checked << ","
              << "\"hazards\":{"
              << "\"zero_copy_races\":" << totals.hazards.zero_copy_races << ","
              << "\"benign_reorder_pairs\":" << totals.hazards.benign_reorder_pairs
              << ",\"fifo_fail_stop_pairs\":" << totals.hazards.fifo_fail_stop_pairs
              << ",\"fifo_silent_pairs\":" << totals.hazards.fifo_silent_pairs
              << "},\"failures\":[";
    for (std::size_t i = 0; i < totals.failures.size(); ++i) {
      const Failure& f = totals.failures[i];
      if (i) std::cout << ",";
      std::cout << "{\"schedule\":\"" << json_escape(f.name) << "\",\"params\":\""
                << json_escape(f.params) << "\",\"violations\":[";
      for (std::size_t j = 0; j < f.violations.size(); ++j) {
        if (j) std::cout << ",";
        std::cout << "\"" << json_escape(gencoll::check::describe(f.violations[j]))
                  << "\"";
      }
      std::cout << "]}";
    }
    std::cout << "],\"ok\":" << (totals.failures.empty() ? "true" : "false")
              << "}\n";
  } else {
    std::cout << "gencoll_check sweep: " << totals.checked << " schedules proved ("
              << totals.shrunk_checked << " crash-at-rank-r rebuilds, "
              << totals.hier_levels_checked << " multi-level intra trees, "
              << totals.single_group_checked << " single-group compositions), "
              << totals.skipped << " unsupported-parameter combinations skipped\n"
              << "hazard populations (stats, not failures): zero_copy_races="
              << totals.hazards.zero_copy_races
              << " benign_reorder=" << totals.hazards.benign_reorder_pairs
              << " fifo_fail_stop=" << totals.hazards.fifo_fail_stop_pairs
              << " fifo_silent=" << totals.hazards.fifo_silent_pairs << "\n";
    for (const Failure& f : totals.failures) {
      std::cout << "FAILED " << f.name << " [" << f.params << "]\n";
      for (const Violation& v : f.violations) {
        std::cout << "  " << gencoll::check::describe(v) << "\n";
      }
    }
    std::cout << (totals.failures.empty() ? "SWEEP OK" : "SWEEP FAILED") << "\n";
  }
  return totals.failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  gencoll::util::Cli cli;
  cli.add_flag("sweep", "prove every registry kernel over the full grid");
  cli.add_flag("op", "collective op (single-config mode)", "allreduce");
  cli.add_flag("alg", "algorithm (single-config mode)", "kring");
  cli.add_flag("p", "process count", "8");
  cli.add_flag("k", "radix / group size", "2");
  cli.add_flag("count", "element count", "64");
  cli.add_flag("elem", "element size in bytes", "4");
  cli.add_flag("root", "root rank for rooted ops", "0");
  cli.add_flag("hier-g",
               "single-config mode: compose hierarchically with this group "
               "size, --alg as the inter-group kernel (0 = flat)",
               "0");
  cli.add_flag("hier-levels",
               "single-config mode: intra level vector, e.g. 2x4 (implies a "
               "group size of the product; overrides --hier-g)",
               "");
  cli.add_flag("pmax", "sweep: largest process count", "64");
  cli.add_flag("pset", "sweep: explicit comma-separated process counts", "");
  cli.add_flag("counts", "sweep: explicit comma-separated element counts", "");
  cli.add_flag("zero-copy", "prove safety under zero-copy sends");
  cli.add_flag("strict-reorder", "prove safety under a reordering transport");
  cli.add_flag("no-conformance", "skip cost-model conformance");
  cli.add_flag("dump", "print the schedule IR (single-config mode)");
  cli.add_flag("json", "machine-readable output");
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << "\n" << cli.usage(argv[0]);
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.usage(argv[0]);
    return 0;
  }

  CheckOptions opts;
  opts.zero_copy = cli.get_bool("zero-copy");
  opts.strict_reorder = cli.get_bool("strict-reorder");
  opts.conformance = !cli.get_bool("no-conformance");

  if (cli.get_bool("sweep")) return run_sweep(cli, opts);

  const auto op = gencoll::core::parse_coll_op(cli.get("op"));
  const auto alg = gencoll::core::parse_algorithm(cli.get("alg"));
  if (!op || !alg) {
    std::cerr << "unknown --op or --alg\n";
    return 2;
  }
  CollParams params;
  params.op = *op;
  params.p = static_cast<int>(cli.get_int("p").value_or(8));
  params.count = static_cast<std::size_t>(cli.get_int("count").value_or(64));
  params.elem_size = static_cast<std::size_t>(cli.get_int("elem").value_or(4));
  params.k = static_cast<int>(cli.get_int("k").value_or(2));
  params.root = static_cast<int>(cli.get_int("root").value_or(0));

  Schedule sched;
  try {
    const int hier_g = static_cast<int>(cli.get_int("hier-g").value_or(0));
    const std::string hier_levels = cli.get("hier-levels");
    if (hier_g > 1 || !hier_levels.empty()) {
      gencoll::core::HierSpec spec;
      spec.group_size = hier_g;
      if (!hier_levels.empty()) {
        const auto parsed = gencoll::core::hier_parse_levels(hier_levels);
        if (!parsed) {
          std::cerr << "bad --hier-levels '" << hier_levels
                    << "' (want e.g. 2x4)\n";
          return 2;
        }
        spec.levels = *parsed;
      }
      spec.inter_alg = *alg;
      spec.inter_k = params.k;
      sched = gencoll::core::build_hierarchical_schedule(spec, params);
    } else {
      sched = gencoll::core::build_schedule(*alg, params);
    }
  } catch (const std::exception& e) {
    std::cerr << "build_schedule: " << e.what() << "\n";
    return 2;
  }
  if (cli.get_bool("dump")) std::cout << sched.dump();
  const CheckReport report = gencoll::check::check_schedule(sched, *alg, opts);
  if (cli.get_bool("json")) {
    print_report_json(sched, report);
  } else {
    print_report_human(sched, report);
  }
  return report.ok() ? 0 : 1;
}
