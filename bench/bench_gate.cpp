// bench_gate: the data-plane microbenchmark behind the CI bench-gate leg.
//
// Sweeps {kernel x radix x payload size} allreduce configurations on the
// threaded executor and reports, per configuration:
//   * ns_per_op        — median wall time of one collective (tuned data plane:
//                        pooled buffers, zero-copy where proven, SIMD reduce,
//                        segment pipelining)
//   * bytes_per_sec    — payload bytes / median op time
//   * allocs_per_op    — heap allocations per op from the BufferPool counter
//                        (steady state: O(1), i.e. ~0 — every message buffer
//                        recycles)
//   * naive_ns_per_op  — same schedule with the fast paths off (pool bypass,
//                        scalar reduce, no zero-copy, no pipelining)
//   * speedup_vs_naive — naive / tuned; machine-relative, so it stays
//                        meaningful when CI hardware drifts
//
// Inputs are fixed-seed (make_inputs seed 42) and every configuration's tuned
// output is validated against reference_outputs before timing is reported.
// Zero-copy is enabled per schedule only when the symbolic prover passes it
// under CheckOptions::zero_copy — the same proof gencoll_check --sweep runs.
//
// Usage: bench_gate [--json] [--out PATH] [--quick]
//   --json   print the JSON document to stdout (always written to --out)
//   --out    output path (default BENCH_gate.json)
//   --quick  fewer iterations (smoke-test mode, not for baselines)
//
// Refreshing the CI baseline: run a Release build of bench_gate on the CI
// runner class, then copy BENCH_gate.json over bench/baseline/BENCH_gate.json
// (see .github/workflows/ci.yml, job bench-gate).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "core/algorithms.hpp"
#include "core/executor.hpp"
#include "core/hierarchy.hpp"
#include "core/reference.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/reduce_op.hpp"

namespace {

using gencoll::core::Algorithm;
using gencoll::core::CollOp;
using gencoll::core::CollParams;
using gencoll::core::Schedule;
using gencoll::runtime::DataType;
using gencoll::runtime::ReduceOp;

constexpr unsigned long long kSeed = 42;
constexpr int kRanks = 16;

struct Config {
  const char* kernel;  ///< registry-style kernel name
  Algorithm alg;
  Schedule (*build)(const CollParams&);
  int k;
  std::size_t bytes;
  int p = kRanks;
  /// >1: hierarchical composition (core/hierarchy.hpp) with `alg` as the
  /// inter-group kernel over p/group_size leaders and shared-segment intra
  /// phases. The build pointer is ignored for hierarchical rows.
  int group_size = 1;
  /// Also time this row on the event executor (core/event_exec.hpp). The
  /// threaded/event pair feeds the top-level event_speedup_vs_threaded
  /// metric bench_diff's --require floor gates in CI.
  bool event_pair = false;
  /// Non-empty: multi-level intra tree (level vector, top tier first) with
  /// partitioned concurrent reduction and fragment pipelining; group_size is
  /// then the product of the entries. Feeds hier2_speedup_vs_flat.
  std::vector<int> levels = {};
};

struct Result {
  Config cfg;
  bool zero_copy = false;
  double ns_per_op = 0.0;
  double bytes_per_sec = 0.0;
  double allocs_per_op = 0.0;
  double naive_ns_per_op = 0.0;
  double speedup_vs_naive = 0.0;
  double event_ns_per_op = 0.0;  ///< 0 when the row has no event pair
};

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Median wall time of one execute_threaded() call plus the pool-allocation
/// rate over the timed iterations. Warmup iterations are excluded from both,
/// so allocs_per_op reflects steady state, not first-touch pool growth.
struct Timing {
  double median_ns = 0.0;
  double allocs_per_op = 0.0;
};

Timing time_config(const Schedule& sched,
                   const std::vector<std::vector<std::byte>>& inputs,
                   gencoll::runtime::BufferPool& pool,
                   const gencoll::core::ExecTuning& tuning, bool quick,
                   bool event = false) {
  gencoll::core::ThreadedExecOptions options;
  options.world.pool = &pool;
  options.tuning = tuning;
  if (event) {
    options.world.executor = gencoll::runtime::ExecutorKind::kEvent;
  }

  // Pre-charge the freelists with one buffer per send segment the schedule
  // can post. Sends are buffered, so in the worst interleaving every posted
  // message of an execution is simultaneously outstanding — the total is
  // therefore an upper bound on pool depth. Seeded with it, steady state
  // allocates only when an acquire's shard-by-shard scan misses a buffer
  // that is moving between freelist shards (see buffer_pool.hpp), which is
  // rare enough that allocs/op rounds to 0 (the CI gate compares the
  // rounded number). Zero-copy sends never touch the pool, and the naive
  // (bypass) configuration measures the heap on purpose.
  if (!pool.bypass() && !tuning.zero_copy) {
    const std::size_t seg =
        tuning.pipeline_threshold != 0 && tuning.pipeline_segment != 0
            ? tuning.pipeline_segment - tuning.pipeline_segment % sizeof(float)
            : 0;
    std::vector<gencoll::runtime::PoolBuffer> charge;
    for (const auto& rank_prog : sched.ranks) {
      for (const auto& s : rank_prog.steps) {
        if (s.kind != gencoll::core::StepKind::kSend &&
            s.kind != gencoll::core::StepKind::kSendInput) {
          continue;
        }
        const bool pipelined =
            seg != 0 && s.bytes >= tuning.pipeline_threshold && s.bytes > seg;
        const std::size_t chunk = pipelined ? seg : s.bytes;
        std::size_t done = 0;
        do {
          const std::size_t len = std::min(chunk, s.bytes - done);
          charge.push_back(pool.acquire(len));
          done += len;
        } while (done < s.bytes);
      }
    }
  }  // releasing here files every buffer into its class freelist

  const int min_iters = quick ? 2 : 3;
  const int max_iters = quick ? 3 : 15;
  const double budget_ns = quick ? 1.5e8 : 4.0e8;

  // Warm until quiescent: the pool's steady-state depth depends on thread
  // interleaving, so keep warming (up to a cap) until a whole execution runs
  // without touching the heap. With bypass pools this never converges and the
  // cap keeps warmup cheap.
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t before = pool.stats().allocations;
    gencoll::core::execute_threaded(sched, inputs, DataType::kFloat,
                                    ReduceOp::kSum, options);
    if (i >= 1 && pool.stats().allocations == before) break;
  }

  const std::uint64_t allocs_before = pool.stats().allocations;
  std::vector<double> samples;
  double spent = 0.0;
  while (static_cast<int>(samples.size()) < max_iters &&
         (static_cast<int>(samples.size()) < min_iters || spent < budget_ns)) {
    const double t0 = now_ns();
    gencoll::core::execute_threaded(sched, inputs, DataType::kFloat,
                                    ReduceOp::kSum, options);
    const double dt = now_ns() - t0;
    samples.push_back(dt);
    spent += dt;
  }
  const std::uint64_t allocs_after = pool.stats().allocations;

  std::sort(samples.begin(), samples.end());
  Timing t;
  t.median_ns = samples[samples.size() / 2];
  // Rounded to an integer: steady-state allocations per op is the quantity
  // the CI gate compares exactly, and stray one-off pool growth (a deeper
  // interleaving than any warmup saw) must not flake it.
  t.allocs_per_op = std::round(static_cast<double>(allocs_after - allocs_before) /
                               static_cast<double>(samples.size()));
  return t;
}

/// Element-wise float comparison with a small relative tolerance: the
/// schedule's reduction order differs from the reference's direct order.
bool outputs_match(const std::vector<std::vector<std::byte>>& got,
                   const std::vector<std::vector<std::byte>>& want) {
  for (std::size_t r = 0; r < want.size(); ++r) {
    if (want[r].empty()) continue;
    if (got[r].size() < want[r].size()) return false;
    const std::size_t n = want[r].size() / sizeof(float);
    for (std::size_t i = 0; i < n; ++i) {
      float g = 0.0F;
      float w = 0.0F;
      std::memcpy(&g, got[r].data() + i * sizeof(float), sizeof(float));
      std::memcpy(&w, want[r].data() + i * sizeof(float), sizeof(float));
      const float tol = 1e-3F * std::max(1.0F, std::fabs(w));
      if (std::fabs(g - w) > tol) return false;
    }
  }
  return true;
}

Result run_config(const Config& cfg, bool quick) {
  CollParams params;
  params.op = CollOp::kAllreduce;
  params.p = cfg.p;
  params.count = cfg.bytes / sizeof(float);
  params.elem_size = sizeof(float);
  params.k = cfg.k;

  const Schedule sched = [&] {
    if (cfg.group_size > 1) {
      gencoll::core::HierSpec spec;
      spec.group_size = cfg.group_size;
      spec.levels = cfg.levels;
      spec.inter_alg = cfg.alg;
      spec.inter_k = cfg.k;
      return gencoll::core::build_hierarchical_schedule(spec, params);
    }
    return cfg.build(params);
  }();
  const auto inputs = gencoll::core::make_inputs(params, DataType::kFloat, kSeed);

  // Zero-copy only where the prover passes the schedule under the zero-copy
  // transport contract (same proof as gencoll_check --sweep).
  gencoll::check::CheckOptions copts;
  copts.zero_copy = true;
  copts.conformance = false;
  const auto report = gencoll::check::check_schedule(sched, cfg.alg, copts);

  Result res;
  res.cfg = cfg;
  res.zero_copy = report.ok();

  gencoll::core::ExecTuning tuned;
  tuned.zero_copy = res.zero_copy;

  // Correctness guard: never report timing for a wrong answer.
  {
    gencoll::core::ThreadedExecOptions options;
    options.tuning = tuned;
    const auto got = gencoll::core::execute_threaded(
        sched, inputs, DataType::kFloat, ReduceOp::kSum, options);
    const auto want = gencoll::core::reference_outputs(params, inputs,
                                                       DataType::kFloat,
                                                       ReduceOp::kSum);
    if (!outputs_match(got, want)) {
      std::fprintf(stderr, "FATAL: %s k=%d %zuB: tuned output != reference\n",
                   cfg.kernel, cfg.k, cfg.bytes);
      std::exit(2);
    }
  }

  gencoll::runtime::BufferPool warm_pool;
  const Timing t = time_config(sched, inputs, warm_pool, tuned, quick);

  gencoll::core::ExecTuning naive;
  naive.zero_copy = false;
  naive.pipeline_threshold = 0;  // no segmentation
  naive.scalar_reduce = true;
  gencoll::runtime::BufferPool bypass_pool;
  bypass_pool.set_bypass(true);  // heap-allocate every message buffer
  const Timing tn = time_config(sched, inputs, bypass_pool, naive, quick);

  res.ns_per_op = t.median_ns;
  res.bytes_per_sec = static_cast<double>(cfg.bytes) / (t.median_ns * 1e-9);
  res.allocs_per_op = t.allocs_per_op;
  res.naive_ns_per_op = tn.median_ns;
  res.speedup_vs_naive = tn.median_ns / t.median_ns;

  if (cfg.event_pair) {
    // Event-executor leg of the same row, same tuned data plane. Correctness
    // guard first (same policy as the threaded leg: never time a wrong
    // answer), then a fresh warm pool so neither engine inherits the other's
    // freelist shape.
    {
      gencoll::core::ThreadedExecOptions options;
      options.tuning = tuned;
      options.world.executor = gencoll::runtime::ExecutorKind::kEvent;
      const auto got = gencoll::core::execute_threaded(
          sched, inputs, DataType::kFloat, ReduceOp::kSum, options);
      const auto want = gencoll::core::reference_outputs(params, inputs,
                                                         DataType::kFloat,
                                                         ReduceOp::kSum);
      if (!outputs_match(got, want)) {
        std::fprintf(stderr,
                     "FATAL: %s k=%d %zuB: event output != reference\n",
                     cfg.kernel, cfg.k, cfg.bytes);
        std::exit(2);
      }
    }
    gencoll::runtime::BufferPool event_pool;
    const Timing te =
        time_config(sched, inputs, event_pool, tuned, quick, /*event=*/true);
    res.event_ns_per_op = te.median_ns;
  }
  return res;
}

std::string config_name(const Config& cfg) {
  std::string name = "allreduce_";
  if (!cfg.levels.empty()) {
    name += "hier_" + gencoll::core::hier_format_levels(cfg.levels) + "_";
  } else if (cfg.group_size > 1) {
    name += "hier_g" + std::to_string(cfg.group_size) + "_";
  }
  return name + cfg.kernel + "_k" + std::to_string(cfg.k) + "_p" +
         std::to_string(cfg.p) + "_" + std::to_string(cfg.bytes) + "B";
}

/// Best speedup of hierarchical rows matching `pick` over the flat
/// (group_size == 1) row with the same (kernel, k, p, bytes). Returns 0
/// when no pair exists.
template <typename Pick>
double speedup_vs_flat(const std::vector<Result>& results, Pick pick) {
  double speedup = 0.0;
  for (const Result& h : results) {
    if (h.cfg.group_size <= 1 || !pick(h.cfg)) continue;
    for (const Result& f : results) {
      if (f.cfg.group_size == 1 && f.cfg.alg == h.cfg.alg &&
          f.cfg.k == h.cfg.k && f.cfg.p == h.cfg.p &&
          f.cfg.bytes == h.cfg.bytes && h.ns_per_op > 0.0) {
        speedup = std::max(speedup, f.ns_per_op / h.ns_per_op);
      }
    }
  }
  return speedup;
}

/// Flat-intra hierarchical rows (empty level vector) vs the flat kernel:
/// the original single-level composition gate (CI floor 2.0).
double hier_speedup_vs_flat(const std::vector<Result>& results) {
  return speedup_vs_flat(results,
                         [](const Config& c) { return c.levels.empty(); });
}

/// Multi-level (level-vector) rows vs the flat kernel: the two-tier
/// single-copy tree with partitioned concurrent reduction and fragment
/// pipelining must beat the flat kernel by the CI floor (--require
/// hier2_speedup_vs_flat=1.2) at the paired p=32 / 1 MiB shape.
double hier2_speedup_vs_flat(const std::vector<Result>& results) {
  return speedup_vs_flat(results,
                         [](const Config& c) { return !c.levels.empty(); });
}

/// Event-vs-threaded speedup over the event_pair rows: threaded ns / event
/// ns (>1 = event faster). The CI floor (--require
/// event_speedup_vs_threaded=0.95) asserts the event engine stays within 5%
/// of thread-per-rank at the paired shape. Returns 0 when no pair ran.
double event_speedup_vs_threaded(const std::vector<Result>& results) {
  double speedup = 0.0;
  for (const Result& r : results) {
    if (r.event_ns_per_op > 0.0) {
      speedup = std::max(speedup, r.ns_per_op / r.event_ns_per_op);
    }
  }
  return speedup;
}

std::string to_json(const std::vector<Result>& results) {
  std::string out = "{\n";
  out += "  \"schema\": 1,\n";
  out += std::string("  \"reduce_backend\": \"") +
         gencoll::runtime::reduce_backend_name(
             gencoll::runtime::active_reduce_backend()) +
         "\",\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf), "  \"hier_speedup_vs_flat\": %.3f,\n",
                hier_speedup_vs_flat(results));
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"hier2_speedup_vs_flat\": %.3f,\n",
                hier2_speedup_vs_flat(results));
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"event_speedup_vs_threaded\": %.3f,\n",
                event_speedup_vs_threaded(results));
  out += buf;
  out += "  \"configs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    const std::string levels = r.cfg.levels.empty()
                                   ? std::string()
                                   : gencoll::core::hier_format_levels(
                                         r.cfg.levels);
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"%s\", \"kernel\": \"%s\", \"k\": %d, \"p\": %d, "
        "\"group_size\": %d, \"levels\": \"%s\", \"bytes\": %zu, "
        "\"zero_copy\": %s, "
        "\"ns_per_op\": %.0f, \"bytes_per_sec\": %.0f, "
        "\"allocs_per_op\": %.2f, \"naive_ns_per_op\": %.0f, "
        "\"speedup_vs_naive\": %.3f, \"event_ns_per_op\": %.0f}%s\n",
        config_name(r.cfg).c_str(), r.cfg.kernel, r.cfg.k, r.cfg.p,
        r.cfg.group_size, levels.c_str(), r.cfg.bytes,
        r.zero_copy ? "true" : "false",
        r.ns_per_op, r.bytes_per_sec, r.allocs_per_op, r.naive_ns_per_op,
        r.speedup_vs_naive, r.event_ns_per_op,
        i + 1 < results.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool quick = false;
  std::string out_path = "BENCH_gate.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_gate [--json] [--out PATH] [--quick]\n");
      return 1;
    }
  }

  const std::vector<Config> configs = [] {
    std::vector<Config> cs;
    const std::size_t sizes[] = {4096, 65536, 1048576};
    const int radices[] = {2, 4};
    for (std::size_t bytes : sizes) {
      for (int k : radices) {
        cs.push_back({"recursive_multiplying", Algorithm::kRecursiveMultiplying,
                      gencoll::core::build_recmul_allreduce, k, bytes});
        cs.push_back({"knomial", Algorithm::kKnomial,
                      gencoll::core::build_knomial_allreduce, k, bytes});
        cs.push_back({"kring", Algorithm::kKring,
                      gencoll::core::build_kring_allreduce, k, bytes});
      }
    }
    // Hierarchical pair at p=32: flat recursive multiplying vs the same
    // kernel over 4 leaders with shared-segment intra phases (groups of 8).
    // bench_diff's --require hier_speedup_vs_flat gate compares these two.
    cs.push_back({"recursive_multiplying", Algorithm::kRecursiveMultiplying,
                  gencoll::core::build_recmul_allreduce, 2, 1048576, 32, 1});
    cs.push_back({"recursive_multiplying", Algorithm::kRecursiveMultiplying,
                  gencoll::core::build_recmul_allreduce, 2, 1048576, 32, 8});
    // Two-level pair at the same shape: groups of 8 split 2x4 (NUMA x core),
    // single-copy partitioned reduction + fragment pipelining inside the
    // node. bench_diff's --require hier2_speedup_vs_flat gate compares this
    // row against the flat p=32 row above.
    {
      Config hier2{"recursive_multiplying", Algorithm::kRecursiveMultiplying,
                   gencoll::core::build_recmul_allreduce, 2, 1048576, 32, 8};
      hier2.levels = {2, 4};
      cs.push_back(hier2);
    }
    // Threaded-vs-event pair: the flat recursive-multiplying k=2 p=16 1 MiB
    // row also runs on the event executor; bench_diff gates the resulting
    // event_speedup_vs_threaded >= 0.95 floor in the bench-gate CI leg.
    for (Config& c : cs) {
      if (c.group_size == 1 && c.alg == Algorithm::kRecursiveMultiplying &&
          c.k == 2 && c.bytes == 1048576 && c.p == kRanks) {
        c.event_pair = true;
      }
    }
    return cs;
  }();

  std::vector<Result> results;
  for (const Config& cfg : configs) {
    results.push_back(run_config(cfg, quick));
    const Result& r = results.back();
    if (!json) {
      std::printf(
          "%-45s %10.0f ns/op  %8.2f MiB/s  %6.2f allocs/op  %5.2fx vs naive%s\n",
          config_name(cfg).c_str(), r.ns_per_op,
          r.bytes_per_sec / (1024.0 * 1024.0), r.allocs_per_op,
          r.speedup_vs_naive, r.zero_copy ? "  [zero-copy]" : "");
      std::fflush(stdout);
    }
  }

  const std::string doc = to_json(results);
  if (json) std::fputs(doc.c_str(), stdout);
  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(doc.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
