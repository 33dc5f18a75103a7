// gencoll_bench: warm, closed-loop benchmark of the path users run —
// gencoll::Collectives calls repeated on a long-lived World — plus the
// scale path (run_collective on the event engine), with a traced mode that
// breaks the time down by library layer.
//
// One process runs one workload (so peak RSS is per workload):
//
//   gencoll_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//
// Workloads (README.md gives the reasons in full):
//   small_sync       p=4, the solver iteration of examples/stencil_app: a
//                    halo allgather of 2 doubles per rank, then an in-place
//                    allreduce of 1 double, timed as one op
//   large_allreduce  p=4, float gradient buckets of 256 KiB..8 MiB: 3 in 4
//                    allreduce, the rest reduce_scatter + allgather pairs
//   varied_shapes    p=4, all ten API ops drawn Zipf(1.0) from 16384
//                    distinct (op, count, root) shapes — schedule-cache misses
//   hier_intra       p=4 as one node, two Collectives (hier 4 shm / hier 2x2
//                    shm) called alternately at 64 KiB, 1 MiB and 4 MiB
//   event_scale      run_collective, p=1024 on 4 event workers, rotating
//                    over the Table I (kernel, op) pairs
//
// Load model: closed loop, one outstanding blocking collective per
// communicator. The op sequence is generated in rounds from --seed (each
// round has a fixed composition, shuffled per round) and the library only
// ever sees the generated buffers. The timed phase is a fixed number of
// rounds: --seconds slices of Workload::slice_rounds rounds each, a slice
// being about one second on the reference machine. So every commit runs the
// same seeded sequence, however fast it is. Set-up is timed fifteen times,
// then one slice's worth of untimed burn-in runs, then the timed phase. One
// op's latency is the max over ranks of that rank's call duration; p50 and
// the throughputs are medians over slices, p99 is over all timed ops. Every
// 64th op and the last op are compared with core::reference_outputs outside
// the timed region; a mismatch or a throw counts as failed and the process
// exits 2.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs a bounded prefix
// of the same sequence twice (untraced, then with an obs::TraceRecorder on
// every rank), times the layers' public functions from outside at this
// workload's own sizes, prints the per-layer metrics and writes a Chrome
// trace of the traced window.
// The last line of stdout is always one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <new>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "api/gencoll.hpp"
#include "core/reference.hpp"
#include "core/registry.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/reduce_op.hpp"
#include "tuning/selector.hpp"
#include "util/rng.hpp"

extern char** environ;

// ---- heap allocation counter (harness only) ---------------------------------
// Counts operator new calls while a counted window is open; one relaxed load
// per allocation otherwise.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t bytes) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* ptr = std::malloc(bytes == 0 ? 1 : bytes)) return ptr;
  throw std::bad_alloc();
}
// Out of line: inlined into call sites, GCC would flag the malloc/free pair
// as a mismatched new/delete.
[[gnu::noinline]] void operator delete(void* ptr) noexcept { std::free(ptr); }
[[gnu::noinline]] void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace {

namespace core = gencoll::core;
namespace obs = gencoll::obs;
namespace runtime = gencoll::runtime;
namespace tuning = gencoll::tuning;
namespace util = gencoll::util;
using core::Algorithm;
using core::CollOp;
using gencoll::Collectives;
using runtime::DataType;
using runtime::ReduceOp;

/// Same steady-clock epoch as the executors' trace spans.
double now_us() { return obs::wallclock_us(); }

// ---- metric dictionary (BENCHMARK.json mirrors it) -------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"p50_us", "us"},          {"p99_us", "us"},
    {"ops_per_s", "1/s"},      {"payload_mb_per_s", "MB/s"},
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"api.self_us", "us"},
    {"api.heap_allocs_per_op", "count"},
    {"api.schedules_built", "count"},
    {"api.cache_hit_ratio", "ratio"},
    {"tuning.resolve_ns", "ns"},
    {"core.schedule.build_us", "us"},
    {"core.schedule.messages_per_op", "count"},
    {"core.schedule.bytes_per_op", "B"},
    {"core.schedule.reduce_bytes_per_op", "B"},
    {"core.schedule.rounds_per_op", "count"},
    {"core.exec.send_us", "us"},
    {"core.exec.recv_us", "us"},
    {"core.exec.copy_us", "us"},
    {"core.exec.pipelined_segments_per_op", "count"},
    {"core.hier.intra_share", "ratio"},
    {"runtime.transport.msg_us", "us"},
    {"runtime.pool.acquires_per_op", "count"},
    {"runtime.pool.heap_allocs_per_op", "count"},
    {"runtime.pool.recycle_ratio", "ratio"},
    {"runtime.reduce.gbps", "GB/s"},
    {"runtime.memcpy.gbps", "GB/s"},
    {"runtime.world.construct_us", "us"},
    {"runtime.threads_peak", "count"},
    {"obs.trace_overhead_pct", "%"},
};

// ---- workloads --------------------------------------------------------------

/// Which library calls one op makes.
enum class Pattern {
  kSingle,       ///< one call of Shape::op
  kRsAg,         ///< reduce_scatter + allgather of Shape::count (a split allreduce)
  kStencilStep,  ///< examples/stencil_app's iteration: halo allgather + in-place allreduce
};

/// One distinct op the harness can issue.
struct Shape {
  CollOp op = CollOp::kAllreduce;
  DataType type = DataType::kFloat;
  std::size_t count = 0;  ///< elements (per destination for alltoall)
  int root = 0;
  int engine = 0;  ///< which of the workload's Collectives runs it
  Pattern pattern = Pattern::kSingle;
  Algorithm alg = Algorithm::kKnomial;  ///< event_scale's kernel
  std::uint64_t payload = 0;            ///< output bytes of the op's calls
};

struct Workload {
  std::string name;
  int p = 4;
  bool event = false;  ///< run_collective on the event engine
  std::vector<tuning::SelectionConfig> configs;  ///< one Collectives each
  std::vector<Shape> shapes;
  /// Shape indices of round `r`; a pure function of (seed, r). Every round
  /// of a workload has the same length.
  std::function<std::vector<std::uint32_t>(std::uint64_t)> round;
  std::vector<std::uint32_t> warmup;  ///< distinct shapes of the warmup pass
  /// Rounds in one slice: about one second on the reference machine (a
  /// 4-vCPU Xeon KVM guest). Fixed, so the op count never depends on speed.
  std::uint64_t slice_rounds = 1;
  std::uint64_t trace_rounds = 1;  ///< length of the traced window
  /// Every slice starts with fresh Collectives (an empty schedule cache).
  bool fresh_per_slice = false;
};

/// examples/stencil_app's halo: the two boundary cells of each rank's strip.
constexpr std::size_t kHaloDoubles = 2;

core::CollParams call_params(CollOp op, std::size_t count, std::size_t elem_size, int root,
                             int p) {
  core::CollParams prm;
  prm.op = op;
  prm.p = p;
  prm.root = root;
  prm.count = count;
  prm.elem_size = elem_size;
  return prm;
}

/// The library calls one op of shape s makes, in order.
std::vector<core::CollParams> calls_of(const Shape& s, int p) {
  const std::size_t es = runtime::datatype_size(s.type);
  switch (s.pattern) {
    case Pattern::kRsAg:
      return {call_params(CollOp::kReduceScatter, s.count, es, 0, p),
              call_params(CollOp::kAllgather, s.count, es, 0, p)};
    case Pattern::kStencilStep:
      return {call_params(CollOp::kAllgather, kHaloDoubles * static_cast<std::size_t>(p), es, 0,
                          p),
              call_params(CollOp::kAllreduce, 1, es, 0, p)};
    case Pattern::kSingle: break;
  }
  return {call_params(s.op, s.count, es, s.root, p)};
}

/// The collective whose result a single or split op leaves in `out`.
core::CollParams params_of(const Shape& s, int p) {
  return call_params(s.pattern == Pattern::kRsAg ? CollOp::kAllreduce : s.op, s.count,
                     runtime::datatype_size(s.type), s.root, p);
}

void add_shape(Workload& w, Shape s) {
  for (const core::CollParams& prm : calls_of(s, w.p)) {
    if (prm.op != CollOp::kBarrier) s.payload += core::output_bytes(prm);
  }
  w.shapes.push_back(s);
}

util::SplitMix64 round_rng(std::uint64_t seed, std::uint64_t round) {
  util::SplitMix64 mix(seed * 0x9E3779B97F4A7C15ULL + round);
  return util::SplitMix64(mix());
}

std::vector<std::uint32_t> all_shapes(const Workload& w) {
  std::vector<std::uint32_t> all(w.shapes.size());
  std::iota(all.begin(), all.end(), 0u);
  return all;
}

Workload small_sync(const tuning::SelectionConfig& polaris) {
  Workload w;
  w.name = "small_sync";
  w.configs = {polaris};
  // One shape: the per-iteration collectives of examples/stencil_app. The
  // seed only changes the values the solver would exchange.
  add_shape(w, {.type = DataType::kDouble, .pattern = Pattern::kStencilStep});
  w.round = [](std::uint64_t) { return std::vector<std::uint32_t>(100, 0); };
  w.warmup = all_shapes(w);
  w.slice_rounds = 300;
  w.trace_rounds = 20;
  return w;
}

Workload large_allreduce(std::uint64_t seed, const tuning::SelectionConfig& polaris) {
  Workload w;
  w.name = "large_allreduce";
  w.configs = {polaris};
  // Shape 2i: allreduce of bucket i; 2i+1: reduce_scatter + allgather.
  constexpr std::size_t kBuckets[] = {256u << 10, 1u << 20, 4u << 20, 8u << 20};
  for (std::size_t bytes : kBuckets) {
    for (Pattern pattern : {Pattern::kSingle, Pattern::kRsAg}) {
      add_shape(w, {.op = CollOp::kAllreduce, .type = DataType::kFloat,
                    .count = bytes / sizeof(float), .pattern = pattern});
    }
  }
  // Per round of 50, {allreduce, split} counts per bucket; 13 of 50 are
  // split. Latency sorts the shapes by bucket, so the 4 MiB allreduces hold
  // ranks 36-84 % (p50 falls well inside them) and the one 8 MiB op per
  // round is the top 2 % (p99 falls in its middle, not in a cluster's tail).
  w.round = [seed](std::uint64_t r) {
    util::SplitMix64 rng = round_rng(seed, r);
    std::vector<std::uint32_t> ops;
    constexpr int kPerBucket[4][2] = {{9, 3}, {4, 2}, {24, 7}, {0, 1}};
    for (std::uint32_t b = 0; b < 4; ++b) {
      for (std::uint32_t split = 0; split < 2; ++split) {
        ops.insert(ops.end(), kPerBucket[b][split], 2 * b + split);
      }
    }
    std::shuffle(ops.begin(), ops.end(), rng);
    return ops;
  };
  w.warmup = all_shapes(w);
  w.slice_rounds = 15;
  w.trace_rounds = 1;
  return w;
}

Workload varied_shapes(std::uint64_t seed, const tuning::SelectionConfig& polaris) {
  Workload w;
  w.name = "varied_shapes";
  w.configs = {polaris};
  // Pool entry i has Zipf rank i. Ops cycle so every popularity band holds
  // every op; counts follow a golden-ratio sequence over 1..65536 (the same
  // for every seed, so the latency mix is seed-independent); roots of rooted
  // ops come from the seed. Barrier has a single shape, at rank 10.
  constexpr std::size_t kPool = 16384;
  constexpr std::size_t kMaxCount = 65536;
  constexpr CollOp kOps[] = {CollOp::kBcast,     CollOp::kReduce,  CollOp::kGather,
                             CollOp::kAllgather, CollOp::kAllreduce, CollOp::kScatter,
                             CollOp::kReduceScatter, CollOp::kAlltoall, CollOp::kScan};
  util::SplitMix64 rng(seed ^ 0x5EEDF00DULL);
  std::set<std::tuple<CollOp, std::size_t, int>> seen;
  std::size_t per_op[std::size(kOps)] = {};
  for (std::size_t i = 0; i < kPool; ++i) {
    if (i == 9) {
      add_shape(w, {.op = CollOp::kBarrier, .type = DataType::kByte});
      continue;
    }
    const std::size_t j = i < 9 ? i : i - 1;
    const std::size_t o = j % std::size(kOps);
    const CollOp op = kOps[o];
    const double frac = std::fmod(static_cast<double>(++per_op[o]) * 0.6180339887498949 +
                                      0.1 * static_cast<double>(o),
                                  1.0);
    std::size_t count = 1 + static_cast<std::size_t>(frac * kMaxCount) % kMaxCount;
    const bool rooted = op == CollOp::kBcast || op == CollOp::kReduce ||
                        op == CollOp::kGather || op == CollOp::kScatter;
    const int root = rooted ? static_cast<int>(rng.below(4)) : 0;
    while (!seen.insert({op, count, root}).second) count = count % kMaxCount + 1;
    add_shape(w, {.op = op, .type = DataType::kInt32, .count = count, .root = root});
  }
  std::vector<double> cdf(kPool);
  double total = 0.0;
  for (std::size_t i = 0; i < kPool; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf[i] = total;
  }
  w.round = [seed, cdf = std::move(cdf)](std::uint64_t r) {
    util::SplitMix64 rng = round_rng(seed, r);
    std::vector<std::uint32_t> ops(64);
    for (auto& op : ops) {
      const auto rank = std::upper_bound(cdf.begin(), cdf.end(), rng.uniform() * cdf.back());
      op = static_cast<std::uint32_t>(std::min<std::ptrdiff_t>(rank - cdf.begin(), kPool - 1));
    }
    return ops;
  };
  // Warmup: the distinct shapes of the first 8 rounds.
  std::set<std::uint32_t> warm;
  for (std::uint64_t r = 0; r < 8; ++r) {
    for (std::uint32_t s : w.round(r)) warm.insert(s);
  }
  w.warmup.assign(warm.begin(), warm.end());
  w.slice_rounds = 320;
  w.trace_rounds = 32;
  // A long-lived cache would see fewer misses in every later slice; a fresh
  // one per slice keeps the miss rate and the cache's memory the same in all.
  w.fresh_per_slice = true;
  return w;
}

Workload hier_intra(std::uint64_t seed, const tuning::SelectionConfig& hier4,
                    const tuning::SelectionConfig& hier2x2) {
  Workload w;
  w.name = "hier_intra";
  w.configs = {hier4, hier2x2};
  // Shape index = ((size * 3 + op) * 4 + root) * 2 + engine.
  constexpr std::size_t kSizes[] = {64u << 10, 1u << 20, 4u << 20};
  constexpr CollOp kOps[] = {CollOp::kAllreduce, CollOp::kReduce, CollOp::kBcast};
  for (std::size_t bytes : kSizes) {
    for (CollOp op : kOps) {
      for (int root = 0; root < w.p; ++root) {
        for (int engine = 0; engine < 2; ++engine) {
          const bool bytes_type = op == CollOp::kBcast;
          add_shape(w, {.op = op, .type = bytes_type ? DataType::kByte : DataType::kFloat,
                        .count = bytes_type ? bytes : bytes / sizeof(float),
                        .root = op == CollOp::kAllreduce ? 0 : root,
                        .engine = engine});
        }
      }
    }
  }
  // Per round: 64 KiB x2, 1 MiB x2, 4 MiB x1 of each op, every call issued
  // on the flat engine and then on the 2x2 tree with the same root.
  w.round = [seed](std::uint64_t r) {
    util::SplitMix64 rng = round_rng(seed, r);
    std::vector<std::uint32_t> items;
    const int per_size[] = {2, 2, 1};
    for (std::uint32_t size = 0; size < 3; ++size) {
      for (std::uint32_t op = 0; op < 3; ++op) {
        for (int i = 0; i < per_size[size]; ++i) {
          const auto root = op == 0 ? 0u : static_cast<std::uint32_t>(rng.below(4));
          items.push_back(((size * 3 + op) * 4 + root) * 2);
        }
      }
    }
    std::shuffle(items.begin(), items.end(), rng);
    std::vector<std::uint32_t> ops;
    for (std::uint32_t item : items) {
      ops.push_back(item);
      ops.push_back(item + 1);
    }
    return ops;
  };
  w.warmup = all_shapes(w);
  w.slice_rounds = 70;
  w.trace_rounds = 7;
  return w;
}

Workload event_scale(std::uint64_t seed) {
  Workload w;
  w.name = "event_scale";
  w.p = 1024;
  w.event = true;
  // Every Table I pair except k-ring: with the radix unset k-ring resolves
  // to k=1, a 2(p-1)-round ring that takes 1-2 s per call at p=1024.
  for (const core::KernelInfo& kernel : core::kernel_table()) {
    if (kernel.generalized == Algorithm::kKring) continue;
    for (CollOp op : kernel.ops) {
      add_shape(w, {.op = op, .type = DataType::kInt32, .count = 1024,
                    .alg = kernel.generalized});
    }
  }
  const auto n = static_cast<std::uint32_t>(w.shapes.size());
  w.round = [seed, n](std::uint64_t r) {
    util::SplitMix64 rng = round_rng(seed, r);
    std::vector<std::uint32_t> ops(n);
    std::iota(ops.begin(), ops.end(), 0u);
    std::shuffle(ops.begin(), ops.end(), rng);
    return ops;
  };
  w.warmup = all_shapes(w);
  w.slice_rounds = 15;
  w.trace_rounds = 1;
  return w;
}

constexpr const char* kWorkloads[] = {"small_sync", "large_allreduce", "varied_shapes",
                                      "hier_intra", "event_scale"};

// ---- buffers, issue, validation ----------------------------------------------

struct RankBuffers {
  std::vector<std::byte> in;   ///< seeded input; every call uses a prefix
  std::vector<std::byte> out;  ///< output / workspace
  std::vector<std::byte> mid;  ///< first call's result of a two-call op
};

/// Per-rank buffers sized for the workload's largest call, filled by
/// core::make_inputs from the seed.
std::vector<RankBuffers> make_buffers(const Workload& w, std::uint64_t seed) {
  std::size_t in_bytes = 0;
  std::size_t out_bytes = 0;
  bool two_calls = false;
  for (const Shape& s : w.shapes) {
    for (const core::CollParams& prm : calls_of(s, w.p)) {
      for (int r = 0; r < w.p; ++r) in_bytes = std::max(in_bytes, core::input_bytes(prm, r));
      out_bytes = std::max(out_bytes, core::output_bytes(prm));
    }
    two_calls = two_calls || s.pattern != Pattern::kSingle;
  }
  core::CollParams fill;
  fill.op = CollOp::kAllreduce;
  fill.p = w.p;
  fill.count = (in_bytes + 7) / 8;
  fill.elem_size = 8;
  auto inputs = core::make_inputs(fill, DataType::kDouble, seed);
  std::vector<RankBuffers> bufs(static_cast<std::size_t>(w.p));
  for (std::size_t r = 0; r < bufs.size(); ++r) {
    bufs[r].in = std::move(inputs[r]);
    bufs[r].out.assign(out_bytes, std::byte{0});
    if (two_calls) bufs[r].mid.assign(out_bytes, std::byte{0});
  }
  return bufs;
}

/// Untimed per-call staging of the buffers the API works on in place: the
/// bcast root's payload, and the stencil's residual (rebuilt every iteration
/// in examples/stencil_app too).
void prepare(const Shape& s, int rank, RankBuffers& b) {
  if (s.op == CollOp::kBcast && rank == s.root) {
    std::memcpy(b.out.data(), b.in.data(), s.count * runtime::datatype_size(s.type));
  } else if (s.pattern == Pattern::kStencilStep) {
    std::memcpy(b.out.data(), b.in.data(), sizeof(double));
  }
}

void issue(Collectives& coll, const Shape& s, int p, RankBuffers& b) {
  const core::CollParams prm = params_of(s, p);
  const int rank = coll.rank();
  const std::span<const std::byte> in(b.in.data(), core::input_bytes(prm, rank));
  const std::span<std::byte> out(b.out.data(), core::output_bytes(prm));
  const DataType t = s.type;
  switch (s.pattern) {
    case Pattern::kStencilStep: {
      constexpr std::size_t kHaloBytes = kHaloDoubles * sizeof(double);
      coll.allgather(std::span(b.in.data(), kHaloBytes),
                     std::span(b.mid.data(), kHaloBytes * static_cast<std::size_t>(p)), t);
      coll.allreduce(std::span(b.out.data(), sizeof(double)), t, ReduceOp::kSum);
      return;
    }
    case Pattern::kRsAg: {
      const std::span<std::byte> mid(b.mid.data(), out.size());
      coll.reduce_scatter(in, mid, t, ReduceOp::kSum);
      const core::Block blk = core::block_of(s.count, p, rank);
      const std::size_t es = runtime::datatype_size(t);
      coll.allgather(mid.subspan(blk.elem_off * es, blk.elem_len * es), out, t);
      return;
    }
    case Pattern::kSingle: break;
  }
  switch (s.op) {
    case CollOp::kBcast: coll.bcast(out, s.root); break;
    case CollOp::kReduce: coll.reduce(in, out, t, ReduceOp::kSum, s.root); break;
    case CollOp::kGather: coll.gather(in, out, s.root, t); break;
    case CollOp::kAllgather: coll.allgather(in, out, t); break;
    case CollOp::kScatter: coll.scatter(in, out, s.root, t); break;
    case CollOp::kReduceScatter: coll.reduce_scatter(in, out, t, ReduceOp::kSum); break;
    case CollOp::kAlltoall: coll.alltoall(in, out, t); break;
    case CollOp::kBarrier: coll.barrier_collective(); break;
    case CollOp::kScan: coll.scan(in, out, t, ReduceOp::kSum); break;
    case CollOp::kAllreduce: coll.allreduce(in, out, t, ReduceOp::kSum); break;
  }
}

bool elements_match(DataType type, const std::byte* got, const std::byte* want,
                    std::size_t bytes) {
  const auto close = [&](auto zero, double rel) {
    using T = decltype(zero);
    for (std::size_t off = 0; off + sizeof(T) <= bytes; off += sizeof(T)) {
      T g{};
      T w{};
      std::memcpy(&g, got + off, sizeof(T));
      std::memcpy(&w, want + off, sizeof(T));
      const double tol = rel * std::max(1.0, std::fabs(static_cast<double>(w)));
      if (!(std::fabs(static_cast<double>(g) - static_cast<double>(w)) <= tol)) return false;
    }
    return true;
  };
  switch (type) {
    case DataType::kFloat: return close(0.0F, 1e-3);
    case DataType::kDouble: return close(0.0, 1e-9);
    default: return std::memcmp(got, want, bytes) == 0;
  }
}

/// Compare every rank's defined result segments with core::reference_outputs.
bool outputs_ok(const core::CollParams& prm, DataType type,
                const std::vector<std::vector<std::byte>>& inputs,
                const std::vector<std::span<const std::byte>>& outputs) {
  const auto want = core::reference_outputs(prm, inputs, type, ReduceOp::kSum);
  for (int r = 0; r < prm.p; ++r) {
    const auto& got = outputs[static_cast<std::size_t>(r)];
    for (const core::Seg& seg : core::result_segments(prm, r)) {
      if (got.size() < seg.off + seg.len ||
          !elements_match(type, got.data() + seg.off,
                          want[static_cast<std::size_t>(r)].data() + seg.off, seg.len)) {
        std::fprintf(stderr, "MISMATCH: %s count=%zu root=%d rank %d\n",
                     core::coll_op_name(prm.op), prm.count, prm.root, r);
        return false;
      }
    }
  }
  return true;
}

/// One call's result in `result` of every rank, against its inputs (the
/// prefix of each rank's seeded input).
bool call_ok(const core::CollParams& prm, DataType type, const std::vector<RankBuffers>& bufs,
             std::vector<std::byte> RankBuffers::*result) {
  std::vector<std::vector<std::byte>> inputs;
  std::vector<std::span<const std::byte>> outputs;
  for (int r = 0; r < prm.p; ++r) {
    const RankBuffers& b = bufs[static_cast<std::size_t>(r)];
    inputs.emplace_back(b.in.begin(),
                        b.in.begin() + static_cast<std::ptrdiff_t>(core::input_bytes(prm, r)));
    outputs.emplace_back((b.*result).data(), core::output_bytes(prm));
  }
  return outputs_ok(prm, type, inputs, outputs);
}

bool threaded_outputs_ok(const Shape& s, int p, const std::vector<RankBuffers>& bufs) {
  if (s.pattern == Pattern::kStencilStep) {
    const auto calls = calls_of(s, p);
    return call_ok(calls[0], s.type, bufs, &RankBuffers::mid) &&
           call_ok(calls[1], s.type, bufs, &RankBuffers::out);
  }
  return call_ok(params_of(s, p), s.type, bufs, &RankBuffers::out);
}

// ---- statistics -----------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/// Op latencies in 0.1%-wide logarithmic buckets from 10 ns to 100 s: memory
/// stays constant however many ops a run times, so the harness never shows
/// up in peak_rss_mb. Percentiles interpolate inside their bucket.
class LatencyHistogram {
 public:
  void add(double us) {
    const double pos = std::log(std::max(us, kMinUs) / kMinUs) / kLogStep;
    ++buckets_[std::min(static_cast<std::size_t>(pos), buckets_.size() - 1)];
    ++count_;
  }
  void clear() {
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double percentile(double q) const {
    if (count_ == 0) return 0.0;
    const double target = q * static_cast<double>(count_ - 1);
    double below = 0.0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      const auto n = static_cast<double>(buckets_[b]);
      if (below + n > target) {
        const double frac = (target - below + 0.5) / n;
        return kMinUs * std::exp((static_cast<double>(b) + frac) * kLogStep);
      }
      below += n;
    }
    return kMinUs * std::exp(static_cast<double>(buckets_.size()) * kLogStep);
  }

 private:
  static constexpr double kMinUs = 0.01;
  static constexpr double kLogStep = 0.0009995003;  // ln(1.001)
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(23040);
  std::uint64_t count_ = 0;
};

/// One slice of a timed phase.
struct Slice {
  double p50_us;
  double ops_per_s;
  double mb_per_s;  ///< user payload
};

/// Splits a timed phase into slices. p50 and the throughputs are medians
/// over slices, so a few seconds of interference from outside the process
/// move them little.
class SliceTracker {
 public:
  void start(double now) {
    begin_ = now;
    paused_us_ = 0.0;
    bytes_ = 0;
    current_.clear();
  }
  void latency(double us) {
    pooled.add(us);
    current_.add(us);
  }
  void payload(std::uint64_t bytes) { bytes_ += bytes; }
  void pause(double us) { paused_us_ += us; }
  void close(double now) {
    const double wall_s = (now - begin_ - paused_us_) * 1e-6;
    slices.push_back({current_.percentile(0.5),
                      static_cast<double>(current_.count()) / wall_s,
                      static_cast<double>(bytes_) / wall_s * 1e-6});
  }

  LatencyHistogram pooled;  ///< every timed op
  std::vector<Slice> slices;

 private:
  LatencyHistogram current_;
  double begin_ = 0.0;
  double paused_us_ = 0.0;  ///< validation pauses, excluded from wall time
  std::uint64_t bytes_ = 0;
};

// ---- phases -------------------------------------------------------------------

struct Interval {
  double begin;
  double end;
};

/// A traced window: every rank's step spans plus the harness's own span
/// around each library call.
struct Window {
  explicit Window(int ranks) : recorder(ranks), calls(static_cast<std::size_t>(ranks)) {}
  obs::TraceRecorder recorder;
  std::vector<std::vector<Interval>> calls;  ///< per calling thread
};

/// Counter deltas over a timed phase (PhaseSpec::counters).
struct Counters {
  std::uint64_t heap_allocs = 0;  ///< operator new calls, all threads
  runtime::BufferPoolStats pool{};
  std::uint64_t schedules_built = 0;
  std::uint64_t api_calls = 0;  ///< library entry calls
};

struct PhaseSpec {
  std::uint64_t burn_rounds = 0;   ///< untimed steady-state rounds before timing
  std::uint64_t rounds = 0;        ///< timed rounds
  std::uint64_t slice_rounds = 1;  ///< timed rounds per slice
  std::uint64_t check_every = 64;
  bool setup_only = false;
  bool counters = false;     ///< fill PhaseResult::counters
  Window* window = nullptr;  ///< traced window; nullptr = untraced
};

struct PhaseResult {
  double setup_s = 0.0;
  SliceTracker timing;
  std::uint64_t failed = 0;
  Counters counters;
};

/// First round of the burn-in: a separate stretch of the seeded sequence, so
/// the timed phase always starts at round 0.
constexpr std::uint64_t kBurnInRound = std::uint64_t{1} << 40;

void add_pool_delta(runtime::BufferPoolStats& acc, const runtime::BufferPoolStats& before,
                    const runtime::BufferPoolStats& after) {
  acc.acquires += after.acquires - before.acquires;
  acc.allocations += after.allocations - before.allocations;
  acc.recycles += after.recycles - before.recycles;
}

bool slice_ends(const PhaseSpec& spec, std::uint64_t round) {
  return (round + 1) % spec.slice_rounds == 0 || round + 1 == spec.rounds;
}

/// Rounds first .. first + rounds - 1 back to back, generated before the
/// phase so that no rank draws its sequence between timed calls.
std::vector<std::uint32_t> make_plan(const Workload& w, std::uint64_t first,
                                     std::uint64_t rounds) {
  std::vector<std::uint32_t> plan;
  for (std::uint64_t r = first; r < first + rounds; ++r) {
    const std::vector<std::uint32_t> ops = w.round(r);
    plan.insert(plan.end(), ops.begin(), ops.end());
  }
  return plan;
}

/// Round r of a plan.
std::span<const std::uint32_t> plan_round(const std::vector<std::uint32_t>& plan,
                                          std::size_t round_len, std::uint64_t r) {
  return {plan.data() + r * round_len, round_len};
}

/// Stops counting heap allocations while the harness validates a result.
class AllocPause {
 public:
  AllocPause() : was_counting_(g_count_allocs.exchange(false)) {}
  ~AllocPause() { g_count_allocs.store(was_counting_); }
  AllocPause(const AllocPause&) = delete;
  AllocPause& operator=(const AllocPause&) = delete;

 private:
  bool was_counting_;
};

PhaseResult run_threaded(const Workload& w, std::vector<RankBuffers>& bufs,
                         const PhaseSpec& spec) {
  const int p = w.p;
  PhaseResult res;
  Window* win = spec.window;
  Counters& cnt = res.counters;
  const std::size_t round_len = w.round(0).size();
  const std::vector<std::uint32_t> burn_plan = make_plan(w, kBurnInRound, spec.burn_rounds);
  const std::vector<std::uint32_t> plan = make_plan(w, 0, spec.rounds);
  // Per-rank call durations of one round, double-buffered by round parity:
  // rank 0 folds round r into the timing after the round's closing barrier
  // while the other ranks may already be filling round r + 1.
  std::vector<std::vector<double>> round_lat[2];
  for (auto& side : round_lat) {
    side.assign(static_cast<std::size_t>(p), std::vector<double>(round_len));
  }
  double setup_end = 0.0;
  std::uint64_t timed_ops = 0;
  std::uint32_t last_shape = 0;
  runtime::BufferPoolStats pool_before{};
  std::uint64_t built_before = 0;
  std::uint64_t allocs_before = 0;

  const double t_begin = now_us();
  runtime::World::run(p, [&](runtime::Communicator& comm) {
    const int rank = comm.rank();
    RankBuffers& b = bufs[static_cast<std::size_t>(rank)];
    obs::TraceSink* sink = nullptr;
    std::deque<Collectives> colls;
    std::uint64_t retired_builds = 0;  ///< schedules built by replaced Collectives
    const auto built = [&] {
      std::uint64_t n = retired_builds;
      for (const Collectives& c : colls) n += c.schedules_built();
      return n;
    };
    const auto fresh = [&] {
      retired_builds = built();
      colls.clear();
      for (const auto& cfg : w.configs) colls.emplace_back(comm, cfg).set_trace_sink(sink);
    };
    const auto call = [&](const Shape& s) {
      issue(colls[static_cast<std::size_t>(s.engine)], s, p, b);
    };
    fresh();
    for (std::uint32_t si : w.warmup) {
      prepare(w.shapes[si], rank, b);
      call(w.shapes[si]);
    }
    comm.barrier();
    if (rank == 0) setup_end = now_us();
    if (spec.setup_only) return;

    for (std::uint32_t si : burn_plan) {
      prepare(w.shapes[si], rank, b);
      call(w.shapes[si]);
    }

    if (win != nullptr) {
      sink = &win->recorder;
      for (Collectives& c : colls) c.set_trace_sink(sink);
      win->calls[static_cast<std::size_t>(rank)].reserve(plan.size());
    }
    if (spec.counters && rank == 0) {
      pool_before = comm.world().pool().stats();
      built_before = built();
      allocs_before = g_heap_allocs.load();
      g_count_allocs.store(true);
    }
    std::uint64_t i = 0;
    for (std::uint64_t round = 0; round < spec.rounds; ++round) {
      if (round % spec.slice_rounds == 0) {
        if (w.fresh_per_slice) fresh();
        comm.barrier();
        if (rank == 0) res.timing.start(now_us());
      }
      auto& side = round_lat[round % 2];
      std::size_t n = 0;
      for (std::uint32_t si : plan_round(plan, round_len, round)) {
        const Shape& s = w.shapes[si];
        prepare(s, rank, b);
        const double t0 = now_us();
        call(s);
        const double t1 = now_us();
        side[static_cast<std::size_t>(rank)][n++] = t1 - t0;
        ++i;
        if (win != nullptr) win->calls[static_cast<std::size_t>(rank)].push_back({t0, t1});
        if (rank == 0) {
          res.timing.payload(s.payload);
          last_shape = si;
          cnt.api_calls += s.pattern == Pattern::kSingle ? 1 : 2;
        }
        if (i % spec.check_every == 0) {
          const double c0 = now_us();
          comm.barrier();
          if (rank == 0) {
            const AllocPause pause;
            if (!threaded_outputs_ok(s, p, bufs)) ++res.failed;
          }
          comm.barrier();
          if (rank == 0) res.timing.pause(now_us() - c0);
        }
      }
      comm.barrier();
      if (rank == 0) {
        for (std::size_t j = 0; j < n; ++j) {
          double worst = 0.0;
          for (const auto& rank_lat : side) worst = std::max(worst, rank_lat[j]);
          res.timing.latency(worst);
        }
        if (slice_ends(spec, round)) res.timing.close(now_us());
      }
    }
    if (rank == 0) {
      timed_ops = i;
      if (spec.counters) {
        g_count_allocs.store(false);
        cnt.heap_allocs = g_heap_allocs.load() - allocs_before;
        add_pool_delta(cnt.pool, pool_before, comm.world().pool().stats());
        cnt.schedules_built = built() - built_before;
      }
    }
  });
  res.setup_s = (setup_end - t_begin) * 1e-6;
  if (spec.setup_only) return res;

  if (timed_ops % spec.check_every != 0 &&
      !threaded_outputs_ok(w.shapes[last_shape], p, bufs)) {
    ++res.failed;
  }
  return res;
}

/// Inputs of the event workload, one set per shape.
using EventInputs = std::vector<std::vector<std::vector<std::byte>>>;

EventInputs make_event_inputs(const Workload& w, std::uint64_t seed) {
  EventInputs inputs;
  for (std::size_t i = 0; i < w.shapes.size(); ++i) {
    inputs.push_back(core::make_inputs(params_of(w.shapes[i], w.p), w.shapes[i].type,
                                       seed * 131 + i));
  }
  return inputs;
}

std::vector<std::vector<std::byte>> call_event(const Workload& w, const EventInputs& inputs,
                                               std::uint32_t si, Window* win,
                                               Counters* cnt) {
  const Shape& s = w.shapes[si];
  gencoll::CollectiveSpec spec;
  spec.op = s.op;
  spec.ranks = w.p;
  spec.count = s.count;
  spec.type = s.type;
  spec.reduce = ReduceOp::kSum;
  spec.root = s.root;
  spec.algorithm = s.alg;
  const auto provide = [&](int rank, std::size_t) {
    return inputs[si][static_cast<std::size_t>(rank)];
  };
  runtime::WorldOptions options;
  options.executor = runtime::ExecutorKind::kEvent;
  obs::TraceSink* sink = win == nullptr ? nullptr : &win->recorder;
  if (cnt == nullptr) return gencoll::run_collective(spec, provide, options, sink);
  // Counted: an external pool as cold as the World's own, so its counters
  // can be read after the call. Every call builds its schedule.
  runtime::BufferPool pool;
  options.pool = &pool;
  auto out = gencoll::run_collective(spec, provide, options, sink);
  add_pool_delta(cnt->pool, runtime::BufferPoolStats{}, pool.stats());
  ++cnt->schedules_built;
  ++cnt->api_calls;
  return out;
}

bool event_outputs_ok(const Workload& w, const EventInputs& inputs, std::uint32_t si,
                      const std::vector<std::vector<std::byte>>& out) {
  std::vector<std::span<const std::byte>> views(out.begin(), out.end());
  const Shape& s = w.shapes[si];
  return outputs_ok(params_of(s, w.p), s.type, inputs[si], views);
}

PhaseResult run_event(const Workload& w, const EventInputs& inputs, const PhaseSpec& spec) {
  PhaseResult res;
  Window* win = spec.window;
  const std::size_t round_len = w.round(0).size();
  const std::vector<std::uint32_t> burn_plan = make_plan(w, kBurnInRound, spec.burn_rounds);
  const std::vector<std::uint32_t> plan = make_plan(w, 0, spec.rounds);
  const double t_begin = now_us();
  for (std::uint32_t si : w.warmup) call_event(w, inputs, si, nullptr, nullptr);
  res.setup_s = (now_us() - t_begin) * 1e-6;
  if (spec.setup_only) return res;

  for (std::uint32_t si : burn_plan) call_event(w, inputs, si, nullptr, nullptr);

  Counters* cnt = spec.counters ? &res.counters : nullptr;
  const std::uint64_t allocs_before = g_heap_allocs.load();
  if (cnt != nullptr) g_count_allocs.store(true);
  std::uint64_t i = 0;
  std::uint32_t last_shape = 0;
  std::vector<std::vector<std::byte>> last_out;
  for (std::uint64_t round = 0; round < spec.rounds; ++round) {
    if (round % spec.slice_rounds == 0) res.timing.start(now_us());
    for (std::uint32_t si : plan_round(plan, round_len, round)) {
      const double t0 = now_us();
      auto out = call_event(w, inputs, si, win, cnt);
      const double t1 = now_us();
      res.timing.latency(t1 - t0);
      res.timing.payload(w.shapes[si].payload);
      if (win != nullptr) win->calls[0].push_back({t0, t1});
      ++i;
      if (i % spec.check_every == 0) {
        const AllocPause pause;
        if (!event_outputs_ok(w, inputs, si, out)) ++res.failed;
        res.timing.pause(now_us() - t1);
      }
      last_shape = si;
      last_out = std::move(out);
    }
    if (slice_ends(spec, round)) res.timing.close(now_us());
  }
  if (cnt != nullptr) {
    g_count_allocs.store(false);
    cnt->heap_allocs = g_heap_allocs.load() - allocs_before;
  }
  if (i % spec.check_every != 0 && !event_outputs_ok(w, inputs, last_shape, last_out)) {
    ++res.failed;
  }
  return res;
}

struct Runner {
  const Workload& w;
  std::vector<RankBuffers> bufs;
  EventInputs event_inputs;

  Runner(const Workload& workload, std::uint64_t seed) : w(workload) {
    if (w.event) {
      event_inputs = make_event_inputs(w, seed);
    } else {
      bufs = make_buffers(w, seed);
    }
  }
  PhaseResult run(const PhaseSpec& spec) {
    return w.event ? run_event(w, event_inputs, spec) : run_threaded(w, bufs, spec);
  }
};

double status_field(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, n, key) == 0) return std::atof(line.c_str() + n);
  }
  return 0.0;
}

/// Peak thread count of this process while alive, not counting itself.
class ThreadSampler {
 public:
  ThreadSampler() : thread_([this] { loop(); }) {}
  ~ThreadSampler() {
    stop_.store(true);
    thread_.join();
  }
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;
  [[nodiscard]] int peak() const { return peak_.load() - 1; }

 private:
  void loop() {
    while (!stop_.load()) {
      peak_.store(std::max(peak_.load(), static_cast<int>(status_field("Threads:"))));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread thread_;
};

// ---- per-layer microbenchmarks (outside-in timings of public functions) ---------
// Each takes its size, datatype or rank count from the workload, so every
// workload's traced run measures the layers at the sizes that workload uses.

/// Median over batches of the mean seconds per call of fn, batches repeated
/// until `budget_s` has elapsed (at least three).
template <typename F>
double seconds_per_call(F&& fn, int batch, double budget_s) {
  std::vector<double> means;
  const double start = now_us();
  while (means.size() < 3 || now_us() - start < budget_s * 1e6) {
    const double t0 = now_us();
    for (int i = 0; i < batch; ++i) fn();
    means.push_back((now_us() - t0) * 1e-6 / batch);
  }
  return median(means);
}

/// A batch of calls that each touch `bytes` bytes, sized to ~1 MiB in all.
int batch_for(std::size_t bytes) {
  return static_cast<int>(std::clamp<std::size_t>((std::size_t{1} << 20) / (bytes + 64), 1, 4096));
}

/// The schedule run_collective builds for an event-workload shape: its
/// documented rule, the algorithm's first candidate radix that the shape
/// supports.
core::Schedule build_like_run_collective(const Shape& s, int p) {
  core::CollParams prm = params_of(s, p);
  for (int k : core::candidate_radixes(s.op, s.alg, p)) {
    prm.k = k;
    if (core::supports_params(s.alg, prm)) return core::build_schedule(s.alg, prm);
  }
  throw std::invalid_argument("no supported radix for " + prm.describe());
}

struct Microbench {
  double budget_s;  ///< per measurement

  /// One-way time of a `bytes` message between two ranks (send + recv_msg),
  /// half of a round trip.
  double msg_us(std::size_t bytes) const {
    const std::vector<std::byte> payload(bytes, std::byte{1});
    const int iters = std::max(8, batch_for(bytes) / 4);
    std::vector<double> round_trips;
    bool more = true;  // rank 0 decides between two barriers
    runtime::World::run(2, [&](runtime::Communicator& comm) {
      const auto exchange = [&] {
        if (comm.rank() == 0) {
          comm.send(1, 1, payload);
          comm.recv_msg(1, 2, bytes);
        } else {
          comm.recv_msg(0, 1, bytes);
          comm.send(0, 2, payload);
        }
      };
      for (int i = 0; i < iters; ++i) exchange();
      const double start = now_us();
      while (more) {
        comm.barrier();
        const double t0 = now_us();
        for (int i = 0; i < iters; ++i) exchange();
        if (comm.rank() == 0) {
          round_trips.push_back((now_us() - t0) / iters);
          more = round_trips.size() < 3 || now_us() - start < budget_s * 1e6;
        }
        comm.barrier();
      }
    });
    return median(round_trips) / 2.0;
  }

  /// apply_reduce (sum) and memcpy over `bytes` bytes of `type`.
  std::pair<double, double> reduce_and_memcpy_gbps(std::size_t bytes, DataType type) const {
    const std::size_t es = runtime::datatype_size(type);
    const std::size_t count = std::max<std::size_t>(1, bytes / es);
    bytes = count * es;
    std::vector<std::byte> a(bytes, std::byte{0});
    std::vector<std::byte> b(bytes, std::byte{0});
    const int batch = batch_for(bytes);
    const double reduce_s = seconds_per_call(
        [&] {
          runtime::apply_reduce(ReduceOp::kSum, type, a, b, count);
          __asm__ __volatile__("" : : "r"(a.data()) : "memory");
        },
        batch, budget_s);
    const double copy_s = seconds_per_call(
        [&] {
          std::memcpy(a.data(), b.data(), bytes);
          // Nothing reads `a`: keep the compiler from merging or dropping copies.
          __asm__ __volatile__("" : : "r"(a.data()) : "memory");
        },
        batch, budget_s);
    return {static_cast<double>(bytes) / reduce_s * 1e-9,
            static_cast<double>(bytes) / copy_s * 1e-9};
  }

  /// Selection cost per library call over the shapes: SelectionConfig::choose
  /// for the API workloads; the radix list run_collective consults for the
  /// event workload, which has no selection config.
  double resolve_ns(const Workload& w, const std::vector<std::uint32_t>& shapes) const {
    std::vector<std::pair<const Shape*, core::CollParams>> calls;
    for (std::uint32_t si : shapes) {
      const Shape& s = w.shapes[si];
      for (const core::CollParams& prm : calls_of(s, w.p)) calls.emplace_back(&s, prm);
    }
    const double s_per_pass = seconds_per_call(
        [&] {
          for (const auto& [s, prm] : calls) {
            if (w.event) {
              (void)core::candidate_radixes(prm.op, s->alg, w.p);
            } else {
              (void)w.configs[static_cast<std::size_t>(s->engine)].choose(prm.op, w.p,
                                                                          prm.nbytes());
            }
          }
        },
        10, budget_s);
    return s_per_pass * 1e9 / static_cast<double>(calls.size());
  }

  /// Event workload: time per schedule build over the shapes.
  double event_build_us(const Workload& w, const std::vector<std::uint32_t>& shapes) const {
    std::size_t builds = 0;
    const double start = now_us();
    do {
      for (std::uint32_t si : shapes) {
        build_like_run_collective(w.shapes[si], w.p);
        ++builds;
      }
    } while (now_us() - start < budget_s * 1e6);
    return (now_us() - start) / static_cast<double>(builds);
  }

  /// API workloads: what a cache miss adds to a call, through the public
  /// path. A pass makes fresh Collectives and sweeps the shapes twice; the
  /// first sweep builds every schedule, as schedules_built() counts. The
  /// pass's estimate is (first sweep - second sweep) / schedules built;
  /// passes repeat until the budget is spent, and the median is reported.
  double api_build_us(const Workload& w, std::vector<RankBuffers>& bufs,
                      const std::vector<std::uint32_t>& shapes) const {
    std::vector<double> passes;
    bool more = true;  // rank 0 decides between two barriers
    runtime::World::run(w.p, [&](runtime::Communicator& comm) {
      const int rank = comm.rank();
      RankBuffers& b = bufs[static_cast<std::size_t>(rank)];
      const double start = now_us();
      while (more) {
        std::deque<Collectives> colls;
        for (const auto& cfg : w.configs) colls.emplace_back(comm, cfg);
        const auto sweep = [&] {
          comm.barrier();
          const double t0 = now_us();
          for (std::uint32_t si : shapes) {
            const Shape& s = w.shapes[si];
            prepare(s, rank, b);
            issue(colls[static_cast<std::size_t>(s.engine)], s, w.p, b);
          }
          return now_us() - t0;
        };
        const double first = sweep();
        std::size_t built = 0;
        for (const Collectives& c : colls) built += c.schedules_built();
        const double second = sweep();
        if (rank == 0) {
          if (built > 0) passes.push_back((first - second) / static_cast<double>(built));
          more = passes.size() < 3 || now_us() - start < budget_s * 1e6;
        }
        comm.barrier();
      }
    });
    return median(passes);
  }

  /// World construction + destruction at the workload's rank count.
  double world_construct_us(int p) const {
    return seconds_per_call([&] { runtime::World world(p); }, p > 64 ? 2 : 50, budget_s) * 1e6;
  }
};

// ---- reporting ----------------------------------------------------------------

using Metrics = std::map<std::string, double>;

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

template <std::size_t N>
void report(const std::string& workload, const MetricDef (&defs)[N], const Metrics& m,
            std::uint64_t attempted, std::uint64_t failed) {
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < N; ++i) {
    const double v = m.at(defs[i].name);
    std::printf("%-16s %-38s %14.6g %s\n", workload.c_str(), defs[i].name, v, defs[i].unit);
    json += std::string(i == 0 ? "" : ", ") + "\"" + defs[i].name + "\": {\"value\": " +
            number(v) + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- end-to-end run ---------------------------------------------------------------

int run_end_to_end(const Workload& w, std::uint64_t seed, double seconds, bool smoke) {
  Runner runner(w, seed);
  // Set-up is repeated and its median reported; the last repetition's World
  // goes on to the timed phase.
  const int setups = smoke ? 1 : 15;
  std::vector<double> setup_s;
  for (int i = 0; i + 1 < setups; ++i) {
    PhaseSpec spec;
    spec.setup_only = true;
    setup_s.push_back(runner.run(spec).setup_s);
  }
  PhaseSpec spec;
  spec.burn_rounds = smoke ? 0 : w.slice_rounds;
  spec.slice_rounds = smoke ? 1 : w.slice_rounds;
  spec.rounds = smoke ? 1 : static_cast<std::uint64_t>(std::max(1.0, std::round(seconds))) *
                                w.slice_rounds;
  spec.check_every = smoke ? 1 : 64;
  const PhaseResult res = runner.run(spec);
  setup_s.push_back(res.setup_s);

  const std::vector<Slice>& slices = res.timing.slices;
  const auto slice_median = [&](double Slice::*field) {
    std::vector<double> v;
    for (const Slice& sl : slices) v.push_back(sl.*field);
    return median(v);
  };
  const std::uint64_t ops = res.timing.pooled.count();
  Metrics m;
  m["p50_us"] = slice_median(&Slice::p50_us);
  m["p99_us"] = res.timing.pooled.percentile(0.99);
  m["ops_per_s"] = slice_median(&Slice::ops_per_s);
  m["payload_mb_per_s"] = slice_median(&Slice::mb_per_s);
  m["setup_s"] = median(setup_s);
  m["peak_rss_mb"] = status_field("VmHWM:") * 1024.0 * 1e-6;
  std::printf("# %s: seed=%llu timed_ops=%llu slices=%zu setups=%d\n", w.name.c_str(),
              static_cast<unsigned long long>(seed), static_cast<unsigned long long>(ops),
              slices.size(), setups);
  report(w.name, kEndToEnd, m, ops, res.failed);
  return res.failed == 0 ? 0 : 2;
}

// ---- traced run ----------------------------------------------------------------------

/// Disjoint union of intervals.
std::vector<Interval> merge_intervals(std::vector<Interval> v) {
  std::sort(v.begin(), v.end(), [](const Interval& a, const Interval& b) {
    return a.begin < b.begin;
  });
  std::vector<Interval> out;
  for (const Interval& iv : v) {
    if (!out.empty() && iv.begin <= out.back().end) {
      out.back().end = std::max(out.back().end, iv.end);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

/// Mean time per op not covered by executor step spans. Threaded
/// workloads: each rank's calls against its own spans; the event workload:
/// the caller's calls against the union of every rank's spans.
double api_self_us(const Window& win, bool event) {
  double self = 0.0;
  std::size_t calls = 0;
  for (std::size_t lane = 0; lane < win.calls.size(); ++lane) {
    if (win.calls[lane].empty()) continue;
    std::vector<Interval> spans;
    const auto add_lane = [&](int r) {
      for (const obs::SpanEvent& ev : win.recorder.spans(r)) {
        spans.push_back({ev.begin_us, ev.end_us});
      }
    };
    if (event) {
      for (int r = 0; r < win.recorder.ranks(); ++r) add_lane(r);
    } else {
      add_lane(static_cast<int>(lane));
    }
    const std::vector<Interval> covered = merge_intervals(std::move(spans));
    std::size_t k = 0;
    for (const Interval& call : win.calls[lane]) {
      double inside = 0.0;
      while (k < covered.size() && covered[k].end <= call.begin) ++k;
      for (std::size_t j = k; j < covered.size() && covered[j].begin < call.end; ++j) {
        inside += std::min(call.end, covered[j].end) - std::max(call.begin, covered[j].begin);
      }
      self += (call.end - call.begin) - inside;
      ++calls;
    }
  }
  return calls == 0 ? 0.0 : self / static_cast<double>(calls);
}

/// Distinct shapes among the first `rounds` rounds of the sequence (at most
/// 256).
std::vector<std::uint32_t> window_shapes(const Workload& w, std::uint64_t rounds) {
  std::set<std::uint32_t> distinct;
  for (std::uint64_t r = 0; r < rounds && distinct.size() < 256; ++r) {
    for (std::uint32_t si : w.round(r)) distinct.insert(si);
  }
  return {distinct.begin(), distinct.end()};
}

/// The datatype the workload reduces: that of its first reducing shape.
DataType reduce_type(const Workload& w) {
  for (const Shape& s : w.shapes) {
    if (s.pattern != Pattern::kSingle || s.op == CollOp::kAllreduce ||
        s.op == CollOp::kReduce || s.op == CollOp::kReduceScatter || s.op == CollOp::kScan) {
      return s.type;
    }
  }
  return DataType::kFloat;
}

int run_traced(const Workload& w, std::uint64_t seed, bool smoke) {
  Runner runner(w, seed);
  PhaseSpec spec;
  spec.rounds = smoke ? 1 : w.trace_rounds;
  spec.slice_rounds = spec.rounds;
  spec.burn_rounds = smoke ? 0 : std::max<std::uint64_t>(1, w.slice_rounds / 2);
  spec.check_every = smoke ? 1 : 64;

  // The same window twice, each in a fresh World from the same post-setup
  // state: untraced with counters, then traced.
  spec.counters = true;
  const PhaseResult plain = runner.run(spec);
  spec.counters = false;
  Window win(w.p);
  spec.window = &win;
  PhaseResult traced;
  int threads_peak = 0;
  {
    ThreadSampler sampler;
    traced = runner.run(spec);
    threads_peak = sampler.peak();
  }

  const Counters& cnt = plain.counters;
  const double ops = static_cast<double>(traced.timing.pooled.count());
  const double rank_ops = ops * w.p;
  const obs::CollectiveMetrics cm = obs::collect_metrics(win.recorder);
  double send_us = 0.0;
  double recv_us = 0.0;
  double copy_us = 0.0;
  for (const obs::RankBreakdown& rb : cm.per_rank) {
    send_us += rb.send_us;
    recv_us += rb.recv_us + rb.reduce_us + rb.wait_us;
    copy_us += rb.copy_us;
  }
  double reduce_bytes = 0.0;
  double intra_us = 0.0;
  double linked_us = 0.0;
  for (int r = 0; r < win.recorder.ranks(); ++r) {
    for (const obs::SpanEvent& ev : win.recorder.spans(r)) {
      if (ev.kind == obs::SpanKind::kRecvReduce) reduce_bytes += static_cast<double>(ev.bytes);
      if (ev.link == obs::LinkClass::kUnknown) continue;
      linked_us += ev.end_us - ev.begin_us;
      if (ev.link == obs::LinkClass::kIntra) intra_us += ev.end_us - ev.begin_us;
    }
  }
  // The workload's mean message: the size the transport, reduce and memcpy
  // microtimings use.
  const std::size_t msg_bytes =
      cm.messages == 0 ? sizeof(double) : std::max<std::size_t>(1, cm.bytes / cm.messages);

  const Microbench mb{smoke ? 0.005 : 0.1};
  const std::vector<std::uint32_t> shapes = window_shapes(w, spec.rounds);
  Metrics m;
  m["api.self_us"] = api_self_us(win, w.event);
  m["api.heap_allocs_per_op"] = static_cast<double>(cnt.heap_allocs) / ops;
  m["api.schedules_built"] = static_cast<double>(cnt.schedules_built);
  m["api.cache_hit_ratio"] =
      1.0 - static_cast<double>(cnt.schedules_built) / static_cast<double>(cnt.api_calls);
  m["tuning.resolve_ns"] = mb.resolve_ns(w, shapes);
  m["core.schedule.build_us"] =
      w.event ? mb.event_build_us(w, shapes) : mb.api_build_us(w, runner.bufs, shapes);
  m["core.schedule.messages_per_op"] = static_cast<double>(cm.messages) / ops;
  m["core.schedule.bytes_per_op"] = static_cast<double>(cm.bytes) / ops;
  m["core.schedule.reduce_bytes_per_op"] = reduce_bytes / ops;
  m["core.schedule.rounds_per_op"] = static_cast<double>(cm.rounds) / ops;
  m["core.exec.send_us"] = send_us / rank_ops;
  m["core.exec.recv_us"] = recv_us / rank_ops;
  m["core.exec.copy_us"] = copy_us / rank_ops;
  m["core.exec.pipelined_segments_per_op"] = static_cast<double>(cm.pipelined_segments) / ops;
  m["core.hier.intra_share"] = linked_us > 0.0 ? intra_us / linked_us : 0.0;
  m["runtime.transport.msg_us"] = mb.msg_us(msg_bytes);
  m["runtime.pool.acquires_per_op"] = static_cast<double>(cnt.pool.acquires) / ops;
  m["runtime.pool.heap_allocs_per_op"] = static_cast<double>(cnt.pool.allocations) / ops;
  m["runtime.pool.recycle_ratio"] =
      cnt.pool.acquires == 0
          ? 0.0
          : static_cast<double>(cnt.pool.recycles) / static_cast<double>(cnt.pool.acquires);
  const auto [reduce_gbps, memcpy_gbps] = mb.reduce_and_memcpy_gbps(msg_bytes, reduce_type(w));
  m["runtime.reduce.gbps"] = reduce_gbps;
  m["runtime.memcpy.gbps"] = memcpy_gbps;
  m["runtime.world.construct_us"] = mb.world_construct_us(w.p);
  m["runtime.threads_peak"] = threads_peak;
  const double p50_plain = plain.timing.pooled.percentile(0.5);
  m["obs.trace_overhead_pct"] =
      (traced.timing.pooled.percentile(0.5) - p50_plain) / p50_plain * 100.0;

  const std::filesystem::path dir = GENCOLL_BENCH_TRACE_DIR;
  std::filesystem::create_directories(dir);
  const std::filesystem::path file = dir / (w.name + ".json");
  std::ofstream trace(file);
  obs::write_chrome_trace(trace, "gencoll_bench " + w.name, win.recorder);
  std::printf("# %s: traced window of %zu ops (%zu spans, mean message %zu B) -> %s\n",
              w.name.c_str(), static_cast<std::size_t>(ops), win.recorder.total_spans(),
              msg_bytes, file.c_str());

  const std::uint64_t failed = plain.failed + traced.failed;
  report(w.name, kPerLayer, m, plain.timing.pooled.count() + traced.timing.pooled.count(),
         failed);
  return failed == 0 ? 0 : 2;
}

/// Drop every GENCOLL_* knob inherited from the environment (they would
/// change what the workloads run), then pin the event engine's worker count.
void pin_environment() {
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("GENCOLL_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  setenv("GENCOLL_EVENT_WORKERS", "4", 1);
}

int usage() {
  std::fprintf(stderr,
               "usage: gencoll_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke]\nworkloads:");
  for (const char* name : kWorkloads) std::fprintf(stderr, " %s", name);
  std::fprintf(stderr, "\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::string(argv[++i]) == "1";
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return usage();
    }
  }
  pin_environment();

  try {
    const std::string dir = GENCOLL_BENCH_WORKLOADS_DIR;
    const auto load = [&](const char* file) {
      return tuning::SelectionConfig::load_file(dir + "/" + file);
    };
    const auto polaris = load("polaris1x4.gencoll.conf");
    Workload w;
    if (workload == "small_sync") {
      w = small_sync(polaris);
    } else if (workload == "large_allreduce") {
      w = large_allreduce(seed, polaris);
    } else if (workload == "varied_shapes") {
      w = varied_shapes(seed, polaris);
    } else if (workload == "hier_intra") {
      w = hier_intra(seed, load("hier4.gencoll.conf"), load("hier2x2.gencoll.conf"));
    } else if (workload == "event_scale") {
      w = event_scale(seed);
    } else {
      return usage();
    }
    return trace ? run_traced(w, seed, smoke) : run_end_to_end(w, seed, seconds, smoke);
  } catch (const std::exception& e) {
    // A throwing op aborts the whole World; report it as a failed run.
    std::fprintf(stderr, "FAILED: %s: %s\n", workload.c_str(), e.what());
    std::printf("{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}\n");
    return 2;
  }
}
