// scale_smoke: the CI scale-smoke leg's binary — proves the event executor
// actually executes p in the thousands, not just p in the tens.
//
// Two stages, both on the event engine (WorldOptions::executor = kEvent) and
// both validated before any timing is reported:
//
//   1. p=4096 allreduce (recursive multiplying, 1024 int32 elements) driven
//      through the public api's run_collective entry point — the same
//      surface a library user would hit. Bit-exact against the reference.
//   2. p=512 run of every generalized (collective, kernel) pair from the
//      paper's Table I (core::kernel_table), each validated bit-exact on its
//      defined result segments.
//
// During stage 1 a sampler thread reads /proc/self/status `Threads:` every
// millisecond. The run fails (exit 3) when the count exceeds the event
// pool's worker target + 2 (the main thread and the sampler): work stealing
// and idle workers must never grow the thread count. The observed peak goes
// into the JSON.
//
// Wall-clock milliseconds land in a JSON document (--out) and, when
// --trace-out is given, the p=4096 run's per-rank step spans are written as
// Chrome trace-event JSON — the artifact the CI leg uploads. A hard
// timeout-minutes on the CI job is the scale proof: thread-per-rank cannot
// run 4096 ranks in the budget, the event engine finishes in seconds.
//
// Usage: scale_smoke [--quick] [--out PATH] [--trace-out PATH]
//   --quick  smaller worlds (p=1024 / p=128) for local smoke runs

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/gencoll.hpp"
#include "core/reference.hpp"
#include "core/registry.hpp"
#include "obs/exporters.hpp"
#include "obs/recorder.hpp"
#include "runtime/event_pool.hpp"

namespace {

using gencoll::core::Algorithm;
using gencoll::core::CollOp;
using gencoll::core::CollParams;
using gencoll::runtime::DataType;
using gencoll::runtime::ReduceOp;

constexpr std::uint64_t kSeed = 42;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Bit-exact comparison on every defined result segment (int32 sums are
/// order-independent, so the event engine owes the reference exact bytes).
bool outputs_exact(const CollParams& params,
                   const std::vector<std::vector<std::byte>>& got,
                   const std::vector<std::vector<std::byte>>& want,
                   const std::string& context) {
  for (int r = 0; r < params.p; ++r) {
    const auto& g = got[static_cast<std::size_t>(r)];
    const auto& w = want[static_cast<std::size_t>(r)];
    for (const gencoll::core::Seg& seg :
         gencoll::core::result_segments(params, r)) {
      if (g.size() < seg.off + seg.len ||
          std::memcmp(g.data() + seg.off, w.data() + seg.off, seg.len) != 0) {
        std::fprintf(stderr, "FATAL: %s: rank %d wrong result at offset %zu\n",
                     context.c_str(), r, seg.off);
        return false;
      }
    }
  }
  return true;
}

/// This process's thread count from /proc/self/status, or -1 off Linux.
int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

/// Samples thread_count() every millisecond while alive; peak() includes
/// the sampler thread itself.
class ThreadSampler {
 public:
  ThreadSampler() : thread_([this] { loop(); }) {}
  ~ThreadSampler() { stop(); }
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  [[nodiscard]] int peak() const { return peak_.load(); }

 private:
  void loop() {
    do {
      peak_.store(std::max(peak_.load(), thread_count()));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } while (!stop_.load());
  }
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{-1};
  std::thread thread_;
};

struct StageResult {
  std::string name;
  int p = 0;
  double ms = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "SCALE_smoke.json";
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: scale_smoke [--quick] [--out PATH] [--trace-out PATH]\n");
      return 1;
    }
  }

  gencoll::runtime::WorldOptions world;
  world.executor = gencoll::runtime::ExecutorKind::kEvent;

  std::vector<StageResult> stages;
  const int thread_ceiling = gencoll::runtime::EventPool::default_workers() + 2;
  int threads_peak = -1;

  // ---- stage 1: big-p allreduce through the public api -------------------
  {
    const int p = quick ? 1024 : 4096;
    const std::size_t count = 1024;

    CollParams params;
    params.op = CollOp::kAllreduce;
    params.p = p;
    params.count = count;
    params.elem_size = gencoll::runtime::datatype_size(DataType::kInt32);
    const auto inputs =
        gencoll::core::make_inputs(params, DataType::kInt32, kSeed);

    gencoll::CollectiveSpec spec;
    spec.op = CollOp::kAllreduce;
    spec.ranks = p;
    spec.count = count;
    spec.type = DataType::kInt32;
    spec.reduce = ReduceOp::kSum;
    spec.algorithm = Algorithm::kRecursiveMultiplying;
    spec.k = 2;

    gencoll::obs::TraceRecorder recorder(p);
    gencoll::obs::TraceSink* sink = trace_out.empty() ? nullptr : &recorder;

    ThreadSampler sampler;
    const double t0 = now_ms();
    const auto got = gencoll::run_collective(
        spec,
        [&](int rank, std::size_t bytes) {
          const auto& in = inputs[static_cast<std::size_t>(rank)];
          if (in.size() != bytes) std::abort();  // layout disagreement
          return in;
        },
        world, sink);
    const double ms = now_ms() - t0;
    sampler.stop();
    threads_peak = sampler.peak();

    const std::string name =
        "allreduce_recursive_multiplying_k2_p" + std::to_string(p);
    const auto want = gencoll::core::reference_outputs(params, inputs,
                                                       DataType::kInt32,
                                                       ReduceOp::kSum);
    if (!outputs_exact(params, got, want, name)) return 2;
    stages.push_back({name, p, ms});
    std::printf("%-55s p=%-5d %10.1f ms\n", name.c_str(), p, ms);
    std::printf("# threads: peak %d, ceiling %d (workers + main + sampler)\n",
                threads_peak, thread_ceiling);
    std::fflush(stdout);
    if (threads_peak > thread_ceiling) {
      std::fprintf(stderr, "FATAL: %s: %d threads, ceiling %d\n", name.c_str(),
                   threads_peak, thread_ceiling);
      return 3;
    }

    if (sink != nullptr) {
      std::ofstream trace(trace_out);
      if (!trace) {
        std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
        return 1;
      }
      gencoll::obs::write_chrome_trace(trace, "event: " + name, recorder);
      std::printf("# trace: wrote %s (%zu spans, %d ranks)\n",
                  trace_out.c_str(), recorder.total_spans(), p);
    }
  }

  // ---- stage 2: every Table I pair at p=512 ------------------------------
  {
    const int p = quick ? 128 : 512;
    for (const gencoll::core::KernelInfo& kernel : gencoll::core::kernel_table()) {
      for (CollOp op : kernel.ops) {
        CollParams params;
        params.op = op;
        params.p = p;
        params.count = 512;
        params.elem_size = gencoll::runtime::datatype_size(DataType::kInt32);
        const auto inputs =
            gencoll::core::make_inputs(params, DataType::kInt32, kSeed);

        gencoll::CollectiveSpec spec;
        spec.op = op;
        spec.ranks = p;
        spec.count = params.count;
        spec.type = DataType::kInt32;
        spec.reduce = ReduceOp::kSum;
        spec.algorithm = kernel.generalized;
        // k unset: run_collective sweeps the kernel's candidate radixes and
        // takes the first supported one at this p.

        const double t0 = now_ms();
        const auto got = gencoll::run_collective(
            spec,
            [&](int rank, std::size_t bytes) {
              const auto& in = inputs[static_cast<std::size_t>(rank)];
              if (in.size() != bytes) std::abort();
              return in;
            },
            world);
        const double ms = now_ms() - t0;

        const std::string name = std::string(gencoll::core::coll_op_name(op)) +
                                 "_" +
                                 gencoll::core::algorithm_name(kernel.generalized) +
                                 "_p" + std::to_string(p);
        const auto want = gencoll::core::reference_outputs(
            params, inputs, DataType::kInt32, ReduceOp::kSum);
        if (!outputs_exact(params, got, want, name)) return 2;
        stages.push_back({name, p, ms});
        std::printf("%-55s p=%-5d %10.1f ms\n", name.c_str(), p, ms);
        std::fflush(stdout);
      }
    }
  }

  // ---- JSON summary ------------------------------------------------------
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\n  \"schema\": 1,\n  \"executor\": \"event\",\n"
                "  \"threads_peak\": %d,\n  \"thread_ceiling\": %d,\n"
                "  \"stages\": [\n",
                threads_peak, thread_ceiling);
  std::string doc = buf;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"p\": %d, \"ms\": %.1f}%s\n",
                  stages[i].name.c_str(), stages[i].p, stages[i].ms,
                  i + 1 < stages.size() ? "," : "");
    doc += buf;
  }
  doc += "  ]\n}\n";
  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(doc.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("# all %zu stages validated bit-exact on the event executor\n",
              stages.size());
  return 0;
}
