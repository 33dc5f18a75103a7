// Schedule IR: the bridge between algorithms and executors.
//
// An algorithm compiles (op, p, root, n, k) into one step program per rank.
// Steps operate on two buffers per rank:
//   input  — the rank's read-only contribution (size input_bytes()),
//   output — the n-byte workspace/result buffer.
// Every send/recv references a byte range of *output*; the only input access
// is the CopyInput step. This tiny IR is sufficient for all the paper's
// algorithms and keeps both executors (threaded + simulated) trivial to
// verify.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/coll_params.hpp"

namespace gencoll::core {

enum class StepKind {
  kCopyInput,   ///< output[dst_off .. dst_off+bytes) = input[src_off ..)
  kSend,        ///< send output[off ..) to peer with tag
  kSendInput,   ///< send input[src_off ..) to peer with tag (alltoall-style
                ///< exchanges where the region's output slot is overwritten
                ///< by an incoming message)
  kRecv,        ///< receive bytes into output[off ..)
  kRecvReduce,  ///< receive bytes, combine element-wise into output[off ..)
};

struct Step {
  StepKind kind = StepKind::kSend;
  int peer = -1;            ///< kSend/kRecv/kRecvReduce
  int tag = 0;              ///< message matching tag
  std::size_t off = 0;      ///< byte offset in output (dst for kCopyInput)
  std::size_t bytes = 0;
  std::size_t src_off = 0;  ///< kCopyInput only: byte offset in input
};

/// One rank's ordered step program.
struct RankProgram {
  std::vector<Step> steps;

  void copy_input(std::size_t src_off, std::size_t dst_off, std::size_t bytes);
  void send(int peer, int tag, std::size_t off, std::size_t bytes);
  void send_input(int peer, int tag, std::size_t src_off, std::size_t bytes);
  void recv(int peer, int tag, std::size_t off, std::size_t bytes);
  void recv_reduce(int peer, int tag, std::size_t off, std::size_t bytes);
};

/// Metadata attached to a two-level composed schedule (core/hierarchy.hpp).
/// Ranks are grouped into consecutive blocks of `group_size`; each rank's
/// step program is three contiguous phases:
///   [0, intra_end)           intra-group fan-in (group members -> leader),
///   [intra_end, leader_end)  the leader-level inter-group kernel (empty for
///                            non-leader ranks),
///   [leader_end, end)        intra-group fan-out / final root hop.
/// The flat program is complete on its own (any executor can run it over the
/// mailbox); on a plain transport the executors replace the intra phases
/// with shared-segment copies (runtime/shm_group.hpp, core/hierarchy.hpp
/// runs_on_shm_tree).
struct HierInfo {
  int group_size = 1;
  Algorithm inter_alg = Algorithm::kRecursiveMultiplying;
  int inter_k = 2;
  /// Intra-group level vector (core/hierarchy.hpp). Empty = the original
  /// one-level flat fan-in/fan-out. Non-empty (every entry >= 2, product ==
  /// group_size) = multi-level tree: chunked fan-in per level, single
  /// top-leader fan-out, ragged last group allowed (p need not divide g).
  std::vector<int> levels;
  std::vector<std::size_t> intra_end;   ///< per-rank phase boundary
  std::vector<std::size_t> leader_end;  ///< per-rank phase boundary
};

struct Schedule {
  CollParams params;
  std::string name;                 ///< algorithm name + radix, for reports
  std::vector<RankProgram> ranks;   ///< size params.p
  std::optional<HierInfo> hier;     ///< set for composed two-level schedules

  [[nodiscard]] std::size_t total_steps() const;
  /// Sum of bytes over all kSend steps (network traffic of the collective).
  [[nodiscard]] std::size_t total_send_bytes() const;
  /// Human-readable dump (debugging aid).
  [[nodiscard]] std::string dump() const;
};

const char* step_kind_name(StepKind kind);

}  // namespace gencoll::core
