#include "model/closed_forms.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/algorithms_internal.hpp"
#include "core/hierarchy.hpp"
#include "core/partition.hpp"
#include "core/registry.hpp"
#include "core/tree.hpp"

namespace gencoll::model {

namespace {

using core::Algorithm;
using core::CollOp;
using core::CollParams;
using core::KnomialTree;
using gencoll::core::internal::core_pow;
using gencoll::core::internal::CorePow;
using gencoll::core::internal::real_of;

std::size_t block_bytes(const CollParams& pr, int parts, int idx) {
  return core::seg_of_blocks(pr.count, pr.elem_size, parts, idx, idx + 1).len;
}

std::size_t span_bytes(const CollParams& pr, int parts, int lo, int hi) {
  return core::seg_of_blocks(pr.count, pr.elem_size, parts, lo, hi).len;
}

/// Bytes of `len` consecutive blocks of the p-partition starting at block
/// `start`, taken modulo p (the wrap_segs total).
std::size_t ring_span_bytes(const CollParams& pr, int start, int len) {
  std::size_t total = 0;
  for (int i = 0; i < len; ++i) {
    total += block_bytes(pr, pr.p, (start + i) % pr.p);
  }
  return total;
}

/// Every block of the p-partition non-empty, so no block message vanishes
/// and chain-depth forms are exact.
bool full_chains(const CollParams& pr, int parts) {
  return pr.count >= static_cast<std::size_t>(parts);
}

/// Sum over non-root vranks of the subtree byte span — the payload of the
/// single message each non-root vrank exchanges with its parent in the
/// k-nomial gather/scatter (blocks indexed by real rank, rotation `rot`).
std::size_t knomial_subtree_bytes(const CollParams& pr, int k, int rot) {
  const KnomialTree tree(pr.p, k);
  std::size_t total = 0;
  for (int vr = 1; vr < pr.p; ++vr) {
    total += ring_span_bytes(pr, real_of(vr, rot, pr.p), tree.subtree_size(vr));
  }
  return total;
}

/// Sum of the per-round "send away half the held block range" payloads of
/// the recursive-halving reduce-scatter over a `parts`-block partition.
std::size_t halving_bytes(const CollParams& pr, int parts, int rounds) {
  std::size_t total = 0;
  for (int vr = 0; vr < parts; ++vr) {
    int lo = 0;
    int hi = parts;
    for (int i = 0; i < rounds; ++i) {
      const int half = (hi - lo) / 2;
      const int mid = lo + half;
      const bool lower = vr < mid;
      total += span_bytes(pr, parts, lower ? mid : lo, lower ? hi : mid);
      if (lower) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
  }
  return total;
}

/// Longest root-to-leaf message chain of the k-nomial tree over `parts`
/// vranks: a vrank's tree depth is its number of nonzero base-k digits, so
/// this is NOT ceil(log_k parts) in general — e.g. parts=5, k=2 has no
/// vrank with three nonzero bits (only 3 = 011 has two).
std::size_t knomial_chain_depth(int parts, int k) {
  std::size_t best = 0;
  for (int vr = 1; vr < parts; ++vr) {
    std::size_t nnz = 0;
    for (int v = vr; v > 0; v /= k) {
      if (v % k != 0) ++nnz;
    }
    best = std::max(best, nnz);
  }
  return best;
}

/// K-nomial scatter over `parts` vrank-indexed contiguous blocks (the
/// recursive-multiplying and k-ring bcast scatter phases).
std::size_t contiguous_scatter_bytes(const CollParams& pr, int radix, int parts) {
  const KnomialTree tree(parts, radix);
  std::size_t total = 0;
  for (int vr = 1; vr < parts; ++vr) {
    total += span_bytes(pr, parts, vr, vr + tree.subtree_size(vr));
  }
  return total;
}

/// Intra + inter bytes of the k-ring allgather sweep (any group split; the
/// last of the g groups may be smaller). Derivation: in phase j group G
/// circulates stream (G - j) — whose blocks its members jointly hold — for
/// size(G)-1 rounds moving the full stream once per round, then hands the
/// stream to group G+1 ((g-1)*n inter total: each phase forwards every
/// stream exactly once).
std::size_t kring_sweep_bytes(const CollParams& pr, int k) {
  const int p = pr.p;
  const int g = (p + k - 1) / k;
  const auto group_size = [&](int G) { return G == g - 1 ? p - k * (g - 1) : k; };
  const auto stream_bytes = [&](int m) {
    return span_bytes(pr, p, m * k, m * k + group_size(m));
  };
  std::size_t total = 0;
  for (int j = 0; j < g; ++j) {
    for (int G = 0; G < g; ++G) {
      total += static_cast<std::size_t>(group_size(G) - 1) *
               stream_bytes(((G - j) % g + g) % g);
    }
  }
  return total + static_cast<std::size_t>(g - 1) * pr.nbytes();
}

std::size_t kring_intergroup(const CollParams& pr, int k) {
  const int g = (pr.p + k - 1) / k;
  return static_cast<std::size_t>(g - 1) * pr.nbytes();
}

/// Dissemination rounds: iterations of stride *= k while stride < p.
std::size_t log_rounds(int p, int k) {
  std::size_t rounds = 0;
  for (long long stride = 1; stride < p; stride *= k) ++rounds;
  return rounds;
}

DiscreteCost knomial_form(const CollParams& pr, int k) {
  const std::size_t n = pr.nbytes();
  const std::size_t d = knomial_chain_depth(pr.p, k);
  DiscreteCost c;
  switch (pr.op) {
    case CollOp::kBcast:
    case CollOp::kReduce:
      c.total_send_bytes = static_cast<std::size_t>(pr.p - 1) * n;
      c.rounds = d;
      break;
    case CollOp::kGather:
    case CollOp::kScatter:
      c.total_send_bytes = knomial_subtree_bytes(pr, k, pr.root);
      if (full_chains(pr, pr.p)) c.rounds = d;
      break;
    case CollOp::kAllgather:
      // Gather to the pinned internal root 0 (no rotation), then bcast.
      c.total_send_bytes =
          knomial_subtree_bytes(pr, k, 0) + static_cast<std::size_t>(pr.p - 1) * n;
      if (full_chains(pr, pr.p)) c.rounds = 2 * d;
      break;
    case CollOp::kAllreduce:
      c.total_send_bytes = 2 * static_cast<std::size_t>(pr.p - 1) * n;
      c.rounds = 2 * d;
      break;
    default:
      throw std::invalid_argument("closed_forms: k-nomial unsupported op");
  }
  return c;
}

DiscreteCost recmul_form(const CollParams& pr, int k) {
  const std::size_t n = pr.nbytes();
  const CorePow cp = core_pow(pr.p, k);
  const std::size_t core = static_cast<std::size_t>(cp.core);
  const std::size_t rem = static_cast<std::size_t>(pr.p) - core;
  const std::size_t fold_rounds = rem > 0 ? 1 : 0;
  DiscreteCost c;
  switch (pr.op) {
    case CollOp::kAllreduce:
      // Fold-in + fold-out move rem full vectors each; every core round
      // exchanges core*(k-1) full vectors.
      c.total_send_bytes =
          2 * rem * n +
          static_cast<std::size_t>(cp.rounds) * core * static_cast<std::size_t>(k - 1) * n;
      // With folded ranks the critical chain depends on whether a fold
      // partner's round-0 send re-enters another partner's butterfly cone —
      // a structural property with no clean closed form, so the depth is
      // only claimed for the exact power-of-k case.
      if (rem == 0) c.rounds = static_cast<std::size_t>(cp.rounds);
      break;
    case CollOp::kAllgather: {
      // Round i moves every byte of every slot window k^i/(window count)
      // times; summed over rounds that telescopes to n*(core-1) exactly
      // (the slots partition all p blocks).
      std::size_t fold_in = 0;
      for (std::size_t cidx = 0; cidx < rem; ++cidx) {
        fold_in += block_bytes(pr, pr.p, static_cast<int>(core + cidx));
      }
      c.total_send_bytes = fold_in + n * (core - 1) + rem * n;
      if (rem == 0 && full_chains(pr, pr.p)) {
        c.rounds = static_cast<std::size_t>(cp.rounds);
      }
      break;
    }
    case CollOp::kBcast:
      // Scatter over the core partition, allgather rounds, full-payload
      // delivery to the folded ranks.
      c.total_send_bytes = contiguous_scatter_bytes(pr, k, cp.core) +
                           n * (core - 1) + rem * n;
      if (full_chains(pr, cp.core)) {
        c.rounds = 2 * static_cast<std::size_t>(cp.rounds) + fold_rounds;
      }
      break;
    default:
      throw std::invalid_argument("closed_forms: recursive multiplying unsupported op");
  }
  return c;
}

DiscreteCost kring_form(const CollParams& pr, int k) {
  const std::size_t n = pr.nbytes();
  const std::size_t p = static_cast<std::size_t>(pr.p);
  // With uniform groups every intra round moves each member's piece one hop
  // and the hand-off is a clean relay, so one phase path visits every group
  // exactly once: sum(k-1 intra) + (g-1) inter = p-1 chained messages. A
  // ragged last group redistributes streams across differently-sized member
  // sets, serializing extra hops in program order, so the depth is only
  // claimed when k | p.
  const bool uniform = pr.p % k == 0;
  DiscreteCost c;
  switch (pr.op) {
    case CollOp::kAllgather:
      c.total_send_bytes = kring_sweep_bytes(pr, k);
      if (uniform && full_chains(pr, pr.p)) c.rounds = p - 1;
      c.intergroup_send_bytes = kring_intergroup(pr, k);
      break;
    case CollOp::kAllreduce:
      // Ring reduce-scatter ((p-1) rounds, one p-partition block per rank
      // per round) then the k-ring sweep.
      c.total_send_bytes = (p - 1) * n + kring_sweep_bytes(pr, k);
      if (uniform && full_chains(pr, pr.p)) c.rounds = 2 * (p - 1);
      c.intergroup_send_bytes = kring_intergroup(pr, k);
      break;
    case CollOp::kBcast:
      // Binomial scatter of p vrank-contiguous blocks, then the sweep. The
      // depth-critical chain starts at the deepest scatter leaf and rides
      // one stream through all g phases.
      c.total_send_bytes =
          contiguous_scatter_bytes(pr, 2, pr.p) + kring_sweep_bytes(pr, k);
      if (uniform && full_chains(pr, pr.p)) {
        c.rounds = knomial_chain_depth(pr.p, 2) + p - 1;
      }
      c.intergroup_send_bytes = kring_intergroup(pr, k);
      break;
    case CollOp::kReduceScatter:
      // Reachable via the ring baseline (k pinned to 1).
      c.total_send_bytes = (p - 1) * n;
      if (full_chains(pr, pr.p)) c.rounds = p - 1;
      break;
    default:
      throw std::invalid_argument("closed_forms: k-ring unsupported op");
  }
  return c;
}

DiscreteCost linear_form(const CollParams& pr) {
  const std::size_t n = pr.nbytes();
  const std::size_t p = static_cast<std::size_t>(pr.p);
  DiscreteCost c;
  switch (pr.op) {
    case CollOp::kBcast:
    case CollOp::kReduce:
      c.total_send_bytes = (p - 1) * n;
      c.rounds = p > 1 ? 1 : 0;
      break;
    case CollOp::kGather:
    case CollOp::kScatter:
      c.total_send_bytes = n - block_bytes(pr, pr.p, pr.root);
      c.rounds = c.total_send_bytes > 0 ? 1 : 0;
      break;
    case CollOp::kAllgather:
      c.total_send_bytes = (p - 1) * n;
      c.rounds = p > 1 ? 1 : 0;
      break;
    case CollOp::kAlltoall:
      c.total_send_bytes = p * (p - 1) * n;  // n is the per-destination payload
      c.rounds = p > 1 ? 1 : 0;
      break;
    case CollOp::kScan:
      c.total_send_bytes = (p - 1) * n;
      c.rounds = p - 1;
      break;
    default:
      throw std::invalid_argument("closed_forms: linear unsupported op");
  }
  return c;
}

DiscreteCost dissemination_form(const CollParams& pr, int k) {
  // Token counting: round i (stride k^i) makes every rank signal the
  // peers j*stride ahead that are not itself — one byte each.
  DiscreteCost c;
  std::size_t bytes = 0;
  for (long long stride = 1; stride < pr.p; stride *= k) {
    std::size_t per_rank = 0;
    for (int j = 1; j < k; ++j) {
      if ((static_cast<long long>(j) * stride) % pr.p != 0) ++per_rank;
    }
    bytes += static_cast<std::size_t>(pr.p) * per_rank;
  }
  c.total_send_bytes = bytes;
  c.rounds = log_rounds(pr.p, k);
  return c;
}

DiscreteCost hillis_steele_form(const CollParams& pr, int k) {
  const std::size_t n = pr.nbytes();
  DiscreteCost c;
  std::size_t msgs = 0;
  for (long long stride = 1; stride < pr.p; stride *= k) {
    for (int j = 1; j < k; ++j) {
      const long long reach = static_cast<long long>(j) * stride;
      if (reach < pr.p) msgs += static_cast<std::size_t>(pr.p - reach);
    }
  }
  c.total_send_bytes = msgs * n;
  // Chain depth: unlike the circular dissemination pattern, the fold chain
  // clips at rank 0, so the depth can fall short of the round count (a
  // round-i sender near the bottom never received in round i-1). Exact
  // value by the obvious DP over (rank, round).
  std::vector<std::size_t> d(static_cast<std::size_t>(pr.p), 0);
  for (long long stride = 1; stride < pr.p; stride *= k) {
    std::vector<std::size_t> next = d;
    for (int r = 0; r < pr.p; ++r) {
      for (int j = 1; j < k; ++j) {
        const long long from = r - static_cast<long long>(j) * stride;
        if (from >= 0) {
          next[static_cast<std::size_t>(r)] =
              std::max(next[static_cast<std::size_t>(r)],
                       d[static_cast<std::size_t>(from)] + 1);
        }
      }
    }
    d = std::move(next);
  }
  c.rounds = d.empty() ? 0 : *std::max_element(d.begin(), d.end());
  return c;
}

DiscreteCost rabenseifner_form(const CollParams& pr) {
  const std::size_t n = pr.nbytes();
  const CorePow cp = core_pow(pr.p, 2);
  const std::size_t core = static_cast<std::size_t>(cp.core);
  const std::size_t rem = static_cast<std::size_t>(pr.p) - core;
  DiscreteCost c;
  c.total_send_bytes =
      2 * rem * n + halving_bytes(pr, cp.core, cp.rounds) + n * (core - 1);
  if (full_chains(pr, cp.core)) {
    c.rounds = 2 * static_cast<std::size_t>(cp.rounds) + 2 * (rem > 0 ? 1 : 0);
  }
  return c;
}

}  // namespace

DiscreteCost discrete_cost(Algorithm alg, const CollParams& params) {
  CollParams pr = params;
  pr.k = core::effective_radix(alg, params.k);
  if (pr.op == CollOp::kBarrier) {
    pr.count = 0;
    pr.elem_size = 1;
  }
  // Empty payloads build empty schedules: zero-byte steps are never emitted.
  if (pr.op != CollOp::kBarrier && pr.nbytes() == 0) {
    DiscreteCost zero;
    zero.rounds = 0;
    return zero;
  }
  const Algorithm kernel = core::generalized_counterpart(alg);
  switch (kernel) {
    case Algorithm::kKnomial:
      return knomial_form(pr, pr.k);
    case Algorithm::kRecursiveMultiplying:
      switch (pr.op) {
        case CollOp::kBarrier:
          return dissemination_form(pr, pr.k);
        case CollOp::kScan:
          return hillis_steele_form(pr, pr.k);
        default:
          return recmul_form(pr, pr.k);
      }
    case Algorithm::kKring:
      return kring_form(pr, pr.k);
    case Algorithm::kLinear:
      return linear_form(pr);
    case Algorithm::kRabenseifner:
      return rabenseifner_form(pr);
    case Algorithm::kBruck: {
      DiscreteCost c;
      c.total_send_bytes = static_cast<std::size_t>(pr.p - 1) * pr.nbytes();
      if (full_chains(pr, pr.p)) c.rounds = log_rounds(pr.p, 2);
      return c;
    }
    case Algorithm::kRecursiveHalving: {
      const CorePow cp = core_pow(pr.p, 2);
      DiscreteCost c;
      c.total_send_bytes = halving_bytes(pr, pr.p, cp.rounds);
      if (full_chains(pr, pr.p)) c.rounds = static_cast<std::size_t>(cp.rounds);
      return c;
    }
    case Algorithm::kPairwise: {
      const std::size_t p = static_cast<std::size_t>(pr.p);
      DiscreteCost c;
      c.total_send_bytes = p * (p - 1) * pr.nbytes();
      c.rounds = p - 1;
      return c;
    }
    case Algorithm::kDissemination:
      return dissemination_form(pr, pr.k);
    case Algorithm::kPipeline: {
      DiscreteCost c;
      c.total_send_bytes = static_cast<std::size_t>(pr.p - 1) * pr.nbytes();
      c.rounds = pr.p > 1 ? static_cast<std::size_t>(pr.p) - 1 : 0;
      return c;
    }
    default:
      throw std::invalid_argument("closed_forms: no form for this algorithm");
  }
}

DiscreteCost hierarchical_discrete_cost(Algorithm inter_alg, int group_size,
                                        const CollParams& params,
                                        const std::vector<int>& levels) {
  const std::vector<int> lv = core::hier_canonical_levels(levels);
  const int g = lv.empty() ? group_size : core::hier_levels_product(lv);
  const int p = params.p;
  if (g < 2) {
    throw std::invalid_argument("hierarchical form: group_size must be >= 2");
  }
  // A flat composition needs uniform groups; level vectors allow a ragged
  // last group for everything but Allgather (core/hierarchy.hpp reject()).
  const bool ragged = p % g != 0;
  if (ragged && (lv.empty() || params.op == CollOp::kAllgather)) {
    throw std::invalid_argument("hierarchical form: group_size must divide p");
  }
  const int G = (p + g - 1) / g;
  const std::size_t n = params.nbytes();
  if (n == 0) {
    throw std::invalid_argument("hierarchical form: empty payload");
  }
  if (params.op == CollOp::kAllgather &&
      params.count % static_cast<std::size_t>(p) != 0) {
    throw std::invalid_argument("hierarchical form: allgather requires p | count");
  }

  CollParams lp = params;
  lp.p = G;
  lp.root = params.root / g;
  // One group has no leader phase (core/hierarchy.cpp skips the kernel).
  const DiscreteCost sub =
      G > 1 ? discrete_cost(inter_alg, lp) : DiscreteCost{0, 0, std::nullopt};

  const int root_leader = (params.root / g) * g;
  // (p - G) non-leader ranks each contribute / receive the full payload;
  // a multi-level member's chunked contribution still sums to exactly n, so
  // the byte totals are independent of the level shape (and of raggedness).
  const std::size_t fanout = static_cast<std::size_t>(p - G) * n;
  // Tree-shaped phases chain one hop per level; the flat composition is the
  // depth-1 special case.
  const std::size_t depth = lv.empty() ? 1 : lv.size();
  std::size_t intra = 0;
  std::size_t tail = 0;
  std::size_t pre_hops = 0;
  std::size_t post_hops = 0;
  switch (params.op) {
    case CollOp::kBcast:
      intra = params.root != root_leader ? n : 0;
      pre_hops = intra != 0 ? 1 : 0;
      tail = fanout;
      post_hops = depth;
      break;
    case CollOp::kReduce:
      intra = static_cast<std::size_t>(p - G) * n;
      pre_hops = depth;
      tail = params.root != root_leader ? n : 0;
      post_hops = tail != 0 ? 1 : 0;
      break;
    case CollOp::kAllreduce:
      intra = static_cast<std::size_t>(p - G) * n;
      pre_hops = depth;
      tail = fanout;
      post_hops = depth;
      break;
    case CollOp::kAllgather:
      // Members stage their block to the leader in one hop regardless of
      // the level shape; only the fan-out is tree-shaped.
      intra = static_cast<std::size_t>(p - G) * (n / static_cast<std::size_t>(p));
      pre_hops = 1;
      tail = fanout;
      post_hops = depth;
      break;
    default:
      throw std::invalid_argument("hierarchical form: op has no composition");
  }

  DiscreteCost c;
  c.total_send_bytes = intra + sub.total_send_bytes + tail;
  // Ragged groups can shorten the longest chain below the additive bound (a
  // truncated level may lose every subgroup member along some spine), so no
  // exact round count is claimed for them.
  if (sub.rounds && !ragged) c.rounds = pre_hops + *sub.rounds + post_hops;
  return c;
}

}  // namespace gencoll::model
