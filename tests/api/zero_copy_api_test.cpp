// Zero-copy sends on the public API path: the prover-gated enablement rule
// and the view-completion fence that makes views safe on a long-lived World.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/gencoll.hpp"
#include "core/partition.hpp"
#include "core/reference.hpp"

namespace gencoll {
namespace {

constexpr int kRanks = 4;

// The polaris1x4 selection (one 4-rank node): rabenseifner allreduce above
// 384 KiB, recursive_halving reduce_scatter, linear allgather.
tuning::SelectionConfig polaris1x4() {
  std::istringstream text(
      "machine polaris nodes 1 ppn 4\n"
      "rule bcast 0 98305 linear 1\n"
      "rule bcast 98305 inf recursive_multiplying 4\n"
      "rule reduce 0 inf linear 1\n"
      "rule gather 0 inf linear 1\n"
      "rule allgather 0 inf linear 1\n"
      "rule allreduce 0 393217 recursive_multiplying 4\n"
      "rule allreduce 393217 inf rabenseifner 1\n"
      "rule scatter 0 inf linear 1\n"
      "rule reduce_scatter 0 inf recursive_halving 1\n"
      "rule alltoall 0 inf linear 1\n"
      "rule barrier 0 inf dissemination 4\n"
      "rule scan 0 inf recursive_multiplying 4\n");
  return tuning::SelectionConfig::load(text);
}

core::CollParams float_sum_params(CollOp op, std::size_t count) {
  core::CollParams params;
  params.op = op;
  params.p = kRanks;
  params.count = count;
  params.elem_size = sizeof(float);
  return params;
}

// Every rank scribbles over a buffer the moment a call hands it back; a peer
// still reading it through a view would fold this into its result.
void scribble(std::span<std::byte> buf) { std::memset(buf.data(), 0xA5, buf.size()); }

TEST(ZeroCopyApi, FenceMakesBuffersReusableOnALongLivedWorld) {
  constexpr std::size_t kCount = (4u << 20) / sizeof(float);  // 4 MiB
  constexpr int kIterations = 50;
  constexpr std::size_t kInputSets = 2;
  const core::CollParams params = float_sum_params(CollOp::kAllreduce, kCount);
  // Alternating input sets, so a stale read of the previous call's bytes
  // cannot match by accident. Integer-valued floats sum exactly in any order.
  std::vector<std::vector<std::vector<std::byte>>> inputs;
  std::vector<std::vector<std::byte>> expected;
  for (std::size_t set = 0; set < kInputSets; ++set) {
    inputs.push_back(core::make_inputs(params, DataType::kFloat, 11ULL + set));
    expected.push_back(core::reference_outputs(params, inputs.back(), DataType::kFloat,
                                               ReduceOp::kSum)[0]);
  }
  const std::size_t bytes = kCount * sizeof(float);

  run_ranks(
      kRanks,
      [&](Collectives& coll) {
        const runtime::Communicator& comm = coll.communicator();
        const int rank = coll.rank();
        const core::Block blk = core::block_of(kCount, kRanks, rank);
        const std::size_t blk_off = blk.elem_off * sizeof(float);
        const std::size_t blk_len = blk.elem_len * sizeof(float);
        std::vector<std::byte> in(bytes), out(bytes), mid(bytes), snapshot(bytes);
        std::array<std::uint64_t, 3> views{};  // allreduce, reduce_scatter, allgather

        const auto posted_by = [&](auto&& call) {
          const std::uint64_t before = comm.views_posted();
          call();
          return comm.views_posted() - before;
        };
        for (int it = 0; it < kIterations; ++it) {
          const std::size_t set = static_cast<std::size_t>(it) % kInputSets;
          const auto& want = expected[set];

          // One 4 MiB allreduce.
          std::memcpy(in.data(), inputs[set][static_cast<std::size_t>(rank)].data(), bytes);
          views[0] += posted_by([&] {
            coll.allreduce(in, out, DataType::kFloat, ReduceOp::kSum);
          });
          scribble(in);
          std::memcpy(snapshot.data(), out.data(), bytes);
          scribble(out);
          ASSERT_EQ(std::memcmp(snapshot.data(), want.data(), bytes), 0)
              << "allreduce, iteration " << it << ", rank " << rank;

          // The same reduction as reduce_scatter + allgather.
          std::memcpy(in.data(), inputs[set][static_cast<std::size_t>(rank)].data(), bytes);
          views[1] += posted_by([&] {
            coll.reduce_scatter(in, mid, DataType::kFloat, ReduceOp::kSum);
          });
          scribble(in);
          ASSERT_EQ(std::memcmp(mid.data() + blk_off, want.data() + blk_off, blk_len), 0)
              << "reduce_scatter, iteration " << it << ", rank " << rank;
          views[2] += posted_by([&] {
            coll.allgather(std::span(mid).subspan(blk_off, blk_len), out, DataType::kFloat);
          });
          scribble(mid);
          std::memcpy(snapshot.data(), out.data(), bytes);
          scribble(out);
          ASSERT_EQ(std::memcmp(snapshot.data(), want.data(), bytes), 0)
              << "allgather, iteration " << it << ", rank " << rank;
        }
        EXPECT_GT(views[0], 0u) << "rabenseifner allreduce should post views";
        EXPECT_GT(views[1], 0u) << "recursive_halving reduce_scatter should post views";
        EXPECT_GT(views[2], 0u) << "linear allgather should post views";
        EXPECT_EQ(comm.views_retracted(), 0u);
        EXPECT_EQ(coll.zero_copy_rejections(), 0u);

        // The size gate admits a 1 MiB recursive_multiplying allreduce, but
        // the prover finds a buffer race in it: it keeps copying.
        AlgSpec recmult;
        recmult.algorithm = Algorithm::kRecursiveMultiplying;
        recmult.k = 4;
        std::vector<float> mib(kCount / 4, static_cast<float>(rank + 1));
        EXPECT_EQ(posted_by([&] {
                    coll.allreduce(as_bytes(mib), DataType::kFloat, ReduceOp::kSum, recmult);
                  }),
                  0u);
        EXPECT_EQ(mib.front(), 10.0f);
        EXPECT_EQ(mib.back(), 10.0f);
        EXPECT_EQ(coll.zero_copy_rejections(), 1u);

        // Below the size gate: no proof, no views. Pinned flat, since the
        // co-located default would otherwise take it off the mailbox.
        AlgSpec flat;
        flat.group_size = 1;
        std::vector<float> tiny(2, 1.0f);
        EXPECT_EQ(posted_by([&] {
                    coll.allreduce(as_bytes(tiny), DataType::kFloat, ReduceOp::kSum,
                                   flat);
                  }),
                  0u);
        EXPECT_EQ(tiny[0], 4.0f);
        EXPECT_EQ(coll.zero_copy_rejections(), 1u);
      },
      polaris1x4());
}

TEST(ZeroCopyApi, ReliableWorldNeverPostsViews) {
  constexpr std::size_t kCount = (4u << 20) / sizeof(float);
  runtime::WorldOptions options;
  options.reliability.enabled = true;
  run_ranks(
      kRanks,
      [&](Collectives& coll) {
        std::vector<float> v(kCount, static_cast<float>(coll.rank()));
        std::vector<float> out(kCount);
        std::vector<std::byte> rs(kCount * sizeof(float));
        coll.allreduce(as_const_bytes(v), as_bytes(out), DataType::kFloat, ReduceOp::kSum);
        EXPECT_EQ(out.front(), 6.0f);
        coll.reduce_scatter(as_const_bytes(v), rs, DataType::kFloat, ReduceOp::kSum);
        EXPECT_EQ(coll.communicator().views_posted(), 0u);
        EXPECT_EQ(coll.zero_copy_rejections(), 0u);
      },
      polaris1x4(), options);
}

TEST(ZeroCopyApi, ThrowingRankRetractsPeersViewsWithoutHang) {
  // Rank 0 throws while its peers sit in a 4 MiB rabenseifner allreduce with
  // zero-copy views posted to it. The peers wake on the abort, retract their
  // unmatched views and unwind (freeing the viewed buffers); run_ranks must
  // rethrow rank 0's error long before the receive deadline.
  constexpr std::size_t kCount = (4u << 20) / sizeof(float);
  runtime::WorldOptions options;
  options.recv_timeout = std::chrono::seconds(30);
  std::array<std::atomic<std::uint64_t>, kRanks> retracted{};
  const auto start = std::chrono::steady_clock::now();
  try {
    run_ranks(
        kRanks,
        [&](Collectives& coll) {
          coll.barrier();
          if (coll.rank() == 0) {
            // Leave the peers time to post their first views to this rank.
            std::this_thread::sleep_for(std::chrono::milliseconds(300));
            throw std::runtime_error("rank 0 fails before its allreduce");
          }
          std::vector<float> in(kCount, 1.0f);
          std::vector<float> out(kCount);
          try {
            coll.allreduce(as_const_bytes(in), as_bytes(out), DataType::kFloat,
                           ReduceOp::kSum);
          } catch (const FaultError&) {
            retracted[static_cast<std::size_t>(coll.rank())] =
                coll.communicator().views_retracted();
            throw;
          }
        },
        polaris1x4(), options);
    FAIL() << "run_ranks returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 0 fails before its allreduce");
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  std::uint64_t total = 0;
  for (const auto& r : retracted) total += r.load();
  EXPECT_GT(total, 0u) << "some peer held unmatched views to rank 0";
}

}  // namespace
}  // namespace gencoll
