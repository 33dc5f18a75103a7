// End-to-end tests of the public API: user-visible collectives over the
// threaded runtime with automatic and forced algorithm selection.
#include "api/gencoll.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "core/partition.hpp"
#include "core/reference.hpp"
#include "runtime/membership.hpp"

namespace gencoll {
namespace {

TEST(Api, AllreduceSumDoubles) {
  run_ranks(8, [](Collectives& coll) {
    std::vector<double> v(100);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<double>(coll.rank()) + static_cast<double>(i);
    }
    coll.allreduce(as_bytes(v), DataType::kDouble, ReduceOp::kSum);
    // sum over ranks r of (r + i) = 28 + 8i.
    for (std::size_t i = 0; i < v.size(); ++i) {
      ASSERT_DOUBLE_EQ(v[i], 28.0 + 8.0 * static_cast<double>(i)) << i;
    }
  });
}

TEST(Api, BcastFromEveryRoot) {
  for (int root = 0; root < 5; ++root) {
    run_ranks(5, [root](Collectives& coll) {
      std::vector<std::uint32_t> v(257, 0);
      if (coll.rank() == root) {
        std::iota(v.begin(), v.end(), 1000u);
      }
      coll.bcast(as_bytes(v), root);
      for (std::size_t i = 0; i < v.size(); ++i) {
        ASSERT_EQ(v[i], 1000u + i);
      }
    });
  }
}

TEST(Api, ReduceMaxToRoot) {
  run_ranks(7, [](Collectives& coll) {
    std::vector<std::int32_t> in(33, coll.rank() * 10);
    std::vector<std::int32_t> out(33, -1);
    coll.reduce(as_const_bytes(in), as_bytes(out), DataType::kInt32, ReduceOp::kMax,
                /*root=*/3);
    if (coll.rank() == 3) {
      for (std::int32_t v : out) ASSERT_EQ(v, 60);
    }
  });
}

TEST(Api, AllgatherConcatenatesBlocks) {
  constexpr int kRanks = 6;
  run_ranks(kRanks, [](Collectives& coll) {
    // Balanced partition of 25 ints over 6 ranks: 5,4,4,4,4,4.
    const std::size_t total = 25 * sizeof(std::int32_t);
    const core::Block mine = core::block_of(25, kRanks, coll.rank());
    std::vector<std::int32_t> in(mine.elem_len);
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = static_cast<std::int32_t>(mine.elem_off + i);
    }
    std::vector<std::byte> out(total);
    coll.allgather(as_const_bytes(in), out, DataType::kInt32);
    std::vector<std::int32_t> result(25);
    std::memcpy(result.data(), out.data(), total);
    for (int i = 0; i < 25; ++i) ASSERT_EQ(result[static_cast<std::size_t>(i)], i);
  });
}

TEST(Api, GatherToRoot) {
  constexpr int kRanks = 4;
  run_ranks(kRanks, [](Collectives& coll) {
    const std::size_t total = 16;
    std::vector<std::byte> in(4, static_cast<std::byte>(coll.rank() + 1));
    std::vector<std::byte> out(total);
    coll.gather(in, out, /*root=*/2);
    if (coll.rank() == 2) {
      for (int r = 0; r < kRanks; ++r) {
        for (int i = 0; i < 4; ++i) {
          ASSERT_EQ(out[static_cast<std::size_t>(r * 4 + i)],
                    static_cast<std::byte>(r + 1));
        }
      }
    }
  });
}

TEST(Api, ForcedAlgorithmAndRadix) {
  run_ranks(9, [](Collectives& coll) {
    AlgSpec spec;
    spec.algorithm = Algorithm::kRecursiveMultiplying;
    spec.k = 3;
    std::vector<std::int64_t> v(50, 1);
    coll.allreduce(as_bytes(v), DataType::kInt64, ReduceOp::kSum, spec);
    for (auto x : v) ASSERT_EQ(x, 9);
    const auto choice = coll.resolve(CollOp::kAllreduce, 400, spec);
    EXPECT_EQ(choice.algorithm, Algorithm::kRecursiveMultiplying);
    EXPECT_EQ(choice.k, 3);
  });
}

TEST(Api, SelectionConfigDrivesChoice) {
  tuning::SelectionConfig config;
  config.add_rule({CollOp::kAllreduce, 0, SIZE_MAX, Algorithm::kKnomial, 4});
  run_ranks(6,
            [](Collectives& coll) {
              const auto choice = coll.resolve(CollOp::kAllreduce, 1024);
              EXPECT_EQ(choice.algorithm, Algorithm::kKnomial);
              EXPECT_EQ(choice.k, 4);
              std::vector<std::int32_t> v(16, 2);
              coll.allreduce(as_bytes(v), DataType::kInt32, ReduceOp::kSum);
              for (auto x : v) ASSERT_EQ(x, 12);
            },
            config);
}

TEST(Api, UnsupportedConfigFallsBackGracefully) {
  // k-ring with k=4 cannot run on 6 ranks (4 does not divide 6): the config
  // is wrong but the collective must still complete correctly.
  tuning::SelectionConfig config;
  config.add_rule({CollOp::kAllgather, 0, SIZE_MAX, Algorithm::kKring, 4});
  run_ranks(6,
            [](Collectives& coll) {
              std::vector<std::byte> in(2, static_cast<std::byte>(coll.rank()));
              std::vector<std::byte> out(12);
              coll.allgather(in, out);
              for (int r = 0; r < 6; ++r) {
                ASSERT_EQ(out[static_cast<std::size_t>(2 * r)],
                          static_cast<std::byte>(r));
              }
            },
            config);
}

TEST(Api, ScheduleCacheReused) {
  run_ranks(4, [](Collectives& coll) {
    std::vector<std::int32_t> v(8, 1);
    for (int iter = 0; iter < 5; ++iter) {
      std::vector<std::int32_t> w = v;
      coll.allreduce(as_bytes(w), DataType::kInt32, ReduceOp::kSum);
    }
    EXPECT_EQ(coll.schedules_built(), 1u);
    std::vector<std::int32_t> big(4096, 1);
    coll.allreduce(as_bytes(big), DataType::kInt32, ReduceOp::kSum);
    EXPECT_EQ(coll.schedules_built(), 2u);
  });
}

TEST(Api, MismatchedSizesRejected) {
  run_ranks(2, [](Collectives& coll) {
    std::vector<std::byte> in(7);  // not a multiple of int32
    std::vector<std::byte> out(7);
    EXPECT_THROW(
        coll.allreduce(in, out, DataType::kInt32, ReduceOp::kSum, {}),
        std::invalid_argument);
    std::vector<std::byte> empty;
    EXPECT_THROW(coll.gather(in, empty, 0), std::invalid_argument);
  });
}

TEST(Api, SingleRankDegenerates) {
  run_ranks(1, [](Collectives& coll) {
    std::vector<double> v{1.5, 2.5};
    coll.allreduce(as_bytes(v), DataType::kDouble, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(v[0], 1.5);
    coll.bcast(as_bytes(v), 0);
    EXPECT_DOUBLE_EQ(v[1], 2.5);
  });
}

TEST(Api, BarrierWorks) {
  run_ranks(8, [](Collectives& coll) {
    coll.barrier();
    coll.barrier();
    SUCCEED();
  });
}

TEST(Api, ScatterDistributesBlocks) {
  constexpr int kRanks = 5;
  run_ranks(kRanks, [](Collectives& coll) {
    const std::size_t total_elems = 23;
    std::vector<std::int32_t> in;
    if (coll.rank() == 1) {
      in.resize(total_elems);
      std::iota(in.begin(), in.end(), 0);
    }
    std::vector<std::byte> out(total_elems * sizeof(std::int32_t));
    AlgSpec spec;
    spec.algorithm = Algorithm::kKnomial;
    spec.k = 3;
    coll.scatter(as_const_bytes(in), out, /*root=*/1, DataType::kInt32, spec);
    const core::Block mine = core::block_of(total_elems, kRanks, coll.rank());
    for (std::size_t e = 0; e < mine.elem_len; ++e) {
      std::int32_t v = 0;
      std::memcpy(&v, out.data() + (mine.elem_off + e) * sizeof(v), sizeof(v));
      ASSERT_EQ(v, static_cast<std::int32_t>(mine.elem_off + e));
    }
  });
}

TEST(Api, ReduceScatterOwnsReducedBlock) {
  constexpr int kRanks = 6;
  run_ranks(kRanks, [](Collectives& coll) {
    std::vector<std::int64_t> in(20);
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = static_cast<std::int64_t>(i) * (coll.rank() + 1);
    }
    std::vector<std::byte> out(in.size() * sizeof(std::int64_t));
    coll.reduce_scatter(as_const_bytes(in), out, DataType::kInt64, ReduceOp::kSum);
    // Sum over ranks of i*(r+1) = i * 21.
    const core::Block mine = core::block_of(20, kRanks, coll.rank());
    for (std::size_t e = 0; e < mine.elem_len; ++e) {
      std::int64_t v = 0;
      std::memcpy(&v, out.data() + (mine.elem_off + e) * sizeof(v), sizeof(v));
      ASSERT_EQ(v, static_cast<std::int64_t>(mine.elem_off + e) * 21);
    }
  });
}

TEST(Api, AlltoallTransposesChunks) {
  constexpr int kRanks = 4;
  run_ranks(kRanks, [](Collectives& coll) {
    // Chunk value encodes (source, destination).
    std::vector<std::int32_t> in(kRanks * 3);
    for (int d = 0; d < kRanks; ++d) {
      for (int e = 0; e < 3; ++e) {
        in[static_cast<std::size_t>(d * 3 + e)] = coll.rank() * 100 + d * 10 + e;
      }
    }
    std::vector<std::byte> out(in.size() * sizeof(std::int32_t));
    coll.alltoall(as_const_bytes(in), out, DataType::kInt32);
    for (int s = 0; s < kRanks; ++s) {
      for (int e = 0; e < 3; ++e) {
        std::int32_t v = 0;
        std::memcpy(&v, out.data() + static_cast<std::size_t>(s * 3 + e) * sizeof(v),
                    sizeof(v));
        ASSERT_EQ(v, s * 100 + coll.rank() * 10 + e) << "from " << s;
      }
    }
  });
}

TEST(Api, ScanComputesInclusivePrefix) {
  constexpr int kRanks = 7;
  run_ranks(kRanks, [](Collectives& coll) {
    std::vector<std::int32_t> in(10, coll.rank() + 1);
    std::vector<std::byte> out(in.size() * sizeof(std::int32_t));
    // Compare the generalized Hillis-Steele (k=3) against linear chain.
    AlgSpec spec;
    spec.algorithm = Algorithm::kRecursiveMultiplying;
    spec.k = 3;
    coll.scan(as_const_bytes(in), out, DataType::kInt32, ReduceOp::kSum, spec);
    // Inclusive prefix of (r+1): sum_{i=0..r} (i+1).
    const std::int32_t expect = (coll.rank() + 1) * (coll.rank() + 2) / 2;
    for (std::size_t e = 0; e < in.size(); ++e) {
      std::int32_t v = 0;
      std::memcpy(&v, out.data() + e * sizeof(v), sizeof(v));
      ASSERT_EQ(v, expect);
    }
    AlgSpec chain;
    chain.algorithm = Algorithm::kLinear;
    coll.scan(as_const_bytes(in), out, DataType::kInt32, ReduceOp::kSum, chain);
    std::int32_t v = 0;
    std::memcpy(&v, out.data(), sizeof(v));
    ASSERT_EQ(v, expect);
  });
}

TEST(Api, PipelineBcastDeliversPayload) {
  run_ranks(6, [](Collectives& coll) {
    std::vector<std::byte> buf(1000);
    if (coll.rank() == 2) {
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<std::byte>(i % 251);
      }
    }
    AlgSpec spec;
    spec.algorithm = Algorithm::kPipeline;
    spec.k = 8;  // 8 segments
    coll.bcast(buf, /*root=*/2, spec);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      ASSERT_EQ(buf[i], static_cast<std::byte>(i % 251));
    }
  });
}

TEST(Api, BarrierCollectiveCompletes) {
  run_ranks(9, [](Collectives& coll) {
    AlgSpec spec;
    spec.algorithm = Algorithm::kDissemination;
    spec.k = 3;
    for (int i = 0; i < 3; ++i) coll.barrier_collective(spec);
    coll.barrier_collective();  // vendor default (dissemination k=2)
    SUCCEED();
  });
}

TEST(Api, EpochShrinkInvalidatesTheScheduleCache) {
  // An elastic shrink (runtime/membership.hpp) moves the communicator to a
  // new epoch with a smaller dense rank space; the facade must notice and
  // drop schedules compiled for the dead world. Install the shrunk epoch
  // directly — the full revoke/agree path is covered by the recovery suite.
  runtime::World world(3);
  runtime::EpochView view;
  view.epoch = 1;
  view.survivors = {0, 2};  // rank 1 died; original rank 2 becomes dense 1
  std::vector<std::thread> threads;
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&world, &view, r] {
      runtime::Communicator comm(&world, r);
      Collectives coll(comm);
      std::vector<std::int32_t> v(16, 1);
      coll.allreduce(as_bytes(v), DataType::kInt32, ReduceOp::kSum);
      EXPECT_EQ(v[0], 3);
      EXPECT_EQ(coll.schedules_built(), 1u);
      if (r == 1) return;  // the "dead" rank leaves
      comm.apply_epoch(view);
      std::vector<std::int32_t> w(16, 1);
      coll.allreduce(as_bytes(w), DataType::kInt32, ReduceOp::kSum);
      EXPECT_EQ(w[0], 2);  // reduced over the two survivors
      // The p=3 entry was dropped, not retained beside the p=2 build.
      EXPECT_EQ(coll.schedules_built(), 1u);
    });
  }
  for (auto& t : threads) t.join();
}

core::CollParams int64_params(CollOp op, int p, std::size_t count, int root = 0) {
  core::CollParams params;
  params.op = op;
  params.p = p;
  params.count = count;
  params.elem_size = sizeof(std::int64_t);
  params.root = root;
  return params;
}

// Runs `body(coll)` on `p` rank threads over `world`, one Collectives each.
void run_on(runtime::World& world, const std::function<void(Collectives&)>& body) {
  std::vector<std::thread> threads;
  for (int r = 0; r < world.size(); ++r) {
    threads.emplace_back([&world, &body, r] {
      runtime::Communicator comm(&world, r);
      Collectives coll(comm);
      body(coll);
    });
  }
  for (auto& t : threads) t.join();
}

TEST(Api, SmallAllreduceLoopIsBitExactOnAPollingWorld) {
  // p <= hardware threads, so the mailboxes poll before parking; every 8 B
  // payload travels inline and the buffer pool is never touched.
  const int p = std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 2, 4);
  constexpr int kIterations = 400;
  constexpr std::uint64_t kSeeds = 8;
  const core::CollParams params = int64_params(CollOp::kAllreduce, p, 1);
  std::vector<std::vector<std::vector<std::byte>>> inputs;
  std::vector<std::vector<std::byte>> expected;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    inputs.push_back(core::make_inputs(params, DataType::kInt64, 40 + seed));
    expected.push_back(
        core::reference_outputs(params, inputs.back(), DataType::kInt64, ReduceOp::kSum)[0]);
  }
  runtime::World world(p);
  run_on(world, [&](Collectives& coll) {
    const auto rank = static_cast<std::size_t>(coll.rank());
    std::vector<std::byte> buf(sizeof(std::int64_t)), out(sizeof(std::int64_t));
    for (int it = 0; it < kIterations; ++it) {
      const auto set = static_cast<std::size_t>(it) % kSeeds;
      buf = inputs[set][rank];
      if (it % 2 == 0) {
        coll.allreduce(buf, DataType::kInt64, ReduceOp::kSum);  // in place
        ASSERT_EQ(buf, expected[set]) << "iteration " << it << ", rank " << rank;
      } else {
        coll.allreduce(buf, out, DataType::kInt64, ReduceOp::kSum);
        ASSERT_EQ(out, expected[set]) << "iteration " << it << ", rank " << rank;
      }
    }
  });
  EXPECT_GT(world.transport_counters().inline_sends, 0u);
  EXPECT_EQ(world.pool().stats().acquires, 0u);
  EXPECT_EQ(world.pending_messages(), 0u);
}

TEST(Api, StagingBufferReusedAcrossSizes) {
  // In-place allreduce, bcast at the root and reduce on non-roots share one
  // grow-only staging buffer; shrinking and growing sizes must not leak
  // bytes from an earlier call into a later one.
  constexpr int kRanks = 3;
  runtime::World world(kRanks);
  run_on(world, [&](Collectives& coll) {
    const auto rank = static_cast<std::size_t>(coll.rank());
    std::uint64_t seed = 70;
    for (const std::size_t count : {std::size_t{512}, std::size_t{1}, std::size_t{8192},
                                    std::size_t{3}, std::size_t{131072}}) {
      const std::size_t bytes = count * sizeof(std::int64_t);
      const int root = static_cast<int>(count % kRanks);

      const auto ar = int64_params(CollOp::kAllreduce, kRanks, count);
      const auto ar_in = core::make_inputs(ar, DataType::kInt64, ++seed);
      std::vector<std::byte> buf = ar_in[rank];
      coll.allreduce(buf, DataType::kInt64, ReduceOp::kSum);
      ASSERT_EQ(buf, core::reference_outputs(ar, ar_in, DataType::kInt64,
                                             ReduceOp::kSum)[rank])
          << "allreduce of " << count;

      const auto bc = int64_params(CollOp::kBcast, kRanks, count, root);
      const auto bc_in = core::make_inputs(bc, DataType::kInt64, ++seed);
      buf = rank == static_cast<std::size_t>(root) ? bc_in[rank]
                                                   : std::vector<std::byte>(bytes);
      coll.bcast(buf, root);
      ASSERT_EQ(buf, bc_in[static_cast<std::size_t>(root)]) << "bcast of " << count;

      const auto rd = int64_params(CollOp::kReduce, kRanks, count, root);
      const auto rd_in = core::make_inputs(rd, DataType::kInt64, ++seed);
      std::vector<std::byte> out(bytes);
      coll.reduce(rd_in[rank], out, DataType::kInt64, ReduceOp::kSum, root);
      if (rank == static_cast<std::size_t>(root)) {
        ASSERT_EQ(out, core::reference_outputs(rd, rd_in, DataType::kInt64,
                                               ReduceOp::kSum)[rank])
            << "reduce of " << count;
      }
    }
  });
}

}  // namespace
}  // namespace gencoll
