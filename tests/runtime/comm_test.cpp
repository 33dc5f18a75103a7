#include "runtime/comm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "fault/error.hpp"
#include "fault/plan.hpp"

#include "runtime/world.hpp"

namespace gencoll::runtime {
namespace {

std::vector<std::byte> bytes_of(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST(World, RejectsNonPositiveSize) {
  EXPECT_THROW(World w(0), std::invalid_argument);
  EXPECT_THROW(World w(-3), std::invalid_argument);
}

TEST(Comm, PingPong) {
  World::run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const auto payload = bytes_of({1, 2, 3});
      comm.send(1, 0, payload);
      std::vector<std::byte> back(3);
      comm.recv(1, 1, back);
      EXPECT_EQ(back, bytes_of({4, 5, 6}));
    } else {
      std::vector<std::byte> got(3);
      comm.recv(0, 0, got);
      EXPECT_EQ(got, bytes_of({1, 2, 3}));
      comm.send(0, 1, bytes_of({4, 5, 6}));
    }
  });
}

TEST(Comm, SizeMismatchThrows) {
  EXPECT_THROW(World::run(2,
                          [](Communicator& comm) {
                            if (comm.rank() == 0) {
                              comm.send(1, 0, bytes_of({1, 2, 3}));
                            } else {
                              std::vector<std::byte> too_small(2);
                              comm.recv(0, 0, too_small);
                            }
                          }),
               std::runtime_error);
}

TEST(Comm, SizeMismatchNamesChannelAndSizes) {
  // Regression: the error must carry enough to debug a schedule bug — both
  // byte counts and the (source, tag, receiver) coordinates.
  try {
    World::run(2, [](Communicator& comm) {
      if (comm.rank() == 0) {
        comm.send(1, 4, bytes_of({1, 2, 3}));
      } else {
        std::vector<std::byte> too_small(2);
        comm.recv(0, 4, too_small);
      }
    });
    FAIL() << "expected FaultError";
  } catch (const gencoll::FaultError& e) {
    EXPECT_EQ(e.kind(), gencoll::FaultKind::kSizeMismatch);
    const std::string what = e.what();
    EXPECT_NE(what.find("2-byte receive"), std::string::npos) << what;
    EXPECT_NE(what.find("3-byte message"), std::string::npos) << what;
    EXPECT_NE(what.find("source=0"), std::string::npos) << what;
    EXPECT_NE(what.find("tag=4"), std::string::npos) << what;
    EXPECT_NE(what.find("receiver=1"), std::string::npos) << what;
  }
}

TEST(Comm, RecvAnySize) {
  World::run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 3, bytes_of({9, 8}));
    } else {
      const auto got = comm.recv_any_size(0, 3);
      EXPECT_EQ(got.size(), 2u);
    }
  });
}

TEST(Comm, SendRecvExchange) {
  World::run(2, [](Communicator& comm) {
    const int peer = 1 - comm.rank();
    const auto mine = bytes_of({comm.rank(), comm.rank()});
    std::vector<std::byte> theirs(2);
    comm.sendrecv(peer, 0, mine, peer, 0, theirs);
    EXPECT_EQ(theirs, bytes_of({peer, peer}));
  });
}

TEST(Comm, OutOfRangePeersThrow) {
  World::run(1, [](Communicator& comm) {
    EXPECT_THROW(comm.send(5, 0, {}), std::out_of_range);
    std::vector<std::byte> buf(1);
    EXPECT_THROW(comm.recv(-1, 0, buf), std::out_of_range);
  });
}

TEST(Comm, BarrierSynchronizesPhases) {
  constexpr int kRanks = 8;
  std::atomic<int> counter{0};
  World::run(kRanks, [&](Communicator& comm) {
    counter.fetch_add(1);
    comm.barrier();
    // After the barrier every rank must observe all arrivals.
    EXPECT_EQ(counter.load(), kRanks);
    comm.barrier();
    counter.fetch_sub(1);
    comm.barrier();
    EXPECT_EQ(counter.load(), 0);
  });
}

TEST(Comm, RankExceptionPropagates) {
  EXPECT_THROW(World::run(4,
                          [](Communicator& comm) {
                            if (comm.rank() == 2) {
                              throw std::logic_error("rank 2 failed");
                            }
                          }),
               std::logic_error);
}

TEST(Comm, ManyToOneSum) {
  constexpr int kRanks = 12;
  World::run(kRanks, [](Communicator& comm) {
    if (comm.rank() == 0) {
      int total = 0;
      for (int src = 1; src < comm.size(); ++src) {
        std::vector<std::byte> buf(sizeof(int));
        comm.recv(src, 0, buf);
        int v = 0;
        std::memcpy(&v, buf.data(), sizeof(int));
        total += v;
      }
      EXPECT_EQ(total, (kRanks - 1) * kRanks / 2);
    } else {
      const int v = comm.rank();
      std::vector<std::byte> buf(sizeof(int));
      std::memcpy(buf.data(), &v, sizeof(int));
      comm.send(0, 0, buf);
    }
  });
}

TEST(Comm, RecvTimeoutConfigurable) {
  World::run(1, [](Communicator& comm) {
    comm.set_recv_timeout(std::chrono::milliseconds(50));
    EXPECT_EQ(comm.recv_timeout(), std::chrono::milliseconds(50));
  });
}

std::vector<std::byte> pattern(std::size_t n, std::size_t salt) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::byte>(i * 7 + static_cast<std::size_t>(salt));
  return out;
}

TEST(Comm, InlineBoundarySizesRoundTrip) {
  // 0, 1 and kInlineBytes travel inline, kInlineBytes + 1 through the pool;
  // every receive path must read both forms.
  constexpr std::size_t kN = Message::kInlineBytes;
  World world(2);
  Communicator sender(&world, 0);
  Communicator receiver(&world, 1);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, kN, kN + 1}) {
    const auto data = pattern(n, n);
    sender.send(1, 1, data);
    std::vector<std::byte> out(n);
    receiver.recv(0, 1, out);
    EXPECT_EQ(out, data) << n << " B via recv";

    sender.send(1, 2, data);
    EXPECT_EQ(receiver.recv_any_size(0, 2), data) << n << " B via recv_any_size";

    sender.send(1, 3, data);
    const auto same = [&data](std::span<const std::byte> p) {
      return std::equal(p.begin(), p.end(), data.begin(), data.end());
    };
    EXPECT_EQ(world.mailbox(1).drain_matching(0, 3, same), 1u)
        << n << " B via drain_matching";
  }
  EXPECT_EQ(world.pending_messages(), 0u);
  EXPECT_EQ(world.transport_counters().inline_sends, 9u);  // 3 paths x 3 sizes
  EXPECT_EQ(world.pool().stats().acquires, 3u);           // only kN + 1 pooled
}

TEST(Comm, FaultPlanCorruptsAndDuplicatesInlineMessages) {
  fault::FaultPlan plan;
  plan.seed = 21;
  plan.corrupt_prob = 1.0;
  plan.dup_prob = 1.0;
  WorldOptions options;
  options.fault_plan = &plan;
  World world(2, options);
  Communicator sender(&world, 0);
  Communicator receiver(&world, 1);
  constexpr int kTag = 4;
  const auto data = pattern(16, 3);
  sender.send(1, kTag, data);

  // The injector's decision for the first message on this channel.
  const fault::FaultDecision d =
      fault::decide(plan, 0, 1, kTag, 0, 0, fault::MsgStream::kData);
  ASSERT_TRUE(d.corrupt);
  ASSERT_TRUE(d.duplicate);
  auto want = data;
  const std::uint64_t bit = d.corrupt_bit % (want.size() * 8);
  want[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
  for (int copy = 0; copy < 2; ++copy) {
    std::vector<std::byte> got(data.size());
    receiver.recv(0, kTag, got);
    EXPECT_EQ(got, want) << "copy " << copy;
  }
  EXPECT_EQ(world.pending_messages(), 0u);
  EXPECT_EQ(world.transport_counters().inline_sends, 2u);
}

TEST(Comm, OversubscribedWorldNeverPolls) {
  const int ranks = static_cast<int>(std::thread::hardware_concurrency()) + 1;
  constexpr int kRounds = 200;
  World world(ranks);
  std::vector<std::thread> threads;
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&world, r, ranks] {
      Communicator comm(&world, r);
      const int right = (r + 1) % ranks;
      const int left = (r + ranks - 1) % ranks;
      for (int i = 0; i < kRounds; ++i) {
        const std::int64_t mine = r * kRounds + i;
        std::int64_t theirs = -1;
        comm.sendrecv(right, i, std::as_bytes(std::span<const std::int64_t>(&mine, 1)),
                      left, i,
                      std::as_writable_bytes(std::span<std::int64_t>(&theirs, 1)));
        EXPECT_EQ(theirs, left * kRounds + i);
      }
    });
  }
  for (auto& t : threads) t.join();
  const TransportCounters c = world.transport_counters();
  EXPECT_EQ(c.polled_matches, 0u);
  EXPECT_EQ(c.inline_sends, static_cast<std::uint64_t>(ranks * kRounds));
}

}  // namespace
}  // namespace gencoll::runtime
