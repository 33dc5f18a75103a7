#include "runtime/mailbox.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "fault/abort.hpp"
#include "fault/error.hpp"
#include "fault/recovery.hpp"

namespace gencoll::runtime {
namespace {

using namespace std::chrono_literals;

Message make_msg(int src, int tag, std::size_t bytes) {
  Message m;
  m.source = src;
  m.tag = tag;
  m.payload.resize(bytes, std::byte{0xAB});
  return m;
}

TEST(Mailbox, MatchDeliversPostedMessage) {
  Mailbox mb;
  mb.post(make_msg(3, 7, 16));
  const Message m = mb.match(3, 7, 100ms);
  EXPECT_EQ(m.source, 3);
  EXPECT_EQ(m.tag, 7);
  EXPECT_EQ(m.payload.size(), 16u);
}

TEST(Mailbox, MatchFiltersBySourceAndTag) {
  Mailbox mb;
  mb.post(make_msg(1, 0, 1));
  mb.post(make_msg(2, 0, 2));
  mb.post(make_msg(1, 5, 3));
  EXPECT_EQ(mb.match(1, 5, 100ms).payload.size(), 3u);
  EXPECT_EQ(mb.match(2, 0, 100ms).payload.size(), 2u);
  EXPECT_EQ(mb.match(1, 0, 100ms).payload.size(), 1u);
  EXPECT_EQ(mb.pending(), 0u);
}

TEST(Mailbox, FifoAmongMatches) {
  Mailbox mb;
  Message first = make_msg(0, 9, 4);
  first.payload.assign(4, std::byte{1});
  Message second = make_msg(0, 9, 4);
  second.payload.assign(4, std::byte{2});
  mb.post(std::move(first));
  mb.post(std::move(second));
  EXPECT_EQ(mb.match(0, 9, 100ms).payload[0], std::byte{1});
  EXPECT_EQ(mb.match(0, 9, 100ms).payload[0], std::byte{2});
}

TEST(Mailbox, TimeoutThrows) {
  Mailbox mb;
  mb.post(make_msg(1, 1, 1));
  EXPECT_THROW(mb.match(1, 2, 50ms), std::runtime_error);
  // The non-matching message is untouched.
  EXPECT_EQ(mb.pending(), 1u);
}

TEST(Mailbox, BlockingMatchWakesOnPost) {
  Mailbox mb;
  std::atomic<bool> got{false};
  std::thread receiver([&] {
    const Message m = mb.match(4, 2, 2000ms);
    got = m.payload.size() == 8;
  });
  std::this_thread::sleep_for(20ms);
  mb.post(make_msg(4, 2, 8));
  receiver.join();
  EXPECT_TRUE(got);
}

TEST(Mailbox, ProbeNonBlocking) {
  Mailbox mb;
  EXPECT_FALSE(mb.probe(0, 0));
  mb.post(make_msg(0, 0, 1));
  EXPECT_TRUE(mb.probe(0, 0));
  EXPECT_FALSE(mb.probe(0, 1));
}

TEST(Mailbox, ManyProducersOneConsumer) {
  Mailbox mb;
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 50;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int s = 0; s < kProducers; ++s) {
    producers.emplace_back([&mb, s] {
      for (int i = 0; i < kPerProducer; ++i) {
        mb.post(make_msg(s, i, static_cast<std::size_t>(s + 1)));
      }
    });
  }
  std::size_t received = 0;
  for (int i = 0; i < kPerProducer; ++i) {
    for (int s = 0; s < kProducers; ++s) {
      const Message m = mb.match(s, i, 2000ms);
      EXPECT_EQ(m.payload.size(), static_cast<std::size_t>(s + 1));
      ++received;
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(received, static_cast<std::size_t>(kProducers * kPerProducer));
  EXPECT_EQ(mb.pending(), 0u);
}

TEST(Mailbox, MessageFormsSurviveTheQueue) {
  // Inline, pooled and view payloads keep their bytes through post/match
  // (move construction into the deque, move out of it) and stay FIFO.
  std::array<std::byte, Message::kInlineBytes> small{};
  for (std::size_t i = 0; i < small.size(); ++i) small[i] = static_cast<std::byte>(i + 1);
  const std::vector<std::byte> large(Message::kInlineBytes + 1, std::byte{0x5C});
  ViewLedger ledger;
  Mailbox mb;
  Message in;
  in.set_inline(small);
  Message pooled;
  pooled.payload = std::vector<std::byte>(large);
  Message viewed;
  viewed.set_view(large, &ledger);
  mb.post(std::move(in));
  mb.post(std::move(pooled));
  mb.post(std::move(viewed));

  const Message a = mb.match(-1, 0, 100ms);
  EXPECT_EQ(a.form(), Message::Form::kInline);
  ASSERT_EQ(a.size(), small.size());
  EXPECT_EQ(std::memcmp(a.bytes().data(), small.data(), small.size()), 0);
  const Message b = mb.match(-1, 0, 100ms);
  EXPECT_EQ(b.form(), Message::Form::kPooled);
  EXPECT_TRUE(std::equal(b.bytes().begin(), b.bytes().end(), large.begin(), large.end()));
  {
    Message c = mb.match(-1, 0, 100ms);
    EXPECT_TRUE(c.zero_copy());
    EXPECT_EQ(c.bytes().data(), large.data());
    EXPECT_EQ(ledger.released.load(), 0u);
    EXPECT_EQ(std::move(c).take_bytes(), large);
  }
  EXPECT_EQ(ledger.released.load(), 1u);  // the view died with its message
}

TEST(Mailbox, PollingPreservesFifoAcrossProducers) {
  Mailbox mb;
  mb.set_poll(true);
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 2000;
  std::vector<std::thread> producers;
  for (int s = 0; s < kProducers; ++s) {
    producers.emplace_back([&mb, s] {
      for (int i = 0; i < kPerProducer; ++i) {
        Message m;
        m.source = s;
        m.tag = 1;
        m.set_inline(std::as_bytes(std::span<const int>(&i, 1)));
        mb.post(std::move(m));
      }
    });
  }
  for (int i = 0; i < kPerProducer; ++i) {
    for (int s = 0; s < kProducers; ++s) {
      const Message m = mb.match(s, 1, 5000ms);
      int got = -1;
      ASSERT_EQ(m.size(), sizeof(int));
      std::memcpy(&got, m.bytes().data(), sizeof(int));
      ASSERT_EQ(got, i) << "producer " << s;
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(mb.pending(), 0u);
  EXPECT_EQ(mb.counters().inline_sends,
            static_cast<std::uint64_t>(kProducers * kPerProducer));
}

// Poison raised while a receiver is polling, or after it has parked (the
// sweep of delays covers both), ends its match long before the deadline.
void expect_poison_wakes(bool revoke) {
  for (const auto delay : {0us, 10us, 40us, 200us, 5000us}) {
    fault::AbortFlag abort;
    fault::RevokeFlag revoked;
    Mailbox mb;
    mb.set_abort_flag(&abort);
    mb.set_revoke_flag(&revoked);
    mb.set_poll(true);
    FaultKind kind = FaultKind::kTimeout;
    std::chrono::steady_clock::duration took{};
    std::thread receiver([&] {
      const auto start = std::chrono::steady_clock::now();
      try {
        (void)mb.match(1, 1, 30000ms, 0, 0);
      } catch (const FaultError& e) {
        kind = e.kind();
      }
      took = std::chrono::steady_clock::now() - start;
    });
    std::this_thread::sleep_for(delay);
    if (revoke) {
      revoked.revoke(0, 1, "test revoke");
    } else {
      abort.raise(1, "test abort");
    }
    mb.interrupt();
    receiver.join();
    EXPECT_EQ(kind, revoke ? FaultKind::kRevoked : FaultKind::kAborted)
        << "delay " << delay.count() << " us";
    EXPECT_LT(took, 2s) << "delay " << delay.count() << " us";
  }
}

TEST(Mailbox, AbortWakesPollingReceiver) { expect_poison_wakes(false); }

TEST(Mailbox, RevokeWakesPollingReceiver) { expect_poison_wakes(true); }

TEST(Mailbox, DeadlineFiresWhilePolling) {
  // A steady stream of non-matching posts keeps waking the poll; the
  // receive deadline must still end the wait.
  Mailbox mb;
  mb.set_poll(true);
  std::atomic<bool> stop{false};
  std::thread noise([&] {
    while (!stop.load()) {
      mb.post(make_msg(2, 9, 4));
      std::this_thread::sleep_for(5us);
    }
  });
  const auto start = std::chrono::steady_clock::now();
  FaultKind kind = FaultKind::kAborted;
  try {
    (void)mb.match(1, 1, 50ms);
  } catch (const FaultError& e) {
    kind = e.kind();
  }
  const auto took = std::chrono::steady_clock::now() - start;
  stop = true;
  noise.join();
  EXPECT_EQ(kind, FaultKind::kTimeout);
  EXPECT_GE(took, 50ms);
  EXPECT_LT(took, 2s);
}

TEST(Mailbox, DelayHeldMatchSkipsThePoll) {
  Mailbox mb;
  mb.set_poll(true);
  const auto start = std::chrono::steady_clock::now();
  Message m = make_msg(0, 3, 8);
  m.deliver_at = start + 20ms;
  mb.post(std::move(m));
  EXPECT_EQ(mb.match(0, 3, 2000ms).payload.size(), 8u);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 20ms);
  EXPECT_EQ(mb.counters().polled_matches, 0u);
  EXPECT_EQ(mb.counters().parked_matches, 1u);
}

TEST(Mailbox, ImmediateMatchNeitherPollsNorParks) {
  Mailbox mb;
  mb.set_poll(true);
  mb.post(make_msg(0, 3, 8));
  (void)mb.match(0, 3, 100ms);
  EXPECT_EQ(mb.counters().polled_matches, 0u);
  EXPECT_EQ(mb.counters().parked_matches, 0u);
}

}  // namespace
}  // namespace gencoll::runtime
