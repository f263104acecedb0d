// Transport unit tests plus the headline integration test: one full
// SAPS-PSGD communication round executed by REAL coordinator/worker threads
// exchanging serialized wire messages, checked bit-identical against the
// sequential masked-average computation.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <thread>

#include "compress/mask.hpp"
#include "net/wire.hpp"
#include "sim/transport.hpp"
#include "util/rng.hpp"

namespace saps::sim {
namespace {

TEST(Transport, SendRecvFifo) {
  Transport t(3);
  t.send(0, 1, {1, 2, 3});
  t.send(2, 1, {9});
  const auto a = t.recv(1);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->from, 0u);
  EXPECT_EQ(a->payload, (std::vector<std::uint8_t>{1, 2, 3}));
  const auto b = t.recv(1);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->from, 2u);
  EXPECT_DOUBLE_EQ(t.total_bytes(), 4.0);
}

TEST(Transport, TryRecvOnEmptyIsNull) {
  Transport t(2);
  EXPECT_FALSE(t.try_recv(0).has_value());
  t.send(1, 0, {5});
  EXPECT_TRUE(t.try_recv(0).has_value());
}

TEST(Transport, InvalidEndpointsThrow) {
  Transport t(2);
  EXPECT_THROW(t.send(0, 5, {1}), std::out_of_range);
  EXPECT_THROW(t.send(9, 0, {1}), std::out_of_range);
  EXPECT_THROW(Transport(1), std::invalid_argument);
}

TEST(Transport, ShutdownWakesBlockedReceiver) {
  Transport t(2);
  std::optional<Envelope> got = Envelope{};  // sentinel non-null
  std::thread receiver([&] { got = t.recv(0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.shutdown();
  receiver.join();
  EXPECT_FALSE(got.has_value());
  EXPECT_THROW(t.send(0, 1, {1}), std::logic_error);
}

TEST(Transport, BlockingRecvDeliversCrossThread) {
  Transport t(2);
  std::optional<Envelope> got;
  std::thread receiver([&] { got = t.recv(1); });
  t.send(0, 1, {42});
  receiver.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload[0], 42);
}

TEST(Transport, MailboxesAllocateLazilyOnFirstTouch) {
  // A population-scale transport sizes its endpoint table to thousands of
  // slots, but only the sampled cohort ever exchanges frames — untouched
  // endpoints must not pay for a mailbox.
  Transport t(1000);
  EXPECT_EQ(t.endpoints(), 1000u);
  EXPECT_EQ(t.allocated_mailboxes(), 0u);

  t.send(3, 7, {1, 2});          // materializes destination 7 only
  EXPECT_EQ(t.allocated_mailboxes(), 1u);
  t.send(3, 7, {3});             // reuses the existing mailbox
  EXPECT_EQ(t.allocated_mailboxes(), 1u);

  // try_recv on a never-touched endpoint peeks without allocating.
  EXPECT_FALSE(t.try_recv(999).has_value());
  EXPECT_EQ(t.allocated_mailboxes(), 1u);

  // Delivery order through a lazily-created mailbox is still FIFO.
  const auto a = t.recv(7);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->payload, (std::vector<std::uint8_t>{1, 2}));
  const auto b = t.recv(7);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->payload, (std::vector<std::uint8_t>{3}));

  // A blocking recv materializes its own mailbox (the waiter must have a
  // condition variable to park on) and shutdown still finds and wakes it.
  std::optional<Envelope> got = Envelope{};  // sentinel non-null
  std::thread receiver([&] { got = t.recv(500); });
  while (t.allocated_mailboxes() < 2) std::this_thread::yield();
  t.shutdown();
  receiver.join();
  EXPECT_FALSE(got.has_value());
}

TEST(Transport, ShutdownNeverLosesAReceiverAboutToPark) {
  // A receiver that has read down_ == false in its wait predicate but has
  // not yet parked must still be woken by shutdown().  The window is a few
  // instructions wide, so race the two a thousand times; a lost wakeup
  // hangs the receiver, and the watchdog turns that into a prompt abort
  // instead of a wait for the suite timeout.
  std::mutex watch_mutex;
  std::condition_variable watch_cv;
  bool finished = false;
  std::thread watchdog([&] {
    std::unique_lock lock(watch_mutex);
    if (!watch_cv.wait_for(lock, std::chrono::seconds(30),
                           [&] { return finished; })) {
      std::fprintf(stderr, "Transport::shutdown lost a receiver's wakeup\n");
      std::abort();
    }
  });
  for (int i = 0; i < 1000; ++i) {
    Transport t(2);
    std::optional<Envelope> got = Envelope{};  // sentinel non-null
    std::thread receiver([&] { got = t.recv(1); });
    while (t.allocated_mailboxes() < 1) std::this_thread::yield();
    t.shutdown();
    receiver.join();
    EXPECT_FALSE(got.has_value()) << "iteration " << i;
  }
  {
    std::lock_guard lock(watch_mutex);
    finished = true;
  }
  watch_cv.notify_all();
  watchdog.join();
}

TEST(Transport, ThreadedSapsRoundMatchesSequential) {
  // 4 workers, 1 coordinator (endpoint 4).  The coordinator broadcasts
  // NotifyMsg (peer + seed); each worker extracts its masked values, sends a
  // MaskedModelMsg to its peer, merges what it receives, and reports
  // RoundEnd.  Result must equal the sequential Eq. (7) update.
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kDim = 512;
  constexpr double kC = 5.0;
  const std::uint64_t mask_seed = 0xabcdef12;

  // Initial models.
  std::vector<std::vector<float>> models(kWorkers, std::vector<float>(kDim));
  Rng rng(31);
  for (auto& m : models) {
    for (auto& v : m) v = rng.next_float();
  }
  // Sequential reference: pairs (0,2) and (1,3).
  auto reference = models;
  const auto mask = compress::bernoulli_mask(mask_seed, kDim, kC);
  for (const auto& [i, j] :
       std::vector<std::pair<std::size_t, std::size_t>>{{0, 2}, {1, 3}}) {
    const auto vi = compress::extract_masked(reference[i], mask);
    const auto vj = compress::extract_masked(reference[j], mask);
    compress::average_masked_inplace(reference[i], mask, vj);
    compress::average_masked_inplace(reference[j], mask, vi);
  }

  // Threaded execution over the transport.
  Transport transport(kWorkers + 1);
  const std::size_t coord = kWorkers;
  const std::size_t peer_of[kWorkers] = {2, 3, 0, 1};

  std::vector<std::thread> threads;
  threads.reserve(kWorkers + 1);
  threads.emplace_back([&] {  // coordinator
    for (std::size_t w = 0; w < kWorkers; ++w) {
      net::NotifyMsg notify{.round = 0,
                            .mask_seed = mask_seed,
                            .peer = static_cast<std::uint32_t>(peer_of[w])};
      transport.send(coord, w, notify.encode());
    }
    for (std::size_t w = 0; w < kWorkers; ++w) {
      const auto env = transport.recv(coord);
      ASSERT_TRUE(env.has_value());
      const auto end = net::RoundEndMsg::decode(env->payload);
      EXPECT_EQ(end.round, 0u);
    }
  });
  for (std::size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      // The coordinator's NotifyMsg and the peer's MaskedModelMsg come from
      // different senders, and the transport orders frames per sender
      // only: the peer's model may arrive first.  Dispatch on the type.
      std::optional<net::NotifyMsg> note;
      std::optional<net::MaskedModelMsg> in;
      const auto receive = [&] {
        const auto env = transport.recv(w);
        if (!env) return false;
        if (net::peek_type(env->payload) == net::MsgType::kNotify) {
          note = net::NotifyMsg::decode(env->payload);
        } else {
          in = net::MaskedModelMsg::decode(env->payload);
        }
        return true;
      };
      while (!note) ASSERT_TRUE(receive());
      const auto my_mask =
          compress::bernoulli_mask(note->mask_seed, kDim, kC);

      net::MaskedModelMsg out;
      out.mask_seed = note->mask_seed;
      out.round = note->round;
      out.values = compress::extract_masked(models[w], my_mask);
      transport.send(w, note->peer, out.encode());

      while (!in) ASSERT_TRUE(receive());
      EXPECT_EQ(in->mask_seed, mask_seed);
      compress::average_masked_inplace(models[w], my_mask, in->values);

      transport.send(w, coord,
                     net::RoundEndMsg{.round = note->round,
                                      .rank = static_cast<std::uint32_t>(w)}
                         .encode());
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t w = 0; w < kWorkers; ++w) {
    for (std::size_t j = 0; j < kDim; ++j) {
      EXPECT_EQ(models[w][j], reference[w][j])
          << "worker " << w << " dim " << j;
    }
  }
  // Traffic moved: 4 notifies + 4 masked models + 4 round-ends.
  EXPECT_GT(transport.total_bytes(), 0.0);
}

}  // namespace
}  // namespace saps::sim
