// sim::Fabric unit tests: typed-message routing through per-node FIFO
// mailboxes, wire-derived traffic charging (staged per source, applied in
// fixed order), the separated control plane, and the event-timeline round
// clock with latency and modeled compute.
#include <gtest/gtest.h>

#include <thread>

#include "net/link_model.hpp"
#include "net/wire.hpp"
#include "sim/fabric.hpp"

namespace saps::sim {
namespace {

net::BandwidthMatrix uniform_bw(std::size_t n, double mbps) {
  net::BandwidthMatrix b(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) b.set(i, j, mbps);
    }
  }
  return b;
}

TEST(Fabric, RoutesEncodedMessageAndChargesWireBytes) {
  Fabric fabric(net::LinkModel(std::size_t{3}));
  fabric.begin_round();
  net::MaskedModelMsg msg;
  msg.mask_seed = 77;
  msg.round = 0;
  msg.values = {1.0f, 2.0f, 3.0f};
  fabric.send(0, 1, msg);
  fabric.end_round();

  // Delivery: the encoded bytes sit in 1's mailbox and decode back.
  const auto env = fabric.recv(1);
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->from, 0u);
  const auto back = net::MaskedModelMsg::decode(env->payload);
  EXPECT_EQ(back.values, msg.values);
  EXPECT_FALSE(fabric.recv(1).has_value());

  // Accounting: the charge is the message's wire size (= encoded size here).
  EXPECT_DOUBLE_EQ(fabric.link().up_bytes(0), msg.wire_bytes());
  EXPECT_DOUBLE_EQ(fabric.link().down_bytes(1), msg.wire_bytes());
}

TEST(Fabric, SendRecvFifo) {
  // A node's mailbox pops frames in arrival order, whoever sent them.
  Fabric fabric(net::LinkModel(std::size_t{3}));
  fabric.begin_round();
  fabric.send(0, 1, net::RoundEndMsg{.round = 0, .rank = 0});
  fabric.send(2, 1, net::RoundEndMsg{.round = 1, .rank = 2});
  fabric.send(0, 1, net::RoundEndMsg{.round = 2, .rank = 0});
  fabric.end_round();
  for (const std::uint32_t round : {0u, 1u, 2u}) {
    const auto env = fabric.recv(1);
    ASSERT_TRUE(env.has_value());
    EXPECT_EQ(env->from, round == 1 ? 2u : 0u);
    EXPECT_EQ(net::RoundEndMsg::decode(env->payload).round, round);
  }
  EXPECT_FALSE(fabric.recv(1).has_value());
}

TEST(Fabric, RecvOnEmptyIsNull) {
  // A never-touched mailbox and a drained one both pop nothing.
  Fabric fabric(net::LinkModel(std::size_t{1000}));
  EXPECT_FALSE(fabric.recv(999).has_value());
  fabric.send_control(3, 7, net::RoundEndMsg{.round = 0, .rank = 3});
  EXPECT_TRUE(fabric.recv(7).has_value());
  EXPECT_FALSE(fabric.recv(7).has_value());
}

TEST(Fabric, RecvOnBadNodeThrows) {
  Fabric fabric(net::LinkModel(std::size_t{2}));
  EXPECT_THROW((void)fabric.recv(2), std::out_of_range);
}

TEST(Fabric, FullModelChargeExcludesFrame) {
  Fabric fabric(net::LinkModel(std::size_t{3}));
  fabric.begin_round();
  net::FullModelMsg msg;
  msg.rank = 0;
  msg.params.assign(10, 1.0f);
  fabric.send(0, 2, msg);
  fabric.end_round();
  EXPECT_DOUBLE_EQ(fabric.link().up_bytes(0), 40.0);  // payload floats only
  const auto env = fabric.recv(2);
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->payload.size(), 40u + net::FullModelMsg::kFrameBytes);
}

TEST(Fabric, PreEncodedFrameMatchesSendByteForByteAndChargeForCharge) {
  net::SparseDeltaMsg msg;
  msg.round = 3;
  msg.origin = 0;
  msg.indices = {1, 4, 9, 16};
  msg.values = {0.1f, -0.2f, 0.3f, -0.4f};

  const auto frame = pre_encode(msg);
  EXPECT_EQ(frame.bytes, msg.encode());
  EXPECT_DOUBLE_EQ(frame.charged, msg.wire_bytes());

  // One fabric sends the typed message, the other forwards the pre-encoded
  // frame twice (as a ring hop would): payloads and charges must agree.
  Fabric direct(net::LinkModel(std::size_t{3}));
  direct.begin_round();
  direct.send(0, 1, msg);
  direct.end_round();

  Fabric framed(net::LinkModel(std::size_t{3}));
  framed.begin_round();
  framed.send_frame(0, 1, frame);
  framed.send_frame(1, 2, frame);
  framed.end_round();

  const auto want = direct.recv(1);
  const auto got1 = framed.recv(1);
  const auto got2 = framed.recv(2);
  ASSERT_TRUE(want && got1 && got2);
  EXPECT_EQ(got1->payload, want->payload);
  EXPECT_EQ(got2->payload, want->payload);
  EXPECT_EQ(net::SparseDeltaMsg::peek_origin(got2->payload), 0u);
  EXPECT_DOUBLE_EQ(framed.link().up_bytes(0), direct.link().up_bytes(0));
  EXPECT_DOUBLE_EQ(framed.link().up_bytes(1), msg.wire_bytes());
}

TEST(Fabric, ControlPlaneBytesStayOutOfWorkerTraffic) {
  Fabric fabric(net::LinkModel(uniform_bw(3, 1.0)));
  const net::NotifyMsg note{.round = 0, .mask_seed = 1, .peer = 2};
  fabric.send_control(2, 0, note);  // outside any round: allowed
  fabric.begin_round();
  fabric.send_control(2, 1, note);
  EXPECT_DOUBLE_EQ(fabric.end_round(), 0.0);  // control adds no round time
  EXPECT_DOUBLE_EQ(fabric.control_bytes(), 2 * note.wire_bytes());
  for (std::size_t node = 0; node < 3; ++node) {
    EXPECT_DOUBLE_EQ(fabric.link().worker_bytes(node), 0.0);
  }
  // ...but the messages were delivered.
  EXPECT_TRUE(fabric.recv(0).has_value());
  EXPECT_TRUE(fabric.recv(1).has_value());
}

TEST(Fabric, StagedChargesApplyInFixedOrderAcrossThreads) {
  // Concurrent sends from tasks owning disjoint sources must yield the exact
  // same cumulative statistics as the serial order — charges are staged per
  // source and applied source-ascending at end_round.
  const std::size_t n = 8;
  struct Snapshot {
    double seconds;
    std::vector<double> traffic;
  };
  auto run = [&](bool threaded) {
    Fabric fabric(net::LinkModel(uniform_bw(n, 2.0)));
    fabric.begin_round();
    auto send_from = [&](std::size_t src) {
      net::SparseDeltaMsg msg;
      msg.origin = static_cast<std::uint32_t>(src);
      for (std::size_t k = 0; k <= src; ++k) {
        msg.indices.push_back(static_cast<std::uint32_t>(k));
        msg.values.push_back(static_cast<float>(k) * 0.25f);
      }
      fabric.send(src, (src + 1) % n, msg);
      fabric.send(src, (src + n - 1) % n, msg);
    };
    if (threaded) {
      std::vector<std::thread> threads;
      for (std::size_t src = 0; src < n; ++src) {
        threads.emplace_back(send_from, src);
      }
      for (auto& t : threads) t.join();
    } else {
      for (std::size_t src = 0; src < n; ++src) send_from(src);
    }
    Snapshot snap;
    snap.seconds = fabric.end_round();
    for (std::size_t w = 0; w < n; ++w) {
      snap.traffic.push_back(fabric.link().worker_bytes(w));
    }
    return snap;
  };
  const auto serial = run(false);
  for (int repeat = 0; repeat < 4; ++repeat) {
    const auto threaded = run(true);
    EXPECT_EQ(serial.seconds, threaded.seconds);
    EXPECT_EQ(serial.traffic, threaded.traffic);
  }
}

TEST(Fabric, MulticastDeliversAndChargesPerRecipient) {
  Fabric fabric(net::LinkModel(std::size_t{4}));
  fabric.begin_round();
  net::FullModelMsg msg;
  msg.rank = 0;
  msg.params.assign(6, 2.0f);
  const std::size_t dsts[] = {1, 2, 3};
  fabric.multicast(0, dsts, msg);
  fabric.end_round();
  EXPECT_DOUBLE_EQ(fabric.link().up_bytes(0), 3 * msg.wire_bytes());
  for (const auto dst : dsts) {
    const auto env = fabric.recv(dst);
    ASSERT_TRUE(env.has_value());
    EXPECT_DOUBLE_EQ(fabric.link().down_bytes(dst), msg.wire_bytes());
    const auto back = net::FullModelMsg::decode(env->payload);
    EXPECT_EQ(back.params, msg.params);
  }
}

TEST(Fabric, ComputeModelMakesStragglersVisible) {
  net::LinkOptions opts;
  opts.compute_base_seconds = 0.5;
  Fabric fabric(net::LinkModel(uniform_bw(2, 1.0), opts));
  fabric.begin_round();
  fabric.compute(0);
  net::FullModelMsg msg;
  msg.rank = 0;
  msg.params.assign(250000, 1.0f);  // 1 MB payload → 1 s at 1 MB/s
  fabric.send(0, 1, msg);
  const double t = fabric.end_round();
  EXPECT_NEAR(t, 1.5, 1e-9);  // compute then transfer
}

TEST(Fabric, LatencyLengthensRounds) {
  net::LinkOptions opts;
  opts.latency_seconds = 0.25;
  Fabric with(net::LinkModel(uniform_bw(2, 1.0), opts));
  Fabric without(net::LinkModel(uniform_bw(2, 1.0)));
  net::FullModelMsg msg;
  msg.rank = 0;
  msg.params.assign(1000, 1.0f);
  with.begin_round();
  with.send(0, 1, msg);
  const double slow = with.end_round();
  without.begin_round();
  without.send(0, 1, msg);
  const double fast = without.end_round();
  EXPECT_NEAR(slow - fast, 0.25, 1e-12);
}

TEST(Fabric, ProtocolErrors) {
  Fabric fabric(net::LinkModel(std::size_t{2}));
  net::RoundEndMsg msg{.round = 0, .rank = 0};
  EXPECT_THROW(fabric.send(0, 1, msg), std::logic_error);  // outside round
  EXPECT_THROW(fabric.compute(0), std::logic_error);
  fabric.begin_round();
  EXPECT_THROW(fabric.begin_round(), std::logic_error);
  EXPECT_THROW(fabric.send(0, 0, msg), std::invalid_argument);
  EXPECT_THROW(fabric.send(0, 9, msg), std::invalid_argument);
  EXPECT_THROW(fabric.send_control(1, 1, msg), std::invalid_argument);
  fabric.end_round();
  EXPECT_THROW(fabric.end_round(), std::logic_error);
}

}  // namespace
}  // namespace saps::sim
