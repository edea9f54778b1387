// Conformance of the message-list round (Cube::exchange_list): delivery of
// rounds mixing dimensions and ports, and of rounds where each processor
// picks its own dimension (the Gray shift legs' shape); zero-length
// elision; charges / SimStats / trace events equal to exchange_allport (and
// to the dense exchange for one-dimension traffic) on every topology
// preset; and the fault contract — retries under drops, FaultError on a
// dead node, reroutes around a dead link — on the list round itself.
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include "hypercube/machine.hpp"

namespace vmp {
namespace {

[[nodiscard]] Cube::Options preset(TopologyKind kind) {
  Cube::Options o;
  o.topology = kind;
  return o;
}

/// Distinct, length-varying payloads: processor q's message on port idx
/// has (q + 2·idx) % 5 elements (so some are empty), each element encoding
/// (q, idx, position).
struct Traffic {
  std::vector<std::vector<double>> payload;  // [idx * procs + q]
  proc_t procs = 0;

  Traffic(proc_t p, std::size_t ports) : payload(p * ports), procs(p) {
    for (std::size_t idx = 0; idx < ports; ++idx)
      for (proc_t q = 0; q < p; ++q) {
        std::vector<double>& v = payload[idx * p + q];
        v.resize((q + 2 * idx) % 5);
        for (std::size_t t = 0; t < v.size(); ++t)
          v[t] = static_cast<double>(q) * 100.0 + static_cast<double>(idx) * 10.0 +
                 static_cast<double>(t);
      }
  }
  [[nodiscard]] std::span<const double> at(proc_t q, std::size_t idx) const {
    return payload[idx * procs + q];
  }
};

/// What each (dst, port) received in one round.
using Inbox = std::vector<std::vector<double>>;  // [port * procs + dst]

/// The list of every (port, src) message of `t` over `dims`, including
/// the empty ones (the round must elide them).
[[nodiscard]] std::vector<FaultMsg<double>> list_of(const Traffic& t,
                                                    std::span<const int> dims) {
  std::vector<FaultMsg<double>> msgs;
  for (std::size_t idx = 0; idx < dims.size(); ++idx)
    for (proc_t q = 0; q < t.procs; ++q) {
      const std::span<const double> s = t.at(q, idx);
      msgs.push_back(FaultMsg<double>{q, q ^ (proc_t{1} << dims[idx]),
                                      dims[idx], idx, s.data(), s.size()});
    }
  return msgs;
}

Inbox run_list(Cube& cube, const Traffic& t, std::span<const int> dims) {
  const std::vector<FaultMsg<double>> msgs = list_of(t, dims);
  Inbox got(dims.size() * cube.procs());
  cube.exchange_list<double>(
      msgs, dims.size() == 1 ? dims[0] : -1,
      [&](std::size_t i, std::span<const double> in) {
        got[msgs[i].port * cube.procs() + msgs[i].dst].assign(in.begin(),
                                                              in.end());
      });
  return got;
}

Inbox run_allport(Cube& cube, const Traffic& t, std::span<const int> dims) {
  Inbox got(dims.size() * cube.procs());
  cube.exchange_allport<double>(
      dims, [&](proc_t q, std::size_t idx) { return t.at(q, idx); },
      [&](proc_t q, std::size_t idx, std::span<const double> in) {
        got[idx * cube.procs() + q].assign(in.begin(), in.end());
      });
  return got;
}

void expect_same_machine_state(const Cube& a, const Cube& b) {
  EXPECT_EQ(a.clock().now_us(), b.clock().now_us());
  EXPECT_EQ(a.clock().comm_us(), b.clock().comm_us());
  EXPECT_EQ(a.clock().stats(), b.clock().stats());
  EXPECT_EQ(a.clock().tracer().events(), b.clock().tracer().events());
}

TEST(RoundList, MixedDimsAndPortsDeliverEveryMessageInOneRound) {
  Cube cube(4, CostParams::unit(), preset(TopologyKind::Hypercube));
  const int dims[] = {3, 0, 2};
  const Traffic t(cube.procs(), 3);
  const Inbox got = run_list(cube, t, dims);
  std::size_t live = 0, total = 0;
  for (std::size_t idx = 0; idx < 3; ++idx)
    for (proc_t q = 0; q < cube.procs(); ++q) {
      const proc_t src = q ^ (proc_t{1} << dims[idx]);
      const std::span<const double> want = t.at(src, idx);
      EXPECT_EQ(got[idx * cube.procs() + q],
                std::vector<double>(want.begin(), want.end()))
          << "dst " << q << " port " << idx;
      live += want.empty() ? 0 : 1;
      total += want.size();
    }
  // One all-port round: τ + max_len·t_c = 1 + 4 under the unit model.
  EXPECT_DOUBLE_EQ(cube.clock().now_us(), 5.0);
  EXPECT_EQ(cube.clock().stats().comm_steps, 1u);
  EXPECT_EQ(cube.clock().stats().messages, live);
  EXPECT_EQ(cube.clock().stats().elements_moved, total);
}

TEST(RoundList, ReceiverMayOverwriteTheBufferItsMessageExposed) {
  // Both ends of every dim-1 edge send their own buffer and receive into
  // it: staging before delivery makes this a clean swap.
  Cube cube(3, CostParams::unit(), preset(TopologyKind::Hypercube));
  std::vector<std::vector<double>> held(cube.procs());
  std::vector<FaultMsg<double>> msgs;
  for (proc_t q = 0; q < cube.procs(); ++q) {
    held[q] = {static_cast<double>(q), -static_cast<double>(q)};
    msgs.push_back(FaultMsg<double>{q, q ^ 2u, 1, 0, held[q].data(), 2});
  }
  cube.exchange_list<double>(msgs, 1,
                             [&](std::size_t i, std::span<const double> in) {
                               held[msgs[i].dst].assign(in.begin(), in.end());
                             });
  for (proc_t q = 0; q < cube.procs(); ++q)
    EXPECT_EQ(held[q], (std::vector<double>{static_cast<double>(q ^ 2u),
                                            -static_cast<double>(q ^ 2u)}));
}

TEST(RoundList, ZeroLengthMessagesAreElided) {
  Cube cube(3, CostParams::unit(), preset(TopologyKind::Hypercube));
  const double x[] = {1.0, 2.0};
  std::vector<FaultMsg<double>> msgs = {
      {0, 1, 0, 0, nullptr, 0}, {2, 3, 0, 0, x, 2}, {4, 6, 1, 1, x, 0}};
  std::vector<proc_t> delivered;
  cube.exchange_list<double>(msgs, -1,
                             [&](std::size_t i, std::span<const double>) {
                               delivered.push_back(msgs[i].dst);
                             });
  EXPECT_EQ(delivered, std::vector<proc_t>{3});
  EXPECT_EQ(cube.clock().stats().messages, 1u);
  EXPECT_DOUBLE_EQ(cube.clock().now_us(), 3.0);

  // A round of nothing but empty messages is free and delivers nothing.
  const double before = cube.clock().now_us();
  const SimStats stats = cube.clock().stats();
  msgs = {{0, 1, 0, 0, nullptr, 0}, {5, 4, 0, 0, x, 0}};
  cube.exchange_list<double>(msgs, 0, [&](std::size_t, std::span<const double>) {
    ADD_FAILURE() << "an empty message was delivered";
  });
  EXPECT_EQ(cube.clock().now_us(), before);
  EXPECT_EQ(cube.clock().stats(), stats);
  cube.exchange_list<double>(std::span<const FaultMsg<double>>{}, -1,
                             [](std::size_t, std::span<const double>) {});
  EXPECT_EQ(cube.clock().stats(), stats);
}

/// The shape of one store-and-forward leg of a Gray shift: every processor
/// but a few silent ones sends on a dimension of its own choosing, so one
/// round crosses several dimensions with no port structure.
struct PerProcessorDims {
  std::vector<std::vector<double>> payload;
  std::vector<FaultMsg<double>> msgs;

  explicit PerProcessorDims(proc_t procs) : payload(procs) {
    for (proc_t q = 0; q < procs; ++q) {
      if (q % 5 == 4) continue;  // silent this round
      const int dim = static_cast<int>(q % 3);
      payload[q].assign(q % 3 + 1, static_cast<double>(q));
      msgs.push_back(FaultMsg<double>{q, q ^ (proc_t{1} << dim), dim, 0,
                                      payload[q].data(), payload[q].size()});
    }
  }

  /// What each message delivered, in list order.
  [[nodiscard]] std::vector<std::vector<double>> run(Cube& cube) const {
    std::vector<std::vector<double>> got(msgs.size());
    cube.exchange_list<double>(msgs, -1,
                               [&](std::size_t i, std::span<const double> in) {
                                 got[i].assign(in.begin(), in.end());
                               });
    return got;
  }
};

TEST(RoundList, PerProcessorDimsWithSilentProcessorsTakeOneRound) {
  Cube cube(4, CostParams::unit(), preset(TopologyKind::Hypercube));
  const PerProcessorDims t(cube.procs());
  const std::vector<std::vector<double>> got = t.run(cube);
  std::size_t total = 0;
  for (std::size_t i = 0; i < t.msgs.size(); ++i) {
    EXPECT_EQ(got[i], t.payload[t.msgs[i].src]) << "message " << i;
    total += t.msgs[i].len;
  }
  // τ + max_len·t_c = 1 + 3 under the unit model.
  EXPECT_DOUBLE_EQ(cube.clock().now_us(), 4.0);
  EXPECT_EQ(cube.clock().stats().comm_steps, 1u);
  EXPECT_EQ(cube.clock().stats().messages, t.msgs.size());
  EXPECT_EQ(cube.clock().stats().elements_moved, total);
}

TEST(RoundList, RejectsMessagesOffACubeEdge) {
  Cube cube(3, CostParams::unit());
  const double x = 1.0;
  const auto none = [](std::size_t, std::span<const double>) {};
  const std::vector<FaultMsg<double>> wrong_dst = {{0, 3, 0, 0, &x, 1}};
  EXPECT_THROW(cube.exchange_list<double>(wrong_dst, 0, none), ContractError);
  const std::vector<FaultMsg<double>> bad_dim = {{0, 8, 3, 0, &x, 1}};
  EXPECT_THROW(cube.exchange_list<double>(bad_dim, 3, none), ContractError);
}

// --------------------------------------------------------------------------
// Twins: the list round against exchange_allport (and the dense one-port
// exchange) on identical traffic, on every topology preset.
// --------------------------------------------------------------------------

class RoundListTwin : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(RoundListTwin, ChargeStatsAndTraceMatchAllport) {
  Cube a(4, CostParams::cm2(), preset(GetParam()));
  Cube b(4, CostParams::cm2(), preset(GetParam()));
  a.clock().tracer().set_recording(true);
  b.clock().tracer().set_recording(true);
  const int all_port[] = {0, 1, 2, 3};
  const int one_port[] = {2};
  const int two_port[] = {3, 1};
  const Traffic t(a.procs(), 4);
  for (const std::span<const int> dims :
       {std::span<const int>(all_port), std::span<const int>(one_port),
        std::span<const int>(two_port)}) {
    EXPECT_EQ(run_list(a, t, dims), run_allport(b, t, dims));
  }
  EXPECT_GT(a.clock().stats().messages, 0u);
  expect_same_machine_state(a, b);
}

TEST_P(RoundListTwin, OneDimensionListMatchesTheDenseExchange) {
  Cube a(4, CostParams::cm2(), preset(GetParam()));
  Cube b(4, CostParams::cm2(), preset(GetParam()));
  a.clock().tracer().set_recording(true);
  b.clock().tracer().set_recording(true);
  const Traffic t(a.procs(), 1);
  for (const int d : {1, 3}) {
    const int dims[] = {d};
    const Inbox got = run_list(a, t, dims);
    Inbox want(a.procs());
    b.exchange<double>(
        d, [&](proc_t q) { return t.at(q, 0); },
        [&](proc_t q, std::span<const double> in) {
          want[q].assign(in.begin(), in.end());
        });
    EXPECT_EQ(got, want) << "d=" << d;
  }
  expect_same_machine_state(a, b);
}

INSTANTIATE_TEST_SUITE_P(Presets, RoundListTwin,
                         ::testing::Values(TopologyKind::Hypercube,
                                           TopologyKind::Mesh,
                                           TopologyKind::Torus,
                                           TopologyKind::Dragonfly));

// --------------------------------------------------------------------------
// The fault contract on the list round.
// --------------------------------------------------------------------------

TEST(RoundListFaults, DropsAreRetriedWithIdenticalDeliveries) {
  const int dims[] = {0, 2, 1};
  Cube plain(4, CostParams::cm2());
  Cube faulty(4, CostParams::cm2());
  faulty.enable_faults(FaultPlan::transient(21, /*drop=*/0.3, /*corrupt=*/0.1));
  const Traffic t(plain.procs(), 3);
  for (int round = 0; round < 4; ++round)
    EXPECT_EQ(run_list(faulty, t, dims), run_list(plain, t, dims));
  EXPECT_GT(faulty.clock().stats().fault_retries, 0u);
  EXPECT_GT(faulty.clock().stats().fault_chksum_fails, 0u);
  EXPECT_GT(faulty.clock().now_us(), plain.clock().now_us());
  // Every retransmission is one more message on the wire.
  EXPECT_EQ(faulty.clock().stats().messages,
            plain.clock().stats().messages +
                faulty.clock().stats().fault_retries);
}

TEST(RoundListFaults, FaultedListMatchesFaultedAllportEventForEvent) {
  const int dims[] = {1, 3};
  Cube a(4, CostParams::cm2());
  Cube b(4, CostParams::cm2());
  for (Cube* c : {&a, &b}) {
    c->clock().tracer().set_recording(true);
    c->enable_faults(FaultPlan::transient(5, 0.25, 0.1, 0.1, 30.0));
  }
  const Traffic t(a.procs(), 2);
  for (int round = 0; round < 4; ++round)
    EXPECT_EQ(run_list(a, t, dims), run_allport(b, t, dims));
  EXPECT_GT(a.clock().stats().fault_retries, 0u);
  expect_same_machine_state(a, b);
}

TEST(RoundListFaults, DeadNodeThrows) {
  FaultPlan plan;
  plan.node_kills.push_back({/*from_round=*/0, /*node=*/5});
  Cube cube(3, CostParams::cm2());
  cube.enable_faults(plan);
  const double x = 1.0;
  const std::vector<FaultMsg<double>> msgs = {{4, 5, 0, 0, &x, 1}};
  EXPECT_THROW(cube.exchange_list<double>(
                   msgs, 0, [](std::size_t, std::span<const double>) {}),
               FaultError);
}

TEST(RoundListFaults, PerProcessorDimsRetryAndRerouteOnEveryPreset) {
  // Drops and a dead link in the irregular shape at once: every message
  // still arrives exactly once with its own payload.
  for (const TopologyKind kind :
       {TopologyKind::Hypercube, TopologyKind::Mesh, TopologyKind::Torus,
        TopologyKind::Dragonfly}) {
    Cube plain(4, CostParams::cm2(), preset(kind));
    Cube faulty(4, CostParams::cm2(), preset(kind));
    std::vector<Hop> hops;
    faulty.topology().route(0, 1, hops);  // processor 0 sends on dim 0
    ASSERT_FALSE(hops.empty());
    FaultPlan plan = FaultPlan::transient(41, /*drop=*/0.3, /*corrupt=*/0.0);
    plan.link_kills.push_back({/*from_round=*/0, hops[0].from, hops[0].port});
    faulty.enable_faults(plan);
    const PerProcessorDims t(plain.procs());
    for (int round = 0; round < 3; ++round)
      EXPECT_EQ(t.run(faulty), t.run(plain)) << faulty.topology().name();
    EXPECT_GT(faulty.clock().stats().fault_retries, 0u)
        << faulty.topology().name();
    EXPECT_GT(faulty.clock().stats().fault_reroutes, 0u)
        << faulty.topology().name();
  }
}

TEST(RoundListFaults, DeadLinkIsReroutedWithIdenticalDeliveries) {
  FaultPlan plan;
  plan.link_kills.push_back({/*from_round=*/0, /*node=*/0, /*dim=*/0});
  const int dims[] = {0, 1};
  Cube plain(3, CostParams::cm2(), preset(TopologyKind::Hypercube));
  Cube faulty(3, CostParams::cm2(), preset(TopologyKind::Hypercube));
  faulty.enable_faults(plan);
  const Traffic t(plain.procs(), 2);
  EXPECT_EQ(run_list(faulty, t, dims), run_list(plain, t, dims));
  EXPECT_GT(faulty.clock().stats().fault_reroutes, 0u);
  EXPECT_GT(faulty.clock().now_us(), plain.clock().now_us())
      << "the 3-hop detour must cost more than the dead direct hop";
}

}  // namespace
}  // namespace vmp
