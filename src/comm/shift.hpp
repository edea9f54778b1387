/// \file shift.hpp
/// \brief Cyclic block shifts ("torus rotation") at arbitrary strides, and
///        the Gray-code payoff.
///
/// Shifting every block `s` positions along a ring is the basic mesh/torus
/// operation (alternating-direction methods, systolic phases) and the whole
/// communication alphabet of the hyper-systolic schedules in
/// algorithms/matmul.cpp: a shift base {0, 1, …, K−1} of unit strides plus
/// K-stride streaming shifts, K ≈ √p.  With processors ordered by the
/// binary-reflected Gray code a unit shift is ONE lockstep round (ring
/// neighbours are cube neighbours); a stride-s shift is the
/// store-and-forward dimension-order relay it would be on the wire — H
/// lockstep list rounds (Cube::exchange_list), H = max Hamming distance of
/// any (src, dest) pair, round j carrying leg j of every in-flight
/// message's dimension-order path (at most one message per node per
/// round; on routed topologies the most loaded link paces it).  Every leg
/// goes through the machine's fault recovery like any other round.  With the
/// natural binary ordering even a unit shift degrades to a full
/// dimension-order routing sweep.  bench_collectives measures both gaps —
/// the reason every mesh embedding in the hypercube era was Gray-coded.
#pragma once

#include <bit>
#include <unordered_map>

#include "comm/collectives.hpp"
#include "hypercube/gray.hpp"

namespace vmp {

enum class RingOrder {
  Gray,    ///< ring position r lives on processor gray_encode(r)
  Binary,  ///< ring position r lives on processor r
};

/// Processor holding ring position r of a 2^k ring.
[[nodiscard]] inline proc_t ring_proc(RingOrder order, std::uint32_t r) {
  return order == RingOrder::Gray ? gray_encode(r) : r;
}

/// Ring position held by processor q.
[[nodiscard]] inline std::uint32_t ring_pos(RingOrder order, proc_t q) {
  return order == RingOrder::Gray ? gray_decode(q) : q;
}

namespace shift_detail {

/// `by` reduced to a forward stride in [0, P).
[[nodiscard]] inline std::uint32_t norm_step(int by, std::uint32_t P) {
  const int p = static_cast<int>(P);
  return static_cast<std::uint32_t>(((by % p) + p) % p);
}

/// The round-`j` leg of the dimension-order path q → dst (requires
/// hamming_distance(q, dst) > j): the cube node the message occupies after
/// j legs and the dimension it crosses next.  Legs cross the differing
/// bits in ascending dimension order, the store-and-forward discipline
/// every routing sweep in this codebase uses.
struct Leg {
  proc_t node;
  int dim;
};
[[nodiscard]] inline Leg leg_of(proc_t q, proc_t dst, int j) {
  std::uint32_t x = q ^ dst;
  std::uint32_t applied = 0;
  for (int t = 0; t < j; ++t) {
    const std::uint32_t low = x & (0u - x);
    applied |= low;
    x ^= low;
  }
  return Leg{static_cast<proc_t>(q ^ applied), std::countr_zero(x)};
}

}  // namespace shift_detail

/// Number of charged lockstep rounds of a Gray-order shift by `by` within
/// subcubes of `sc`: the maximum Hamming distance between any processor
/// and its destination.  1 for unit strides (the Gray payoff); at most
/// sc.k() for any stride.
[[nodiscard]] inline int shift_rounds(const SubcubeSet& sc, int by) {
  const std::uint32_t P = sc.size();
  if (sc.k() == 0) return 0;
  const std::uint32_t step = shift_detail::norm_step(by, P);
  if (step == 0) return 0;
  int rounds = 0;
  for (std::uint32_t r = 0; r < P; ++r)
    rounds = std::max(rounds, hamming_distance(gray_encode(r),
                                               gray_encode((r + step) % P)));
  return rounds;
}

/// Cyclically shift each processor's whole local array `by` ring positions
/// (negative = backward) within each subcube of `sc`.  Gray order: H
/// store-and-forward dimension-order list rounds (H = 1 for unit strides).
/// Binary order: a full dimension-order combining-router sweep.
template <class T>
void shift_blocks(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
                  int by, RingOrder order) {
  const int k = sc.k();
  if (k == 0) return;
  const std::uint32_t P = sc.size();
  const std::uint32_t step = shift_detail::norm_step(by, P);
  if (step == 0) return;
  VMP_TRACE(cube, "shift");

  const auto dest_of = [&](proc_t q) -> proc_t {
    const std::uint32_t pos = ring_pos(order, sc.rank(q));
    return sc.with_rank(q, ring_proc(order, (pos + step) % P));
  };

  if (order == RingOrder::Gray) {
    // Store-and-forward relay: round j is one list round carrying leg j of
    // every message still in flight, each crossing the lowest bit in which
    // its node still differs from its destination (a unit Gray stride is
    // exactly one round).  Messages stay in ascending source order and
    // carry their source in `port`.  A final leg delivers into buf; an
    // earlier one into the in-flight store, one tile per node of a pooled
    // slab lease.  The list round stages every payload before delivering
    // any, so the first leg reads buf's tiles in place.
    std::vector<FaultMsg<T>>& msgs = cube.scratch<std::vector<FaultMsg<T>>>();
    msgs.clear();
    int rounds = 0;
    cube.each_proc([&](proc_t q) {
      const proc_t dst = dest_of(q);
      const int dim = std::countr_zero(q ^ dst);
      const std::span<const T> mine = buf.tile(q);
      msgs.push_back(FaultMsg<T>{q, q ^ (proc_t{1} << dim), dim, q,
                                 mine.data(), mine.size()});
      if (!mine.empty())
        rounds = std::max(rounds, hamming_distance(q, dst));
    });
    const std::size_t stride = buf.stride();
    const BufferPool::Block lease = cube.buffers().acquire_slab(
        std::size_t{cube.procs()} * stride * sizeof(T));
    T* held = static_cast<T*>(lease.data());
    for (int j = 0; j < rounds; ++j) {
      cube.exchange_list<T>(
          msgs, -1, [&](std::size_t i, std::span<const T> in) {
            const FaultMsg<T>& m = msgs[i];
            if (m.dst == dest_of(static_cast<proc_t>(m.port))) {
              buf.assign(m.dst, in);
            } else {
              kern::copy(in, std::span<T>(held + std::size_t{m.dst} * stride,
                                          in.size()));
            }
          });
      std::size_t live = 0;
      for (const FaultMsg<T>& m : msgs) {
        const proc_t dst = dest_of(static_cast<proc_t>(m.port));
        if (m.len == 0) {
          buf.clear(dst);  // an empty tile moves without a message
          continue;
        }
        if (m.dst == dst) continue;
        const int dim = std::countr_zero(m.dst ^ dst);
        msgs[live++] = FaultMsg<T>{m.dst, m.dst ^ (proc_t{1} << dim), dim,
                                   m.port, held + std::size_t{m.dst} * stride,
                                   m.len};
      }
      msgs.resize(live);
    }
    if (MetricsRegistry& mx = cube.metrics(); mx.enabled()) {
      mx.counter("shift.calls", MetricClass::Sim).add(1);
      mx.counter("shift.rounds", MetricClass::Sim)
          .add(static_cast<std::uint64_t>(rounds));
    }
    return;
  }

  // Binary order: ring neighbours may differ in many bits — route.  The
  // whole sweep (k routing rounds) runs inside one team activation.
  const auto batch = cube.session();
  DistBuffer<RouteItem<T>> items(cube);
  items.reserve_each(max_local_len(cube, buf));
  cube.each_proc([&](proc_t q) {
    const proc_t dst = dest_of(q);
    const std::span<const T> mine = buf.tile(q);
    for (std::size_t t = 0; t < mine.size(); ++t)
      items.push_back(q, RouteItem<T>{dst, t, mine[t]});
  });
  route_within(cube, items, sc);
  cube.each_proc([&](proc_t q) {
    buf.assign(q, items.len(q), T{});
    kern::scatter_tagged(items.tile(q), buf.tile(q));
  });
}

/// Simulated cost of one Gray-order shift_blocks call moving `elems`
/// elements per processor, priced with the cube's CostParams and physical
/// topology but WITHOUT advancing the clock: the same store-and-forward
/// rounds the real call charges — `τ + max·t_c` of the busiest processor
/// on the unit-hop preset, start-up dilation plus the most loaded directed
/// link on routed presets.  This is the shift term of the matmul_auto
/// selector's backend models.
[[nodiscard]] inline double shift_cost_model(Cube& cube, const SubcubeSet& sc,
                                             int by, std::size_t elems) {
  const int k = sc.k();
  if (k == 0 || elems == 0) return 0.0;
  const std::uint32_t P = sc.size();
  const std::uint32_t step = shift_detail::norm_step(by, P);
  if (step == 0) return 0.0;
  const CostParams& cp = cube.costs();
  const bool routed = !cube.unit_hop();
  const Topology& topo = cube.topology();
  const auto dest_of = [&](proc_t q) -> proc_t {
    const std::uint32_t pos = ring_pos(RingOrder::Gray, sc.rank(q));
    return sc.with_rank(q, ring_proc(RingOrder::Gray, (pos + step) % P));
  };
  int rounds = 0;
  for (proc_t q = 0; q < cube.procs(); ++q)
    rounds = std::max(rounds, hamming_distance(q, dest_of(q)));
  double cost = 0.0;
  std::vector<std::size_t> node_load(cube.procs(), 0);
  std::unordered_map<std::uint64_t, double> link_load;
  std::vector<Hop> hops;
  for (int j = 0; j < rounds; ++j) {
    std::fill(node_load.begin(), node_load.end(), std::size_t{0});
    link_load.clear();
    double startup_units = 0.0;
    std::size_t max_node = 0;
    bool any = false;
    for (proc_t q = 0; q < cube.procs(); ++q) {
      const proc_t dst = dest_of(q);
      if (hamming_distance(q, dst) <= j) continue;
      any = true;
      const shift_detail::Leg leg = shift_detail::leg_of(q, dst, j);
      node_load[leg.node] += elems;
      max_node = std::max(max_node, node_load[leg.node]);
      if (routed) {
        hops.clear();
        topo.route(leg.node, leg.node ^ (proc_t{1} << leg.dim), hops);
        double su = 0.0;
        for (const Hop& h : hops) {
          const AxisCharge c = topo.axis_charge(h.axis);
          su += c.startup_mult;
          const std::uint64_t lid =
              2 * topo.link_id(h.from, h.port) + (h.from < h.to ? 0 : 1);
          link_load[lid] += static_cast<double>(elems) * c.per_elem_mult;
        }
        startup_units = std::max(startup_units, su);
      }
    }
    if (!any) continue;
    if (!routed) {
      cost += cp.startup_us + static_cast<double>(max_node) * cp.per_elem_us;
    } else {
      double worst = 0.0;
      for (const auto& [lid, load] : link_load) worst = std::max(worst, load);
      cost += cp.startup_us * startup_units + cp.per_elem_us * worst;
    }
  }
  return cost;
}

}  // namespace vmp
