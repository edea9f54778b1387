// Per-layer host-time probes: each times calls into one module's public
// functions at the shapes its workload uses, on the workload's own
// machine, fault-free and untraced.  Every timed batch is a span under
// the traced run's "probes" span.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "vmprim.hpp"
#include "workloads.hpp"

namespace perfbench {

struct LayerTimes {
  double extract_us = 0, insert_us = 0, distribute_us = 0, reduce_us = 0;
  double dot_rows_ns = 0, dot_rows_bytes = 0, dot_rows_flops = 0;
  double axpy_ns = 0;
  double broadcast_us = 0, allreduce_us = 0, shift_s1_us = 0, shift_sk_us = 0;
  double realign_us = 0, load_ms = 0;
  double exchange_1elem_ns = 0, exchange_msg_ns = 0, step_empty_ns = 0;
  double fault_overhead_ns = 0;
  double matmul_cost_us = 0;
  int matmul_pick = 0;  ///< 1 rank-1, 2 SUMMA, 3 hyper
};

class Prober {
 public:
  Prober(Spans* spans, double budget_s)
      : spans_(spans), budget_ns_(static_cast<std::int64_t>(budget_s * 1e9)) {}

  /// Median ns per call of `fn`.  Calls run in batches of at least 50 µs
  /// (so clock resolution never dominates) for this probe's time budget,
  /// after two warm-up calls that fill pools and lazily built tables.
  template <class F>
  double ns_p50(const char* name, F&& fn) {
    fn();
    fn();
    std::size_t batch = 1;
    for (;;) {
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < batch; ++i) fn();
      if (now_ns() - t0 >= 50'000 || batch >= (std::size_t{1} << 20)) break;
      batch *= 2;
    }
    std::vector<double> per_call;
    const std::int64_t end = now_ns() + budget_ns_;
    do {
      Spans::Scope s(spans_, name);
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < batch; ++i) fn();
      per_call.push_back(static_cast<double>(now_ns() - t0) /
                         static_cast<double>(batch));
    } while ((now_ns() < end || per_call.size() < 5) &&
             per_call.size() < 100000);
    return median(std::move(per_call));
  }

 private:
  Spans* spans_;
  std::int64_t budget_ns_;
};

/// Time every layer probe on `w`'s machine.  `msg_len` is the workload's
/// median message length (elements) from a traced solve.
inline LayerTimes probe_layers(Workload& w, std::uint64_t seed,
                               std::size_t msg_len, Spans* spans,
                               double budget_s) {
  using vmp::Axis;
  using vmp::proc_t;
  constexpr int kProbes = 17;
  Prober p(spans, budget_s / kProbes);
  Spans::Scope all(spans, "probes");
  vmp::Cube& cube = w.cube();
  vmp::Grid& grid = w.grid();
  cube.disable_faults();
  LayerTimes r;

  // embed: host → machine load of a matrix of the workload's shape.
  const Shape sh = w.shape();
  const std::vector<double> host =
      vmp::random_matrix(sh.rows, sh.cols, substream(seed, 9));
  vmp::DistMatrix<double> M(grid, sh.rows, sh.cols, sh.layout);
  r.load_ms = p.ns_p50("embed.load", [&] { M.load(host); }) / 1e6;

  // core: the four primitives (row forms) and the two hot kernels.
  std::size_t i = 0;
  r.extract_us = p.ns_p50("core.extract", [&] {
                   (void)vmp::extract(M, Axis::Row, i);
                   i = (i + 1) % sh.rows;
                 }) / 1e3;
  const vmp::DistVector<double> row = vmp::extract(M, Axis::Row, 0);
  r.insert_us = p.ns_p50("core.insert", [&] {
                  vmp::insert(M, Axis::Row, i, row);
                  i = (i + 1) % sh.rows;
                }) / 1e3;
  r.distribute_us = p.ns_p50("core.distribute", [&] {
                      (void)vmp::distribute(row, Axis::Row, sh.rows,
                                            sh.layout.rows);
                    }) / 1e3;
  r.reduce_us = p.ns_p50("core.reduce", [&] {
                  (void)vmp::reduce(M, Axis::Row, vmp::Plus<double>{});
                }) / 1e3;

  const std::size_t lrn = M.lrows(0), lcn = M.lcols(0);
  const std::span<const double> blk = std::as_const(M).block(0);
  std::vector<double> x(lcn, 0.5), out(lrn, 0.0), y(lcn, 0.0);
  r.dot_rows_ns = p.ns_p50("core.dot_rows", [&] {
    vmp::kern::dot_rows(blk.first(lrn * lcn), lrn, lcn,
                        std::span<const double>(x), std::span<double>(out));
  });
  r.dot_rows_bytes = 8.0 * static_cast<double>(lrn * lcn + lcn + lrn);
  r.dot_rows_flops = 2.0 * static_cast<double>(lrn * lcn);
  r.axpy_ns = p.ns_p50("core.axpy", [&] {
    vmp::kern::axpy(std::span<double>(y), 1e-3, std::span<const double>(x));
  });

  // comm: the collectives an extract / reduce issues, at its payload, and
  // the hyper-systolic ring shifts at one block per processor.
  vmp::DistBuffer<double> vb(cube, lcn);
  r.broadcast_us = p.ns_p50("comm.broadcast_auto", [&] {
                     vmp::broadcast_auto(cube, vb, grid.within_col(), 0,
                                         [&](proc_t) { return lcn; });
                   }) / 1e3;
  r.allreduce_us = p.ns_p50("comm.allreduce_auto", [&] {
                     vmp::allreduce_auto(cube, vb, grid.within_row(),
                                         vmp::Plus<double>{});
                   }) / 1e3;
  vmp::DistBuffer<double> sb(cube, lrn * lcn);
  const int K = 1 << ((cube.dim() + 1) / 2);
  r.shift_s1_us = p.ns_p50("comm.shift_blocks_s1", [&] {
                    vmp::shift_blocks(cube, sb, grid.whole(), 1,
                                      vmp::RingOrder::Gray);
                  }) / 1e3;
  r.shift_sk_us = p.ns_p50("comm.shift_blocks_sK", [&] {
                    vmp::shift_blocks(cube, sb, grid.whole(), K,
                                      vmp::RingOrder::Gray);
                  }) / 1e3;

  // embed: the Rows → Cols change CG makes once per iteration.
  const vmp::DistVector<double> v(grid, sh.rows, vmp::Align::Rows,
                                  sh.layout.rows);
  r.realign_us = p.ns_p50("embed.realign", [&] {
                   (void)vmp::realign(v, vmp::Align::Cols, sh.layout.cols);
                 }) / 1e3;

  // hypercube: one round along dimension 0, and one empty compute step.
  auto exchange_ns = [&](const char* name, std::size_t len) {
    vmp::DistBuffer<double> eb(cube, len);
    return p.ns_p50(name, [&] {
      cube.exchange<double>(
          0, [&](proc_t q) { return std::span<const double>(eb.tile(q)); },
          [&](proc_t q, std::span<const double> d) {
            vmp::kern::copy(d, eb.tile(q));
          });
    });
  };
  r.exchange_1elem_ns = exchange_ns("hypercube.exchange_1elem", 1);
  r.exchange_msg_ns = exchange_ns("hypercube.exchange_msg", msg_len);
  r.step_empty_ns = p.ns_p50("hypercube.step_empty", [&] {
    cube.compute(0, 0, [](proc_t) {});
  });

  // fault: the same exchange with the transient plan attached.
  cube.enable_faults(transient_plan(seed));
  r.fault_overhead_ns =
      exchange_ns("fault.exchange_msg", msg_len) - r.exchange_msg_ns;
  cube.disable_faults();

  // algorithms: the host cost of pricing the three matmul backends for a
  // product of this shape on a 1-D Block-row grid of this machine, the one
  // grid where all three are eligible.
  vmp::Grid line(cube, cube.dim(), 0);
  const vmp::DistMatrix<double> A1(line, sh.rows, sh.cols);
  const vmp::DistMatrix<double> B1(line, sh.cols, sh.cols);
  vmp::MatmulCost c{};
  r.matmul_cost_us = p.ns_p50("algorithms.matmul_cost", [&] {
                       c = vmp::matmul_cost(A1, B1);
                     }) / 1e3;
  // matmul_auto's rule: ties prefer hyper, then SUMMA.
  r.matmul_pick = c.hyper <= c.summa && c.hyper <= c.rank1 ? 3
                  : c.summa <= c.rank1                     ? 2
                                                           : 1;

  // Keep the kernel outputs observable.
  volatile double sink = out[0] + y[0];
  (void)sink;
  return r;
}

}  // namespace perfbench
