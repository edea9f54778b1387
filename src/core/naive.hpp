/// \file naive.hpp
/// \brief Naive implementations of the primitives: one general-router
///        packet per matrix element, no alignment, no message combining.
///
/// This is the baseline the paper's optimized primitives beat "by almost an
/// order of magnitude": every element of the operand travels as its own
/// packet through the store-and-forward router (comm/router.hpp), paying
/// the full router start-up on every hop, and vectors stay in the Linear
/// host embedding so nothing is ever replicated or aligned.  Results are
/// bit-identical to the optimized primitives for sum-reductions up to
/// floating-point association; correctness tests compare against them.
#pragma once

#include <cmath>

#include "comm/ops.hpp"
#include "comm/router.hpp"
#include "embed/dist_matrix.hpp"
#include "embed/dist_vector.hpp"
#include "obs/trace.hpp"

namespace vmp {

/// Owner processor of global index g in a Linear vector.
[[nodiscard]] inline proc_t v_owner(const DistVector<double>& v,
                                    std::size_t g) {
  return static_cast<proc_t>(v.map().owner(g));
}

/// out[i][j] = v[j] — one packet per matrix element, from the Linear owner
/// of v[j] to the block owner of (i, j).
[[nodiscard]] inline DistMatrix<double> naive_distribute_rows(
    const DistVector<double>& v, std::size_t nrows, MatrixLayout layout = {}) {
  VMP_REQUIRE(v.align() == Align::Linear,
              "naive primitives use Linear vectors");
  Grid& grid = v.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "naive_distribute_rows");
  DistMatrix<double> out(grid, nrows, v.n(), layout);
  std::vector<std::vector<Packet>> inject(cube.procs());
  cube.each_proc([&](proc_t q) {
    const std::uint32_t C = grid.pcol(q);
    const std::size_t lrn = out.lrows(q), lcn = out.lcols(q);
    for (std::size_t lc = 0; lc < lcn; ++lc) {
      const std::size_t j = out.colmap().global(C, lc);
      const proc_t src = v.map().owner(j);
      const double value = v.at(j);
      for (std::size_t lr = 0; lr < lrn; ++lr)
        inject[src].push_back(Packet{q, lr * lcn + lc, value});
    }
  });
  NaiveRouter router(cube);
  router.run(std::move(inject), [&](proc_t dst, std::uint64_t tag, double x) {
    out.data().tile(dst)[tag] = x;
  });
  return out;
}

/// out[j] = sum_i A[i][j], result Linear — one packet per matrix element to
/// the Linear owner of index j, accumulated on arrival.
[[nodiscard]] inline DistVector<double> naive_reduce_cols_sum(
    const DistMatrix<double>& A) {
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "naive_reduce_cols_sum");
  DistVector<double> out(grid, A.ncols(), Align::Linear);
  std::vector<std::vector<Packet>> inject(cube.procs());
  cube.each_proc([&](proc_t q) {
    const std::uint32_t C = grid.pcol(q);
    const std::size_t lrn = A.lrows(q), lcn = A.lcols(q);
    const std::span<const double> blk = A.block(q);
    for (std::size_t lr = 0; lr < lrn; ++lr)
      for (std::size_t lc = 0; lc < lcn; ++lc) {
        const std::size_t j = A.colmap().global(C, lc);
        inject[q].push_back(Packet{v_owner(out, j), out.map().local(j),
                                   blk[lr * lcn + lc]});
      }
  });
  NaiveRouter router(cube);
  router.run(std::move(inject), [&](proc_t dst, std::uint64_t tag, double x) {
    out.data().tile(dst)[tag] += x;
  });
  return out;
}

/// out[j] = A[i][j], result Linear — one packet per row element.
[[nodiscard]] inline DistVector<double> naive_extract_row(
    const DistMatrix<double>& A, std::size_t i) {
  VMP_REQUIRE(i < A.nrows(), "row index out of range");
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "naive_extract_row");
  DistVector<double> out(grid, A.ncols(), Align::Linear);
  const std::uint32_t R = A.rowmap().owner(i);
  const std::size_t lr = A.rowmap().local(i);
  std::vector<std::vector<Packet>> inject(cube.procs());
  cube.each_proc([&](proc_t q) {
    if (grid.prow(q) != R) return;
    const std::uint32_t C = grid.pcol(q);
    const std::size_t lcn = A.lcols(q);
    const std::span<const double> blk = A.block(q);
    for (std::size_t lc = 0; lc < lcn; ++lc) {
      const std::size_t j = A.colmap().global(C, lc);
      inject[q].push_back(
          Packet{v_owner(out, j), out.map().local(j), blk[lr * lcn + lc]});
    }
  });
  NaiveRouter router(cube);
  router.run(std::move(inject), [&](proc_t dst, std::uint64_t tag, double x) {
    out.data().tile(dst)[tag] = x;
  });
  return out;
}

/// A[i][j] = v[j] for one row i, v Linear — one packet per element.
inline void naive_insert_row(DistMatrix<double>& A, std::size_t i,
                             const DistVector<double>& v) {
  VMP_REQUIRE(i < A.nrows(), "row index out of range");
  VMP_REQUIRE(v.align() == Align::Linear && v.n() == A.ncols(),
              "naive_insert_row needs a Linear vector of length ncols");
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "naive_insert_row");
  const std::uint32_t R = A.rowmap().owner(i);
  const std::size_t lr = A.rowmap().local(i);
  std::vector<std::vector<Packet>> inject(cube.procs());
  for (std::size_t j = 0; j < v.n(); ++j) {
    const proc_t dst = grid.at(R, A.colmap().owner(j));
    const std::size_t lcn = A.colmap().size(A.colmap().owner(j));
    inject[v.map().owner(j)].push_back(
        Packet{dst, lr * lcn + A.colmap().local(j), v.at(j)});
  }
  NaiveRouter router(cube);
  router.run(std::move(inject), [&](proc_t dst, std::uint64_t tag, double x) {
    A.data().tile(dst)[tag] = x;
  });
}

/// out[i][j] = v[i] — the column-direction twin of naive_distribute_rows.
[[nodiscard]] inline DistMatrix<double> naive_distribute_cols(
    const DistVector<double>& v, std::size_t ncols, MatrixLayout layout = {}) {
  VMP_REQUIRE(v.align() == Align::Linear,
              "naive primitives use Linear vectors");
  Grid& grid = v.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "naive_distribute_cols");
  DistMatrix<double> out(grid, v.n(), ncols, layout);
  std::vector<std::vector<Packet>> inject(cube.procs());
  cube.each_proc([&](proc_t q) {
    const std::uint32_t R = grid.prow(q);
    const std::size_t lrn = out.lrows(q), lcn = out.lcols(q);
    for (std::size_t lr = 0; lr < lrn; ++lr) {
      const std::size_t i = out.rowmap().global(R, lr);
      const proc_t src = v.map().owner(i);
      const double value = v.at(i);
      for (std::size_t lc = 0; lc < lcn; ++lc)
        inject[src].push_back(Packet{q, lr * lcn + lc, value});
    }
  });
  NaiveRouter router(cube);
  router.run(std::move(inject), [&](proc_t dst, std::uint64_t tag, double x) {
    out.data().tile(dst)[tag] = x;
  });
  return out;
}

/// out[i] = A[i][j] for one column j, result Linear.
[[nodiscard]] inline DistVector<double> naive_extract_col(
    const DistMatrix<double>& A, std::size_t j) {
  VMP_REQUIRE(j < A.ncols(), "column index out of range");
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "naive_extract_col");
  DistVector<double> out(grid, A.nrows(), Align::Linear);
  const std::uint32_t C = A.colmap().owner(j);
  const std::size_t lc = A.colmap().local(j);
  std::vector<std::vector<Packet>> inject(cube.procs());
  cube.each_proc([&](proc_t q) {
    if (grid.pcol(q) != C) return;
    const std::uint32_t R = grid.prow(q);
    const std::size_t lcn = A.lcols(q);
    const std::size_t lrn = A.lrows(q);
    const std::span<const double> blk = A.block(q);
    for (std::size_t lr = 0; lr < lrn; ++lr) {
      const std::size_t i = A.rowmap().global(R, lr);
      inject[q].push_back(
          Packet{v_owner(out, i), out.map().local(i), blk[lr * lcn + lc]});
    }
  });
  NaiveRouter router(cube);
  router.run(std::move(inject), [&](proc_t dst, std::uint64_t tag, double x) {
    out.data().tile(dst)[tag] = x;
  });
  return out;
}

/// A[i][j] = v[i] for one column j, v Linear.
inline void naive_insert_col(DistMatrix<double>& A, std::size_t j,
                             const DistVector<double>& v) {
  VMP_REQUIRE(j < A.ncols(), "column index out of range");
  VMP_REQUIRE(v.align() == Align::Linear && v.n() == A.nrows(),
              "naive_insert_col needs a Linear vector of length nrows");
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "naive_insert_col");
  const std::uint32_t C = A.colmap().owner(j);
  const std::size_t lc = A.colmap().local(j);
  std::vector<std::vector<Packet>> inject(cube.procs());
  for (std::size_t i = 0; i < v.n(); ++i) {
    const std::uint32_t R = A.rowmap().owner(i);
    const proc_t dst = grid.at(R, C);
    const std::size_t lcn = A.colmap().size(C);
    inject[v.map().owner(i)].push_back(
        Packet{dst, A.rowmap().local(i) * lcn + lc, v.at(i)});
  }
  NaiveRouter router(cube);
  router.run(std::move(inject), [&](proc_t dst, std::uint64_t tag, double x) {
    A.data().tile(dst)[tag] = x;
  });
}

/// Located max-|value| over v[lo..n): every candidate element travels to
/// processor 0 as its own packet and is folded on arrival, then the result
/// is fetched by the front end — the naive reduction pattern.
[[nodiscard]] inline ValueIndex<double> naive_argmax_abs(
    const DistVector<double>& v, std::size_t lo) {
  VMP_REQUIRE(v.align() == Align::Linear, "naive primitives use Linear vectors");
  Grid& grid = v.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "naive_argmax_abs");
  std::vector<std::vector<Packet>> inject(cube.procs());
  for (std::size_t g = lo; g < v.n(); ++g)
    inject[v.map().owner(g)].push_back(Packet{0, g, v.at(g)});
  const MaxLoc<double> op;
  ValueIndex<double> best = op.identity();
  NaiveRouter router(cube);
  router.run(std::move(inject), [&](proc_t, std::uint64_t tag, double x) {
    best = op.combine(
        best, ValueIndex<double>{std::abs(x), static_cast<std::int64_t>(tag)});
  });
  front_end_transfer(cube, 1);  // the front end fetches the result
  return best;
}

/// Exchange rows i and j through the general router, one packet per element.
inline void naive_swap_rows(DistMatrix<double>& A, std::size_t i,
                            std::size_t j) {
  VMP_REQUIRE(i < A.nrows() && j < A.nrows(), "row index out of range");
  if (i == j) return;
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "naive_swap_rows");
  std::vector<std::vector<Packet>> inject(cube.procs());
  for (std::size_t g = 0; g < A.ncols(); ++g) {
    const proc_t qi = A.owner(i, g);
    const proc_t qj = A.owner(j, g);
    const std::size_t slot_i =
        A.rowmap().local(i) * A.lcols(qi) + A.colmap().local(g);
    const std::size_t slot_j =
        A.rowmap().local(j) * A.lcols(qj) + A.colmap().local(g);
    inject[qi].push_back(Packet{qj, slot_j, A.data().tile(qi)[slot_i]});
    inject[qj].push_back(Packet{qi, slot_i, A.data().tile(qj)[slot_j]});
  }
  NaiveRouter router(cube);
  router.run(std::move(inject), [&](proc_t dst, std::uint64_t tag, double x) {
    A.data().tile(dst)[tag] = x;
  });
}

/// y = A·x with x and y Linear: x is routed element-by-element to every
/// matrix element that needs it, products are routed element-by-element to
/// y's owners — the fully naive virtual-processor-per-element picture.
[[nodiscard]] inline DistVector<double> naive_matvec(
    const DistMatrix<double>& A, const DistVector<double>& x) {
  VMP_REQUIRE(x.align() == Align::Linear && x.n() == A.ncols(),
              "naive_matvec needs a Linear vector of length ncols");
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "naive_matvec");

  // Phase 1: fetch x[j] into every element position (i, j).
  DistMatrix<double> X(grid, A.nrows(), A.ncols(), A.layout());
  std::vector<std::vector<Packet>> inject(cube.procs());
  cube.each_proc([&](proc_t q) {
    const std::uint32_t C = grid.pcol(q);
    const std::size_t lrn = X.lrows(q), lcn = X.lcols(q);
    for (std::size_t lc = 0; lc < lcn; ++lc) {
      const std::size_t j = X.colmap().global(C, lc);
      const proc_t src = x.map().owner(j);
      const double value = x.at(j);
      for (std::size_t lr = 0; lr < lrn; ++lr)
        inject[src].push_back(Packet{q, lr * lcn + lc, value});
    }
  });
  NaiveRouter router(cube);
  router.run(std::move(inject), [&](proc_t dst, std::uint64_t tag, double v) {
    X.data().tile(dst)[tag] = v;
  });

  // Local products (every virtual processor multiplies its element).
  cube.compute(X.max_block(), X.nrows() * X.ncols(), [&](proc_t q) {
    const std::span<double> xv = X.data().tile(q);
    const std::span<const double> av = A.data().tile(q);
    for (std::size_t t = 0; t < xv.size(); ++t) xv[t] *= av[t];
  });

  // Phase 2: route every product to the Linear owner of its row index.
  DistVector<double> y(grid, A.nrows(), Align::Linear);
  std::vector<std::vector<Packet>> inject2(cube.procs());
  cube.each_proc([&](proc_t q) {
    const std::uint32_t R = grid.prow(q);
    const std::size_t lrn = X.lrows(q), lcn = X.lcols(q);
    const std::span<const double> blk = X.block(q);
    for (std::size_t lr = 0; lr < lrn; ++lr) {
      const std::size_t i = X.rowmap().global(R, lr);
      for (std::size_t lc = 0; lc < lcn; ++lc)
        inject2[q].push_back(
            Packet{v_owner(y, i), y.map().local(i), blk[lr * lcn + lc]});
    }
  });
  router.run(std::move(inject2), [&](proc_t dst, std::uint64_t tag, double v) {
    y.data().tile(dst)[tag] += v;
  });
  return y;
}

}  // namespace vmp
