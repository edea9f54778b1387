#include "algorithms/invert.hpp"

#include <cmath>
#include <limits>

#include "core/elementwise.hpp"
#include "core/primitives.hpp"
#include "core/swap.hpp"
#include "core/vector_ops.hpp"

namespace vmp {

InvertResult invert(const DistMatrix<double>& A, double pivot_tol) {
  VMP_REQUIRE(A.nrows() == A.ncols(), "invert needs a square matrix");
  const std::size_t n = A.nrows();
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();

  // Augmented system [A | I], column-partitioned like A.
  DistMatrix<double> B(grid, n, 2 * n,
                       MatrixLayout{A.layout().rows, A.layout().cols});
  cube.compute(B.max_block(), n * 2 * n, [&](proc_t q) {
    const std::uint32_t R = grid.prow(q), C = grid.pcol(q);
    const std::size_t lcn = B.lcols(q);
    std::span<double> blk = B.block(q);
    for (std::size_t lr = 0; lr < B.lrows(q); ++lr) {
      const std::size_t i = B.rowmap().global(R, lr);
      for (std::size_t lc = 0; lc < lcn; ++lc) {
        const std::size_t j = B.colmap().global(C, lc);
        if (j < n) {
          // Left half starts as A — copy from A's (differently
          // partitioned) block via host-free lookup within this processor
          // is not possible in general, so this copy goes through the
          // owner map; it is setup work charged as one pass.
          blk[lr * lcn + lc] = 0.0;
        } else {
          blk[lr * lcn + lc] = (j - n == i) ? 1.0 : 0.0;
        }
      }
    }
  });
  // Ship A into the left half (setup, one bulk transfer like the simplex
  // tableau load).
  {
    const std::vector<double> ha = A.to_host();
    cube.each_proc([&](proc_t q) {
      const std::uint32_t R = grid.prow(q), C = grid.pcol(q);
      const std::size_t lcn = B.lcols(q);
      const std::span<double> blk = B.data().tile(q);
      for (std::size_t lr = 0; lr < B.lrows(q); ++lr) {
        const std::size_t i = B.rowmap().global(R, lr);
        for (std::size_t lc = 0; lc < lcn; ++lc) {
          const std::size_t j = B.colmap().global(C, lc);
          if (j < n) blk[lr * lcn + lc] = ha[i * n + j];
        }
      }
    });
    front_end_transfer(cube, n * n);
  }

  InvertResult out{DistMatrix<double>(grid, n, n, A.layout()), false};

  for (std::size_t k = 0; k < n; ++k) {
    DistVector<double> col = extract(B, Axis::Col, k);
    const ValueIndex<double> best = vec_argmax_key(
        col,
        [&](double v, std::size_t g) { return g >= k ? std::abs(v) : kNegInf; });
    if (best.index < 0 || best.value < pivot_tol) {
      out.singular = true;
      return out;
    }
    const std::size_t piv = static_cast<std::size_t>(best.index);
    if (piv != k) {
      swap_rows(B, k, piv);
      col = extract(B, Axis::Col, k);
    }
    const double pivval = vec_fetch(col, k);

    // Normalize the pivot row.
    DistVector<double> prow = extract(B, Axis::Row, k);
    vec_apply(prow, [pivval](double x) { return x / pivval; });
    insert(B, Axis::Row, k, prow);

    // Eliminate column k from every OTHER row (above and below).
    vec_fill_range(col, k, k + 1, 0.0);
    rank1_update(B, -1.0, col, prow);
  }

  // The right half is A⁻¹; pull it out column by column (each a
  // broadcast-extract + local insert, like any other primitive use).
  for (std::size_t j = 0; j < n; ++j) {
    DistVector<double> cj = extract(B, Axis::Col, n + j);
    insert(out.inverse, Axis::Col, j, cj);
  }
  return out;
}

}  // namespace vmp
