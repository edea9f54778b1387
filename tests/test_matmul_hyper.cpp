// Tests: the hyper-systolic matmul backend and the matmul_auto cost-model
// selector — conformance twin-sweep over all three backends (with and
// without fault plans), bitwise determinism across thread counts and
// repeats, the O(√p) communication-volume claim, and the selector picking
// the cheaper backend on both sides of the crossover.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "algorithms/matmul.hpp"
#include "comm/shift.hpp"
#include "fault/fault.hpp"
#include "util/workloads.hpp"

namespace vmp {
namespace {

// Cost-crossover goldens assume the paper machine: pin the hypercube
// preset so the CI mesh leg (VMP_TOPOLOGY=mesh) leaves the charges alone.
Cube::Options pin_hypercube() {
  Cube::Options o;
  o.topology = TopologyKind::Hypercube;
  return o;
}

std::vector<double> host_gemm(const std::vector<double>& a,
                              const std::vector<double>& b, std::size_t n,
                              std::size_t k, std::size_t m) {
  std::vector<double> c(n * m, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t t = 0; t < k; ++t)
      for (std::size_t j = 0; j < m; ++j)
        c[i * m + j] += a[i * k + t] * b[t * m + j];
  return c;
}

// ---------------------------------------------------------------------------
// Conformance twin-sweep: all three backends on the same 1-D grid, checked
// against the host GEMM and against each other, with and without faults.
// ---------------------------------------------------------------------------

class HyperSweep : public ::testing::TestWithParam<
                       std::tuple<int, std::size_t, std::size_t, std::size_t,
                                  bool>> {};

TEST_P(HyperSweep, AllBackendsMatchHostGemm) {
  const auto [d, n, k, m, faults] = GetParam();
  Cube cube(d, CostParams::cm2());
  // Rates low enough that no message plausibly exhausts the retry budget
  // across the ~10^4 deliveries of the three-backend sweep.
  if (faults)
    cube.enable_faults(FaultPlan::transient(23, /*drop=*/0.05,
                                            /*corrupt=*/0.02));
  Grid grid(cube, d, 0);  // 1-D: every processor owns a full-width row block
  const std::vector<double> ha = random_matrix(n, k, 411);
  const std::vector<double> hb = random_matrix(k, m, 412);
  DistMatrix<double> A(grid, n, k);
  DistMatrix<double> B(grid, k, m);
  A.load(ha);
  B.load(hb);
  const std::vector<double> want = host_gemm(ha, hb, n, k, m);

  const std::vector<double> hyper = matmul_hyper(A, B).to_host();
  const std::vector<double> summa = matmul_summa(A, B).to_host();
  const std::vector<double> rank1 = matmul(A, B).to_host();
  const std::vector<double> autod = matmul_auto(A, B).to_host();
  for (std::size_t i = 0; i < n * m; ++i) {
    const double tol = 1e-11 * (1 + std::abs(want[i]));
    EXPECT_NEAR(hyper[i], want[i], tol) << "hyper i=" << i;
    EXPECT_NEAR(summa[i], want[i], tol) << "summa i=" << i;
    EXPECT_NEAR(rank1[i], want[i], tol) << "rank1 i=" << i;
    EXPECT_NEAR(autod[i], want[i], tol) << "auto i=" << i;
    // hyper vs SUMMA: same sum, different reduction order — the documented
    // round-off budget of docs/matmul.md, not bitwise equality.
    EXPECT_NEAR(hyper[i], summa[i], tol) << "hyper vs summa i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HyperSweep,
    ::testing::Values(std::tuple{0, 5ul, 7ul, 6ul, false},
                      std::tuple{1, 8ul, 8ul, 8ul, false},
                      std::tuple{2, 12ul, 10ul, 9ul, false},
                      std::tuple{3, 5ul, 9ul, 4ul, false},   // empty blocks
                      std::tuple{3, 17ul, 13ul, 11ul, false},
                      std::tuple{4, 32ul, 32ul, 32ul, false},
                      std::tuple{5, 40ul, 24ul, 16ul, false},
                      std::tuple{3, 17ul, 13ul, 11ul, true},
                      std::tuple{4, 32ul, 32ul, 32ul, true}));

// ---------------------------------------------------------------------------
// Determinism: bit-identical results and simulated time across thread
// counts {1, 3, hardware} and across repeats on one machine.
// ---------------------------------------------------------------------------

struct HyperRun {
  std::vector<double> c;
  double t_us = 0.0;
};

HyperRun run_hyper(unsigned threads) {
  Cube::Options o;
  o.threads = threads;
  Cube cube(4, CostParams::cm2(), o);
  Grid grid(cube, 4, 0);
  const std::size_t n = 24, k = 20, m = 28;
  DistMatrix<double> A(grid, n, k);
  DistMatrix<double> B(grid, k, m);
  A.load(random_matrix(n, k, 421));
  B.load(random_matrix(k, m, 422));
  cube.clock().reset();
  HyperRun r;
  r.c = matmul_hyper(A, B).to_host();
  r.t_us = cube.clock().now_us();
  return r;
}

TEST(MatmulHyper, BitIdenticalAcrossThreadCountsAndRepeats) {
  const HyperRun t1 = run_hyper(1);
  const HyperRun t1b = run_hyper(1);
  const HyperRun t3 = run_hyper(3);
  const HyperRun thw = run_hyper(0);
  EXPECT_EQ(t1.c, t1b.c) << "repeat must be bit-identical";
  EXPECT_EQ(t1.c, t3.c) << "3-thread run must be bit-identical";
  EXPECT_EQ(t1.c, thw.c) << "hardware-thread run must be bit-identical";
  EXPECT_DOUBLE_EQ(t1.t_us, t1b.t_us);
  EXPECT_DOUBLE_EQ(t1.t_us, t3.t_us);
  EXPECT_DOUBLE_EQ(t1.t_us, thw.t_us);
}

// ---------------------------------------------------------------------------
// The fault contract: every shift leg of the hyper-systolic schedule is a
// lockstep round the injector sees, on every topology preset — retries
// under drops, FaultError on a dead ring node, a detour around a dead link,
// and a bit-identical product whenever the plan stays within budget.
// ---------------------------------------------------------------------------

class HyperFaults : public ::testing::TestWithParam<TopologyKind> {
 protected:
  static constexpr int kDim = 4;

  [[nodiscard]] Cube::Options preset() const {
    Cube::Options o;
    o.topology = GetParam();
    return o;
  }

  /// matmul_hyper on a 1-D grid of cube's processors.
  static std::vector<double> product(Cube& cube) {
    Grid grid(cube, cube.dim(), 0);
    const std::size_t n = 32;
    DistMatrix<double> A(grid, n, n);
    DistMatrix<double> B(grid, n, n);
    A.load(random_matrix(n, n, 461));
    B.load(random_matrix(n, n, 462));
    return matmul_hyper(A, B).to_host();
  }
};

TEST_P(HyperFaults, DropsAreRetriedWithABitIdenticalProduct) {
  Cube plain(kDim, CostParams::cm2(), preset());
  Cube faulty(kDim, CostParams::cm2(), preset());
  faulty.enable_faults(FaultPlan::transient(29, /*drop=*/0.3,
                                            /*corrupt=*/0.0));
  EXPECT_EQ(product(faulty), product(plain));
  EXPECT_GT(faulty.clock().stats().fault_retries, 0u);
  EXPECT_GT(faulty.clock().now_us(), plain.clock().now_us());
}

TEST_P(HyperFaults, DeadRingNodeThrows) {
  FaultPlan plan;
  plan.node_kills.push_back({/*from_round=*/0, /*node=*/5});
  Cube cube(kDim, CostParams::cm2(), preset());
  cube.enable_faults(plan);
  EXPECT_THROW((void)product(cube), FaultError);
}

TEST_P(HyperFaults, DeadLinkIsReroutedWithABitIdenticalProduct) {
  // Ring positions 6 and 7 live on processors 5 and 4 (Gray order): the
  // unit shifts cross their dim-0 edge.  Kill its first physical link.
  Cube plain(kDim, CostParams::cm2(), preset());
  Cube faulty(kDim, CostParams::cm2(), preset());
  std::vector<Hop> hops;
  faulty.topology().route(5, 4, hops);
  ASSERT_FALSE(hops.empty());
  FaultPlan plan;
  plan.link_kills.push_back({/*from_round=*/0, hops[0].from, hops[0].port});
  faulty.enable_faults(plan);
  EXPECT_EQ(product(faulty), product(plain));
  EXPECT_GT(faulty.clock().stats().fault_reroutes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Presets, HyperFaults,
                         ::testing::Values(TopologyKind::Hypercube,
                                           TopologyKind::Mesh,
                                           TopologyKind::Torus,
                                           TopologyKind::Dragonfly));

// ---------------------------------------------------------------------------
// Eligibility contracts.
// ---------------------------------------------------------------------------

TEST(MatmulHyper, RejectsTwoDimensionalGridsAndCyclicRows) {
  Cube cube(4, CostParams::cm2());
  Grid grid2(cube, 2, 2);
  DistMatrix<double> A2(grid2, 8, 8);
  DistMatrix<double> B2(grid2, 8, 8);
  EXPECT_THROW((void)matmul_hyper(A2, B2), ContractError);

  Cube cube1(2, CostParams::cm2());
  Grid grid1(cube1, 2, 0);
  DistMatrix<double> Ac(grid1, 8, 8, MatrixLayout::cyclic());
  DistMatrix<double> Bc(grid1, 8, 8, MatrixLayout::cyclic());
  EXPECT_THROW((void)matmul_hyper(Ac, Bc), ContractError);
  // matmul_auto must not route an ineligible shape to hyper.
  MatmulCost c = matmul_cost(A2, B2);
  EXPECT_TRUE(std::isinf(c.hyper));
  EXPECT_FALSE(std::isinf(c.rank1));
}

// ---------------------------------------------------------------------------
// The O(√p) claim: per-processor communication volume of hyper vs the
// panel-broadcast backends at p = 64.
// ---------------------------------------------------------------------------

TEST(MatmulHyper, CommVolumePerProcessorIsOrderSqrtP) {
  const int d = 6;  // p = 64
  Cube cube(d, CostParams::cm2(), pin_hypercube());
  Grid grid(cube, d, 0);
  const std::size_t n = 128, k = 128, m = 128;
  DistMatrix<double> A(grid, n, k);
  DistMatrix<double> B(grid, k, m);
  A.load(random_matrix(n, k, 431));
  B.load(random_matrix(k, m, 432));

  cube.clock().reset();
  (void)matmul_hyper(A, B);
  const std::uint64_t moved_hyper = cube.clock().stats().elements_moved;

  cube.clock().reset();
  (void)matmul_summa(A, B);
  const std::uint64_t moved_summa = cube.clock().stats().elements_moved;

  // Per processor (in whole-block units) hyper moves ≈ 3.5√p blocks —
  // (K−1) replicate + (K−1) combine rounds at stride ±1 plus (L−1)
  // stride-K stream shifts that each pay 2 store-and-forward rounds —
  // while SUMMA's p B-panels each reach all p processors: ≈ p block
  // receives per processor.  With n = k = m that is a measured ratio of
  // ≈ √p/4 (2.25 at p = 64), growing as √p.
  EXPECT_GT(static_cast<double>(moved_summa) /
                static_cast<double>(moved_hyper),
            std::sqrt(64.0) / 4.0)
      << "hyper=" << moved_hyper << " summa=" << moved_summa;

  // √p scaling in p: quadrupling p at fixed matrix size must not grow the
  // total shifted volume by more than ≈ 2× (it is ≈ √p·(nk + nm + km/√p)).
  Cube cube4(4, CostParams::cm2(), pin_hypercube());
  Grid grid4(cube4, 4, 0);
  DistMatrix<double> A4(grid4, n, k);
  DistMatrix<double> B4(grid4, k, m);
  A4.load(random_matrix(n, k, 431));
  B4.load(random_matrix(k, m, 432));
  cube4.clock().reset();
  (void)matmul_hyper(A4, B4);
  const std::uint64_t moved_p16 = cube4.clock().stats().elements_moved;
  const double growth =
      static_cast<double>(moved_hyper) / static_cast<double>(moved_p16);
  EXPECT_GT(growth, 1.0);
  EXPECT_LT(growth, 3.0) << "p16=" << moved_p16 << " p64=" << moved_hyper;
}

// ---------------------------------------------------------------------------
// The selector: cheaper backend on both sides of the crossover.
// ---------------------------------------------------------------------------

TEST(MatmulAuto, PicksHyperOnSquareOperandsAndNotOnSkinnyReduction) {
  const int d = 6;
  Cube cube(d, CostParams::cm2(), pin_hypercube());
  Grid grid(cube, d, 0);

  // Square side of the crossover: the √p shift volume beats p-fold panel
  // broadcasts.
  {
    const std::size_t n = 128;
    DistMatrix<double> A(grid, n, n);
    DistMatrix<double> B(grid, n, n);
    A.load(random_matrix(n, n, 441));
    B.load(random_matrix(n, n, 442));
    const MatmulCost c = matmul_cost(A, B);
    EXPECT_LT(c.hyper, c.summa);
    EXPECT_LT(c.hyper, c.rank1);
    cube.clock().reset();
    const std::vector<double> got = matmul_auto(A, B).to_host();
    const double t_auto = cube.clock().now_us();
    cube.clock().reset();
    const std::vector<double> want = matmul_hyper(A, B).to_host();
    const double t_hyper = cube.clock().now_us();
    EXPECT_EQ(got, want) << "auto must dispatch to hyper here";
    EXPECT_DOUBLE_EQ(t_auto, t_hyper);
    cube.clock().reset();
    (void)matmul_summa(A, B);
    EXPECT_LT(t_hyper, cube.clock().now_us())
        << "the model's pick must also win on the simulated clock";
  }

  // Skinny reduction axis: hyper still ships K C-partials of full n×m
  // weight while the broadcasts shrink with k — the crossover's far side.
  {
    const std::size_t n = 256, k = 2, m = 256;
    DistMatrix<double> A(grid, n, k);
    DistMatrix<double> B(grid, k, m);
    A.load(random_matrix(n, k, 443));
    B.load(random_matrix(k, m, 444));
    const MatmulCost c = matmul_cost(A, B);
    EXPECT_GT(c.hyper, std::min(c.summa, c.rank1));
    cube.clock().reset();
    const std::vector<double> got = matmul_auto(A, B).to_host();
    const double t_auto = cube.clock().now_us();
    cube.clock().reset();
    const std::vector<double> want = c.summa <= c.rank1
                                         ? matmul_summa(A, B).to_host()
                                         : matmul(A, B).to_host();
    const double t_pick = cube.clock().now_us();
    EXPECT_EQ(got, want) << "auto must avoid hyper here";
    EXPECT_DOUBLE_EQ(t_auto, t_pick);
    cube.clock().reset();
    (void)matmul_hyper(A, B);
    EXPECT_LT(t_pick, cube.clock().now_us());
  }
}

TEST(MatmulAuto, FallsBackToRank1WhenPanelsAreIneligible) {
  Cube cube(2, CostParams::cm2());
  Grid grid(cube, 1, 1);
  DistMatrix<double> A(grid, 6, 6, MatrixLayout::cyclic());
  DistMatrix<double> B(grid, 6, 6, MatrixLayout::cyclic());
  const MatmulCost c = matmul_cost(A, B);
  EXPECT_TRUE(std::isinf(c.hyper));
  EXPECT_TRUE(std::isinf(c.summa));
  const std::vector<double> ha = random_matrix(6, 6, 451);
  const std::vector<double> hb = random_matrix(6, 6, 452);
  A.load(ha);
  B.load(hb);
  const std::vector<double> got = matmul_auto(A, B).to_host();
  const std::vector<double> want = host_gemm(ha, hb, 6, 6, 6);
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], want[i], 1e-11 * (1 + std::abs(want[i])));
}

}  // namespace
}  // namespace vmp
