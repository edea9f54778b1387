// End-to-end fault determinism: every primitive and demo application must
// produce *bit-identical* results under any within-budget fault plan — the
// injector may change when messages arrive and what the run costs, never
// the values computed.  Reruns under the same plan must replay the exact
// event trace.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algorithms/gauss.hpp"
#include "algorithms/matvec.hpp"
#include "algorithms/simplex.hpp"
#include "core/primitives.hpp"
#include "obs/report.hpp"
#include "util/workloads.hpp"

namespace vmp {
namespace {

/// The standard within-budget transient plan for these tests: high enough
/// to exercise retries constantly, far below anything that could exhaust
/// the default RecoveryPolicy budget.
[[nodiscard]] FaultPlan test_plan(std::uint64_t seed) {
  return FaultPlan::transient(seed, /*drop=*/0.05, /*corrupt=*/0.02,
                              /*spike=*/0.01, /*spike_us=*/20.0);
}

struct PrimFixture {
  explicit PrimFixture(bool faults, std::uint64_t seed = 17)
      : cube(4, CostParams::cm2()),
        grid(cube, 2, 2),
        A(grid, 20, 12),
        vc(grid, 12, Align::Cols),
        vr(grid, 20, Align::Rows) {
    if (faults) cube.enable_faults(test_plan(seed));
    A.load(random_matrix(20, 12, 1));
    vc.load(random_vector(12, 2));
    vr.load(random_vector(20, 3));
  }
  Cube cube;
  Grid grid;
  DistMatrix<double> A;
  DistVector<double> vc, vr;
};

TEST(FaultPrimitives, AllEightPrimitivesAreBitIdenticalUnderFaults) {
  PrimFixture plain(false), faulty(true);

  EXPECT_EQ(reduce_rows(faulty.A, Plus<double>{}).to_host(),
            reduce_rows(plain.A, Plus<double>{}).to_host());
  EXPECT_EQ(reduce_cols(faulty.A, Plus<double>{}).to_host(),
            reduce_cols(plain.A, Plus<double>{}).to_host());
  EXPECT_EQ(distribute_rows(faulty.vc, 20).to_host(),
            distribute_rows(plain.vc, 20).to_host());
  EXPECT_EQ(distribute_cols(faulty.vr, 12).to_host(),
            distribute_cols(plain.vr, 12).to_host());
  EXPECT_EQ(extract_row(faulty.A, 7).to_host(),
            extract_row(plain.A, 7).to_host());
  EXPECT_EQ(extract_col(faulty.A, 5).to_host(),
            extract_col(plain.A, 5).to_host());
  insert_row(faulty.A, 4, faulty.vc);
  insert_row(plain.A, 4, plain.vc);
  EXPECT_EQ(faulty.A.to_host(), plain.A.to_host());
  insert_col(faulty.A, 9, faulty.vr);
  insert_col(plain.A, 9, plain.vr);
  EXPECT_EQ(faulty.A.to_host(), plain.A.to_host());

  EXPECT_GT(faulty.cube.clock().stats().fault_retries, 0u)
      << "the plan should actually have exercised recovery";
  EXPECT_EQ(plain.cube.clock().stats().fault_retries, 0u);
  EXPECT_GT(faulty.cube.clock().now_us(), plain.cube.clock().now_us());
}

TEST(FaultPrimitives, MatvecIsBitIdenticalUnderFaults) {
  const auto run = [](bool faults) {
    Cube cube(4, CostParams::cm2());
    if (faults) cube.enable_faults(test_plan(23));
    Grid grid = Grid::square(cube);
    DistMatrix<double> A(grid, 32, 32);
    A.load(random_matrix(32, 32, 5));
    DistVector<double> x(grid, 32, Align::Cols);
    x.load(random_vector(32, 6));
    const std::vector<double> y = matvec(A, x).to_host();
    const std::vector<double> yf = matvec_fused(A, x).to_host();
    std::vector<double> both = y;
    both.insert(both.end(), yf.begin(), yf.end());
    return both;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(FaultPrimitives, GaussianEliminationIsBitIdenticalUnderFaults) {
  const std::size_t n = 24;
  const HostMatrix H = diag_dominant_matrix(n, 7);
  const std::vector<double> b = random_vector(n, 8);
  const auto solve = [&](bool faults) {
    Cube cube(4, CostParams::cm2());
    if (faults) cube.enable_faults(test_plan(29));
    Grid grid = Grid::square(cube);
    DistMatrix<double> A(grid, n, n, MatrixLayout::cyclic());
    A.load(H.data());
    return gauss_solve(A, b);
  };
  EXPECT_EQ(solve(true), solve(false));
}

TEST(FaultPrimitives, SimplexIsBitIdenticalUnderFaults) {
  const LpProblem lp = random_feasible_lp(8, 6, 9);
  const auto solve = [&](bool faults) {
    Cube cube(4, CostParams::cm2());
    if (faults) cube.enable_faults(test_plan(31));
    Grid grid = Grid::square(cube);
    return simplex_solve(grid, lp);
  };
  const LpSolution a = solve(true), want = solve(false);
  EXPECT_EQ(a.status, want.status);
  EXPECT_EQ(a.objective, want.objective);  // bit-identical, not just close
  EXPECT_EQ(a.x, want.x);
  EXPECT_EQ(a.iterations, want.iterations);
}

// The fault engine end to end, pinned to recorded numbers: the retries,
// checksum rejections and simulated time of one faulted simplex solve.
// Any change to which messages fail, or to what recovery charges, moves
// them.  The hypercube preset is pinned so the figures hold under any
// VMP_TOPOLOGY.
TEST(FaultPrimitives, SimplexUnderTransientPlanMatchesRecordedRecovery) {
  const LpProblem lp = random_feasible_lp(24, 16, 5);
  Cube::Options opts;
  opts.topology = TopologyKind::Hypercube;
  Cube cube(4, CostParams::cm2(), opts);
  cube.enable_faults(test_plan(101));
  Grid grid = Grid::square(cube);
  const LpSolution sol = simplex_solve(grid, lp);
  EXPECT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_EQ(sol.iterations, 10u);
  const SimStats& st = cube.clock().stats();
  EXPECT_EQ(st.fault_retries, 93u);
  EXPECT_EQ(st.fault_chksum_fails, 26u);
  EXPECT_EQ(st.fault_reroutes, 0u);
  EXPECT_EQ(cube.clock().now_us(), 9493.25);
}

TEST(FaultPrimitives, SameSeedReplaysTheIdenticalEventTrace) {
  const auto run = [](std::uint64_t seed) {
    Cube cube(4, CostParams::cm2());
    cube.clock().tracer().set_recording(true);
    cube.enable_faults(test_plan(seed));
    Grid grid = Grid::square(cube);
    DistMatrix<double> A(grid, 16, 16);
    A.load(random_matrix(16, 16, 4));
    DistVector<double> x(grid, 16, Align::Cols);
    x.load(random_vector(16, 5));
    (void)matvec(A, x);
    struct Snapshot {
      std::vector<TraceEvent> events;
      double now_us;
      std::uint64_t retries;
    };
    return Snapshot{cube.clock().tracer().events(), cube.clock().now_us(),
                    cube.clock().stats().fault_retries};
  };
  const auto a = run(41), b = run(41);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.now_us, b.now_us);
  EXPECT_EQ(a.retries, b.retries);
}

TEST(FaultPrimitives, RecoveryCostsAppearUnderThePrimitiveRegions) {
  // A heavier (still within-budget) plan so a couple of primitive calls
  // are guaranteed to hit the retry path.
  PrimFixture faulty(false);
  faulty.cube.enable_faults(
      FaultPlan::transient(17, /*drop=*/0.25, /*corrupt=*/0.1));
  (void)reduce_rows(faulty.A, Plus<double>{});
  (void)reduce_cols(faulty.A, Plus<double>{});
  (void)extract_col(faulty.A, 5);
  ASSERT_GT(faulty.cube.clock().stats().fault_retries, 0u);
  // The fault_* regions nest below the primitive that paid for them.
  bool nested = false;
  for (const auto& [path, prof] :
       faulty.cube.clock().tracer().inclusive_profiles()) {
    if (path.find("fault_") == std::string::npos) continue;
    EXPECT_GT(prof.total_us(), 0.0) << path;
    if (path.find('/') != std::string::npos) nested = true;
  }
  EXPECT_TRUE(nested) << "expected fault regions nested under primitives";
  const std::string json = profile_to_json(faulty.cube.clock());
  EXPECT_NE(json.find("fault_retry"), std::string::npos);
}

TEST(FaultPrimitives, AnyWithinBudgetSeedIsBitIdentical) {
  // The guarantee is per-plan, not per-lucky-seed: sweep several.
  PrimFixture plain(false);
  const std::vector<double> want = reduce_cols(plain.A, Plus<double>{}).to_host();
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    PrimFixture faulty(true, seed);
    EXPECT_EQ(reduce_cols(faulty.A, Plus<double>{}).to_host(), want)
        << "seed " << seed;
  }
}

TEST(FaultPrimitives, BeyondBudgetDegradesWithAClearError) {
  PrimFixture faulty(false);
  faulty.cube.enable_faults(FaultPlan::transient(3, /*drop=*/1.0, 0.0));
  EXPECT_THROW((void)reduce_rows(faulty.A, Plus<double>{}), FaultError);
}

}  // namespace
}  // namespace vmp
