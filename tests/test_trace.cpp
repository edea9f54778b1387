// Tests of the observability layer: region attribution (self vs inclusive
// profiles), conservation against the global clock, thread invariance,
// event-log / Chrome-trace export, and the reports the benchmarks embed.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "algorithms/gauss.hpp"
#include "algorithms/matvec.hpp"
#include "algorithms/simplex.hpp"
#include "core/naive.hpp"
#include "core/primitives.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/workloads.hpp"

namespace vmp {
namespace {

// Sum one numeric member over every self profile, "" included.
double sum_self(const Tracer& tr, double RegionProfile::* field) {
  double s = 0.0;
  for (const auto& [path, prof] : tr.self_profiles()) s += prof.*field;
  return s;
}

// ---------------------------------------------------------------------------
// Attribution basics on hand-built charges.
// ---------------------------------------------------------------------------

TEST(Tracer, ChargesGoToTheInnermostOpenRegion) {
  SimClock clock(CostParams::unit());  // τ = 1, t_c = 1, t_a = 1
  {
    TraceRegion outer(clock, "outer");
    clock.charge_compute_step(2, 2);  // outer self: 2 µs compute
    {
      TraceRegion inner(clock, "inner");
      clock.charge_comm_step(3, 1, 3);  // inner self: τ + 3 = 4 µs comm
    }
    clock.charge_compute_step(5, 5);  // outer self again
  }
  clock.charge_us(1.0);  // outside any region → ""

  const auto& self = clock.tracer().self_profiles();
  ASSERT_TRUE(self.contains("outer"));
  ASSERT_TRUE(self.contains("outer/inner"));
  ASSERT_TRUE(self.contains(""));
  EXPECT_DOUBLE_EQ(self.at("outer").compute_us, 7.0);
  EXPECT_DOUBLE_EQ(self.at("outer").comm_us, 0.0);
  EXPECT_DOUBLE_EQ(self.at("outer/inner").comm_us, 4.0);
  EXPECT_EQ(self.at("outer/inner").comm_steps, 1u);
  EXPECT_EQ(self.at("outer/inner").messages, 1u);
  EXPECT_DOUBLE_EQ(self.at("").host_us, 1.0);

  const auto inc = clock.tracer().inclusive_profiles();
  EXPECT_DOUBLE_EQ(inc.at("outer").total_us(), 11.0);
  EXPECT_DOUBLE_EQ(inc.at("outer/inner").total_us(), 4.0);
}

TEST(Tracer, NestedRegionSelfProfilesSumToTheParentInclusiveTotal) {
  SimClock clock(CostParams::unit());
  {
    TraceRegion a(clock, "a");
    clock.charge_compute_step(1, 1);
    {
      TraceRegion b(clock, "b");
      clock.charge_compute_step(10, 10);
      {
        TraceRegion c(clock, "c");
        clock.charge_comm_step(4, 2, 8);
      }
    }
    {
      TraceRegion b2(clock, "b2");
      clock.charge_router_cycle(3);
    }
  }
  const auto& self = clock.tracer().self_profiles();
  const auto inc = clock.tracer().inclusive_profiles();

  RegionProfile manual = self.at("a");
  manual.add(self.at("a/b"));
  manual.add(self.at("a/b/c"));
  manual.add(self.at("a/b2"));
  EXPECT_EQ(inc.at("a"), manual);
  // A parent's inclusive == self + Σ children's inclusive.
  EXPECT_DOUBLE_EQ(inc.at("a/b").total_us(),
                   self.at("a/b").total_us() + inc.at("a/b/c").total_us());
}

// The path bookkeeping contract, on a bare tracer: a region's path is its
// whole ancestry, only charged paths have self profiles, event-log path
// ids are handed out in first-use order, and reset() keeps open regions
// open while restarting the ids.
TEST(Tracer, PathsFollowAncestryFirstUseOrderAndReset) {
  Tracer tr;
  tr.set_recording(true);
  const auto charge = [&](double t, double us) {
    tr.on_charge(ChargeKind::Host, t, us, -1, 0, 0, 0, 0, 0, 0);
  };
  const auto keys = [](const auto& profiles) {
    std::vector<std::string> k;
    for (const auto& [path, prof] : profiles) k.push_back(path);
    return k;
  };
  using Paths = std::vector<std::string>;

  charge(0.0, 1.0);  // outside any region
  tr.push_region("a", 1.0);
  tr.push_region("x", 1.0);
  charge(1.0, 2.0);
  tr.pop_region(3.0);
  tr.push_region("quiet", 3.0);  // opened and closed, never charged
  tr.pop_region(3.0);
  tr.pop_region(3.0);
  tr.push_region("b", 3.0);
  tr.push_region("x", 3.0);  // the same name under another parent
  EXPECT_EQ(tr.current_path(), "b/x");
  EXPECT_EQ(tr.depth(), 2u);
  charge(3.0, 4.0);

  const auto& self = tr.self_profiles();
  EXPECT_EQ(keys(self), (Paths{"", "a/x", "b/x"}));
  EXPECT_DOUBLE_EQ(self.at("").host_us, 1.0);
  EXPECT_DOUBLE_EQ(self.at("a/x").host_us, 2.0);
  EXPECT_DOUBLE_EQ(self.at("b/x").host_us, 4.0);
  const auto inc = tr.inclusive_profiles();
  EXPECT_EQ(keys(inc), (Paths{"", "a", "a/x", "b", "b/x"}));
  EXPECT_DOUBLE_EQ(inc.at("a").host_us, 2.0);
  EXPECT_DOUBLE_EQ(inc.at("b").host_us, 4.0);

  EXPECT_EQ(tr.paths(), (Paths{"", "a/x", "a/quiet", "a", "b/x"}));
  ASSERT_EQ(tr.events().size(), 3u);
  EXPECT_EQ(tr.events()[0].path_id, 0u);
  EXPECT_EQ(tr.events()[1].path_id, 1u);
  EXPECT_EQ(tr.events()[2].path_id, 4u);
  const std::vector<RegionSpan> spans = {
      {1.0, 3.0, 1, 1}, {3.0, 3.0, 2, 1}, {1.0, 3.0, 3, 0}};
  EXPECT_EQ(tr.spans(), spans);

  tr.reset();  // "b" and "b/x" stay open, re-stamped to begin at 0
  EXPECT_EQ(tr.depth(), 2u);
  EXPECT_EQ(tr.current_path(), "b/x");
  EXPECT_TRUE(tr.self_profiles().empty());
  EXPECT_TRUE(tr.paths().empty());
  EXPECT_TRUE(tr.events().empty());
  EXPECT_TRUE(tr.spans().empty());
  tr.push_region("y", 0.5);
  charge(0.5, 1.0);
  tr.pop_region(1.5);
  tr.pop_region(2.0);
  charge(2.0, 1.0);
  tr.pop_region(3.0);
  EXPECT_EQ(tr.depth(), 0u);
  EXPECT_EQ(tr.current_path(), "");
  EXPECT_EQ(keys(tr.self_profiles()), (Paths{"b", "b/x/y"}));
  EXPECT_EQ(tr.paths(), (Paths{"b/x/y", "b/x", "b"}));
  const std::vector<RegionSpan> after = {
      {0.5, 1.5, 0, 2}, {0.0, 2.0, 1, 1}, {0.0, 3.0, 2, 0}};
  EXPECT_EQ(tr.spans(), after);
  ASSERT_EQ(tr.events().size(), 2u);
  EXPECT_EQ(tr.events()[0].path_id, 0u);
  EXPECT_EQ(tr.events()[1].path_id, 2u);
}

TEST(Tracer, DimensionHistogramTracksExchangedElements) {
  // Per-dimension histogram golden: pin the hypercube preset (on a mesh
  // the histogram is per grid axis, not per cube dim).
  Cube::Options opts;
  opts.topology = TopologyKind::Hypercube;
  Cube cube(3, CostParams::unit(), opts);
  {
    TraceRegion r(cube, "xch");
    DistBuffer<double> buf(cube);
    cube.each_proc([&](proc_t q) { buf.assign(q, 4, double(q)); });
    for (int d = 0; d < 3; ++d) {
      cube.exchange<double>(
          d, [&](proc_t q) { return std::span<const double>(buf.tile(q)); },
          [&](proc_t, std::span<const double>) {});
    }
  }
  const RegionProfile& p = cube.clock().tracer().self_profiles().at("xch");
  ASSERT_GE(p.dim_elements.size(), 3u);
  for (int d = 0; d < 3; ++d)
    EXPECT_EQ(p.dim_elements[static_cast<std::size_t>(d)], 8u * 4u)
        << "dimension " << d;
  EXPECT_EQ(p.mixed_dim_elements, 0u);
}

// ---------------------------------------------------------------------------
// Conservation: Σ self profiles == the global clock, to 1e-9 relative.
// ---------------------------------------------------------------------------

void expect_conservation(const SimClock& c) {
  const Tracer& tr = c.tracer();
  const double total = sum_self(tr, &RegionProfile::comm_us) +
                       sum_self(tr, &RegionProfile::compute_us) +
                       sum_self(tr, &RegionProfile::router_us) +
                       sum_self(tr, &RegionProfile::host_us);
  ASSERT_GT(c.now_us(), 0.0);
  EXPECT_NEAR(total, c.now_us(), 1e-9 * c.now_us());
  EXPECT_NEAR(sum_self(tr, &RegionProfile::comm_us), c.comm_us(),
              1e-9 * c.now_us());
  EXPECT_NEAR(sum_self(tr, &RegionProfile::compute_us), c.compute_us(),
              1e-9 * c.now_us());
  EXPECT_NEAR(sum_self(tr, &RegionProfile::router_us), c.router_us(),
              1e-9 * c.now_us());
}

TEST(TracerConservation, MatvecRegionsAccountForEveryMicrosecond) {
  Cube cube(4, CostParams::cm2());
  Grid grid = Grid::square(cube);
  DistMatrix<double> A(grid, 48, 48);
  A.load(random_matrix(48, 48, 21));
  DistVector<double> x(grid, 48, Align::Cols);
  x.load(random_vector(48, 22));
  cube.clock().reset();
  (void)matvec(A, x);
  expect_conservation(cube.clock());
  // Everything matvec charges must sit under the matvec region.
  const auto inc = cube.clock().tracer().inclusive_profiles();
  ASSERT_TRUE(inc.contains("matvec"));
  EXPECT_NEAR(inc.at("matvec").total_us(), cube.clock().now_us(),
              1e-9 * cube.clock().now_us());
}

TEST(TracerConservation, GaussRegionsAccountForEveryMicrosecond) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  DistMatrix<double> A(grid, 24, 24, MatrixLayout::cyclic());
  A.load(diag_dominant_matrix(24, 23).data());
  cube.clock().reset();
  (void)lu_factor(A);
  expect_conservation(cube.clock());
  const auto inc = cube.clock().tracer().inclusive_profiles();
  ASSERT_TRUE(inc.contains("lu_factor"));
  ASSERT_TRUE(inc.contains("lu_factor/pivot_search"));
  ASSERT_TRUE(inc.contains("lu_factor/update"));
  // The two phases partition the factorization.
  EXPECT_NEAR(inc.at("lu_factor/pivot_search").total_us() +
                  inc.at("lu_factor/update").total_us(),
              inc.at("lu_factor").total_us(),
              1e-9 * inc.at("lu_factor").total_us());
}

TEST(TracerConservation, NaiveRouterTimeIsAttributedToTheRouterBucket) {
  Cube cube(4, CostParams::cm2());
  Grid grid = Grid::square(cube);
  DistVector<double> v(grid, 32, Align::Linear);
  v.load(random_vector(32, 24));
  cube.clock().reset();
  (void)naive_distribute_rows(v, 32);
  expect_conservation(cube.clock());
  const auto inc = cube.clock().tracer().inclusive_profiles();
  const RegionProfile& naive = inc.at("naive_distribute_rows");
  EXPECT_GT(naive.router_us, 0.0);
  EXPECT_GT(naive.router_hops, 0u);
  EXPECT_DOUBLE_EQ(naive.comm_us, 0.0)
      << "the naive path communicates only through the router";
}

// The acceptance-style check for the naive-vs-optimized benchmark: both
// sides' region buckets sum to the global clock totals.
TEST(TracerConservation, NaiveVsOptimizedBucketsMatchGlobalTotals) {
  Cube cube(4, CostParams::cm2());
  Grid grid = Grid::square(cube);
  DistMatrix<double> A(grid, 32, 32);
  A.load(random_matrix(32, 32, 25));

  cube.clock().reset();
  (void)naive_reduce_cols_sum(A);
  expect_conservation(cube.clock());
  const double naive_us = cube.clock().now_us();
  EXPECT_GT(cube.clock().router_us(), 0.0);

  cube.clock().reset();
  (void)reduce_cols(A, Plus<double>{});
  expect_conservation(cube.clock());
  EXPECT_EQ(cube.clock().router_us(), 0.0);
  EXPECT_GT(cube.clock().comm_us(), 0.0);
  EXPECT_GT(naive_us, cube.clock().now_us());
}

TEST(TracerConservation, SimplexRegionsAccountForEveryMicrosecond) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  const LpProblem lp = random_feasible_lp(10, 7, 26);
  cube.clock().reset();
  (void)simplex_solve(grid, lp);
  expect_conservation(cube.clock());
  const auto inc = cube.clock().tracer().inclusive_profiles();
  ASSERT_TRUE(inc.contains("simplex"));
  EXPECT_TRUE(inc.contains("simplex/entering"));
  EXPECT_TRUE(inc.contains("simplex/leaving"));
  EXPECT_TRUE(inc.contains("simplex/pivot"));
}

// ---------------------------------------------------------------------------
// Thread invariance: attribution is bit-identical for any host threading.
// ---------------------------------------------------------------------------

TEST(TracerThreading, AttributionIsIdenticalAcrossThreadCounts) {
  const std::size_t n = 24;
  const HostMatrix H = diag_dominant_matrix(n, 27);
  const auto run = [&](unsigned threads) {
    Cube cube(4, CostParams::cm2(), Cube::Options{threads});
    Grid grid(cube, 2, 2);
    DistMatrix<double> A(grid, n, n, MatrixLayout::cyclic());
    A.load(H.data());
    cube.clock().reset();
    (void)lu_factor(A);
    return cube.clock().tracer().self_profiles();
  };
  const auto p1 = run(1);
  const auto p4 = run(4);
  ASSERT_EQ(p1.size(), p4.size());
  for (const auto& [path, prof] : p1) {
    ASSERT_TRUE(p4.contains(path)) << path;
    EXPECT_EQ(prof, p4.at(path)) << path;
  }
}

// ---------------------------------------------------------------------------
// Event log and Chrome trace export.
// ---------------------------------------------------------------------------

TEST(TraceExport, EventLogIsOptInAndCoversEveryCharge) {
  Cube cube(3, CostParams::cm2());
  Grid grid = Grid::square(cube);
  DistMatrix<double> A(grid, 16, 16);
  A.load(random_matrix(16, 16, 28));
  cube.clock().reset();
  (void)reduce_rows(A, Plus<double>{});
  EXPECT_TRUE(cube.clock().tracer().events().empty()) << "off by default";

  cube.clock().reset();
  cube.clock().tracer().set_recording(true);
  (void)reduce_rows(A, Plus<double>{});
  const auto& events = cube.clock().tracer().events();
  ASSERT_FALSE(events.empty());
  double covered = 0.0;
  for (const TraceEvent& e : events) covered += e.dur_us;
  EXPECT_NEAR(covered, cube.clock().now_us(),
              1e-9 * cube.clock().now_us());
  EXPECT_FALSE(cube.clock().tracer().spans().empty());
}

TEST(TraceExport, ChromeTraceTimestampsAreMonotone) {
  Cube cube(3, CostParams::cm2());
  Grid grid(cube, 2, 1);
  DistMatrix<double> A(grid, 20, 20, MatrixLayout::cyclic());
  A.load(diag_dominant_matrix(20, 29).data());
  cube.clock().reset();
  cube.clock().tracer().set_recording(true);
  (void)lu_factor(A);
  const std::string doc = chrome_trace_json(cube.clock());

  // Structural smoke checks without a JSON parser: the document must name
  // the trace_event container and contain complete events.
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"pivot_search\""), std::string::npos);

  // "ts" values appear in emission order and must never decrease.
  double last = -1.0;
  std::size_t count = 0;
  for (std::size_t pos = doc.find("\"ts\":"); pos != std::string::npos;
       pos = doc.find("\"ts\":", pos + 5)) {
    const double ts = std::strtod(doc.c_str() + pos + 5, nullptr);
    EXPECT_GE(ts, last) << "event " << count;
    last = ts;
    ++count;
  }
  EXPECT_GT(count, 10u);
}

TEST(TraceExport, RecordingSurvivesResetAndBeginsAtZero) {
  Cube cube(2, CostParams::unit());
  cube.clock().tracer().set_recording(true);
  cube.clock().charge_compute_step(5, 5);
  cube.clock().reset();
  EXPECT_TRUE(cube.clock().tracer().recording());
  EXPECT_TRUE(cube.clock().tracer().events().empty());
  cube.clock().charge_compute_step(3, 3);
  ASSERT_EQ(cube.clock().tracer().events().size(), 1u);
  EXPECT_DOUBLE_EQ(cube.clock().tracer().events()[0].ts_us, 0.0);
}

// ---------------------------------------------------------------------------
// Reports.
// ---------------------------------------------------------------------------

TEST(Report, ProfileJsonCarriesSchemaTotalsAndRegions) {
  Cube cube(3, CostParams::cm2());
  Grid grid = Grid::square(cube);
  DistMatrix<double> A(grid, 16, 16);
  A.load(random_matrix(16, 16, 30));
  cube.clock().reset();
  (void)reduce_rows(A, Plus<double>{});
  const std::string doc = profile_to_json(cube.clock());
  EXPECT_NE(doc.find("\"schema\":\"vmp-profile-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"cost_model\""), std::string::npos);
  EXPECT_NE(doc.find("\"totals\""), std::string::npos);
  EXPECT_NE(doc.find("\"reduce_rows\""), std::string::npos);
  EXPECT_NE(doc.find("\"self\""), std::string::npos);
  EXPECT_NE(doc.find("\"total\""), std::string::npos);
}

TEST(Report, ProfileTableListsRegionsWithTheirShare) {
  Cube cube(3, CostParams::cm2());
  Grid grid = Grid::square(cube);
  DistMatrix<double> A(grid, 16, 16);
  A.load(random_matrix(16, 16, 31));
  cube.clock().reset();
  (void)reduce_rows(A, Plus<double>{});
  const std::string table = profile_to_table(cube.clock());
  EXPECT_NE(table.find("reduce_rows"), std::string::npos);
  EXPECT_NE(table.find("comm"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
}

}  // namespace
}  // namespace vmp
