// Application benchmark of the vmprim library: one closed-loop client
// calls one application solve at a time, waits for it, and checks it.
//
//   vmp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-out PATH]
//
// --trace 0 measures the end-to-end metrics with all tracing off.
// --trace 1 is the separate traced run that gives the per-layer metrics in
// both clocks (simulated µs and host time); see perfbench/README.md.
// The last line of stdout is the JSON result.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "vmprim.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

/// The counters that must repeat bit for bit for one seed: across solves,
/// set-ups, processes, lane counts, and with tracing/metrics on or off.
struct Exact {
  double sim_us = 0;
  std::uint64_t rounds = 0, messages = 0, elements = 0, flops = 0;
  std::uint64_t retries = 0, team_steps = 0, digest = 0;
  bool operator==(const Exact&) const = default;
};

struct SolveRecord {
  std::string error;  ///< exception text; empty when the solve returned
  bool ok = false;    ///< returned and passed the oracle
  std::int64_t end_ns = 0;
  double wall_ms = 0;
  Exact exact;
  vmp::SimStats stats;
  double comm_us = 0, compute_us = 0, router_us = 0, host_us = 0;
  std::size_t iterations = 0;
};

/// One timed solve.  The clock is reset first so simulated time and
/// counters are per-solve values, not differences of running sums.
SolveRecord run_solve(Workload& w, Spans* spans, std::uint64_t id) {
  w.prepare();
  vmp::Cube& cube = w.cube();
  cube.clock().reset();
  const std::uint64_t steps0 = cube.team().steps_dispatched();
  SolveRecord r;
  const std::int64_t t0 = now_ns();
  try {
    Spans::Scope s(spans, "solve", id);
    w.solve(spans);
  } catch (const std::exception& e) {  // FaultError included
    r.error = e.what();
  }
  r.end_ns = now_ns();
  r.wall_ms = static_cast<double>(r.end_ns - t0) / 1e6;
  const vmp::SimClock& c = cube.clock();
  r.stats = c.stats();
  r.comm_us = c.comm_us();
  r.compute_us = c.compute_us();
  r.router_us = c.router_us();
  r.host_us = c.host_us();
  r.exact.sim_us = c.now_us();
  r.exact.rounds = r.stats.comm_steps;
  r.exact.messages = r.stats.messages;
  r.exact.elements = r.stats.elements_moved;
  r.exact.flops = r.stats.flops_total;
  r.exact.retries = r.stats.fault_retries;
  r.exact.team_steps = cube.team().steps_dispatched() - steps0;
  return r;
}

/// Untimed: oracle and digest of the solve just run.
void verify(Workload& w, SolveRecord& r) {
  if (!r.error.empty()) return;
  w.collect();
  r.ok = w.verified();
  r.exact.digest = w.digest();
  r.iterations = w.iterations();
}

/// Failure bookkeeping shared by both modes; prints the first few causes.
struct Tally {
  std::uint64_t attempted = 0, failed = 0;
  bool exact_ok = true;
  std::optional<Exact> ref;

  /// Counts `r`, checks its exact counters against the first solve's, and
  /// returns whether it passed.
  bool note(const SolveRecord& r, const char* where) {
    ++attempted;
    if (!r.ok) {
      if (++failed <= 3)
        std::fprintf(stderr, "perfbench: %s solve failed: %s\n", where,
                     r.error.empty() ? "oracle rejected the result"
                                     : r.error.c_str());
      return false;
    }
    if (!ref) {
      ref = r.exact;
    } else if (!(r.exact == *ref)) {
      if (exact_ok)
        std::fprintf(stderr,
                     "perfbench: %s solve's exact counters differ from the "
                     "first solve's\n",
                     where);
      exact_ok = false;
    }
    return true;
  }
};

void print_exact(const Args& a, const Exact& e) {
  std::printf(
      "exact {\"workload\": \"%s\", \"seed\": %llu, \"sim_us\": %.17g, "
      "\"rounds\": %llu, \"messages\": %llu, \"elements\": %llu, "
      "\"flops\": %llu, \"retries\": %llu, \"team_steps\": %llu, "
      "\"digest\": \"%016llx\"}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), e.sim_us,
      static_cast<unsigned long long>(e.rounds),
      static_cast<unsigned long long>(e.messages),
      static_cast<unsigned long long>(e.elements),
      static_cast<unsigned long long>(e.flops),
      static_cast<unsigned long long>(e.retries),
      static_cast<unsigned long long>(e.team_steps),
      static_cast<unsigned long long>(e.digest));
}

/// Peak resident set of this process image (VmHWM).  getrusage's
/// ru_maxrss is not used: it keeps the launching process's peak across
/// exec, so it would report the Python wrapper's size for small workloads.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

/// Prints the exact record and the result.  An incorrect run still exits 0
/// once its result is printed, with "correct": false.
void finish(const Args& a, const Tally& t, bool extra_ok, const Report& rep) {
  if (t.ref) print_exact(a, *t.ref);
  const bool correct = t.failed == 0 && t.exact_ok && extra_ok &&
                       t.ref.has_value() && rep.all_finite();
  rep.print(correct, t.attempted, t.failed);
}

/// Checked, untimed solves for a fixed time before measuring, so pools and
/// caches are warm.  A fresh multi-lane team also runs slow for about its
/// first second on a 4-vCPU host, until the scheduler has spread its lanes
/// over the CPUs.
void warm_up(Workload& w, Tally& t) {
  const std::int64_t end = now_ns() + 2'000'000'000;
  do {
    SolveRecord r = run_solve(w, nullptr, 0);
    verify(w, r);
    t.note(r, "warm-up");
  } while (now_ns() < end);
}

// Solves per timing sample: enough that at least ten lie beyond p90.
constexpr std::uint64_t kMinSolves = 100;

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics, everything observational off.
// ---------------------------------------------------------------------------

int run_untraced(const Args& a) {
  // Set-up is repeated, at least 15 times and for at least 1.5 s, and the
  // median reported: one set-up takes 10-150 ms and is as noisy as a solve.
  constexpr std::size_t kMinSetups = 15, kMaxSetups = 200;
  Tally t;
  bool extra_ok = true;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  const std::int64_t setup_end = now_ns() + 1'500'000'000;
  while (setup_s.size() < kMinSetups ||
         (now_ns() < setup_end && setup_s.size() < kMaxSetups)) {
    w.reset();  // one machine alive at a time
    const std::int64_t t0 = now_ns();
    w = make_workload(a.workload, a.seed, kLanes);
    SolveRecord warm = run_solve(*w, nullptr, 0);
    setup_s.push_back(static_cast<double>(warm.end_ns - t0) / 1e9);
    w->build_reference();
    verify(*w, warm);
    t.note(warm, "warm-up");
  }

  warm_up(*w, t);

  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(a.seconds * 1e9);
  // Never run past ~2.5 minutes, whatever the host speed.
  const std::int64_t hard_stop = start + static_cast<std::int64_t>(150e9);
  std::vector<double> ms;
  std::uint64_t measured = 0;
  while ((now_ns() < deadline || measured < kMinSolves) &&
         now_ns() < hard_stop) {
    SolveRecord r = run_solve(*w, nullptr, 0);
    verify(*w, r);
    ++measured;
    if (t.note(r, "measured")) ms.push_back(r.wall_ms);
  }

  // Tracing and metrics on: the exact counters must not move.
  vmp::Cube& cube = w->cube();
  cube.clock().tracer().set_recording(true);
  cube.enable_metrics();
  SolveRecord obs = run_solve(*w, nullptr, 0);
  cube.disable_metrics();
  cube.clock().tracer().set_recording(false);
  verify(*w, obs);
  t.note(obs, "traced");

  if (ms.size() < kMinSolves) {
    std::fprintf(stderr, "perfbench: only %zu solves measured\n", ms.size());
    extra_ok = false;
  }
  std::printf("solves measured: %zu\n", ms.size());
  Report rep;
  rep.add("solve_ms_p50", quantile(ms, 0.5), "ms");
  rep.add("setup_s", median(setup_s), "s");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  finish(a, t, extra_ok, rep);
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics in both clocks.
// ---------------------------------------------------------------------------

/// What a traced solve's library observability reports, read right after
/// the solve (before anything else touches the clock).
struct Observed {
  std::map<std::string, std::uint64_t> calls;  ///< primitive → region count
  std::vector<double> msg_lens;                ///< elements per message
  std::vector<std::pair<double, std::string>> top;  ///< self µs, region
};

/// Wall time of the team's sampled steps, from the engine metrics.
struct TeamTime {
  double barrier_ns = 0, busy_ns = 0, step_ns = 0;
};

const char* primitive_of(const std::string& region) {
  static const std::pair<const char*, const char*> kMap[] = {
      {"extract_row", "extract"},        {"extract_col", "extract"},
      {"insert_row", "insert"},          {"insert_col", "insert"},
      {"insert_row_range", "insert"},    {"insert_col_range", "insert"},
      {"distribute_rows", "distribute"}, {"distribute_cols", "distribute"},
      {"distribute_like", "distribute"}, {"reduce_rows", "reduce"},
      {"reduce_cols", "reduce"}};
  for (const auto& [name, prim] : kMap)
    if (region == name) return prim;
  return nullptr;
}

Observed observe(vmp::Cube& cube) {
  Observed o;
  const vmp::Tracer& tr = cube.clock().tracer();
  for (const vmp::RegionSpan& s : tr.spans()) {
    const std::string& path = tr.paths()[s.path_id];
    const std::string leaf = path.substr(path.rfind('/') + 1);
    if (const char* prim = primitive_of(leaf)) ++o.calls[prim];
  }
  for (const vmp::TraceEvent& e : tr.events())
    if (e.kind == vmp::ChargeKind::Comm && e.messages > 0)
      o.msg_lens.push_back(static_cast<double>(e.elements) /
                           static_cast<double>(e.messages));
  for (const auto& [path, prof] : tr.self_profiles())
    o.top.emplace_back(prof.total_us(), path.empty() ? "(none)" : path);
  std::sort(o.top.begin(), o.top.end(),
            [](const auto& x, const auto& y) { return x.first > y.first; });
  return o;
}

TeamTime team_time(const vmp::Cube& cube) {
  TeamTime o;
  const auto& m = cube.metrics().entries();
  auto counter = [&](const char* name) {
    const auto it = m.find(name);
    return it == m.end() || !it->second.counter
               ? 0.0
               : static_cast<double>(it->second.counter->value());
  };
  o.barrier_ns = counter("engine.host_barrier_ns");
  o.busy_ns = counter("engine.lane_busy_ns");
  const auto it = m.find("engine.step_ns");
  if (it != m.end() && it->second.histogram)
    o.step_ns = static_cast<double>(it->second.histogram->sum());
  return o;
}

int run_traced(const Args& a) {
  Spans spans;
  Tally t;
  bool extra_ok = true;
  std::unique_ptr<Workload> w = make_workload(a.workload, a.seed, kLanes);
  w->build_reference();
  SolveRecord warm = run_solve(*w, nullptr, 0);
  verify(*w, warm);
  t.note(warm, "warm-up");
  warm_up(*w, t);

  std::vector<double> untraced_ms, traced_ms, wide_ms;
  std::optional<Observed> first;
  TeamTime team;
  SolveRecord steady = warm;
  std::size_t msg_len = 1;
  LayerTimes L;
  {
    Spans::Scope root(&spans, a.workload.c_str());
    // Phase 1: untraced and traced solves alternate, so slow host phases
    // hit both sides of the trace-overhead ratio alike.
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(0.45 * a.seconds * 1e9);
    std::uint64_t id = 0;
    const std::int64_t hard_stop = now_ns() + static_cast<std::int64_t>(90e9);
    while ((now_ns() < end || untraced_ms.size() < kMinSolves) &&
           now_ns() < hard_stop) {
      SolveRecord u = run_solve(*w, nullptr, 0);
      verify(*w, u);
      if (t.note(u, "untraced")) untraced_ms.push_back(u.wall_ms);
      steady = u;

      vmp::Cube& cube = w->cube();
      cube.clock().tracer().set_recording(true);
      cube.enable_metrics();
      SolveRecord r = run_solve(*w, &spans, ++id);
      if (!first) first = observe(cube);
      cube.disable_metrics();
      cube.clock().tracer().set_recording(false);
      verify(*w, r);
      if (t.note(r, "traced")) traced_ms.push_back(r.wall_ms);
    }

    // Phase 2: the lane sweep.  The same solve on a 4-lane twin, with
    // plain solves for its p50 alternating with metrics-on solves for the
    // team's barrier and busy time.
    {
      std::unique_ptr<Workload> w4 =
          make_workload(a.workload, a.seed, kSweepLanes);
      w4->build_reference();
      warm_up(*w4, t);
      const std::int64_t end4 =
          now_ns() + static_cast<std::int64_t>(0.25 * a.seconds * 1e9);
      vmp::Cube& cube = w4->cube();
      do {
        SolveRecord r = run_solve(*w4, nullptr, 0);
        verify(*w4, r);
        if (t.note(r, "4-lane")) wide_ms.push_back(r.wall_ms);

        cube.enable_metrics();
        SolveRecord m = run_solve(*w4, nullptr, 0);
        const TeamTime tt = team_time(cube);
        cube.disable_metrics();
        verify(*w4, m);
        t.note(m, "4-lane metrics");
        team.barrier_ns += tt.barrier_ns;
        team.busy_ns += tt.busy_ns;
        team.step_ns += tt.step_ns;
      } while (now_ns() < end4 || wide_ms.size() < 10);
    }

    // Phase 3: layer probes at this workload's shapes.
    msg_len = std::max<std::size_t>(
        1, static_cast<std::size_t>(median(first->msg_lens) + 0.5));
    L = probe_layers(*w, a.seed, msg_len, &spans, 0.30 * a.seconds);
  }

  const Exact& e = *t.ref;
  const vmp::SimStats& st = steady.stats;
  const double p50 = median(untraced_ms);
  const double p50_t = median(traced_ms);
  auto calls = [&](const char* prim) {
    const auto it = first->calls.find(prim);
    return it == first->calls.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double lanes = static_cast<double>(kSweepLanes);

  Report rep;
  // End to end, but kept out of the gated set: the simulated time is exact
  // (the exact check gates it), and the host tail and mean move with
  // neighbour load more than any bound could allow.
  double total_s = 0;
  for (double m : untraced_ms) total_s += m / 1e3;
  rep.add("sim_us_per_solve", e.sim_us, "sim_us");
  rep.add("solve_ms_p90", quantile(untraced_ms, 0.9), "ms");
  rep.add("solves_per_s",
          static_cast<double>(untraced_ms.size()) / total_s, "1/s");
  // algorithms
  rep.add("algorithms.iterations", static_cast<double>(warm.iterations),
          "count");
  rep.add("algorithms.lu_solve_ms",
          median(spans.durations_ms("algorithms.lu_solve")), "ms");
  rep.add("algorithms.matmul_cost_us", L.matmul_cost_us, "us");
  rep.add("algorithms.matmul_pick", L.matmul_pick, "code");
  // core
  rep.add("core.extract.us_p50", L.extract_us, "us");
  rep.add("core.extract.calls", calls("extract"), "count");
  rep.add("core.insert.us_p50", L.insert_us, "us");
  rep.add("core.insert.calls", calls("insert"), "count");
  rep.add("core.distribute.us_p50", L.distribute_us, "us");
  rep.add("core.distribute.calls", calls("distribute"), "count");
  rep.add("core.reduce.us_p50", L.reduce_us, "us");
  rep.add("core.reduce.calls", calls("reduce"), "count");
  rep.add("core.dot_rows.ns_p50", L.dot_rows_ns, "ns");
  rep.add("core.dot_rows.gbps", L.dot_rows_bytes / L.dot_rows_ns, "GB/s");
  rep.add("core.dot_rows.flop_per_byte",
          L.dot_rows_flops / L.dot_rows_bytes, "flop/B");
  rep.add("core.axpy.ns_p50", L.axpy_ns, "ns");
  rep.add("core.flops_total", static_cast<double>(e.flops), "count");
  // comm
  rep.add("comm.broadcast_auto.us_p50", L.broadcast_us, "us");
  rep.add("comm.allreduce_auto.us_p50", L.allreduce_us, "us");
  rep.add("comm.shift_blocks_s1.us_p50", L.shift_s1_us, "us");
  rep.add("comm.shift_blocks_sK.us_p50", L.shift_sk_us, "us");
  rep.add("comm.sim_comm_us", steady.comm_us, "sim_us");
  // embed
  rep.add("embed.realign.us_p50", L.realign_us, "us");
  rep.add("embed.load_ms", L.load_ms, "ms");
  // hypercube
  rep.add("hypercube.rounds", static_cast<double>(e.rounds), "count");
  rep.add("hypercube.messages", static_cast<double>(e.messages), "count");
  rep.add("hypercube.elements_moved", static_cast<double>(e.elements),
          "count");
  rep.add("hypercube.exchange_1elem.ns_p50", L.exchange_1elem_ns, "ns");
  rep.add("hypercube.exchange_msg.ns_p50", L.exchange_msg_ns, "ns");
  rep.add("hypercube.step_empty.ns_p50", L.step_empty_ns, "ns");
  rep.add("hypercube.team.steps", static_cast<double>(e.team_steps),
          "count");
  rep.add("hypercube.team.barrier_wait_frac",
          team.step_ns > 0 ? team.barrier_ns / team.step_ns : 0.0, "frac");
  rep.add("hypercube.team.busy_frac",
          team.step_ns > 0 ? team.busy_ns / (lanes * team.step_ns) : 0.0,
          "frac");
  rep.add("hypercube.team.speedup_4v1", p50 / median(wide_ms), "x");
  const double acquires =
      static_cast<double>(st.pool_hits + st.pool_misses);
  rep.add("hypercube.pool_hit_ratio",
          acquires > 0 ? static_cast<double>(st.pool_hits) / acquires : 1.0,
          "frac");
  rep.add("hypercube.alloc_bytes", static_cast<double>(st.alloc_bytes), "B");
  rep.add("hypercube.sim_us_per_wall_s", e.sim_us / (p50 / 1e3),
          "sim_us/s");
  // fault
  rep.add("fault.retries", static_cast<double>(e.retries), "count");
  rep.add("fault.chksum_fails", static_cast<double>(st.fault_chksum_fails),
          "count");
  rep.add("fault.reroutes", static_cast<double>(st.fault_reroutes), "count");
  rep.add("fault.exchange_overhead.ns", L.fault_overhead_ns, "ns");
  // net
  rep.add("net.link_hops_per_message",
          e.messages > 0 ? static_cast<double>(st.link_hops) /
                               static_cast<double>(e.messages)
                         : 0.0,
          "ratio");
  // obs
  rep.add("obs.trace_overhead_frac", p50_t / p50 - 1.0, "frac");
  rep.add("sim.comm_us", steady.comm_us, "sim_us");
  rep.add("sim.compute_us", steady.compute_us, "sim_us");
  rep.add("sim.router_us", steady.router_us, "sim_us");
  rep.add("sim.host_us", steady.host_us, "sim_us");
  for (std::size_t k = 0; k < 3; ++k) {
    const bool has = k < first->top.size();
    const std::string name = "obs.top" + std::to_string(k + 1);
    rep.add(name + ".self_sim_us", has ? first->top[k].first : 0.0,
            "sim_us");
    std::printf("%s region: %s\n", name.c_str(),
                has ? first->top[k].second.c_str() : "-");
  }
  std::printf("median message length: %zu elements\n", msg_len);
  std::printf("solves: %zu untraced, %zu traced, %zu at %u lanes\n",
              untraced_ms.size(), traced_ms.size(), wide_ms.size(),
              kSweepLanes);
  if (!a.trace_out.empty() && spans.write_chrome(a.trace_out))
    std::printf("spans: %zu written to %s\n", spans.spans().size(),
                a.trace_out.c_str());
  finish(a, t, extra_ok, rep);
  return 0;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  const bool known = std::any_of(
      std::begin(kWorkloads), std::end(kWorkloads),
      [&](const char* name) { return a.workload == name; });
  return argc % 2 == 1 && known && a.seconds > 0 && a.seconds <= 60 &&
         a.trace >= 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: vmp_perfbench --workload "
                 "gauss_lu|cg_dense|simplex_lp_faults --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  std::printf("workload %s, seed %llu, %g s, trace %d, %u lanes\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace, perfbench::kLanes);
  try {
    return a.trace == 1 ? perfbench::run_traced(a)
                        : perfbench::run_untraced(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
