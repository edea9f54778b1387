/// \file machine.hpp
/// \brief The lockstep Boolean-cube machine the whole library runs on.
///
/// `Cube` models a distributed-memory hypercube of `p = 2^dim` virtual
/// processors executing SIMD-style (as the Connection Machine did): every
/// step is collective, and the simulated clock advances once per step by
/// the cost of the slowest processor.  Two step types exist:
///
///  * `compute(...)`   — each processor runs the same local function on its
///                       own memory; charged `max_flops · t_a`.
///  * a communication round — messages cross logical cube edges; charged
///                       `τ + max_n · t_c` (the most loaded physical link on
///                       routed topologies).  A round has one of two shapes:
///      - the dense round `exchange_allport<T>(dims, send, recv)` (and its
///        one-dimension form `exchange<T>(d, send, recv)`): every processor
///        may send on each port, staged and delivered on the team lanes;
///      - the list round `exchange_list<T>(msgs, dim_tag, recv)`: a
///        caller-built list of only the live messages, each on its own
///        cube edge, staged and delivered on the host thread.
///    Both shapes share one staging store, one fault-recovery engine and
///    one charge, so every byte that moves between processors is seen by
///    the injector, the checksum, the clock and the tracer.
///
/// Correctness never depends on host threading: the per-processor loops run
/// on a persistent SPMD worker team (hypercube/team.hpp, Options::threads /
/// VMP_THREADS) whose lanes own static processor ranges.  Host threads
/// change wall-clock speed only, never simulated time or results — staging
/// every send before any delivery makes in-place combining (all-reduce
/// style) race-free, and the per-step statistics are reduced from per-lane
/// integer partials whose sums and maxima are independent of the partition.
/// Multi-round loops open a `session()` so their steps run back to back
/// inside one team activation (see docs/threading.md).
///
/// The machine can run under deterministic fault injection
/// (`enable_faults`): seeded plans of drops, corruption, latency spikes and
/// dead links/nodes, recovered by checksummed bounded retry and
/// route-around.  Within-budget plans leave every result bit-identical;
/// beyond budget the machine throws FaultError.  See docs/faults.md.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "fault/injector.hpp"
#include "hypercube/bits.hpp"
#include "hypercube/buffer_pool.hpp"
#include "hypercube/check.hpp"
#include "hypercube/cost_model.hpp"
#include "hypercube/sim_clock.hpp"
#include "hypercube/team.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vmp {
// proc_t (processor id, dense in [0, 2^dim)) lives in net/topology.hpp.

/// One message of a lockstep round: the (src, dst) LOGICAL cube edge, the
/// cube dimension it crosses, a caller context index (the all-port port),
/// and a view of its payload.  Callers hand lists of these to
/// Cube::exchange_list; the fault-recovery engine sees the same record with
/// `data` pointing at the staged copy.  On a non-unit-hop topology the
/// logical edge resolves to a multi-hop physical route at delivery/charging
/// time.
template <class T>
struct FaultMsg {
  proc_t src = 0;
  proc_t dst = 0;
  int dim = 0;
  std::size_t port = 0;
  const T* data = nullptr;
  std::size_t len = 0;
  [[nodiscard]] std::span<const T> payload() const { return {data, len}; }
};

namespace detail {

/// Payload types the zero-allocation staging slots handle: memcpy-able and
/// without extended alignment (pooled blocks are new-aligned).  Every round
/// stages through these slots, so every payload type must qualify.
template <class T>
inline constexpr bool kPoolStageable =
    std::is_trivially_copyable_v<T> && alignof(T) <= alignof(std::max_align_t);

/// One persistent staging slot of the zero-allocation exchange path.  The
/// payload is copied here AT send() TIME (the span send() returns only has
/// to live for the duration of the call), and the slot's capacity persists
/// across rounds, so a steady-state exchange loop never touches the heap.
/// `grew` records the bytes freshly heap-allocated by this round's growth
/// (0 on reuse); the staging lane folds it into its hit/miss partial.
struct StageBuf {
  std::unique_ptr<std::byte[]> bytes;
  std::size_t cap = 0;   ///< capacity in bytes (bucket-rounded, monotone)
  std::size_t len = 0;   ///< elements staged this round
  std::size_t grew = 0;  ///< bytes newly allocated this round

  template <class T>
  void stage(std::span<const T> s) {
    const std::size_t need = s.size() * sizeof(T);
    grew = 0;
    if (need > cap) {
      const std::size_t want = BufferPool::bucket_bytes(need);
      bytes = std::make_unique<std::byte[]>(want);
      cap = want;
      grew = want;
    }
    if (need != 0) std::memcpy(bytes.get(), s.data(), need);
    len = s.size();
  }

  template <class T>
  [[nodiscard]] const T* data() const {
    return reinterpret_cast<const T*>(bytes.get());
  }
  template <class T>
  [[nodiscard]] std::span<const T> view() const {
    return {data<T>(), len};
  }
};

/// Per-lane partial of one round's message statistics, accumulated while
/// the same lane stages its processor range and reduced in lane order at
/// the barrier.  Everything here is an integer sum or maximum, so the
/// reduced totals are identical for ANY partition of the processors across
/// lanes — this is what keeps SimStats bit-identical across thread counts.
/// Padded so lanes never share a cache line while accumulating.  A list
/// round, staged on the host thread, accumulates a single one.
struct alignas(64) ExPartial {
  std::size_t max_elems = 0;
  std::size_t total = 0;
  std::size_t messages = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t miss_bytes = 0;

  /// Fold one staged send of `len` elements that freshly allocated `grew`
  /// bytes (0 on slot reuse).  Empty sends count nothing, matching the
  /// elided-message rule.
  void note(std::size_t len, std::size_t grew) {
    if (len == 0) return;
    ++messages;
    total += len;
    if (len > max_elems) max_elems = len;
    if (grew != 0) {
      ++pool_misses;
      miss_bytes += grew;
    } else {
      ++pool_hits;
    }
  }

  void merge(const ExPartial& o) {
    if (o.max_elems > max_elems) max_elems = o.max_elems;
    total += o.total;
    messages += o.messages;
    pool_hits += o.pool_hits;
    pool_misses += o.pool_misses;
    miss_bytes += o.miss_bytes;
  }
};

/// Type-erased holder of one per-Cube scratch object (Cube::scratch).
struct ScratchBase {
  virtual ~ScratchBase() = default;
};

template <class V>
struct Scratch final : ScratchBase {
  V value;
};

/// Cached physical routes of one logical cube dimension on a non-unit-hop
/// topology: for every source q the hops of route(q, q ^ 2^d), with the
/// per-hop directed-link index and charge multiplier precomputed so the
/// per-round contention scan is table walks only.  Built lazily per
/// dimension on first use; dead-link detours never go through this cache
/// (kills are consulted per round).
struct DimRoutes {
  bool built = false;
  std::vector<std::uint32_t> off;    ///< procs+1 offsets into hops
  std::vector<Hop> hops;             ///< concatenated route hops
  std::vector<std::uint32_t> lidx;   ///< per hop: directed link index
  std::vector<double> mult;          ///< per hop: per-element multiplier
  std::vector<double> startup;       ///< per src: summed start-up mults
  int common_axis = -1;              ///< shared axis of every hop, or -1
};

}  // namespace detail

class Cube {
 public:
  struct Options {
    /// Host threads (team lanes) running the per-processor loops;
    /// 0 = one per hardware thread, 1 = fully serial (deterministic
    /// wall-clock, same results at any setting).  Defaults to the
    /// VMP_THREADS environment variable (unset → 1).
    unsigned threads = env_threads();

    /// Physical network the logical cube's exchanges cross (see
    /// net/topology.hpp and docs/topology.md).  Defaults to the
    /// VMP_TOPOLOGY environment variable (unset → Hypercube, on which
    /// every charge is bit-identical to the historical cube-only
    /// machine).  Algorithms are unchanged by this knob — results are
    /// topology-independent; only routes, charges and fault paths move.
    TopologyKind topology = env_topology();
  };

  explicit Cube(int dim, CostParams params = CostParams::cm2());
  Cube(int dim, CostParams params, Options opts);

  Cube(const Cube&) = delete;
  Cube& operator=(const Cube&) = delete;

  /// Logical cube dimension — the number of address bits, i.e.
  /// `log2(node_count())`.  A *logical* quantity (algorithms recurse over
  /// it regardless of the physical network); for physical-network queries
  /// prefer the topology-neutral accessors below.  Kept as the documented
  /// alias the paper-era call sites use.
  [[nodiscard]] int dim() const { return dim_; }
  /// Number of processors, `2^dim()` (alias of node_count()).
  [[nodiscard]] proc_t procs() const { return procs_; }
  /// Host lanes executing the per-processor loops (≥ 1; 1 = fully serial).
  [[nodiscard]] unsigned threads() const { return team_.lanes(); }

  /// Topology-neutral machine queries (preferred over dim()/procs() in
  /// new code): the physical network underneath the logical cube.
  [[nodiscard]] proc_t node_count() const { return procs_; }
  /// Physical neighbors of processor `p`, in port order.
  [[nodiscard]] std::vector<proc_t> neighbors(proc_t p) const {
    return topo_->neighbors(p);
  }
  /// Physical network diameter (== dim() on the hypercube preset).
  [[nodiscard]] int diameter() const { return topo_->diameter(); }
  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] TopologyKind topology_kind() const { return topo_->kind(); }
  /// True when every logical cube edge is one physical link (hypercube).
  [[nodiscard]] bool unit_hop() const { return unit_hop_; }

  [[nodiscard]] SimClock& clock() { return clock_; }
  [[nodiscard]] const SimClock& clock() const { return clock_; }
  [[nodiscard]] const CostParams& costs() const { return clock_.params(); }

  /// Attach a deterministic fault plan: from now on every communication
  /// round consults the injector, checksums payloads, retries transient
  /// losses with exponential backoff, and routes around dead links.  All
  /// recovery time is charged to the simulated clock under `fault_*` trace
  /// regions; results stay bit-identical to the fault-free run as long as
  /// the plan stays within `policy`'s budget, and FaultError is thrown —
  /// never a wrong answer returned — beyond it.  With no injector attached
  /// (the default) the communication path is exactly the fault-free one.
  void enable_faults(const FaultPlan& plan, RecoveryPolicy policy = {}) {
    faults_ = std::make_unique<FaultInjector>(plan, policy);
    faults_->bind_topology(topo_.get());
  }
  void disable_faults() { faults_.reset(); }
  [[nodiscard]] FaultInjector* faults() { return faults_.get(); }
  [[nodiscard]] const FaultInjector* faults() const { return faults_.get(); }

  /// One lockstep compute step: run `fn(proc)` on every processor and charge
  /// `max_flops` (the analytic per-processor bound) to the clock.
  /// `total_flops` only feeds statistics; pass the aggregate over all
  /// processors when known, else `max_flops * procs()`.
  template <class F>
  void compute(std::uint64_t max_flops, std::uint64_t total_flops, F&& fn) {
    team_.step(procs_, [&](unsigned, std::size_t lo, std::size_t hi) {
      for (std::size_t q = lo; q < hi; ++q) fn(static_cast<proc_t>(q));
    });
    clock_.charge_compute_step(max_flops, total_flops);
  }

  /// Convenience overload: uniform per-processor flop count.
  template <class F>
  void compute(std::uint64_t flops_each, F&& fn) {
    compute(flops_each, flops_each * procs_, std::forward<F>(fn));
  }

  /// Host-side / zero-cost traversal of all processors (data loading,
  /// verification); charged nothing.  Must not be used inside timed
  /// algorithm sections for anything the machine would have to compute.
  template <class F>
  void each_proc(F&& fn) const {
    for (proc_t q = 0; q < procs_; ++q) fn(q);
  }

  /// One lockstep DENSE round, the machine's first round shape: several
  /// cube dimensions may be used at once, one message per port (all-port).
  /// `send(q, idx)` returns the span processor q offers across `dims[idx]`
  /// (empty = q sends nothing on that port); `recv(q, idx, data)` delivers
  /// what q's partner across `dims[idx]` offered.  Every send is staged
  /// before any delivery, so `recv` may combine into (or overwrite) the
  /// very buffer `send` exposed, and send's span only has to outlive its
  /// own call.
  ///
  /// Charged `τ + max_single_port · t_c` — one message start-up regardless
  /// of message length (the amortization at the heart of the paper's
  /// optimized primitives), and the all-port model of Johnsson & Ho, where
  /// a processor drives all lg p of its ports at once and only the largest
  /// per-port transfer paces the round.  Routed presets pay the round's
  /// most loaded physical link.  If nobody sends, the round is free.
  ///
  /// Its callers (exchange, the pipelined all-reduce, the ESBT broadcast)
  /// load every processor, so staging (q's port-idx message in slot
  /// idx·p + q, whose capacity persists across rounds: a steady-state loop
  /// never touches the heap) and delivery are team steps, and the round's
  /// statistics are reduced from per-lane partials.  Its live messages, in
  /// (port, src) order, take the list round's fault recovery
  /// (deliver_with_faults, on the host thread) and charge.
  template <class T, class SendFn, class RecvFn>
  void exchange_allport(std::span<const int> dims, SendFn&& send,
                        RecvFn&& recv) {
    static_assert(detail::kPoolStageable<T>,
                  "all-port rounds stage payloads through the memcpy slots");
    for (std::size_t a = 0; a < dims.size(); ++a) {
      VMP_REQUIRE(dims[a] >= 0 && dims[a] < dim_,
                  "exchange dimension out of range");
      for (std::size_t b = a + 1; b < dims.size(); ++b)
        VMP_REQUIRE(dims[a] != dims[b], "all-port dims must be distinct");
    }
    const std::size_t nd = dims.size();
    detail::StageBuf* stage = stage_slots(nd * procs_);
    detail::ExPartial* parts = lane_partials();
    team_.step(procs_, [&](unsigned lane, std::size_t lo, std::size_t hi) {
      detail::ExPartial p;
      for (std::size_t q = lo; q < hi; ++q)
        for (std::size_t idx = 0; idx < nd; ++idx) {
          detail::StageBuf& sb = stage[idx * procs_ + q];
          sb.stage(send(static_cast<proc_t>(q), idx));
          p.note(sb.len, sb.grew);
        }
      parts[lane] = p;
    });
    const detail::ExPartial r = reduce_partials();
    if (r.messages == 0) return;
    const int dim_tag = nd == 1 ? dims[0] : -1;
    const auto msg = [&](std::uint32_t slot) {
      const std::size_t idx = slot >> dim_;  // slot = idx·p + q, p = 2^dim
      const proc_t q = slot & (procs_ - 1);
      return FaultMsg<T>{q, q ^ (proc_t{1} << dims[idx]), dims[idx], idx,
                         stage[slot].template data<T>(), stage[slot].len};
    };
    if (faults_) {
      live_slots(nd * procs_);
      deliver_with_faults<T>(msg, r, dim_tag, [&](std::uint32_t slot) {
        const FaultMsg<T> m = msg(slot);
        recv(m.dst, m.port, m.payload());
      });
      return;
    }
    team_.step(procs_, [&](unsigned, std::size_t lo, std::size_t hi) {
      for (std::size_t q = lo; q < hi; ++q)
        for (std::size_t idx = 0; idx < nd; ++idx) {
          const detail::StageBuf& in =
              stage[idx * procs_ + (q ^ (std::size_t{1} << dims[idx]))];
          if (in.len != 0)
            recv(static_cast<proc_t>(q), idx, in.template view<T>());
        }
    });
    charge_msgs(unit_hop_ ? live_ids() : live_slots(nd * procs_), msg, r,
                dim_tag);
  }

  /// One lockstep one-port round along cube dimension `d`: the dense
  /// round over {d}.  `send(q)` offers q's message to its partner
  /// `q ^ (1<<d)`; `recv(q, data)` delivers what q's partner offered.
  template <class T, class SendFn, class RecvFn>
  void exchange(int d, SendFn&& send, RecvFn&& recv) {
    const int dims[] = {d};
    exchange_allport<T>(
        std::span<const int>(dims),
        [&](proc_t q, std::size_t) { return send(q); },
        [&](proc_t q, std::size_t, std::span<const T> in) { recv(q, in); });
  }

  /// One lockstep round over a caller-built list of LIVE messages, the
  /// machine's second round shape: the rounds where only a few processors
  /// hold data (the tree collectives) or where every processor picks its
  /// own dimension (the Gray shifts' store-and-forward legs).  `msgs` lists
  /// the round's messages (the all-port rounds' (port, src) order); each
  /// crosses the logical cube edge (src, src ^ 2^dim), and different
  /// messages may cross different dimensions.  `dim_tag` is the dimension the round is recorded under in
  /// the per-dimension statistics (-1 = mixed).  `recv(i, data)` delivers
  /// message i's payload to msgs[i].dst.
  ///
  /// Every payload is copied into the persistent staging slots before any
  /// delivery, so `recv` may overwrite the very buffer a message exposed.
  /// Zero-length messages are elided.  The round is charged like every
  /// lockstep round — `τ + max_elems·t_c` on the unit-hop preset, the
  /// most loaded physical link elsewhere — and runs through the fault
  /// recovery of deliver_with_faults when a plan is attached.  Staging,
  /// delivery and charging run on the host thread over the live messages
  /// only: no team step, no sweep over every processor.
  template <class T, class RecvFn>
  void exchange_list(std::span<const FaultMsg<T>> msgs, int dim_tag,
                     RecvFn&& recv) {
    static_assert(detail::kPoolStageable<T>,
                  "list rounds stage payloads through the memcpy slots");
    detail::StageBuf* stage = stage_slots(msgs.size());
    detail::ExPartial r;
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      const FaultMsg<T>& m = msgs[i];
      VMP_REQUIRE(m.dim >= 0 && m.dim < dim_ && m.src < procs_ &&
                      m.dst == (m.src ^ (proc_t{1} << m.dim)),
                  "list-round message must cross one cube edge");
      stage[i].stage(m.payload());
      r.note(m.len, stage[i].grew);
    }
    finish_list_round(msgs, r, dim_tag, recv);
  }

  /// The persistent worker team backing the per-processor loops.
  [[nodiscard]] WorkerTeam& team() { return team_; }
  [[nodiscard]] const WorkerTeam& team() const { return team_; }

  /// Open a batch session on the team: multi-round loops (a collective's
  /// lg p dimensions, an all-port schedule, a routing sweep) hold one of
  /// these so their steps run inside a single team activation.  Purely a
  /// wall-clock hint — simulated results are identical with or without.
  [[nodiscard]] WorkerTeam::Session session() { return team_.session(); }

  /// The cube's recycling allocator for hot-path scratch (exchange staging,
  /// router queues, collective workspaces).  Host-thread only.
  [[nodiscard]] BufferPool& buffers() { return buffers_; }
  [[nodiscard]] const BufferPool& buffers() const { return buffers_; }

  /// Host-thread scratch object of type `V`, one per type per Cube and
  /// persistent across calls: the message lists and schedules of the
  /// list-round collectives live here, so steady-state calls reuse the
  /// capacity instead of allocating.  Callers clear what they reuse and
  /// must not hold two users of the same `V` live at once.
  template <class V>
  [[nodiscard]] V& scratch() {
    std::unique_ptr<detail::ScratchBase>& entry =
        scratch_[std::type_index(typeid(V))];
    if (!entry) entry = std::make_unique<detail::Scratch<V>>();
    return static_cast<detail::Scratch<V>*>(entry.get())->value;
  }

  /// Engine metrics registry (obs/metrics.hpp).  Off by default — every
  /// instrumented hot path is gated on one pointer — and wall-clock probes
  /// only run on sampled steps, so enabling it does not perturb dispatch.
  /// Metrics never touch the SimClock: results, now_us, SimStats and
  /// traces are bit-identical with metrics on or off.
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

  /// Arm the metrics tier: reset the registry for this cube's lane count
  /// and wire the team, the buffer pool and (lazily, per run) the router.
  /// Host thread only, outside any step.
  void enable_metrics(
      unsigned sample_every = MetricsRegistry::kDefaultSampleEvery) {
    metrics_.enable(team_.lanes(), sample_every);
    team_.set_metrics(&metrics_);
    buffers_.set_metrics(&metrics_);
  }

  /// Detach the instrumented subsystems.  The registry keeps its values —
  /// a final snapshot after disable is the common read pattern.
  void disable_metrics() {
    team_.set_metrics(nullptr);
    buffers_.set_metrics(nullptr);
    metrics_.disable();
  }

 private:
  /// Deliver and charge one list round whose message i is staged in slot
  /// i (`r` holds the staged statistics; no live message = a free round).
  /// Only the live messages are visited: the round never sweeps the
  /// processors.
  template <class T, class RecvFn>
  void finish_list_round(std::span<const FaultMsg<T>> msgs,
                         const detail::ExPartial& r, int dim_tag,
                         RecvFn&& recv) {
    if (r.messages == 0) return;
    note_pool(r);
    const detail::StageBuf* stage = stage_.data();
    std::vector<std::uint32_t>& live = live_ids();
    for (std::size_t i = 0; i < msgs.size(); ++i)
      if (msgs[i].len != 0) live.push_back(static_cast<std::uint32_t>(i));
    const auto msg = [&](std::uint32_t i) {
      FaultMsg<T> m = msgs[i];
      m.data = stage[i].template data<T>();
      return m;
    };
    const auto deliver = [&](std::uint32_t i) {
      recv(std::size_t{i}, stage[i].template view<T>());
    };
    if (faults_) {
      deliver_with_faults<T>(msg, r, dim_tag, deliver);
      return;
    }
    for (const std::uint32_t i : live) deliver(i);
    charge_msgs(live, msg, r, dim_tag);
  }

  /// Charge one round over the messages `ids` (`msg(id)` yields each
  /// one): on the unit-hop preset the historical `τ + max_elems·t_c` step
  /// recorded under `charge_dim`; otherwise the messages' cached routes
  /// are loaded link by link and the round pays its most loaded link.
  template <class MsgFn>
  void charge_msgs(std::span<const std::uint32_t> ids, MsgFn& msg,
                   const detail::ExPartial& r, int charge_dim) {
    if (unit_hop_) {
      clock_.charge_comm_step(r.max_elems, r.messages, r.total, charge_dim);
      return;
    }
    rc_begin();
    for (const std::uint32_t id : ids) {
      const auto m = msg(id);
      rc_add(m.dim, m.src, m.len);
    }
    rc_charge(r.max_elems, r.messages, r.total);
  }

  /// Non-unit-hop round-cost accumulator (machine.cpp): rc_begin resets,
  /// rc_add folds one logical-edge message's cached route into the
  /// per-directed-link loads, rc_charge reduces and charges the clock.
  void rc_begin();
  void rc_add(int d, proc_t q, std::size_t len);
  void rc_charge(std::size_t max_elems, std::size_t messages,
                 std::size_t total);
  /// The cached physical routes of logical dimension `d` (built lazily).
  [[nodiscard]] const detail::DimRoutes& dim_routes(int d);

  /// True when the physical route of the logical edge (src, src^2^d) is
  /// severed this round (dead link, or dead interior node off-endpoint):
  /// the message must detour.  On the hypercube this is exactly the seed
  /// single-link liveness test.
  [[nodiscard]] bool route_compromised(std::uint64_t round, proc_t src,
                                       int d);
  /// Minimal live detour for the severed logical edge; false = cut off.
  [[nodiscard]] bool compute_reroute(std::uint64_t round, proc_t src,
                                     proc_t dst, std::vector<Hop>& hops);
  /// Charge one detour hop of `n` elements (the seed per-hop
  /// `τ + n·t_c` on the hypercube, multiplier-weighted elsewhere).
  void charge_reroute_hop(std::size_t n, const Hop& h);

  /// The persistent staging slots behind the zero-allocation exchange path.
  /// Grown (never shrunk) to the round's slot count; slot capacities are
  /// retained across rounds so steady-state staging is allocation-free.
  detail::StageBuf* stage_slots(std::size_t slots) {
    if (stage_.size() < slots) stage_.resize(slots);
    return stage_.data();
  }

  /// Per-lane statistic partials for one round (the backing vector is
  /// reused across rounds, so this allocates only once per Cube).  No
  /// zeroing: every lane — including lanes whose range is empty — stores
  /// its freshly-accumulated partial into its slot during the staging step.
  detail::ExPartial* lane_partials() {
    partials_.resize(team_.lanes());
    return partials_.data();
  }

  /// Reduce the lane partials in lane order and fold the hit/miss counts
  /// into the clock.  Sums and maxima of integers — the result does not
  /// depend on how processors were partitioned across lanes.
  detail::ExPartial reduce_partials() {
    detail::ExPartial r;
    for (const detail::ExPartial& p : partials_) r.merge(p);
    if (r.messages != 0) note_pool(r);
    return r;
  }

  /// Fold one round's staging-slot hits and misses into the clock.
  void note_pool(const detail::ExPartial& r) {
    clock_.note_pool_hits(r.pool_hits);
    clock_.note_pool_misses(r.pool_misses, r.miss_bytes);
  }

  /// The persistent list of a round's live message ids, cleared; it seeds
  /// deliver_with_faults' pending list.
  std::vector<std::uint32_t>& live_ids() {
    live_.clear();
    return live_;
  }

  /// live_ids() filled with the nonempty staging slots among the first
  /// `slots`, ascending: the live messages of a dense round.
  std::vector<std::uint32_t>& live_slots(std::size_t slots) {
    std::vector<std::uint32_t>& live = live_ids();
    for (std::size_t i = 0; i < slots; ++i)
      if (stage_[i].len != 0) live.push_back(static_cast<std::uint32_t>(i));
    return live;
  }

  /// Recovery-aware delivery of one lockstep round's staged messages.
  ///
  /// The round's live message ids are in `live_` (see live_ids());
  /// `msg(id)` yields message `id` with its staged payload and
  /// `deliver(id)` hands it to the receiver.  Attempt 0 charges exactly the
  /// fault-free round cost (`r` holds the round's fault-free statistics),
  /// so an inert plan leaves the clock bit-identical.  Every further cost
  /// is extra and attributed to a `fault_*` trace region:
  ///
  ///  * dropped or checksum-rejected messages are retransmitted under
  ///    "fault_retry" — exponential backoff plus one comm step over the
  ///    surviving senders per attempt, bounded by RecoveryPolicy;
  ///  * messages on a permanently dead link detour over three live edges
  ///    (the cube's parallel-paths guarantee) under "fault_reroute";
  ///  * per-edge latency spikes stall the round under "fault_spike".
  ///
  /// A dead endpoint, an exhausted retry budget, or a fully cut detour
  /// throws FaultError — degraded runs fail loudly, never silently.  The
  /// seed/round half of every fault hash is taken once per round, and a
  /// plan without kills skips the endpoint and route checks altogether.
  /// Deliveries happen on the host thread in the order of `live_`; each
  /// destination receives its payload exactly once, so results match the
  /// fault-free delivery bit for bit.  The pending, failed and rerouted
  /// lists are persistent members, so recovery allocates nothing in
  /// steady state.
  template <class T, class MsgFn, class DeliverFn>
  void deliver_with_faults(MsgFn&& msg, const detail::ExPartial& r,
                           int charge_dim, DeliverFn&& deliver) {
    FaultInjector& fi = *faults_;
    const std::uint64_t round = fi.begin_round();
    const FaultInjector::RoundKey key = fi.round_key(round);
    const bool kills = fi.has_kills();
    const RecoveryPolicy& rp = fi.policy();
    std::vector<std::uint32_t>& pending = live_;
    rerouted_.clear();
    int attempt = 0;
    while (!pending.empty()) {
      if (kills) {
        for (const std::uint32_t id : pending) {
          const FaultMsg<T> m = msg(id);
          if (fi.node_dead(round, m.src) || fi.node_dead(round, m.dst))
            throw FaultError(
                "node " +
                std::to_string(fi.node_dead(round, m.src) ? m.src : m.dst) +
                " is dead (round " + std::to_string(round) +
                "): lockstep round cannot complete — remap the embedding "
                "off the failed node before continuing");
        }
      }
      if (attempt == 0) {
        charge_msgs(pending, msg, r, charge_dim);
      } else {
        TraceRegion fault_region(clock_, "fault_retry");
        clock_.charge_us(rp.backoff_us *
                         static_cast<double>(std::uint64_t{1}
                                             << (attempt - 1)));
        detail::ExPartial retry;  // the resent messages' statistics
        for (const std::uint32_t id : pending) retry.note(msg(id).len, 0);
        charge_msgs(pending, msg, retry, charge_dim);
        clock_.note_fault_retries(pending.size());
      }
      double spike = 0.0;
      failed_.clear();
      for (const std::uint32_t id : pending) {
        const FaultMsg<T> m = msg(id);
        if (kills && route_compromised(round, m.src, m.dim)) {
          rerouted_.push_back(id);
          continue;
        }
        const FaultOutcome oc = fi.decide(key, attempt, m.src, m.dim);
        spike = std::max(spike, oc.spike_us);
        if (oc.drop) {
          failed_.push_back(id);
          continue;
        }
        if (oc.corrupt && checksum_rejects<T>(m, key, attempt)) {
          clock_.note_fault_chksum_fail();
          failed_.push_back(id);
          continue;
        }
        deliver(id);
      }
      if (spike > 0.0) {
        TraceRegion fault_region(clock_, "fault_spike");
        clock_.charge_fault_latency(spike);
      }
      pending.swap(failed_);
      ++attempt;
      if (!pending.empty() && attempt > rp.max_retries)
        throw FaultError("fault recovery budget exhausted: " +
                         std::to_string(pending.size()) +
                         " message(s) undelivered after " +
                         std::to_string(rp.max_retries) +
                         " retries (round " + std::to_string(round) + ")");
    }
    for (const std::uint32_t id : rerouted_)
      reroute_around_dead_link(msg(id), round, [&] { deliver(id); });
  }

  /// Checksum verification of one (deterministically) corrupted payload:
  /// flips one bit of a wire copy and checks FNV-1a catches it.  True
  /// means the receiver rejected the payload (the message is retried); the
  /// caller's buffer is never touched, so corruption can only cost time.
  /// The wire copy lives in a persistent member (no per-message heap).
  template <class T>
  [[nodiscard]] bool checksum_rejects(const FaultMsg<T>& m,
                                      FaultInjector::RoundKey key,
                                      int attempt) {
    const std::size_t nbytes = m.len * sizeof(T);
    if (nbytes == 0) return true;
    const auto* bytes = reinterpret_cast<const unsigned char*>(m.data);
    const std::uint64_t sum = fnv1a(bytes, nbytes);
    wire_.assign(bytes, bytes + nbytes);
    const std::uint64_t h =
        FaultInjector::message_hash(key, attempt, m.src, m.dim);
    wire_[static_cast<std::size_t>(h % nbytes)] ^=
        static_cast<unsigned char>(1u << ((h >> 17) % 8));
    return fnv1a(wire_.data(), nbytes) != sum;
  }

  /// Deliver one message around its severed physical route, on a live
  /// detour the topology computes (Topology::route_avoiding), charged hop
  /// by hop.  On the hypercube the detour is the historical 3-hop
  /// parallel path src → src^bit2 → dst^bit2 → dst (lowest live
  /// dimension wins) with the seed's exact per-hop charges.
  template <class T, class DeliverFn>
  void reroute_around_dead_link(const FaultMsg<T>& m, std::uint64_t round,
                                DeliverFn&& deliver) {
    TraceRegion fault_region(clock_, "fault_reroute");
    reroute_hops_.clear();
    if (!compute_reroute(round, m.src, m.dst, reroute_hops_))
      throw FaultError("no live route around dead link (" +
                       std::to_string(m.src) + ", dim " +
                       std::to_string(m.dim) +
                       "): every detour crosses another dead edge or node");
    for (const Hop& h : reroute_hops_) charge_reroute_hop(m.len, h);
    clock_.note_fault_reroute();
    deliver();
  }

  int dim_;
  proc_t procs_;
  std::unique_ptr<Topology> topo_;
  bool unit_hop_ = true;
  SimClock clock_;
  WorkerTeam team_;
  BufferPool buffers_{&clock_};
  MetricsRegistry metrics_;
  std::vector<detail::StageBuf> stage_;
  std::vector<detail::ExPartial> partials_;
  std::unordered_map<std::type_index, std::unique_ptr<detail::ScratchBase>>
      scratch_;
  std::unique_ptr<FaultInjector> faults_;
  // Fault-delivery lists (message ids) and checksum wire copy, persistent
  // so a faulted round allocates nothing in steady state.
  std::vector<std::uint32_t> live_;
  std::vector<std::uint32_t> failed_;
  std::vector<std::uint32_t> rerouted_;
  std::vector<unsigned char> wire_;
  // Non-unit-hop round-charge state (untouched on the hypercube preset).
  std::vector<detail::DimRoutes> dim_routes_;
  std::vector<double> link_load_;        ///< per directed link, rc scratch
  std::vector<std::uint32_t> rc_touched_;
  double rc_startup_ = 0.0;
  std::uint64_t rc_hops_ = 0;
  int rc_axis_ = -2;
  std::vector<Hop> reroute_hops_;
  std::vector<Hop> route_scratch_;
};

/// Charge one transfer of `n` elements between the front end (the host)
/// and the cube: loading data in or reading a result back.  It crosses no
/// cube edge, so no round, route or fault injector is involved — one
/// start-up plus `n · t_c`, recorded as one message.
inline void front_end_transfer(Cube& cube, std::size_t n) {
  cube.clock().charge_comm_step(n, 1, n);
}

}  // namespace vmp
