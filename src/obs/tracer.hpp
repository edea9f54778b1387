/// \file tracer.hpp
/// \brief Per-region cost attribution for the simulated machine.
///
/// The SimClock owns a Tracer.  Algorithms open named RAII regions
/// (obs/trace.hpp); every clock charge — comm step, compute step, router
/// cycle, host time — is attributed to the innermost open region, keyed by
/// its full path ("matvec/reduce_rows/allreduce").  The tracer keeps
///
///  * a **profile**: per-path RegionProfile of simulated µs split into
///    comm/compute/router/host, plus the traffic counters and a
///    per-cube-dimension element histogram (self charges only — inclusive
///    totals are a fold over the path hierarchy, see inclusive_profiles);
///  * an optional **event log**: one TraceEvent per charge and one
///    RegionSpan per closed region, timestamped in simulated time, from
///    which obs/chrome_trace.hpp renders a Perfetto-loadable timeline.
///
/// Paths are interned: each distinct path is a node of a tree whose
/// string is built once, the region stack holds node ids, and a charge
/// updates its node's profile through a cached pointer — opening a region
/// and charging it costs integer work, not string building or map lookups.
///
/// All recording happens on the host thread (charges are issued after the
/// per-processor loops join), so the tracer needs no synchronization and
/// attribution is bit-identical for any Cube::Options::threads setting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace vmp {

/// What a single clock charge paid for.
enum class ChargeKind : std::uint8_t { Comm = 0, Compute = 1, Router = 2, Host = 3 };

[[nodiscard]] const char* to_string(ChargeKind k);

/// Cost and traffic attributed to one region path (self charges only:
/// charges issued while a *child* region was open are attributed to the
/// child, never double-counted here).
struct RegionProfile {
  double comm_us = 0.0;
  double compute_us = 0.0;
  double router_us = 0.0;
  double host_us = 0.0;
  std::uint64_t comm_steps = 0;       ///< lockstep rounds == message start-ups
  std::uint64_t messages = 0;
  std::uint64_t elements_moved = 0;
  std::uint64_t elements_serial = 0;  ///< per-step max elements, summed
  std::uint64_t flops_charged = 0;
  std::uint64_t flops_total = 0;
  std::uint64_t router_cycles = 0;
  std::uint64_t router_hops = 0;
  /// Elements moved per cube dimension (index = dimension of the exchange);
  /// rounds that span several dimensions at once (all-port, Gray shift
  /// legs, router cycles) land in `mixed_dim_elements`.
  std::vector<std::uint64_t> dim_elements;
  std::uint64_t mixed_dim_elements = 0;

  [[nodiscard]] double total_us() const {
    return comm_us + compute_us + router_us + host_us;
  }
  void add(const RegionProfile& o);
  bool operator==(const RegionProfile& o) const = default;
};

/// One recorded clock charge (event-log mode only).
struct TraceEvent {
  double ts_us = 0.0;   ///< simulated time when the charge began
  double dur_us = 0.0;  ///< simulated duration of the charge
  ChargeKind kind = ChargeKind::Host;
  int dim = -1;  ///< cube dimension of a comm step; -1 = mixed / n.a.
  std::uint64_t messages = 0;
  std::uint64_t elements = 0;
  std::uint64_t flops = 0;
  std::uint64_t packets = 0;
  std::uint32_t path_id = 0;  ///< index into Tracer::paths()

  bool operator==(const TraceEvent&) const = default;
};

/// One closed region instance on the simulated timeline (event-log mode).
struct RegionSpan {
  double begin_us = 0.0;
  double end_us = 0.0;
  std::uint32_t path_id = 0;
  std::uint32_t depth = 0;  ///< nesting depth at open time (outermost = 0)

  bool operator==(const RegionSpan&) const = default;
};

/// Region stack + per-region profile + optional event log.  Movable, not
/// copyable: path nodes point into the tracer's own profile map.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  Tracer(Tracer&&) = default;
  Tracer& operator=(Tracer&&) = default;

  /// Open a region named `name` at simulated time `now_us`.  Names become
  /// path components and must not contain '/'.
  void push_region(std::string_view name, double now_us);
  /// Close the innermost region at simulated time `now_us`.
  void pop_region(double now_us);
  [[nodiscard]] std::size_t depth() const { return stack_.size(); }
  /// Full path of the innermost open region ("" when none is open).
  [[nodiscard]] const std::string& current_path() const {
    return nodes_[current()].path;
  }

  /// Record one clock charge against the innermost open region.  Called by
  /// SimClock only.
  void on_charge(ChargeKind kind, double t_begin_us, double dur_us, int dim,
                 std::uint64_t messages, std::uint64_t elements,
                 std::uint64_t elements_serial, std::uint64_t flops,
                 std::uint64_t flops_total, std::uint64_t packets);

  /// Self charges per region path.  The key "" collects charges issued
  /// outside any region.
  [[nodiscard]] const std::map<std::string, RegionProfile>& self_profiles()
      const {
    return self_;
  }

  /// Inclusive totals: each path's self profile plus the self profiles of
  /// every descendant path.  A parent's inclusive profile therefore equals
  /// its self profile plus the sum of its children's inclusive profiles.
  [[nodiscard]] std::map<std::string, RegionProfile> inclusive_profiles()
      const;

  /// Event-log mode: when on, every charge appends a TraceEvent and every
  /// closed region appends a RegionSpan (off by default — profiles are
  /// always maintained, the log is opt-in because it grows per charge).
  void set_recording(bool on) { recording_ = on; }
  [[nodiscard]] bool recording() const { return recording_; }
  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] const std::vector<RegionSpan>& spans() const { return spans_; }
  /// Interned region paths referenced by TraceEvent/RegionSpan::path_id.
  [[nodiscard]] const std::vector<std::string>& paths() const { return paths_; }

  /// Drop profiles, events and spans.  Open regions stay open but are
  /// re-stamped to have begun at time 0 (the caller resets its clock).
  void reset();

 private:
  /// One distinct region path.  Node 0 is the root: the "" path of
  /// charges outside any region.
  struct Node {
    std::string name;  ///< last path component
    std::string path;  ///< full path
    std::vector<std::uint32_t> children;
    RegionProfile* prof = nullptr;  ///< &self_[path] once charged
    std::uint32_t path_id = kNoPathId;  ///< index into paths_ once used
  };
  struct Frame {
    std::uint32_t node = 0;
    double begin_us = 0.0;
  };
  static constexpr std::uint32_t kNoPathId = ~std::uint32_t{0};

  [[nodiscard]] std::uint32_t current() const {
    return stack_.empty() ? 0 : stack_.back().node;
  }
  [[nodiscard]] std::uint32_t child(std::uint32_t parent,
                                    std::string_view name);
  [[nodiscard]] std::uint32_t intern(std::uint32_t node);

  std::vector<Node> nodes_ = std::vector<Node>(1);
  std::vector<Frame> stack_;
  std::map<std::string, RegionProfile> self_;
  bool recording_ = false;
  std::vector<TraceEvent> events_;
  std::vector<RegionSpan> spans_;
  std::vector<std::string> paths_;
};

}  // namespace vmp
