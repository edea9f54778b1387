/// \file injector.hpp
/// \brief Runtime fault oracle consulted by the communication layer.
///
/// The injector owns a FaultPlan plus a RecoveryPolicy and answers, for
/// every message delivery attempt, "what goes wrong?".  Its only mutable
/// state is the lockstep round counter (`begin_round`), advanced once per
/// communication round on the host thread; every *decision* is a pure
/// function of (seed, round, attempt, src, dim), so the injector is
/// trivially deterministic and thread-agnostic.  Fault counters for tests
/// and reports live in SimStats, not here.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "fault/fault.hpp"

namespace vmp {

class Topology;

/// What happens to one message delivery attempt.
struct FaultOutcome {
  bool drop = false;      ///< message lost in transit, nothing arrives
  bool corrupt = false;   ///< payload arrives bit-flipped (checksum catches)
  double spike_us = 0.0;  ///< extra latency on this edge this attempt
};

class FaultInjector {
 public:
  /// The seed/round half of message_hash.  The machine hashes it once per
  /// round and reuses it for every message and attempt of that round.
  struct RoundKey {
    std::uint64_t h = 0;
  };

  explicit FaultInjector(FaultPlan plan, RecoveryPolicy policy = {})
      : plan_(std::move(plan)), policy_(policy) {}

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const RecoveryPolicy& policy() const { return policy_; }

  /// Resolve the plan's (node, port) link kills into undirected link ids
  /// of `topo` (kills naming a port absent on this topology are inert).
  /// Called by Cube::enable_faults; an unbound injector canonicalizes
  /// kills with the historical cube-edge XOR rule instead, which is the
  /// same equivalence on a hypercube.  `topo` must outlive the injector.
  void bind_topology(const Topology* topo);

  /// Advance to the next lockstep communication round; returns its id.
  /// Called once per round by the machine, on the host thread.
  std::uint64_t begin_round() { return round_++; }
  [[nodiscard]] std::uint64_t rounds_started() const { return round_; }

  /// The RoundKey of `round`.
  [[nodiscard]] RoundKey round_key(std::uint64_t round) const;

  /// Transient outcome for one delivery attempt of the message sent by
  /// `src` across cube dimension `dim`.  Pure in all arguments; the
  /// RoundKey overload is the same decision with the round pre-hashed.
  [[nodiscard]] FaultOutcome decide(std::uint64_t round, int attempt,
                                    std::uint32_t src, int dim) const {
    return decide(round_key(round), attempt, src, dim);
  }
  [[nodiscard]] FaultOutcome decide(RoundKey key, int attempt,
                                    std::uint32_t src, int dim) const;

  /// True if the plan schedules any link or node kill.  When false,
  /// link_dead and node_dead are false for every round and argument, so
  /// the machine skips them for the whole round.
  [[nodiscard]] bool has_kills() const {
    return !plan_.link_kills.empty() || !plan_.node_kills.empty();
  }

  /// True if the undirected link behind port `dim` of `node` is
  /// permanently dead at `round` (on a hypercube, port == cube dimension
  /// and the link is the edge (node, node ^ 1<<dim)).
  [[nodiscard]] bool link_dead(std::uint64_t round, std::uint32_t node,
                               int dim) const;

  /// True if processor `node` is permanently dead at `round`.
  [[nodiscard]] bool node_dead(std::uint64_t round, std::uint32_t node) const;

  /// Deterministic per-message hash — seeds the corruption bit flip.
  [[nodiscard]] std::uint64_t message_hash(std::uint64_t round, int attempt,
                                           std::uint32_t src, int dim) const {
    return message_hash(round_key(round), attempt, src, dim);
  }
  [[nodiscard]] static std::uint64_t message_hash(RoundKey key, int attempt,
                                                  std::uint32_t src, int dim);

 private:
  FaultPlan plan_;
  RecoveryPolicy policy_;
  const Topology* topo_ = nullptr;
  /// Plan link kills resolved against topo_: (from_round, link id).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> kill_links_;
  std::uint64_t round_ = 0;
};

}  // namespace vmp
