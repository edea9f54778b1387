#include "fault/injector.hpp"

#include "net/topology.hpp"

namespace vmp {

namespace {

/// SplitMix64 finalizer — the same mixer util/rng.hpp uses, applied as a
/// stateless hash so decisions need no carried RNG state.
[[nodiscard]] std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

[[nodiscard]] double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

std::uint64_t fnv1a(const void* data, std::size_t nbytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < nbytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

FaultInjector::RoundKey FaultInjector::round_key(std::uint64_t round) const {
  const std::uint64_t seed_h = mix64(plan_.seed ^ 0x66617573ull);  // "faus"
  return RoundKey{mix64(seed_h ^ round)};
}

std::uint64_t FaultInjector::message_hash(RoundKey key, int attempt,
                                          std::uint32_t src, int dim) {
  const std::uint64_t h = mix64(key.h ^
                                (static_cast<std::uint64_t>(src) << 8) ^
                                static_cast<std::uint64_t>(dim));
  return mix64(h ^ static_cast<std::uint64_t>(attempt));
}

FaultOutcome FaultInjector::decide(RoundKey key, int attempt,
                                   std::uint32_t src, int dim) const {
  FaultOutcome oc;
  if (!plan_.has_transient()) return oc;
  const std::uint64_t h = message_hash(key, attempt, src, dim);
  const double u = to_unit(h);
  if (u < plan_.drop_prob) {
    oc.drop = true;
  } else if (u < plan_.drop_prob + plan_.corrupt_prob) {
    oc.corrupt = true;
  }
  if (plan_.spike_prob > 0.0 && to_unit(mix64(h ^ 0x5350494bull)) <
                                    plan_.spike_prob) {  // "SPIK"
    oc.spike_us = plan_.spike_us;
  }
  return oc;
}

void FaultInjector::bind_topology(const Topology* topo) {
  topo_ = topo;
  kill_links_.clear();
  if (topo_ == nullptr) return;
  for (const FaultPlan::LinkKill& k : plan_.link_kills) {
    if (k.node >= topo_->node_count() || k.dim < 0 ||
        k.dim >= topo_->max_ports())
      continue;
    if (topo_->port_neighbor(k.node, k.dim) == kNoNeighbor) continue;
    kill_links_.emplace_back(k.from_round, topo_->link_id(k.node, k.dim));
  }
}

bool FaultInjector::link_dead(std::uint64_t round, std::uint32_t node,
                              int dim) const {
  if (topo_ != nullptr) {
    if (kill_links_.empty()) return false;
    if (node >= topo_->node_count() || dim < 0 || dim >= topo_->max_ports() ||
        topo_->port_neighbor(node, dim) == kNoNeighbor)
      return false;
    const std::uint64_t id = topo_->link_id(node, dim);
    for (const auto& [from_round, lid] : kill_links_)
      if (lid == id && round >= from_round) return true;
    return false;
  }
  // Unbound (standalone) injector: the historical cube-edge rule.
  const std::uint32_t lo =
      node < (node ^ (1u << dim)) ? node : (node ^ (1u << dim));
  for (const FaultPlan::LinkKill& k : plan_.link_kills) {
    const std::uint32_t klo =
        k.node < (k.node ^ (1u << k.dim)) ? k.node : (k.node ^ (1u << k.dim));
    if (k.dim == dim && klo == lo && round >= k.from_round) return true;
  }
  return false;
}

bool FaultInjector::node_dead(std::uint64_t round, std::uint32_t node) const {
  for (const FaultPlan::NodeKill& k : plan_.node_kills)
    if (k.node == node && round >= k.from_round) return true;
  return false;
}

}  // namespace vmp
