#include "obs/tracer.hpp"

#include <utility>

#include "hypercube/check.hpp"

namespace vmp {

const char* to_string(ChargeKind k) {
  switch (k) {
    case ChargeKind::Comm: return "comm";
    case ChargeKind::Compute: return "compute";
    case ChargeKind::Router: return "router";
    case ChargeKind::Host: return "host";
  }
  return "?";
}

void RegionProfile::add(const RegionProfile& o) {
  comm_us += o.comm_us;
  compute_us += o.compute_us;
  router_us += o.router_us;
  host_us += o.host_us;
  comm_steps += o.comm_steps;
  messages += o.messages;
  elements_moved += o.elements_moved;
  elements_serial += o.elements_serial;
  flops_charged += o.flops_charged;
  flops_total += o.flops_total;
  router_cycles += o.router_cycles;
  router_hops += o.router_hops;
  if (dim_elements.size() < o.dim_elements.size())
    dim_elements.resize(o.dim_elements.size(), 0);
  for (std::size_t d = 0; d < o.dim_elements.size(); ++d)
    dim_elements[d] += o.dim_elements[d];
  mixed_dim_elements += o.mixed_dim_elements;
}

void Tracer::push_region(std::string_view name, double now_us) {
  stack_.push_back(Frame{child(current(), name), now_us});
}

void Tracer::pop_region(double now_us) {
  VMP_REQUIRE(!stack_.empty(), "pop_region with no open region");
  const Frame& top = stack_.back();
  if (recording_) {
    spans_.push_back(RegionSpan{top.begin_us, now_us, intern(top.node),
                                static_cast<std::uint32_t>(stack_.size() - 1)});
  }
  stack_.pop_back();
}

void Tracer::on_charge(ChargeKind kind, double t_begin_us, double dur_us,
                       int dim, std::uint64_t messages, std::uint64_t elements,
                       std::uint64_t elements_serial, std::uint64_t flops,
                       std::uint64_t flops_total, std::uint64_t packets) {
  Node& n = nodes_[current()];
  if (n.prof == nullptr) n.prof = &self_[n.path];
  RegionProfile& p = *n.prof;
  switch (kind) {
    case ChargeKind::Comm:
      p.comm_us += dur_us;
      p.comm_steps += 1;
      p.messages += messages;
      p.elements_moved += elements;
      p.elements_serial += elements_serial;
      if (dim >= 0) {
        if (p.dim_elements.size() <= static_cast<std::size_t>(dim))
          p.dim_elements.resize(static_cast<std::size_t>(dim) + 1, 0);
        p.dim_elements[static_cast<std::size_t>(dim)] += elements;
      } else {
        p.mixed_dim_elements += elements;
      }
      break;
    case ChargeKind::Compute:
      p.compute_us += dur_us;
      p.flops_charged += flops;
      p.flops_total += flops_total;
      break;
    case ChargeKind::Router:
      p.router_us += dur_us;
      p.router_cycles += 1;
      p.router_hops += packets;
      break;
    case ChargeKind::Host:
      p.host_us += dur_us;
      break;
  }
  if (recording_) {
    events_.push_back(TraceEvent{t_begin_us, dur_us, kind, dim, messages,
                                 elements, flops, packets,
                                 intern(current())});
  }
}

std::map<std::string, RegionProfile> Tracer::inclusive_profiles() const {
  std::map<std::string, RegionProfile> inc;
  for (const auto& [path, prof] : self_) {
    if (path.empty()) {
      inc[path].add(prof);
      continue;
    }
    // Credit every ancestor prefix, including the path itself.
    for (std::size_t pos = 0; pos != std::string::npos;) {
      pos = path.find('/', pos + 1);
      inc[path.substr(0, pos)].add(prof);
    }
  }
  return inc;
}

void Tracer::reset() {
  self_.clear();
  events_.clear();
  spans_.clear();
  paths_.clear();
  for (Node& n : nodes_) {
    n.prof = nullptr;
    n.path_id = kNoPathId;
  }
  for (Frame& f : stack_) f.begin_us = 0.0;
}

std::uint32_t Tracer::child(std::uint32_t parent, std::string_view name) {
  for (const std::uint32_t c : nodes_[parent].children)
    if (nodes_[c].name == name) return c;
  VMP_REQUIRE(name.find('/') == std::string_view::npos,
              "region names must not contain '/'");
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  Node n;
  n.name = name;
  n.path = nodes_[parent].path;
  if (!n.path.empty()) n.path += '/';
  n.path += name;
  nodes_.push_back(std::move(n));
  nodes_[parent].children.push_back(id);
  return id;
}

std::uint32_t Tracer::intern(std::uint32_t node) {
  Node& n = nodes_[node];
  if (n.path_id == kNoPathId) {
    n.path_id = static_cast<std::uint32_t>(paths_.size());
    paths_.push_back(n.path);
  }
  return n.path_id;
}

}  // namespace vmp
