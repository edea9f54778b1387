// The benchmark's four workloads: one application solve each, on the
// CM-2 cost model, the hypercube preset and a fixed host lane count.
// Every workload generates its inputs from the workload seed, checks each
// solve against a host oracle and reduces the solution to an FNV digest.
// Only the library's public API is called.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "vmprim.hpp"

namespace perfbench {

/// Host lanes of every workload's machine: one, the library's default
/// (VMP_THREADS unset).  A 4-lane barrier-synchronised team needs all four
/// vCPUs of the 4-vCPU host at every step, and under host CPU contention its
/// solve times swung 3-5× between runs; a single lane does not.  The
/// traced run's lane sweep measures the same solve on a 4-lane twin.
inline constexpr unsigned kLanes = 1;
inline constexpr unsigned kSweepLanes = 4;

/// The transient plan the fault workload runs under; also the plan the
/// fault layer's exchange-overhead probe attaches.
[[nodiscard]] inline vmp::FaultPlan transient_plan(std::uint64_t seed) {
  return vmp::FaultPlan::transient(seed, 0.02, 0.01, 0.005, 25.0);
}

/// Independent input streams derived from the one workload seed.
[[nodiscard]] inline std::uint64_t substream(std::uint64_t seed,
                                             std::uint64_t k) {
  vmp::SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + k);
  return rng.next();
}

[[nodiscard]] inline std::uint64_t digest_of(std::span<const double> v,
                                             std::uint64_t extra = 0) {
  const std::uint64_t h = vmp::fnv1a(v.data(), v.size_bytes());
  return vmp::fnv1a(&extra, sizeof extra) ^ (h * 0x100000001b3ull);
}

/// Shape and embedding of a workload's main matrix; the layer probes
/// build a matrix of this shape on the workload's grid.
struct Shape {
  std::size_t rows = 0;
  std::size_t cols = 0;
  vmp::MatrixLayout layout;
};

class Workload {
 public:
  Workload(int dim, int row_dims, unsigned lanes)
      : cube_(dim, vmp::CostParams::cm2(),
              vmp::Cube::Options{lanes, vmp::TopologyKind::Hypercube}),
        grid_(cube_, row_dims, dim - row_dims) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] vmp::Cube& cube() { return cube_; }
  [[nodiscard]] vmp::Grid& grid() { return grid_; }

  /// Oracle reference, built once per instance outside every timed region.
  virtual void build_reference() {}
  /// Untimed per-solve reset (restore destroyed inputs, re-arm plans).
  virtual void prepare() {}
  /// The timed part: the application call(s) a client would make.
  virtual void solve(Spans* spans) = 0;
  /// Untimed: bring the solution back to the host for check and digest.
  virtual void collect() {}
  /// Host oracle on the collected solution.
  [[nodiscard]] virtual bool check() const = 0;
  /// Verdict on the collected solution.  The host oracle checks the first
  /// solve of this machine; every later solve must reproduce that verified
  /// solution bit for bit.  A full oracle between solves sweeps the host
  /// inputs (32 MiB on cg_dense) and slowed the next timed solve by
  /// up to 2×.
  [[nodiscard]] bool verified() {
    const std::uint64_t d = digest();
    if (!verified_digest_) {
      if (!check()) return false;
      verified_digest_ = d;
    }
    return d == *verified_digest_;
  }
  [[nodiscard]] virtual std::uint64_t digest() const = 0;
  /// LU steps, CG iterations or simplex pivots of the last solve (0 when
  /// the application has no iteration count).
  [[nodiscard]] virtual std::size_t iterations() const = 0;
  [[nodiscard]] virtual Shape shape() const = 0;

 private:
  vmp::Cube cube_;
  vmp::Grid grid_;
  std::optional<std::uint64_t> verified_digest_;
};

/// Gaussian elimination: fused LU factor + triangular solve, p=64 on an
/// 8×8 cyclic grid, n=256 diagonally dominant.
class GaussLu final : public Workload {
 public:
  static constexpr std::size_t kN = 256;

  GaussLu(std::uint64_t seed, unsigned lanes)
      : Workload(6, 3, lanes),
        H_(vmp::diag_dominant_matrix(kN, substream(seed, 1))),
        b_(vmp::random_vector(kN, substream(seed, 2))),
        A_(grid(), kN, kN, vmp::MatrixLayout::cyclic()) {
    A_.load(H_.data());
  }

  // The factorization overwrites A in place.
  void prepare() override { A_.load(H_.data()); }

  void solve(Spans* spans) override {
    {
      Spans::Scope s(spans, "algorithms.lu_factor_fused");
      lu_ = vmp::lu_factor_fused(A_);
    }
    Spans::Scope s(spans, "algorithms.lu_solve");
    x_ = vmp::lu_solve(A_, lu_, b_);
  }

  /// ‖Ax − b‖∞ against the host matrix, relative to ‖A‖∞‖x‖∞ + ‖b‖∞.
  [[nodiscard]] bool check() const override {
    if (lu_.singular || x_.size() != kN) return false;
    double res = 0.0, anorm = 0.0, xnorm = 0.0, bnorm = 0.0;
    for (std::size_t i = 0; i < kN; ++i) {
      double r = -b_[i], rowsum = 0.0;
      for (std::size_t j = 0; j < kN; ++j) {
        r += H_(i, j) * x_[j];
        rowsum += std::abs(H_(i, j));
      }
      res = std::max(res, std::abs(r));
      anorm = std::max(anorm, rowsum);
      xnorm = std::max(xnorm, std::abs(x_[i]));
      bnorm = std::max(bnorm, std::abs(b_[i]));
    }
    return std::isfinite(res) && res <= 1e-10 * (anorm * xnorm + bnorm);
  }

  [[nodiscard]] std::uint64_t digest() const override { return digest_of(x_); }
  [[nodiscard]] std::size_t iterations() const override { return kN; }
  [[nodiscard]] Shape shape() const override {
    return {kN, kN, vmp::MatrixLayout::cyclic()};
  }

 private:
  vmp::HostMatrix H_;
  std::vector<double> b_;
  vmp::DistMatrix<double> A_;
  vmp::DistLuResult lu_;
  std::vector<double> x_;
};

/// Dense conjugate gradient to tol 1e-10, p=64 cyclic, SPD n=2048.
class CgDense final : public Workload {
 public:
  static constexpr std::size_t kN = 2048;

  CgDense(std::uint64_t seed, unsigned lanes)
      : Workload(6, 3, lanes),
        H_(vmp::spd_matrix(kN, substream(seed, 1))),
        b_(vmp::random_vector(kN, substream(seed, 2))),
        A_(grid(), kN, kN, vmp::MatrixLayout::cyclic()) {
    A_.load(H_.data());
  }

  void solve(Spans* spans) override {
    Spans::Scope s(spans, "algorithms.conjugate_gradient");
    r_ = vmp::conjugate_gradient(A_, b_, vmp::CgOptions{1e-10, 0});
  }

  /// Converged, and the true residual ‖b − Ax‖₂/‖b‖₂ recomputed on the
  /// host is ≤ 1e-9 (the solver's own stop tests its recursive residual).
  [[nodiscard]] bool check() const override {
    if (!r_.converged || r_.x.size() != kN) return false;
    double rr = 0.0, bb = 0.0;
    for (std::size_t i = 0; i < kN; ++i) {
      const double* row = H_.data().data() + i * kN;
      double ax = 0.0;
      for (std::size_t j = 0; j < kN; ++j) ax += row[j] * r_.x[j];
      const double r = b_[i] - ax;
      rr += r * r;
      bb += b_[i] * b_[i];
    }
    return std::isfinite(rr) && std::sqrt(rr) <= 1e-9 * std::sqrt(bb);
  }

  [[nodiscard]] std::uint64_t digest() const override {
    return digest_of(r_.x, r_.iterations);
  }
  [[nodiscard]] std::size_t iterations() const override {
    return r_.iterations;
  }
  [[nodiscard]] Shape shape() const override {
    return {kN, kN, vmp::MatrixLayout::cyclic()};
  }

 private:
  vmp::HostMatrix H_;
  std::vector<double> b_;
  vmp::DistMatrix<double> A_;
  vmp::CgResult r_;
};

/// A random feasible, bounded LP (maximize c·x, A·x ≤ b, x ≥ 0) whose
/// constraint matrix is the identity plus small positive noise.  Dantzig's
/// rule then brings every structural variable into the basis exactly once,
/// so each seed costs the same m pivots: the values, the pivot order and
/// the fault sequence vary with the seed, the amount of work does not.
/// (With the library's random_feasible_lp the pivot count ranges over 2×
/// between seeds, which would swamp host noise in a cross-seed spread.)
[[nodiscard]] inline vmp::LpProblem unit_pivot_lp(std::size_t m,
                                                  std::uint64_t seed) {
  vmp::SplitMix64 rng(seed);
  vmp::LpProblem lp;
  lp.ncons = lp.nvars = m;
  lp.A.resize(m * m);
  lp.b.resize(m);
  lp.c.resize(m);
  // Off-diagonal mass per row stays ≤ 0.2, so no rhs is driven to zero.
  const double eps = 0.2 / static_cast<double>(m);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j)
      lp.A[i * m + j] = (i == j ? 1.0 : 0.0) + rng.uniform(0.0, eps);
  for (double& b : lp.b) b = rng.uniform(1.0, 2.0);
  for (double& c : lp.c) c = rng.uniform(1.0, 2.0);
  return lp;
}

/// Simplex (fused pivot) on a random feasible 192×192 LP, p=64, under a
/// transient fault plan seeded by the workload seed.
class SimplexLpFaults final : public Workload {
 public:
  static constexpr std::size_t kM = 192;

  SimplexLpFaults(std::uint64_t seed, unsigned lanes)
      : Workload(6, 3, lanes),
        lp_(unit_pivot_lp(kM, substream(seed, 1))),
        plan_(transient_plan(seed)) {
    opts_.fused_pivot = true;
  }

  /// The serial reference the oracle compares against (host only).
  void build_reference() override {
    ref_ = vmp::serial::simplex_solve(lp_, opts_);
  }

  // A fresh injector per solve: every solve sees the same fault sequence.
  void prepare() override { cube().enable_faults(plan_); }

  void solve(Spans* spans) override {
    Spans::Scope s(spans, "algorithms.simplex_solve");
    sol_ = vmp::simplex_solve(grid(), lp_, opts_);
  }

  /// Optimal, with the serial solver's pivot count and objective.
  [[nodiscard]] bool check() const override {
    return sol_.status == vmp::LpStatus::Optimal &&
           ref_.status == vmp::LpStatus::Optimal &&
           sol_.iterations == ref_.iterations &&
           std::abs(sol_.objective - ref_.objective) <=
               1e-9 * (1.0 + std::abs(ref_.objective));
  }

  [[nodiscard]] std::uint64_t digest() const override {
    std::vector<double> v = sol_.x;
    v.push_back(sol_.objective);
    return digest_of(v, sol_.iterations);
  }
  [[nodiscard]] std::size_t iterations() const override {
    return sol_.iterations;
  }
  /// The tableau: (m+1) × (n + m slacks + rhs), cyclic like the solver's.
  [[nodiscard]] Shape shape() const override {
    return {kM + 1, 2 * kM + 1, vmp::MatrixLayout::cyclic()};
  }

 private:
  vmp::LpProblem lp_;
  vmp::FaultPlan plan_;
  vmp::SimplexOptions opts_;
  vmp::LpSolution sol_;
  vmp::LpSolution ref_;
};

inline const char* const kWorkloads[] = {"gauss_lu", "cg_dense",
                                         "simplex_lp_faults"};

/// Set-up as the set-up clock counts it: machine, generated inputs and
/// their load.  Null for an unknown name.
[[nodiscard]] inline std::unique_ptr<Workload> make_workload(
    const std::string& name, std::uint64_t seed, unsigned lanes) {
  if (name == "gauss_lu") return std::make_unique<GaussLu>(seed, lanes);
  if (name == "cg_dense") return std::make_unique<CgDense>(seed, lanes);
  if (name == "simplex_lp_faults")
    return std::make_unique<SimplexLpFaults>(seed, lanes);
  return nullptr;
}

}  // namespace perfbench
