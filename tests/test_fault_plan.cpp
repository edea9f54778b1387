// Unit tests for the fault subsystem's pure layer: FaultPlan, the
// deterministic injector (decisions are hashes, not stateful draws), the
// kill schedules, and the FNV-1a message checksum.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "fault/injector.hpp"

namespace vmp {
namespace {

TEST(FaultPlan, NoneIsInert) {
  const FaultPlan p = FaultPlan::none();
  EXPECT_FALSE(p.has_transient());
  EXPECT_TRUE(p.link_kills.empty());
  EXPECT_TRUE(p.node_kills.empty());
  FaultInjector fi(p);
  for (std::uint64_t r = 0; r < 64; ++r)
    for (std::uint32_t src = 0; src < 16; ++src)
      for (int d = 0; d < 4; ++d) {
        const FaultOutcome o = fi.decide(r, 0, src, d);
        EXPECT_FALSE(o.drop);
        EXPECT_FALSE(o.corrupt);
        EXPECT_EQ(o.spike_us, 0.0);
        EXPECT_FALSE(fi.link_dead(r, src, d));
        EXPECT_FALSE(fi.node_dead(r, src));
      }
}

TEST(FaultInjector, DecideIsPureAndReproducible) {
  const FaultPlan p = FaultPlan::transient(42, 0.3, 0.2, 0.1, 5.0);
  FaultInjector a(p), b(p);
  for (std::uint64_t r = 0; r < 32; ++r)
    for (int attempt = 0; attempt < 4; ++attempt)
      for (std::uint32_t src = 0; src < 8; ++src)
        for (int d = 0; d < 3; ++d) {
          const FaultOutcome oa = a.decide(r, attempt, src, d);
          const FaultOutcome ob = b.decide(r, attempt, src, d);
          EXPECT_EQ(oa.drop, ob.drop);
          EXPECT_EQ(oa.corrupt, ob.corrupt);
          EXPECT_EQ(oa.spike_us, ob.spike_us);
          // Repeat call on the same injector: no hidden state.
          const FaultOutcome oa2 = a.decide(r, attempt, src, d);
          EXPECT_EQ(oa.drop, oa2.drop);
          EXPECT_EQ(oa.corrupt, oa2.corrupt);
          EXPECT_EQ(oa.spike_us, oa2.spike_us);
        }
}

TEST(FaultInjector, DifferentSeedsDecideDifferently) {
  FaultInjector a(FaultPlan::transient(1, 0.5, 0.0));
  FaultInjector b(FaultPlan::transient(2, 0.5, 0.0));
  int differing = 0;
  for (std::uint64_t r = 0; r < 256; ++r)
    differing += a.decide(r, 0, 0, 0).drop != b.decide(r, 0, 0, 0).drop;
  EXPECT_GT(differing, 0);
}

TEST(FaultInjector, EmpiricalRatesTrackThePlan) {
  const double kDrop = 0.05, kCorrupt = 0.03, kSpike = 0.02;
  FaultInjector fi(FaultPlan::transient(7, kDrop, kCorrupt, kSpike, 9.0));
  int drops = 0, corrupts = 0, spikes = 0, n = 0;
  for (std::uint64_t r = 0; r < 500; ++r)
    for (std::uint32_t src = 0; src < 32; ++src)
      for (int d = 0; d < 5; ++d) {
        const FaultOutcome o = fi.decide(r, 0, src, d);
        drops += o.drop;
        corrupts += o.corrupt;
        spikes += o.spike_us > 0.0;
        if (o.spike_us > 0.0) EXPECT_EQ(o.spike_us, 9.0);
        EXPECT_FALSE(o.drop && o.corrupt);  // at most one transport fault
        ++n;
      }
  const double N = n;
  EXPECT_NEAR(drops / N, kDrop, 0.01);
  EXPECT_NEAR(corrupts / N, kCorrupt, 0.01);
  EXPECT_NEAR(spikes / N, kSpike, 0.01);
}

TEST(FaultInjector, RetriesRedrawIndependently) {
  // A message dropped at attempt 0 must get a fresh draw at attempt 1 —
  // otherwise retry could never succeed.  With drop_prob = 0.5 the retry
  // succeeds about half the time; check both outcomes occur.
  FaultInjector fi(FaultPlan::transient(11, 0.5, 0.0));
  bool retry_ok = false, retry_fails = false;
  for (std::uint64_t r = 0; r < 256; ++r) {
    if (!fi.decide(r, 0, 3, 1).drop) continue;
    (fi.decide(r, 1, 3, 1).drop ? retry_fails : retry_ok) = true;
  }
  EXPECT_TRUE(retry_ok);
  EXPECT_TRUE(retry_fails);
}

TEST(FaultInjector, LinkKillScheduleIsUndirectedAndRoundGated) {
  FaultPlan p;
  p.link_kills.push_back({/*from_round=*/5, /*node=*/6, /*dim=*/1});
  FaultInjector fi(p);
  EXPECT_FALSE(fi.link_dead(0, 6, 1));
  EXPECT_FALSE(fi.link_dead(4, 6, 1));
  EXPECT_TRUE(fi.link_dead(5, 6, 1));
  EXPECT_TRUE(fi.link_dead(100, 6, 1));
  // The edge (6, 6^2) is undirected: the partner sees it dead too.
  EXPECT_TRUE(fi.link_dead(5, 6u ^ 2u, 1));
  // Other links of the same node stay alive.
  EXPECT_FALSE(fi.link_dead(5, 6, 0));
  EXPECT_FALSE(fi.link_dead(5, 6, 2));
}

TEST(FaultInjector, NodeKillScheduleIsRoundGated) {
  FaultPlan p;
  p.node_kills.push_back({/*from_round=*/3, /*node=*/2});
  FaultInjector fi(p);
  EXPECT_FALSE(fi.node_dead(2, 2));
  EXPECT_TRUE(fi.node_dead(3, 2));
  EXPECT_TRUE(fi.node_dead(99, 2));
  EXPECT_FALSE(fi.node_dead(3, 1));
}

TEST(FaultInjector, RoundCounterAdvancesOncePerRound) {
  FaultInjector fi(FaultPlan::none());
  EXPECT_EQ(fi.rounds_started(), 0u);
  EXPECT_EQ(fi.begin_round(), 0u);
  EXPECT_EQ(fi.begin_round(), 1u);
  EXPECT_EQ(fi.rounds_started(), 2u);
}

TEST(FaultInjector, MessageHashIsPureAndArgSensitive) {
  FaultInjector fi(FaultPlan::transient(99, 0.1, 0.1));
  const std::uint64_t h = fi.message_hash(1, 0, 2, 3);
  EXPECT_EQ(h, fi.message_hash(1, 0, 2, 3));
  EXPECT_NE(h, fi.message_hash(2, 0, 2, 3));
  EXPECT_NE(h, fi.message_hash(1, 1, 2, 3));
  EXPECT_NE(h, fi.message_hash(1, 0, 3, 3));
  EXPECT_NE(h, fi.message_hash(1, 0, 2, 2));
}

// Golden values of the oracle itself, not just its purity: a rewrite of
// message_hash or decide that drifts by a single bit changes every fault
// sequence (and every faulted benchmark's charges) and must fail here.
TEST(FaultInjector, MessageHashAndDecideMatchTheGoldenTable) {
  constexpr std::uint64_t kGold = 0x9e3779b97f4a7c15ull;
  constexpr std::uint64_t kFar = std::uint64_t{1} << 33;
  struct Row {
    std::uint64_t seed, round;
    int attempt;
    std::uint32_t src;
    int dim;
    std::uint64_t hash;
    bool drop, corrupt, spike;
  };
  const Row rows[] = {
      {1, 0, 0, 1023, 3, 0x20a281c234277d94ull, true, false, false},
      {1, 1, 0, 63, 0, 0x4c4ce45c84de3e75ull, false, true, false},
      {1, 77, 6, 63, 9, 0xc34d125bfdd0fff6ull, false, false, false},
      {1, kFar, 6, 63, 3, 0x536faa3fa4495962ull, false, true, false},
      {42, 0, 1, 1023, 0, 0xdda9f31c8a87311eull, false, false, true},
      {42, 1, 6, 0, 3, 0x271fac5f87e28dc4ull, true, false, false},
      {42, 77, 6, 1023, 9, 0x555305b45c0803feull, false, true, true},
      {42, kFar, 0, 5, 0, 0x453482d4040ef0fdull, false, true, true},
      {kGold, 0, 1, 0, 0, 0x6df20325642c8f3aull, false, true, true},
      {kGold, 1, 0, 0, 0, 0x9bdccee6a030e87eull, false, false, false},
      {kGold, 77, 6, 0, 9, 0x039c3611f81e9cbbull, true, false, false},
      {kGold, kFar, 1, 5, 3, 0xea9be9c672ec7a03ull, false, false, false},
  };
  for (const Row& w : rows) {
    const FaultInjector fi(FaultPlan::transient(w.seed, 0.25, 0.25, 0.25, 3.0));
    SCOPED_TRACE("seed " + std::to_string(w.seed) + " round " +
                 std::to_string(w.round) + " attempt " +
                 std::to_string(w.attempt) + " src " + std::to_string(w.src) +
                 " dim " + std::to_string(w.dim));
    EXPECT_EQ(fi.message_hash(w.round, w.attempt, w.src, w.dim), w.hash);
    const FaultOutcome o = fi.decide(w.round, w.attempt, w.src, w.dim);
    EXPECT_EQ(o.drop, w.drop);
    EXPECT_EQ(o.corrupt, w.corrupt);
    EXPECT_EQ(o.spike_us, w.spike ? 3.0 : 0.0);
  }

  // A dense grid at the test sweep's rates, folded into one digest of
  // every hash and outcome, plus the outcome counts.
  struct Fold {
    std::uint64_t seed, digest;
    int drops, corrupts, spikes;
  };
  const Fold folds[] = {
      {1, 0xe64aa752d7f94f40ull, 3565, 1427, 748},
      {42, 0x98baa2b91dfc1168ull, 3683, 1557, 733},
      {kGold, 0x8bf2784c1182f170ull, 3597, 1517, 747},
  };
  for (const Fold& f : folds) {
    const FaultInjector fi(FaultPlan::transient(f.seed, 0.05, 0.02, 0.01, 20.0));
    std::uint64_t digest = 0;
    int drops = 0, corrupts = 0, spikes = 0;
    for (std::uint64_t r = 0; r < 64; ++r)
      for (int attempt = 0; attempt < 3; ++attempt)
        for (std::uint32_t src = 0; src < 64; ++src)
          for (int d = 0; d < 6; ++d) {
            const FaultOutcome o = fi.decide(r, attempt, src, d);
            digest = (digest * 31 + fi.message_hash(r, attempt, src, d)) * 8 +
                     (o.drop ? 1u : 0u) + (o.corrupt ? 2u : 0u) +
                     (o.spike_us > 0.0 ? 4u : 0u);
            drops += o.drop;
            corrupts += o.corrupt;
            spikes += o.spike_us > 0.0;
          }
    EXPECT_EQ(digest, f.digest) << "seed " << f.seed;
    EXPECT_EQ(drops, f.drops) << "seed " << f.seed;
    EXPECT_EQ(corrupts, f.corrupts) << "seed " << f.seed;
    EXPECT_EQ(spikes, f.spikes) << "seed " << f.seed;
  }
}

TEST(Fnv1a, MatchesKnownVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar", 6), 0x85944171f73967e8ull);
}

TEST(Fnv1a, DetectsEverySingleBitFlip) {
  double payload[4] = {1.0, -2.5, 3.25, 0.0};
  const std::uint64_t sum = fnv1a(payload, sizeof(payload));
  unsigned char bytes[sizeof(payload)];
  std::memcpy(bytes, payload, sizeof(payload));
  for (std::size_t i = 0; i < sizeof(payload); ++i)
    for (int b = 0; b < 8; ++b) {
      bytes[i] ^= static_cast<unsigned char>(1u << b);
      EXPECT_NE(fnv1a(bytes, sizeof(bytes)), sum)
          << "flip byte " << i << " bit " << b << " went undetected";
      bytes[i] ^= static_cast<unsigned char>(1u << b);
    }
}

}  // namespace
}  // namespace vmp
