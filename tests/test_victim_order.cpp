// The Figure-6 victim order kept inside SlotCache: a cache ordered by the
// engine's sub-arbitration must pick exactly the victims the full
// per-round ranking picks — at admission (plan_with_cache_cached) and on
// a demand miss (choose_victim) — while record_access keeps its scores
// equal to the FreqTracker's.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/cache.hpp"
#include "cache/freq_tracker.hpp"
#include "core/arbitration.hpp"
#include "core/prefetch_engine.hpp"
#include "sim/netsim.hpp"
#include "sim/runtime.hpp"
#include "util/rng.hpp"

namespace skp {
namespace {

constexpr std::size_t kItems = 24;
constexpr std::size_t kSlots = 8;

// Retrieval times are powers of two and row weights small integers, so
// distinct items often share a Pr product and a DS product exactly.
std::vector<double> tie_prone_r(Rng& rng) {
  std::vector<double> r(kItems);
  for (double& x : r) x = static_cast<double>(1 << rng.uniform_int(0, 2));
  return r;
}

// A normalized row. Sparse rows leave most items at P == 0 (the zero-Pr
// walk supplies the victims); dense rows make every item positive, so
// admission has to rank the positive-P tail.
std::vector<double> random_row(Rng& rng, bool sparse) {
  std::vector<double> w(kItems, 0.0);
  double total = 0.0;
  for (double& x : w) {
    if (sparse && !rng.bernoulli(0.3)) continue;
    x = static_cast<double>(1 << rng.uniform_int(0, 2));
    total += x;
  }
  if (total == 0.0) {
    w[0] = 1.0;
    total = 1.0;
  }
  for (double& x : w) x /= total;
  return w;
}

// The cache under test must list its contents by (score, id), each score
// being the tracker's sub-arbitration score.
void expect_order_current(const SlotCache& cache, const FreqTracker& freq,
                          std::span<const double> r) {
  std::vector<ItemId> expect(cache.contents().begin(),
                             cache.contents().end());
  auto key = [&](ItemId i) { return sub_score(cache.order(), freq, i, r); };
  std::sort(expect.begin(), expect.end(), [&](ItemId a, ItemId b) {
    if (key(a) != key(b)) return key(a) < key(b);
    return a < b;
  });
  const std::span<const ItemId> got = cache.victim_order();
  ASSERT_EQ(std::vector<ItemId>(got.begin(), got.end()), expect);
  for (const ItemId c : got) EXPECT_EQ(cache.score(c), key(c));
}

// The first k victims of the Figure-6 order, by definition: repeated
// choose_victim over the shrinking cache.
std::vector<ItemId> reference_victims(InstanceView inst,
                                      std::span<const ItemId> cached,
                                      const FreqTracker& freq,
                                      const ArbitrationConfig& cfg,
                                      std::size_t k) {
  std::vector<ItemId> left(cached.begin(), cached.end());
  std::vector<ItemId> out;
  while (out.size() < k) {
    const ItemId d = choose_victim(inst, left, &freq, cfg);
    out.push_back(d);
    left.erase(std::find(left.begin(), left.end(), d));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void execute(const PrefetchPlan& plan, SlotCache& cache) {
  std::size_t victim = 0;
  for (const ItemId f : plan.fetch) {
    if (cache.full()) {
      cache.replace(plan.evict[victim++], f);
    } else {
      cache.insert(f);
    }
  }
}

struct Lockstep {
  SubArbitration sub = SubArbitration::None;
  bool sparse = true;
  double decay = 1.0;
  std::size_t reset_every = 0;  // 0 = never reset the tracker
  std::uint64_t seed = 1;
};

// Drives an ordered cache and a reference cache through the same random
// request stream. The reference is ordered by a different sub-arbitration
// than the engine's, so both admission and the demand-miss victim take the
// full-ranking fallback on it; its own index order is never consulted.
void run_lockstep(const Lockstep& t) {
  Rng rng(t.seed);
  const std::vector<double> r = tie_prone_r(rng);
  const SubArbitration ref_order = t.sub == SubArbitration::None
                                       ? SubArbitration::LFU
                                       : SubArbitration::None;
  SlotCache fast(kItems, kSlots, t.sub);
  SlotCache ref(kItems, kSlots, ref_order);
  FreqTracker freq(kItems, t.decay, 7);

  EngineConfig ecfg;
  ecfg.policy = PrefetchPolicy::SKP;
  ecfg.arbitration.sub = t.sub;
  const PrefetchEngine engine(ecfg);
  PlanScratch scratch_fast, scratch_ref;
  PrefetchPlan plan_fast, plan_ref;

  std::size_t contested = 0, tail_ranked = 0, demand_victims = 0;
  for (std::size_t step = 0; step < 400; ++step) {
    const std::vector<double> P = random_row(rng, t.sparse);
    const InstanceView inst(P, r, rng.uniform(4.0, 40.0));
    engine.plan_with_cache_cached(inst, fast, &freq, PlanMemo{},
                                  scratch_fast, plan_fast);
    engine.plan_with_cache_cached(inst, ref, &freq, PlanMemo{}, scratch_ref,
                                  plan_ref);
    ASSERT_EQ(plan_fast.fetch, plan_ref.fetch) << "step " << step;
    ASSERT_EQ(plan_fast.evict, plan_ref.evict) << "step " << step;
    if (!plan_fast.evict.empty()) {
      ++contested;
      std::vector<ItemId> got = plan_fast.evict;
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, reference_victims(inst, ref.contents(), freq,
                                       ecfg.arbitration, got.size()));
      for (const ItemId d : got) tail_ranked += P[Instance::idx(d)] > 0.0;
    }
    execute(plan_fast, fast);
    execute(plan_ref, ref);

    // Requests favour a few items so counts (and count * r) tie often.
    const ItemId item = static_cast<ItemId>(
        rng.bernoulli(0.7) ? rng.uniform_int(0, 5)
                           : rng.uniform_int(0, kItems - 1));
    record_access(freq, fast, item, r);
    if (t.reset_every != 0 && step % t.reset_every == t.reset_every - 1) {
      freq.reset();
      rescore_victim_order(fast, freq, r);
    }
    if (!fast.contains(item)) {
      if (fast.full()) {
        const std::vector<double> Q = random_row(rng, t.sparse);
        const InstanceView now(Q, r, 1.0);
        const ItemId d = choose_victim(now, fast, &freq, ecfg.arbitration);
        ASSERT_EQ(d, choose_victim(now, fast.contents(), &freq,
                                   ecfg.arbitration));
        ASSERT_EQ(d, choose_victim(now, ref, &freq, ecfg.arbitration));
        fast.replace(d, item);
        ref.replace(d, item);
        ++demand_victims;
      } else {
        fast.insert(item);
        ref.insert(item);
      }
    }
    if (t.sub != SubArbitration::None) {
      expect_order_current(fast, freq, r);
    }
  }
  EXPECT_GT(contested, 20u);
  EXPECT_GT(demand_victims, 20u);
  // Dense rows have no zero-Pr items: every victim came off the ranked
  // positive-P tail.
  if (!t.sparse) {
    EXPECT_GT(tail_ranked, 20u);
  }
}

TEST(VictimOrder, NoneSparseRowsMatchFullRanking) {
  run_lockstep({SubArbitration::None, true, 1.0, 0, 11});
}

TEST(VictimOrder, NoneDenseRowsMatchFullRanking) {
  run_lockstep({SubArbitration::None, false, 1.0, 0, 12});
}

TEST(VictimOrder, LfuSparseRowsMatchFullRanking) {
  run_lockstep({SubArbitration::LFU, true, 1.0, 0, 13});
}

TEST(VictimOrder, LfuDenseRowsMatchFullRanking) {
  run_lockstep({SubArbitration::LFU, false, 1.0, 0, 14});
}

TEST(VictimOrder, DsSparseRowsMatchFullRanking) {
  run_lockstep({SubArbitration::DS, true, 1.0, 0, 15});
}

TEST(VictimOrder, DsDenseRowsMatchFullRanking) {
  run_lockstep({SubArbitration::DS, false, 1.0, 0, 16});
}

TEST(VictimOrder, DecayingTrackerRescoresEveryItem) {
  run_lockstep({SubArbitration::LFU, true, 0.5, 0, 17});
  run_lockstep({SubArbitration::DS, false, 0.75, 0, 18});
}

TEST(VictimOrder, TrackerResetRescoresEveryItem) {
  run_lockstep({SubArbitration::LFU, false, 1.0, 37, 19});
  run_lockstep({SubArbitration::DS, true, 1.0, 37, 20});
}

TEST(VictimOrder, DsTiesOnEqualProductsFallToLowestId) {
  // Items 0 and 1: counts 2 and 1 with r 1 and 2 — equal DS products, so
  // the id decides; item 2's product (1 * 4) is larger.
  const std::vector<double> r{1.0, 2.0, 4.0};
  SlotCache cache(3, 3, SubArbitration::DS);
  FreqTracker freq(3);
  for (const ItemId i : {1, 0, 2, 0}) record_access(freq, cache, i, r);
  cache.insert(2);
  cache.insert(1);
  cache.insert(0);
  EXPECT_EQ(std::vector<ItemId>(cache.victim_order().begin(),
                                cache.victim_order().end()),
            (std::vector<ItemId>{0, 1, 2}));
  // Every P == 0, so the first item of the order is the victim.
  const std::vector<double> P{0.0, 0.0, 0.0};
  ArbitrationConfig cfg;
  cfg.sub = SubArbitration::DS;
  EXPECT_EQ(choose_victim(InstanceView(P, r, 1.0), cache, &freq, cfg), 0);
  record_access(freq, cache, 0, r);  // 3 * 1 > 1 * 2
  EXPECT_EQ(choose_victim(InstanceView(P, r, 1.0), cache, &freq, cfg), 1);
}

TEST(VictimOrder, SetScoreMovesOnlyCachedItemsAndClearKeepsScores) {
  SlotCache cache(6, 4, SubArbitration::LFU);
  for (const ItemId i : {4, 2, 0, 5}) cache.insert(i);
  cache.set_score(2, 3.0);
  cache.set_score(1, 1.0);  // not cached: stored for its next insert
  cache.set_score(5, 3.0);
  auto order = [&] {
    return std::vector<ItemId>(cache.victim_order().begin(),
                               cache.victim_order().end());
  };
  EXPECT_EQ(order(), (std::vector<ItemId>{0, 4, 2, 5}));
  cache.set_score(2, 0.5);
  EXPECT_EQ(order(), (std::vector<ItemId>{0, 4, 2, 5}));
  cache.set_score(0, 9.0);
  EXPECT_EQ(order(), (std::vector<ItemId>{4, 2, 5, 0}));
  cache.erase(4);
  cache.insert(1);
  EXPECT_EQ(order(), (std::vector<ItemId>{2, 1, 5, 0}));
  cache.clear();
  cache.insert(0);
  cache.insert(3);
  EXPECT_EQ(order(), (std::vector<ItemId>{3, 0}));
  EXPECT_EQ(cache.score(0), 9.0);
}

TEST(VictimOrder, UnorderedCacheKeepsIdOrderAndRejectsScores) {
  SlotCache cache(5, 3);
  for (const ItemId i : {3, 0, 4}) cache.insert(i);
  EXPECT_EQ(std::vector<ItemId>(cache.victim_order().begin(),
                                cache.victim_order().end()),
            (std::vector<ItemId>{0, 3, 4}));
  EXPECT_EQ(cache.score(3), 0.0);
  EXPECT_THROW(cache.set_score(3, 1.0), std::invalid_argument);
  FreqTracker freq(5);
  const std::vector<double> r(5, 1.0);
  record_access(freq, cache, 3, r);  // plain record
  EXPECT_EQ(freq.frequency(3), 1.0);
}

// ClientSession erases and re-inserts outside the plan/demand path: a
// prefetch abandoned by the fault model, and queued prefetches cancelled
// by a demand miss. The session's victim order must stay keyed by the
// counts of the requests it served.
void drive_session(SubArbitration sub, bool faults) {
  Rng rng(faults ? 31 : 32);
  ServerCatalog catalog;
  for (std::size_t i = 0; i < kItems; ++i) {
    catalog.sizes.push_back(static_cast<double>(1 << rng.uniform_int(0, 2)));
  }
  NetConfig net;
  net.bandwidth = 0.5;
  net.cancel_pending_on_demand = !faults;
  EngineConfig ecfg;
  ecfg.policy = PrefetchPolicy::SKP;
  ecfg.arbitration.sub = sub;
  ClientSession session(catalog, net, ecfg, kSlots);
  if (faults) {
    FaultSpec spec;
    spec.fail_rate = 0.4;
    spec.retry.max_attempts = 1;
    session.set_fault_injection(spec, Rng(7));
  }
  const std::span<const double> r = session.catalog().r;
  std::vector<double> counts(kItems, 0.0);
  for (std::size_t step = 0; step < 300; ++step) {
    const std::vector<double> P = random_row(rng, true);
    const ItemId item = static_cast<ItemId>(
        rng.bernoulli(0.6) ? rng.uniform_int(0, 5)
                           : rng.uniform_int(0, kItems - 1));
    session.request(item, rng.uniform(2.0, 30.0), P);
    counts[Instance::idx(item)] += 1.0;
    const SlotCache& cache = session.cache();
    std::vector<ItemId> expect(cache.contents().begin(),
                               cache.contents().end());
    auto key = [&](ItemId i) {
      const double c = counts[Instance::idx(i)];
      return sub == SubArbitration::DS ? c * r[Instance::idx(i)] : c;
    };
    std::sort(expect.begin(), expect.end(), [&](ItemId a, ItemId b) {
      if (key(a) != key(b)) return key(a) < key(b);
      return a < b;
    });
    ASSERT_EQ(std::vector<ItemId>(cache.victim_order().begin(),
                                  cache.victim_order().end()),
              expect)
        << "step " << step;
  }
  if (faults) {
    EXPECT_GT(session.fault_stats().abandoned, 0u);
  } else {
    EXPECT_GT(session.metrics().wasted_prefetches, 0u);
  }
}

TEST(VictimOrder, SessionAbandonedPrefetchKeepsOrder) {
  drive_session(SubArbitration::LFU, true);
  drive_session(SubArbitration::DS, true);
}

TEST(VictimOrder, SessionCancelledPrefetchKeepsOrder) {
  drive_session(SubArbitration::LFU, false);
  drive_session(SubArbitration::DS, false);
}

// Every driver that keeps an ordered cache, under LFU and DS, pinned to
// the counters the full per-round ranking produced before caches kept
// their own victim order. Catches a driver that records an access (or
// resets its tracker, as multi_client churn does) without updating the
// order.
struct PinnedRun {
  const char* name;
  std::uint64_t hits, demand, prefetch, wasted;
  double mean_T, net_time;
  std::uint64_t churn;
};

std::vector<SimSpec> pinned_specs() {
  std::vector<SimSpec> specs;
  for (const SubArbitration sub : {SubArbitration::LFU, SubArbitration::DS}) {
    SimSpec a;
    a.driver = SimDriverKind::PrefetchCache;
    a.sub = sub;
    a.cache_size = 6;
    a.requests = 3000;
    a.seed = 5;
    specs.push_back(a);
    SimSpec b;  // abandoned prefetches erase their claimed slot
    b.driver = SimDriverKind::NetsimDes;
    b.sub = sub;
    b.cache_size = 6;
    b.requests = 1500;
    b.seed = 6;
    b.fault.fail_rate = 0.3;
    b.fault.retry.max_attempts = 1;
    specs.push_back(b);
    SimSpec c;  // churn resets each departing client's tracker
    c.driver = SimDriverKind::MultiClientDes;
    c.sub = sub;
    c.cache_size = 5;
    c.requests = 600;
    c.seed = 7;
    c.multi_client.clients = 3;
    c.multi_client.churn_period = 4000.0;
    c.multi_client.churn_downtime = 100.0;
    specs.push_back(c);
    SimSpec d;
    d.driver = SimDriverKind::TraceReplay;
    d.sub = sub;
    d.predictor = PredictorKind::Markov1;
    d.cache_size = 6;
    d.requests = 2000;
    d.seed = 8;
    specs.push_back(d);
    SimSpec e;
    e.driver = SimDriverKind::Scenario;
    e.sub = sub;
    e.predictor = PredictorKind::Markov1;
    e.pr_planning = true;
    e.cache_size = 6;
    e.requests = 2000;
    e.seed = 9;
    specs.push_back(e);
  }
  return specs;
}

constexpr PinnedRun kPinned[] = {
    {"prefetch_cache/lfu", 1457, 1524, 10476, 9019, 0x1.009e60f04c75bp+3,
     0x1.37f38p+17, 0},
    {"netsim_des/lfu", 604, 889, 5917, 3523, 0x1.2d4fdf3b645a4p+3,
     0x1.6ca4p+16, 0},
    {"multi_client/lfu", 134, 994, 5489, 4684, 0x1.c1147ae147ae3p+6,
     0x1.82edp+16, 69},
    {"trace_replay/lfu", 755, 1234, 5757, 5013, 0x1.3be353f7ceda4p+3,
     0x1.8952p+16, 0},
    {"scenario/lfu", 672, 1328, 5312, 0, 0x0p+0, 0x1.7c98p+16, 0},
    {"prefetch_cache/ds", 1464, 1517, 10578, 9109, 0x1.fabb0cf87d9cp+2,
     0x1.36e18p+17, 0},
    {"netsim_des/ds", 595, 901, 5932, 3541, 0x1.30a3d70a3d706p+3,
     0x1.6c8dp+16, 0},
    {"multi_client/ds", 136, 996, 5489, 4690, 0x1.c2a3d70a3d708p+6,
     0x1.82b2p+16, 69},
    {"trace_replay/ds", 757, 1232, 5829, 5083, 0x1.390e56041893fp+3,
     0x1.885p+16, 0},
    {"scenario/ds", 671, 1329, 5327, 0, 0x0p+0, 0x1.7a45p+16, 0},
};

TEST(VictimOrder, DriversKeepPinnedDecisions) {
  const std::vector<SimSpec> specs = pinned_specs();
  ASSERT_EQ(specs.size(), std::size(kPinned));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const PinnedRun& want = kPinned[i];
    const SimResult res = run_sim(specs[i]);
    const SimMetrics& m = res.metrics;
    EXPECT_EQ(m.hits, want.hits) << want.name;
    EXPECT_EQ(m.demand_fetches, want.demand) << want.name;
    EXPECT_EQ(m.prefetch_fetches, want.prefetch) << want.name;
    EXPECT_EQ(m.wasted_prefetches, want.wasted) << want.name;
    EXPECT_DOUBLE_EQ(m.mean_access_time(), want.mean_T) << want.name;
    EXPECT_DOUBLE_EQ(m.network_time, want.net_time) << want.name;
    EXPECT_EQ(res.churn_events, want.churn) << want.name;
  }
}

}  // namespace
}  // namespace skp
