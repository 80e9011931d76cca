#include "core/arbitration.hpp"

#include <algorithm>

#include "util/simd.hpp"

namespace skp {

ItemId choose_victim(InstanceView inst, std::span<const ItemId> cached,
                     const FreqTracker* freq, const ArbitrationConfig& cfg) {
  SKP_REQUIRE(!cached.empty(), "choose_victim over empty cache");
  SKP_REQUIRE(cfg.sub == SubArbitration::None || freq != nullptr,
              "sub-arbitration requires a FreqTracker");
  if (cfg.sub == SubArbitration::None) {
    // Fast path (every demand miss lands here under the paper's default):
    // plain (Pr, id) minimum, no score indirection. The Pr products are
    // bulk-gathered a chunk at a time (util/simd.hpp — each lane an exact
    // IEEE multiply), then the minimum scan runs over the chunk in the
    // original ascending-k order, so the winner matches the one-at-a-time
    // loop bit-for-bit. All sub scores are 0, so ties fall straight
    // through to the id rule of the general loop.
    constexpr std::size_t kChunk = 64;
    double pr_buf[kChunk];
    ItemId victim = kNoItem;
    double victim_pr = 0.0;
    for (std::size_t base = 0; base < cached.size(); base += kChunk) {
      const std::size_t len = std::min(kChunk, cached.size() - base);
      simd::gather_products(inst.P, inst.r, cached.subspan(base, len),
                            pr_buf);
      for (std::size_t j = 0; j < len; ++j) {
        const ItemId i = cached[base + j];
        if (victim == kNoItem || pr_buf[j] < victim_pr ||
            (pr_buf[j] == victim_pr && i < victim)) {
          victim = i;
          victim_pr = pr_buf[j];
        }
      }
    }
    return victim;
  }
  auto sub_of = [&](ItemId i) {
    return sub_score(cfg.sub, *freq, i, inst.r);
  };
  // Sub-arbitrated path: the Pr products still bulk-gather (the dominant
  // per-item cost); sub scores stay lazy — computed only when an item
  // becomes the running minimum or ties it, exactly when the one-at-a-
  // time loop computed them. Every score is an exact IEEE load or single
  // product, so the winner matches that loop bit-for-bit.
  constexpr std::size_t kChunk = 64;
  double pr_buf[kChunk];
  ItemId victim = kNoItem;
  double victim_pr = 0.0;
  double victim_sub = 0.0;
  for (std::size_t base = 0; base < cached.size(); base += kChunk) {
    const std::size_t len = std::min(kChunk, cached.size() - base);
    simd::gather_products(inst.P, inst.r, cached.subspan(base, len),
                          pr_buf);
    for (std::size_t j = 0; j < len; ++j) {
      const ItemId i = cached[base + j];
      const double pr = pr_buf[j];
      if (victim == kNoItem || pr < victim_pr) {
        victim = i;
        victim_pr = pr;
        victim_sub = sub_of(i);
        continue;
      }
      if (pr > victim_pr) continue;
      // Pr tie: sub-arbitration, then lowest id for determinism.
      const double s = sub_of(i);
      if (s < victim_sub || (s == victim_sub && i < victim)) {
        victim = i;
        victim_sub = s;
      }
    }
  }
  return victim;
}

ItemId choose_victim(InstanceView inst, const SlotCache& cache,
                     const FreqTracker* freq, const ArbitrationConfig& cfg) {
  if (cache.order() != cfg.sub) {
    return choose_victim(inst, cache.contents(), freq, cfg);
  }
  SKP_REQUIRE(!cache.empty(), "choose_victim over empty cache");
  SKP_REQUIRE(inst.n() == cache.presence().size(),
              "catalog of " << inst.n() << " items vs cache catalog of "
                            << cache.presence().size());
  // Every P == 0 item has Pr == 0, the least possible, so the first one
  // in (sub score, id) order wins outright. Without one, the walk order
  // settles Pr ties: the first item reaching the minimal Pr has the
  // least (sub score, id) among them.
  ItemId victim = kNoItem;
  double victim_pr = 0.0;
  for (const ItemId c : cache.victim_order()) {
    const std::size_t i = InstanceView::idx(c);
    if (inst.P[i] == 0.0) return c;
    const double pr = inst.P[i] * inst.r[i];
    if (victim == kNoItem || pr < victim_pr) {
      victim = c;
      victim_pr = pr;
    }
  }
  return victim;
}

double sub_score(SubArbitration sub, const FreqTracker& freq, ItemId item,
                 std::span<const double> r) {
  switch (sub) {
    case SubArbitration::LFU:
      return freq.frequency(item);
    case SubArbitration::DS:
      return freq.delay_saving_profit(item, r[InstanceView::idx(item)]);
    case SubArbitration::None:
      return 0.0;
  }
  return 0.0;  // unreachable
}

void record_access(FreqTracker& freq, SlotCache& cache, ItemId item,
                   std::span<const double> r) {
  const bool decayed = freq.record(item);
  if (cache.order() == SubArbitration::None) return;
  if (decayed) {
    rescore_victim_order(cache, freq, r);
    return;
  }
  SKP_REQUIRE(r.size() == cache.presence().size(),
              "retrieval times for " << r.size()
                                     << " items vs cache catalog of "
                                     << cache.presence().size());
  cache.set_score(item, sub_score(cache.order(), freq, item, r));
}

void rescore_victim_order(SlotCache& cache, const FreqTracker& freq,
                          std::span<const double> r) {
  if (cache.order() == SubArbitration::None) return;
  SKP_REQUIRE(r.size() == cache.presence().size() &&
                  freq.n() == cache.presence().size(),
              "tracker/retrieval times vs cache catalog of "
                  << cache.presence().size());
  const SubArbitration sub = cache.order();
  cache.rescore([&](ItemId i) { return sub_score(sub, freq, i, r); });
}

bool admits_prefetch(InstanceView inst, ItemId f, ItemId d,
                     const ArbitrationConfig& cfg) {
  const double pf = inst.profit(f);
  const double pd = inst.profit(d);
  return cfg.strict_ties ? (pf > pd) : (pf >= pd);
}

void VictimSet::clear() {
  victims.clear();
  freed = 0.0;
  total_pr = 0.0;
  ok = false;
}

VictimSet gather_victims_by_density(InstanceView inst,
                                    const SizedCache& cache,
                                    const FreqTracker* freq,
                                    const ArbitrationConfig& cfg,
                                    double needed_free) {
  VictimSet out;
  std::vector<ItemId> pool;
  gather_victims_by_density_into(inst, cache, freq, cfg, needed_free, pool,
                                 out);
  return out;
}

void gather_victims_by_density_into(InstanceView inst,
                                    const SizedCache& cache,
                                    const FreqTracker* freq,
                                    const ArbitrationConfig& cfg,
                                    double needed_free,
                                    std::vector<ItemId>& pool,
                                    VictimSet& out) {
  SKP_REQUIRE(needed_free >= 0.0, "negative space request");
  SKP_REQUIRE(cfg.sub == SubArbitration::None || freq != nullptr,
              "sub-arbitration requires a FreqTracker");
  out.clear();
  double available = cache.free_space();
  if (available >= needed_free) {
    out.ok = true;
    return;
  }
  pool.assign(cache.contents().begin(), cache.contents().end());
  auto sub_of = [&](ItemId i) {
    return freq != nullptr ? sub_score(cfg.sub, *freq, i, inst.r) : 0.0;
  };
  auto density = [&](ItemId i) {
    return inst.profit(i) / cache.size_of(i);
  };
  std::sort(pool.begin(), pool.end(), [&](ItemId a, ItemId b) {
    const double da = density(a), db = density(b);
    if (da != db) return da < db;
    const double sa = sub_of(a), sb = sub_of(b);
    if (sa != sb) return sa < sb;
    return a < b;
  });
  for (const ItemId d : pool) {
    if (available >= needed_free) break;
    out.victims.push_back(d);
    out.freed += cache.size_of(d);
    out.total_pr += inst.profit(d);
    available += cache.size_of(d);
  }
  out.ok = available >= needed_free;
}

}  // namespace skp
