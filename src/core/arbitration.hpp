// Pr-arbitration and sub-arbitration (Section 5.2 of the paper).
//
// Pr-arbitration: a prefetch candidate f may evict a cached victim d only
// if d has the minimal Pr value P_d * r_d in the cache and (per the
// Figure-6 listing) P_f r_f is not smaller than P_d r_d. Demand-fetched
// items must always find a victim and need only the minimality condition.
//
// Sub-arbitration breaks ties among victims with equal Pr value:
//   * None — lowest item id (deterministic).
//   * LFU  — least frequently used.
//   * DS   — lowest delay-saving profit freq_i * r_i (WATCHMAN-style).
//
// Admission ties: the paper's prose demands strict P_f r_f > P_d r_d while
// the Figure-6 listing breaks only on '<' (ties admit the prefetch).
// `strict_ties` selects the prose behaviour; the default follows the
// listing.
//
// Victim order: a SlotCache ordered by the engine's sub-arbitration keeps
// its contents sorted by (sub score, id), so the Figure-6 order (Pr, sub
// score, id) starts with its P == 0 items in index order. Drivers keep
// the scores current by recording accesses through record_access.
#pragma once

#include <span>
#include <vector>

#include "cache/cache.hpp"
#include "cache/freq_tracker.hpp"
#include "cache/sized_cache.hpp"
#include "core/item.hpp"

namespace skp {

struct ArbitrationConfig {
  SubArbitration sub = SubArbitration::None;
  bool strict_ties = false;  // true = prose rule, false = Figure-6 listing
};

// Chooses the eviction victim among `cached` (non-empty): minimal
// P_d * r_d, ties resolved by `cfg.sub` (then by lowest id). `freq` may be
// null only when cfg.sub == None.
ItemId choose_victim(InstanceView inst, std::span<const ItemId> cached,
                     const FreqTracker* freq, const ArbitrationConfig& cfg);

// Demand-miss victim of a non-empty slot cache: the same item as
// choose_victim over cache.contents(). When the cache is ordered by
// cfg.sub (an unordered cache is ordered by None) this is one pass over
// its victim order that stops at the first P == 0 item, or else takes the
// minimum Pr over the positive-P items seen; otherwise it is
// choose_victim over the contents.
ItemId choose_victim(InstanceView inst, const SlotCache& cache,
                     const FreqTracker* freq, const ArbitrationConfig& cfg);

// The sub-arbitration score of `item` that victim ranking compares: 0
// under None, freq_i under LFU, freq_i * r_i under DS.
double sub_score(SubArbitration sub, const FreqTracker& freq, ItemId item,
                 std::span<const double> r);

// Records an access to `item` in `freq` and keeps an ordered `cache`'s
// victim order equal to the tracker's scores over retrieval times `r`
// (the same r every planning round reads): the item's score is updated,
// and a decay pass rescores every item. A no-op beyond freq.record for
// an unordered cache.
void record_access(FreqTracker& freq, SlotCache& cache, ItemId item,
                   std::span<const double> r);

// Re-derives every score of an ordered `cache` from `freq` (after
// FreqTracker::reset, say). No-op for an unordered cache.
void rescore_victim_order(SlotCache& cache, const FreqTracker& freq,
                          std::span<const double> r);

// True when prefetch candidate `f` is allowed to displace victim `d`
// (Pr-arbitration admission test).
bool admits_prefetch(InstanceView inst, ItemId f, ItemId d,
                     const ArbitrationConfig& cfg);

// Size-aware generalization (extension; the paper's Section-6 open item).
// Greedily gathers victims from `cache` by ascending Pr *density*
// (P_d r_d per size unit, ties by sub-arbitration then id) until
// `needed_free` space is available (counting current free space).
// Returns the victim list; `ok` is false when even evicting everything
// would not make room.
struct VictimSet {
  std::vector<ItemId> victims;
  double freed = 0.0;     // space the victims release
  double total_pr = 0.0;  // sum of P_d r_d over the victims
  bool ok = false;

  // Resets to the empty set, keeping `victims`' capacity (hot-path reuse).
  void clear();
};
VictimSet gather_victims_by_density(InstanceView inst,
                                    const SizedCache& cache,
                                    const FreqTracker* freq,
                                    const ArbitrationConfig& cfg,
                                    double needed_free);

// Allocation-free variant: the candidate pool is staged in `pool` and the
// result written into `out` (both cleared first, capacity reused).
// Bit-identical to gather_victims_by_density.
void gather_victims_by_density_into(InstanceView inst,
                                    const SizedCache& cache,
                                    const FreqTracker* freq,
                                    const ArbitrationConfig& cfg,
                                    double needed_free,
                                    std::vector<ItemId>& pool,
                                    VictimSet& out);

}  // namespace skp
