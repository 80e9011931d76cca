// Slot cache with equal item sizes (the Section-5 assumption: every
// item fills one slot; the size-aware generalization is SizedCache).
//
// The cache stores item ids; capacity counts items. Membership queries are
// O(1) via a presence bitmap; the content list is maintained in insertion
// order so iteration is deterministic. Eviction decisions are made by the
// caller (arbitration / replacement policies) — the cache itself only
// enforces capacity and uniqueness, and keeps a second index of its
// contents in Figure-6 victim order (see victim_order()).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "cache/freq_tracker.hpp"
#include "cache/zobrist.hpp"
#include "core/item.hpp"

namespace skp {

class SlotCache {
 public:
  // `catalog_size` bounds valid item ids; `capacity` >= 1 slots.
  // `order` names the sub-arbitration the victim index is ordered by:
  // None keeps it in ascending id; LFU/DS key it by a per-item score
  // (catalog-wide, all 0 initially) that the caller keeps equal to the
  // tracker's count (LFU) or count * r (DS) through set_score/rescore —
  // core/arbitration.hpp's record_access does both.
  SlotCache(std::size_t catalog_size, std::size_t capacity,
            SubArbitration order = SubArbitration::None);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return contents_.size(); }
  bool full() const noexcept { return contents_.size() == capacity_; }
  bool empty() const noexcept { return contents_.empty(); }

  // Inline: the candidate filter probes this once per catalog item per
  // planning round.
  bool contains(ItemId item) const {
    check_id(item);
    return present_[static_cast<std::size_t>(item)] != 0;
  }

  // Raw presence bitmap (indexed by item id over the whole catalog) for
  // bulk membership scans that bounds-check once instead of per probe.
  std::span<const char> presence() const noexcept { return present_; }

  // Zobrist fingerprint of the current content set (cache/zobrist.hpp):
  // XOR of the per-item keys, maintained in O(1) per mutation, equal for
  // equal sets regardless of insertion order (0 when empty). Keys the
  // cross-request plan memoization.
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  // Inserts an item that must not already be cached; throws when full
  // (evict first) or duplicated. Inline (with erase/replace below): the
  // sim loops mutate the cache tens of millions of times per sweep.
  void insert(ItemId item) {
    check_id(item);
    SKP_REQUIRE(!contains(item), "item " << item << " already cached");
    SKP_REQUIRE(contents_.size() < capacity_,
                "cache full (capacity " << capacity_ << "); evict first");
    pos_[static_cast<std::size_t>(item)] =
        static_cast<std::uint32_t>(contents_.size());
    contents_.push_back(item);
    sorted_.insert(lower_bound(sorted_.begin(), sorted_.end(), item), item);
    present_[static_cast<std::size_t>(item)] = 1;
    fingerprint_ ^= zobrist_item_key(item);
  }

  // Removes a cached item; throws if absent.
  void erase(ItemId item) {
    check_id(item);
    SKP_REQUIRE(contains(item), "item " << item << " not cached");
    // O(1) position lookup; one fused pass shifts the tail down and
    // reindexes it, keeping the documented insertion-order iteration for
    // the survivors.
    const std::size_t at = pos_[static_cast<std::size_t>(item)];
    for (std::size_t k = at + 1; k < contents_.size(); ++k) {
      const ItemId moved = contents_[k];
      contents_[k - 1] = moved;
      pos_[static_cast<std::size_t>(moved)] =
          static_cast<std::uint32_t>(k - 1);
    }
    contents_.pop_back();
    sorted_.erase(lower_bound(sorted_.begin(), sorted_.end(), item));
    present_[static_cast<std::size_t>(item)] = 0;
    fingerprint_ ^= zobrist_item_key(item);
  }

  // Replaces `victim` with `incoming` in one step.
  void replace(ItemId victim, ItemId incoming) {
    erase(victim);
    insert(incoming);
  }

  // Current contents in insertion order (stable across erase via swap-free
  // compaction — order of survivors is preserved).
  std::span<const ItemId> contents() const noexcept { return contents_; }

  // Current contents in victim order: ascending (score, id), which is
  // ascending id when unordered (maintained incrementally; O(size)
  // memmove per mutation). Every cached item with P == 0 has Pr == 0, so
  // walking this yields the zero-Pr victims in their exact Figure-6
  // arbitration order (Pr, sub-arbitration score, id).
  std::span<const ItemId> victim_order() const noexcept { return sorted_; }

  // The sub-arbitration this cache's victim order is keyed by.
  SubArbitration order() const noexcept { return order_; }

  // Victim-order score of `item` (0 for an unordered cache).
  double score(ItemId item) const {
    check_id(item);
    return scores_.empty() ? 0.0 : scores_[static_cast<std::size_t>(item)];
  }

  // Sets `item`'s score (cached or not; an ordered cache only) and moves
  // it to its new place in the victim order: one rotate over the items it
  // passes.
  void set_score(ItemId item, double score) {
    check_id(item);
    SKP_REQUIRE(!scores_.empty(), "set_score on an unordered cache");
    double& cur = scores_[static_cast<std::size_t>(item)];
    if (cur == score) return;
    if (!contains(item)) {
      cur = score;
      return;
    }
    const auto at = lower_bound(sorted_.begin(), sorted_.end(), item);
    const bool up = score > cur;
    cur = score;
    if (up) {
      std::rotate(at, at + 1, lower_bound(at + 1, sorted_.end(), item));
    } else {
      std::rotate(lower_bound(sorted_.begin(), at, item), at, at + 1);
    }
  }

  // Re-derives every score as score_of(id) (an ordered cache only) and
  // re-sorts the victim order; for changes that touch every score at once.
  template <class ScoreOf>
  void rescore(ScoreOf score_of) {
    SKP_REQUIRE(!scores_.empty(), "rescore on an unordered cache");
    for (std::size_t i = 0; i < scores_.size(); ++i) {
      scores_[i] = score_of(static_cast<ItemId>(i));
    }
    std::sort(sorted_.begin(), sorted_.end(),
              [this](ItemId a, ItemId b) { return before(a, b); });
  }

  // Empties the cache; scores are kept (they describe items, not slots).
  void clear();

 private:
  void check_id(ItemId item) const {
    SKP_REQUIRE(
        item >= 0 && static_cast<std::size_t>(item) < present_.size(),
        "item " << item << " outside catalog of " << present_.size());
  }

  // Victim-order comparison: (score, id) ascending.
  bool before(ItemId a, ItemId b) const {
    if (!scores_.empty()) {
      const double sa = scores_[static_cast<std::size_t>(a)];
      const double sb = scores_[static_cast<std::size_t>(b)];
      if (sa != sb) return sa < sb;
    }
    return a < b;
  }

  // Position of `item` (present or not) in the victim-ordered [first,
  // last).
  std::vector<ItemId>::iterator lower_bound(
      std::vector<ItemId>::iterator first,
      std::vector<ItemId>::iterator last, ItemId item) const {
    if (scores_.empty()) return std::lower_bound(first, last, item);
    return std::lower_bound(first, last, item, [this](ItemId a, ItemId b) {
      return before(a, b);
    });
  }

  std::size_t capacity_;
  SubArbitration order_;
  std::vector<ItemId> contents_;
  std::vector<ItemId> sorted_;  // same set, victim order
  std::vector<double> scores_;  // per catalog item; empty when unordered
  std::vector<char> present_;
  std::uint64_t fingerprint_ = 0;
  // item -> index in contents_ (meaningful only while present_); turns
  // erase's membership scan into an O(1) lookup.
  std::vector<std::uint32_t> pos_;
};

}  // namespace skp
