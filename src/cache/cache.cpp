#include "cache/cache.hpp"

namespace skp {

SlotCache::SlotCache(std::size_t catalog_size, std::size_t capacity,
                     SubArbitration order)
    : capacity_(capacity),
      order_(order),
      present_(catalog_size, 0),
      pos_(catalog_size, 0) {
  SKP_REQUIRE(catalog_size > 0, "catalog_size must be positive");
  SKP_REQUIRE(capacity >= 1, "capacity must be >= 1");
  contents_.reserve(capacity);
  sorted_.reserve(capacity);
  if (order != SubArbitration::None) scores_.assign(catalog_size, 0.0);
}

void SlotCache::clear() {
  contents_.clear();
  sorted_.clear();
  std::fill(present_.begin(), present_.end(), 0);
  fingerprint_ = 0;
}

}  // namespace skp
