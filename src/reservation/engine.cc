#include "reservation/engine.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace pabr::reservation {
namespace {

std::uint64_t pair_key(geom::CellId source, geom::CellId target) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(source))
          << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(target));
}

/// splitmix64 finalizer: the packed key's low bits are just the target
/// id, so masking it directly would collide every (s, t) with equal t.
std::uint64_t mix_key(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::size_t IncrementalEngine::PairTable::probe_start(
    std::uint64_t key) const {
  return static_cast<std::size_t>(mix_key(key)) & mask_;
}

void IncrementalEngine::PairTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  const std::size_t capacity = old.empty() ? 64 : old.size() * 2;
  slots_.clear();
  slots_.resize(capacity);
  mask_ = capacity - 1;
  for (Slot& s : old) {
    if (s.key == kEmptyKey) continue;
    std::size_t i = probe_start(s.key);
    while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
    slots_[i].key = s.key;
    slots_[i].cache = std::move(s.cache);
  }
}

IncrementalEngine::PairCache& IncrementalEngine::PairTable::find_or_insert(
    std::uint64_t key) {
  PABR_CHECK(key != kEmptyKey, "pair key collides with the empty marker");
  // Grow at 70% load so probe runs stay short.
  if (slots_.empty() || (size_ + 1) * 10 > slots_.size() * 7) grow();
  std::size_t i = probe_start(key);
  while (slots_[i].key != kEmptyKey) {
    if (slots_[i].key == key) return slots_[i].cache;
    i = (i + 1) & mask_;
  }
  slots_[i].key = key;
  ++size_;
  return slots_[i].cache;
}

IncrementalEngine::PairCache* IncrementalEngine::PairTable::find(
    std::uint64_t key) {
  if (slots_.empty()) return nullptr;
  std::size_t i = probe_start(key);
  while (slots_[i].key != kEmptyKey) {
    if (slots_[i].key == key) return &slots_[i].cache;
    i = (i + 1) & mask_;
  }
  return nullptr;
}

const IncrementalEngine::PairCache* IncrementalEngine::PairTable::find(
    std::uint64_t key) const {
  return const_cast<PairTable*>(this)->find(key);
}

void IncrementalEngine::PairTable::erase(std::uint64_t key) {
  if (slots_.empty()) return;
  std::size_t i = probe_start(key);
  while (slots_[i].key != key) {
    if (slots_[i].key == kEmptyKey) return;  // absent
    i = (i + 1) & mask_;
  }
  // Backward-shift deletion: walk the probe run past the hole and pull
  // back every entry whose home slot precedes the hole, so lookups never
  // need a tombstone to bridge the gap.
  std::size_t hole = i;
  std::size_t j = (i + 1) & mask_;
  while (slots_[j].key != kEmptyKey) {
    const std::size_t home = probe_start(slots_[j].key);
    // `j`'s entry may fill the hole iff the hole lies within its probe
    // run, i.e. home..j (cyclically) covers the hole.
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole].key = slots_[j].key;
      slots_[hole].cache = std::move(slots_[j].cache);
      hole = j;
    }
    j = (j + 1) & mask_;
  }
  slots_[hole].key = kEmptyKey;
  slots_[hole].cache = PairCache{};  // release the term vector
  --size_;
}

double IncrementalEngine::accumulate(
    geom::CellId source, geom::CellId target,
    const std::vector<traffic::ConnectionEntry>& table,
    const hoef::HandoffEstimator& estimator, sim::Time now,
    sim::Duration t_est, double running) {
  const std::uint64_t key = pair_key(source, target);
  PairCache& pair = pairs_.find_or_insert(key);

  // A changed estimation function or a stepped T_est invalidates every
  // term of the pair; estimators with finite T_int drift with wall-clock
  // time and are never cached (see header).
  const std::uint64_t version = estimator.state_version();
  const bool reusable = estimator.supports_caching() &&
                        pair.estimator_version == version &&
                        pair.t_est == t_est;

  // All-hit fast path: in steady state the cached terms mirror the table
  // one-to-one and none has expired, so the walk below would copy every
  // term unchanged. Sum straight from the cache instead — same values
  // added in the same table order, so the result is bit-identical — and
  // fall back to the merge walk from the first index that diverges.
  std::size_t prefix = 0;
  if (reusable && pair.terms.size() == table.size()) {
    const std::size_t n = table.size();
    for (; prefix < n; ++prefix) {
      const TermEntry& c = pair.terms[prefix];
      const traffic::ConnectionEntry& entry = table[prefix];
      if (c.id != entry.id || now >= c.valid_until ||
          c.reserve_bw != entry.view.reserve_bandwidth ||
          c.prev != entry.view.prev_cell ||
          c.entered_at != entry.view.entered_cell_at) {
        break;
      }
      running += c.value;
    }
    if (prefix == n) {
      terms_reused_ += n;
      telemetry::bump(tel_reused_, n);
      // The cache equals what the walk would have rebuilt; nothing to
      // store. (A pair in degraded mode never reaches here: mark_stale
      // deleted its slot, so its next walk starts from an empty cache.)
      return running;
    }
  }

  scratch_.clear();
  if (max_table_seen_ < table.size()) max_table_seen_ = table.size();
  scratch_.reserve(max_table_seen_);
  // Terms [0, prefix) were validated as hits above; carry them over and
  // resume the merge walk at the divergence point.
  scratch_.insert(scratch_.end(), pair.terms.cbegin(),
                  pair.terms.cbegin() + static_cast<std::ptrdiff_t>(prefix));
  terms_reused_ += prefix;
  telemetry::bump(tel_reused_, prefix);

  auto cached = pair.terms.cbegin() + static_cast<std::ptrdiff_t>(prefix);
  const auto cached_end = pair.terms.cend();
  for (auto it = table.cbegin() + static_cast<std::ptrdiff_t>(prefix);
       it != table.cend(); ++it) {
    const traffic::ConnectionEntry& entry = *it;
    while (cached != cached_end && cached->id < entry.id) ++cached;
    const bool hit = reusable && cached != cached_end &&
                     cached->id == entry.id && now < cached->valid_until &&
                     cached->reserve_bw == entry.view.reserve_bandwidth &&
                     cached->prev == entry.view.prev_cell &&
                     cached->entered_at == entry.view.entered_cell_at;
    if (hit) {
      scratch_.push_back(*cached);
      ++terms_reused_;
      telemetry::bump(tel_reused_);
    } else {
      const HandinTerm term = handin_term<true>(estimator, route_next_, source,
                                                target, entry, now, t_est);
      scratch_.push_back(TermEntry{entry.id, term.value, term.valid_until,
                                   entry.view.reserve_bandwidth,
                                   entry.view.prev_cell,
                                   entry.view.entered_cell_at});
      ++terms_recomputed_;
      telemetry::bump(tel_recomputed_);
    }
    // Accumulate in table order onto the caller's running sum — the exact
    // association order of the scratch rescan, so the cached path is
    // bit-identical, not approximately equal.
    running += scratch_.back().value;
  }
  pair.terms.swap(scratch_);
  pair.estimator_version = version;
  pair.t_est = t_est;
  // A completed walk re-derived every term from the live table, so any
  // degraded-mode stale mark is now discharged (post-heal re-sync).
  const auto stale = std::lower_bound(stale_keys_.begin(), stale_keys_.end(),
                                      key);
  if (stale != stale_keys_.end() && *stale == key) stale_keys_.erase(stale);
  return running;
}

void IncrementalEngine::mark_stale(geom::CellId source, geom::CellId target) {
  const std::uint64_t key = pair_key(source, target);
  // Tombstone-free: the pair's slot is removed outright (backward-shift)
  // rather than flagged; the next accumulate() over the pair starts from
  // an empty cache, which recomputes every term — exactly the re-sync the
  // audit layer then checks bitwise.
  pairs_.erase(key);
  const auto it = std::lower_bound(stale_keys_.begin(), stale_keys_.end(),
                                   key);
  if (it == stale_keys_.end() || *it != key) {
    stale_keys_.insert(it, key);
    ++pairs_invalidated_;
  }
}

bool IncrementalEngine::is_stale(geom::CellId source,
                                 geom::CellId target) const {
  const std::uint64_t key = pair_key(source, target);
  return std::binary_search(stale_keys_.begin(), stale_keys_.end(), key);
}

}  // namespace pabr::reservation
