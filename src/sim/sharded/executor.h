// Deterministic cell-partitioned execution of the hex simulation
// (DESIGN.md §12).
//
// The executor partitions the grid into contiguous shards, runs one
// worker thread per shard, and advances simulated time in conservative
// slots of length
//
//   slot = 3600 * cell_diameter_km / speed_max_kmh * (1 - jitter)
//
// — the minimum possible cell traversal time. A mobile's crossing is
// scheduled (and its cross-shard arrival announced) the moment it
// attaches, so every inter-shard event is in its receiver's calendar at
// least one full slot before it can fire: no shard ever needs to roll
// back. Within a slot the four phases (drain/publish, Eq. 5
// contributions, Eq. 6 reservations, event processing) are separated by
// barriers; see shard.h for the phase contract and the determinism
// argument. Results are bitwise-identical for every shard count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "core/metrics.h"
#include "geom/hex_topology.h"
#include "mobility/hex_motion.h"
#include "sim/sharded/config.h"
#include "sim/sharded/partition.h"
#include "sim/sharded/shard.h"
#include "telemetry/metrics.h"

namespace pabr::sim::sharded {

struct ShardedResult {
  core::SystemStatus status;             ///< paper metrics, all cells
  std::vector<core::CellStatus> cells;   ///< per-cell rows, cell order
  /// FNV-1a over every cell's end state (occupancy, connection count,
  /// B_r^curr, T_est, P_CB / P_HD tallies, time-averaged B_r / B_u) and
  /// the event total. Equal digests <=> equal trajectories; this is the
  /// value the shard-count equivalence suite compares.
  std::uint64_t digest = 0;
  std::uint64_t events = 0;              ///< simulation events processed
  std::size_t active_connections = 0;    ///< mobiles alive at the horizon
  double wall_seconds = 0.0;             ///< host time inside the slot loop
  double events_per_second = 0.0;        ///< events / wall_seconds
  /// Per-shard registries merged via telemetry::merge_snapshots
  /// (counters sum, histograms merge bucket-wise). Empty when telemetry
  /// is disabled. Polled gauges are not synced and tracing is forced off
  /// — per-shard trace rings have no meaningful global order.
  telemetry::MetricsSnapshot telemetry;
};

class ShardedExecutor {
 public:
  explicit ShardedExecutor(ShardedConfig config);

  /// Runs the full horizon and returns the aggregated result. One-shot:
  /// construct a fresh executor per run.
  ShardedResult run();

  /// The conservative lookahead actually in force.
  sim::Duration slot_length() const { return slot_; }
  const geom::HexTopology& grid() const { return grid_; }
  const Partition& partition() const { return partition_; }

  /// Digest of everything that pins the trajectory: the hex system
  /// config plus the slot grid (duration, warm-up, slot override). The
  /// shard count is deliberately excluded — any count produces the same
  /// trajectory, the same checkpoint file, and may resume any file.
  static std::uint64_t config_digest(const ShardedConfig& config);

 private:
  /// Serializes the global state at the start of slot `slot` (all shards
  /// quiesced at the barrier; only shard 0's worker calls this). The
  /// payload is in global cell order / canonical event order, so it is
  /// byte-identical for every shard count. sharded/snapshot.cc.
  void save_checkpoint(std::ostream& os, std::uint64_t slot,
                       const std::vector<std::unique_ptr<Shard>>& shards);
  /// Restores a checkpoint onto freshly constructed shards and returns
  /// the slot index to resume at. sharded/snapshot.cc.
  std::uint64_t load_checkpoint(
      std::istream& is, const std::vector<std::unique_ptr<Shard>>& shards);
  /// The checkpoint's state sections, both directions (Doc = Writer or
  /// const Reader); returns the slot index saved or loaded.
  template <class Doc>
  std::uint64_t checkpoint_io(
      Doc& doc, std::uint64_t slot,
      const std::vector<std::unique_ptr<Shard>>& shards);

  ShardedConfig config_;
  geom::HexTopology grid_;
  mobility::HexMotion motion_;
  Partition partition_;
  SharedState shared_;
  sim::Duration slot_ = 0.0;
  std::uint64_t num_slots_ = 0;
  std::uint64_t reset_slot_ = 0;  ///< slot index of the warm-up reset (0 = none)
  std::uint64_t checkpoint_period_ = 0;  ///< in slots; 0 = never
};

}  // namespace pabr::sim::sharded
