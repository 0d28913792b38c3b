// Structured binary event trace: compact fixed-size records appended to a
// per-system ring buffer, serialized to a single `.pabrtrace` file, and
// read back by the bench/pabr_trace inspection tool.
//
// Determinism contract: tracing observes the simulation and never feeds
// back into it — no RNG draws, no event (re)ordering, no admission-visible
// state. Fuzz digests and figure CSVs are byte-identical with tracing on
// or off (tests/telemetry_determinism_test.cc).
//
// Threading: one TraceBuffer belongs to one simulator instance, and the
// deterministic parallel driver (sim/parallel.h) gives every replication
// its own system — so buffers are single-writer by construction. The
// merged file writer stamps each run's records with its slot index as the
// `stream` id, which is the replication index, not the OS thread — hence
// the file contents are independent of the thread count.
//
// Boundedness: the buffer is a ring of `capacity` records. When a run
// emits more, the oldest records rotate out (dropped_ counts them), so a
// million-event run costs a fixed 32 MiB at the default capacity. An
// optional deterministic sampler keeps every Nth eligible record instead
// of all of them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace pabr::telemetry {

/// What happened. Payload semantics per kind are documented inline; the
/// pabr-trace tool prints these names.
enum class EventKind : std::uint16_t {
  kAdmit = 1,        ///< new connection admitted; payload = bandwidth (BU)
  kBlock = 2,        ///< new connection blocked;  payload = bandwidth (BU)
  kWiredBlock = 3,   ///< admitted on air, blocked at backbone; payload = bw
  kHandoff = 4,      ///< hand-off survived; payload = granted bandwidth
  kHandoffDrop = 5,  ///< hand-off dropped; payload = requested bandwidth
  kWiredDrop = 6,    ///< dropped by the wired access link; payload = bw
  kDegrade = 7,      ///< adaptive-QoS degradation; payload = granted bw
  kUpgrade = 8,      ///< restored to full QoS; payload = granted bw
  kExpiry = 9,       ///< connection lifetime ended; payload = bandwidth
  kOffRoad = 10,     ///< mobile drove off the open road; payload = bw
  kBrRecompute = 11, ///< B_r recomputed for `cell`; payload = new B_r
  kQuadRecord = 12,  ///< quadruplet cached by `cell`; payload = sojourn (s)
  kQuadEvict = 13,   ///< quadruplet aged/rotated out; payload = count
  kSoftAlloc = 14,   ///< soft hand-off leg pre-allocated; payload = bw
  kSoftFallback = 15,///< zone entry found no room; payload = bw
  kRetry = 16,       ///< blocked request re-submitted; payload = attempt
  kTEstStep = 17,    ///< T_est adapted; payload = new T_est (s)
};

/// Stable display name ("admit", "handoff_drop", ...).
const char* event_kind_name(EventKind kind);

/// One trace record. 32 bytes, fixed layout, written to disk verbatim.
struct TraceRecord {
  double t = 0.0;             ///< simulation time (s)
  std::int32_t cell = -1;     ///< acting cell, -1 when not cell-scoped
  std::uint16_t kind = 0;     ///< EventKind
  std::uint16_t stream = 0;   ///< replication slot (assigned at merge)
  std::uint64_t mobile = 0;   ///< connection id, 0 when not per-mobile
  double payload = 0.0;       ///< kind-specific value
};
static_assert(sizeof(TraceRecord) == 32, "trace record layout drifted");

/// Single-writer bounded ring of TraceRecords with deterministic 1-in-N
/// sampling.
class TraceBuffer {
 public:
  /// `capacity` ring slots; `sample_every` keeps every Nth emitted record
  /// (1 = all). capacity 0 disables collection entirely.
  explicit TraceBuffer(std::size_t capacity = 0,
                       std::uint32_t sample_every = 1);

  void emit(double t, EventKind kind, std::int32_t cell, std::uint64_t mobile,
            double payload);

  /// Records currently held, oldest first (the ring unrolled).
  std::vector<TraceRecord> records() const;
  /// records() + clears the buffer (keeps capacity and counters).
  std::vector<TraceRecord> drain();

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return ring_.size(); }
  std::uint64_t emitted() const { return emitted_; }       ///< offered
  std::uint64_t sampled_out() const { return sampled_out_; }
  std::uint64_t rotated_out() const { return rotated_out_; }

  void clear();

  std::uint64_t sample_seq() const { return sample_seq_; }

  /// Snapshot restore: re-fills the ring (oldest first) and overwrites
  /// the counters. The restored ring starts unwrapped at slot 0 — an
  /// equivalent unrolling of the saved state, since records() is the only
  /// way the ring's internal rotation is observable.
  void restore(const std::vector<TraceRecord>& records, std::uint64_t emitted,
               std::uint64_t sampled_out, std::uint64_t rotated_out,
               std::uint64_t sample_seq);

 private:
  std::size_t capacity_;
  std::uint32_t sample_every_;
  std::vector<TraceRecord> ring_;
  std::size_t head_ = 0;  ///< next write slot once the ring is full
  bool wrapped_ = false;
  std::uint64_t emitted_ = 0;
  std::uint64_t sampled_out_ = 0;
  std::uint64_t rotated_out_ = 0;
  std::uint64_t sample_seq_ = 0;
};

/// Run-scoped key/value metadata persisted in the trace header (bench
/// name, seed, git sha, build type, thread count, ...).
struct TraceMeta {
  std::vector<std::pair<std::string, std::string>> entries;

  void set(const std::string& key, const std::string& value);
  /// Value for `key`, or empty when absent.
  std::string get(const std::string& key) const;
};

/// A parsed trace file.
struct TraceFile {
  TraceMeta meta;
  std::uint64_t rotated_out = 0;  ///< records lost to ring rotation
  std::vector<TraceRecord> records;
};

/// Writes one stream of records. Returns false (with a stderr warning) on
/// I/O failure — best-effort like csv::Writer.
bool write_trace(const std::string& path, const TraceMeta& meta,
                 const std::vector<TraceRecord>& records,
                 std::uint64_t rotated_out = 0);

/// Merges per-run record vectors into one file, stamping each run's
/// records with its slot index as `stream`. Slot order — not thread
/// schedule — determines file order, so the output is byte-identical
/// whatever --threads was.
bool write_merged_trace(const std::string& path, const TraceMeta& meta,
                        const std::vector<std::vector<TraceRecord>>& streams,
                        std::uint64_t rotated_out = 0);

/// Reads a trace file back; nullopt on missing/corrupt input (with a
/// stderr diagnostic).
std::optional<TraceFile> read_trace(const std::string& path);

}  // namespace pabr::telemetry
