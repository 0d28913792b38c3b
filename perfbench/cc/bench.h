// Shared pieces of the benchmark binary: options, the raw-result JSON
// writer and the per-layer metric records.
//
// The binary measures and checks; it reports raw samples, digests and
// counters as one JSON document on stdout. perfbench/run.py turns that
// into medians, percentiles and the pass/fail verdict, so every statistic
// is computed in one place (perfbench/stats.py).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <streambuf>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement budget of one invocation
  bool trace = false;
};

/// The seed the reference digests in perfbench/references.json were
/// recorded with; every invocation replays a short run at this seed.
inline constexpr std::uint64_t kReferenceSeed = 1;

/// Minimal streaming JSON writer (objects, arrays, scalars). Doubles are
/// written with 17 significant digits so deterministic outputs round-trip
/// bit for bit.
class Json {
 public:
  Json& begin_object(const char* key = nullptr);
  Json& end_object();
  Json& begin_array(const char* key = nullptr);
  Json& end_array();
  Json& field(const char* key, double v);
  Json& field(const char* key, std::uint64_t v);
  Json& field(const char* key, bool v);
  Json& field(const char* key, const std::string& v);
  Json& field(const char* key, const char* v) {
    return field(key, std::string(v));
  }
  Json& field(const char* key, const std::vector<double>& v);
  const std::string& str() const { return out_; }

 private:
  void prefix(const char* key);
  std::string out_;
  std::vector<bool> first_;
};

std::string hex64(std::uint64_t v);

/// In-memory sink for save(). Grows in fixed steps rather than by
/// doubling and keeps its storage across clear(), so repeated checkpoints
/// do not churn the allocator, and the peak RSS does not jump with where
/// a snapshot's size falls between two powers of two.
class MemorySink : public std::streambuf {
 public:
  void clear() { data_.clear(); }
  const std::vector<char>& data() const { return data_; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    reserve_for(static_cast<std::size_t>(n));
    data_.insert(data_.end(), s, s + n);
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      reserve_for(1);
      data_.push_back(traits_type::to_char_type(c));
    }
    return traits_type::not_eof(c);
  }

 private:
  void reserve_for(std::size_t n) {
    constexpr std::size_t kStep = std::size_t{1} << 20;
    const std::size_t need = data_.size() + n;
    if (need > data_.capacity()) data_.reserve((need / kStep + 1) * kStep);
  }
  std::vector<char> data_;
};

/// Read-only stream buffer over a MemorySink's bytes (no copy).
class MemorySource : public std::streambuf {
 public:
  explicit MemorySource(const std::vector<char>& bytes) {
    // std::streambuf's get area is non-const; nothing writes through it.
    char* p = const_cast<char*>(bytes.data());
    setg(p, p, p + bytes.size());
  }
};

/// One per-layer metric of the traced run. `kind` tells run.py how to
/// reduce it: "samples" -> median of `samples` (each sample may itself
/// average a batch; `n` counts the underlying calls), "value" -> `value`
/// as measured over `n` samples, "ratio" -> num / base.
struct LayerMetric {
  std::string name;
  std::string unit;
  std::string kind;
  std::vector<double> samples;
  double value = 0.0;
  double num = 0.0;
  double base = 0.0;
  std::uint64_t n = 0;
};

class Layers {
 public:
  /// Finds or creates the metric; the reference stays valid while more
  /// metrics are added (deque storage).
  LayerMetric& samples(const std::string& name, const std::string& unit);
  void value(const std::string& name, const std::string& unit, double v,
             std::uint64_t n);
  void ratio(const std::string& name, double num, double base);
  void write(Json& j) const;

 private:
  std::deque<LayerMetric> metrics_;
};

/// One timed run of a workload (the reps of an invocation).
struct RunRecord {
  double setup_s = 0.0;
  double wall_s = 0.0;  ///< host time over the timed horizon
  double sim_s = 0.0;   ///< simulated seconds in the timed horizon
  std::uint64_t events = 0;
  std::vector<double> slice_ms;
  std::uint64_t digest = 0;
  double pcb = 0.0;
  double phd = 0.0;
  double n_calc = 0.0;
  bool oracles_ok = true;
  std::string oracle_error;
  bool traced = false;

  double events_per_s() const {
    return static_cast<double>(events) / wall_s;
  }
  void write(Json& j, const char* key = nullptr) const;
};

/// Everything one invocation reports.
struct Report {
  std::vector<RunRecord> runs;
  /// Short run at kReferenceSeed, compared against references.json.
  RunRecord reference;
  /// Extra timing samples of a workload (e.g. the torus slice jobs).
  std::vector<double> slice_ms;
  std::vector<double> setup_s;
  Layers layers;
  /// Text-only layer figures a single workload has (not in every run).
  std::vector<std::pair<std::string, std::string>> notes;
  std::vector<std::string> errors;
};

/// Workload entry points (road.cc, torus.cc). Return false for an
/// unknown workload name.
bool run_road(const Options& opt, Report& report);
bool run_torus(const Options& opt, Report& report);

/// Throughput lost with telemetry on, in percent of the untraced
/// throughput, from the medians of the two sets of events/s samples.
double overhead_pct(std::vector<double> untraced, std::vector<double> traced);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

}  // namespace perfbench
