// Versioned, endian-stable binary snapshot container (DESIGN.md §13).
//
// A snapshot file is a header followed by named sections:
//
//   header   magic "PABRSNAP" | u32 format_version | u32 system kind |
//            str git_sha | str build_type | u64 config digest |
//            f64 sim_time | u64 run_seed | u32 section count
//   section  str name | u64 payload size | u64 FNV-1a checksum | payload
//
// Every integer is written as explicit little-endian bytes and every
// double as the little-endian bytes of its IEEE-754 bit pattern, so a
// snapshot written on any host loads bit-for-bit on any other. Strings
// are u32 length + raw bytes. Section payloads are self-describing only
// to their producer — the container just frames, checksums and names
// them, which is what lets `pabr-snapshot` validate and diff files
// without instantiating a simulator.
//
// Readers are strict: bad magic, an unknown format version, a checksum
// mismatch, a truncated payload, an over-read, a sequence count larger
// than its section can hold or an enum past its last enumerator all throw
// FormatError with a message naming the offending section. The load path
// never constructs simulation state from an unvalidated byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pabr::snapshot {

inline constexpr std::string_view kMagic = "PABRSNAP";
// Version history:
//   1 — initial format.
//   2 — SystemConfig gained `time_origin` (appended after `seed`).
inline constexpr std::uint32_t kFormatVersion = 2;

/// Which simulator wrote the file; a loader refuses a mismatched kind.
enum class SystemKind : std::uint32_t {
  kLinear = 1,   ///< core::CellularSystem (1-D road)
  kHex = 2,      ///< core::HexCellularSystem
  kSharded = 3,  ///< sim::sharded::ShardedExecutor
};

/// Malformed, truncated or corrupted snapshot input.
class FormatError : public std::runtime_error {
 public:
  explicit FormatError(const std::string& what) : std::runtime_error(what) {}
};

// ---- The io() idiom --------------------------------------------------------
// Every piece of state has ONE field list, `template <class Ar> void
// io(Ar& ar, T& x)`, run with Ar = Encoder to save and Ar = Decoder to
// load (the cereal / boost.serialization shape). Each field call names
// its wire type and converts to and from it: `ar.u32(c.num_cells)`
// writes an int as u32 on save and assigns the decoded u32 back on load,
// so the two directions cannot drift apart. `Ar::kDecoding` guards the
// few steps that happen on one side only (applying a decoded record
// through a production setter, say). Two hooks validate untrusted input
// on decode and are plain writes on encode:
//   * count(n, min_element_bytes) — a sequence length, refused unless
//     that many elements of at least `min_element_bytes` wire bytes each
//     fit in the rest of the section, so nothing is reserved or sized
//     from an implausible count;
//   * enumeration(e, last) — an enum on the wire as u32, refused unless
//     it is at most `last`.
// A refusal is a FormatError naming the section.

/// Accumulates one section's payload with explicit little-endian
/// encoding; the saving archive of io().
class Encoder {
 public:
  static constexpr bool kDecoding = false;

  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  template <class T>
  void u32(const T& v) {
    put(static_cast<std::uint32_t>(v), 4);
  }
  template <class T>
  void u64(const T& v) {
    put(static_cast<std::uint64_t>(v), 8);
  }
  template <class T>
  void i64(const T& v) {
    u64(static_cast<std::int64_t>(v));
  }
  void f64(double v);
  void str(std::string_view s);

  /// Writes a sequence length as u32 and returns it.
  std::size_t count(std::size_t n, std::size_t /*min_element_bytes*/) {
    u32(n);
    return n;
  }
  template <class E>
  void enumeration(const E& v, E /*last*/) {
    u32(v);
  }

  const std::string& bytes() const { return buf_; }

 private:
  void put(std::uint64_t v, int n_bytes);

  std::string buf_;
};

/// Bounds-checked little-endian decoding of one section's payload; the
/// loading archive of io(). The value-returning readers serve callers
/// that inspect a payload without a state type (tools, tests).
class Decoder {
 public:
  static constexpr bool kDecoding = true;

  Decoder(std::string_view name, std::string_view payload)
      : name_(name), payload_(payload) {}

  std::uint8_t u8();
  bool b() { return u8() != 0; }
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();

  void b(bool& v) { v = b(); }
  template <class T>
  void u32(T& v) {
    v = static_cast<T>(u32());
  }
  template <class T>
  void u64(T& v) {
    v = static_cast<T>(u64());
  }
  template <class T>
  void i64(T& v) {
    v = static_cast<T>(i64());
  }
  void f64(double& v) { v = f64(); }
  void str(std::string& s) { s = str(); }

  /// Reads a u32 sequence length (`n`, what the Encoder writes, is
  /// ignored); refuses one whose elements cannot fit in the remaining
  /// payload.
  std::size_t count(std::size_t n, std::size_t min_element_bytes);
  template <class E>
  void enumeration(E& v, E last) {
    const std::uint32_t raw = u32();
    if (raw > static_cast<std::uint32_t>(last)) {
      fail("enum value " + std::to_string(raw) + " out of range");
    }
    v = static_cast<E>(raw);
  }

  std::size_t remaining() const { return payload_.size() - pos_; }
  /// Every payload byte must be consumed — a partial read means the
  /// writer and reader disagree about the section layout.
  void finish() const;
  /// Throws FormatError("section '<name>': <what>").
  [[noreturn]] void fail(const std::string& what) const;

 private:
  const unsigned char* take(std::size_t n);

  std::string name_;
  std::string_view payload_;
  std::size_t pos_ = 0;
};

/// io() of a count-prefixed vector: the count hook sizes `v` on decode,
/// then `each(x)` visits every element in order.
template <class Ar, class T, class F>
void items(Ar& ar, std::vector<T>& v, std::size_t min_element_bytes,
           F each) {
  const std::size_t n = ar.count(v.size(), min_element_bytes);
  if constexpr (Ar::kDecoding) v.resize(n);
  for (T& x : v) each(x);
}

struct Header {
  std::uint32_t format_version = kFormatVersion;
  SystemKind kind = SystemKind::kLinear;
  std::string git_sha;
  std::string build_type;
  std::uint64_t config_digest = 0;
  double sim_time = 0.0;
  std::uint64_t run_seed = 0;
};

/// Builds a snapshot in memory section by section; finish() frames and
/// checksums everything into the output stream.
class Writer {
 public:
  static constexpr bool kDecoding = false;

  Writer(SystemKind kind, std::uint64_t config_digest, double sim_time,
         std::uint64_t run_seed);

  /// Starts a new section; all encoding calls go to it until the next
  /// begin_section()/finish(). Names must be unique within a file.
  Encoder& begin_section(std::string name);

  void finish(std::ostream& os);

 private:
  Encoder& cur();

  Header header_;
  std::vector<std::pair<std::string, Encoder>> sections_;
  bool finished_ = false;
};

struct Section {
  std::string name;
  std::uint64_t checksum = 0;
  std::string payload;
};

/// Parses and validates a whole snapshot stream (header, framing, every
/// section checksum). Throws FormatError on any defect.
class Reader {
 public:
  static constexpr bool kDecoding = true;

  explicit Reader(std::istream& is);

  const Header& header() const { return header_; }
  const std::vector<Section>& sections() const { return sections_; }

  bool has_section(std::string_view name) const;
  /// Decoder over a named section; throws FormatError when absent.
  Decoder open(std::string_view name) const;

  /// Refuses files written by a different simulator kind.
  void require_kind(SystemKind kind) const;

 private:
  Header header_;
  std::vector<Section> sections_;
};

/// io() of one named section, for code that saves and loads a whole file
/// with one function template over `Doc` = Writer or const Reader:
/// `fn(ar)` gets a new Encoder section on save, and on load the section's
/// Decoder, which must then be fully consumed.
template <class F>
void section(Writer& w, std::string name, F&& fn) {
  fn(w.begin_section(std::move(name)));
}
template <class F>
void section(const Reader& r, std::string_view name, F&& fn) {
  Decoder d = r.open(name);
  fn(d);
  d.finish();
}

}  // namespace pabr::snapshot
