#include "snapshot/format.h"

#include <bit>
#include <istream>
#include <limits>
#include <ostream>

#include "util/buildinfo.h"
#include "util/check.h"
#include "util/digest.h"

namespace pabr::snapshot {

namespace {

// Hard ceilings against malformed length fields: no legitimate snapshot
// section name or string exceeds these, and a corrupted length must not
// drive a multi-gigabyte allocation before the checksum can reject it.
constexpr std::uint32_t kMaxStringLen = 1u << 20;
constexpr std::uint64_t kMaxSectionBytes = 1ull << 32;
constexpr std::uint32_t kMaxSections = 1u << 16;

void put_le(std::string& buf, std::uint64_t v, int n_bytes) {
  for (int i = 0; i < n_bytes; ++i) {
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}
void put_u32(std::string& buf, std::uint32_t v) { put_le(buf, v, 4); }
void put_u64(std::string& buf, std::uint64_t v) { put_le(buf, v, 8); }

[[noreturn]] void fail(const std::string& what) { throw FormatError(what); }

class StreamCursor {
 public:
  explicit StreamCursor(std::istream& is) : is_(is) {}

  void bytes(void* out, std::size_t n, const char* what) {
    is_.read(static_cast<char*>(out), static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(is_.gcount()) != n) {
      fail(std::string("truncated snapshot: while reading ") + what);
    }
  }
  std::uint32_t u32(const char* what) {
    unsigned char b[4];
    bytes(b, 4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{b[i]} << (8 * i);
    return v;
  }
  std::uint64_t u64(const char* what) {
    unsigned char b[8];
    bytes(b, 8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{b[i]} << (8 * i);
    return v;
  }
  double f64(const char* what) { return std::bit_cast<double>(u64(what)); }
  std::string str(const char* what) {
    const std::uint32_t n = u32(what);
    if (n > kMaxStringLen) {
      fail(std::string("implausible string length in ") + what);
    }
    std::string s(n, '\0');
    if (n != 0) bytes(s.data(), n, what);
    return s;
  }

 private:
  std::istream& is_;
};

}  // namespace

// ---- Encoder ----------------------------------------------------------------

void Encoder::put(std::uint64_t v, int n_bytes) { put_le(buf_, v, n_bytes); }

void Encoder::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Encoder::str(std::string_view s) {
  PABR_CHECK(s.size() <= kMaxStringLen, "snapshot string too long");
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

// ---- Decoder ----------------------------------------------------------------

void Decoder::fail(const std::string& what) const {
  snapshot::fail("section '" + name_ + "': " + what);
}

const unsigned char* Decoder::take(std::size_t n) {
  if (n > remaining()) fail("read past the end of the payload");
  const auto* p =
      reinterpret_cast<const unsigned char*>(payload_.data()) + pos_;
  pos_ += n;
  return p;
}

std::uint8_t Decoder::u8() { return *take(1); }

std::uint32_t Decoder::u32() {
  const unsigned char* b = take(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{b[i]} << (8 * i);
  return v;
}

std::uint64_t Decoder::u64() {
  const unsigned char* b = take(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{b[i]} << (8 * i);
  return v;
}

double Decoder::f64() { return std::bit_cast<double>(u64()); }

std::string Decoder::str() {
  const std::uint32_t n = u32();
  if (n > kMaxStringLen) fail("implausible string length");
  const unsigned char* b = take(n);
  return std::string(reinterpret_cast<const char*>(b), n);
}

std::size_t Decoder::count(std::size_t /*n*/, std::size_t min_element_bytes) {
  const std::uint32_t n = u32();
  if (std::uint64_t{n} * min_element_bytes > remaining()) {
    fail("count " + std::to_string(n) + " cannot fit in the " +
         std::to_string(remaining()) + " payload byte(s) left");
  }
  return n;
}

void Decoder::finish() const {
  if (pos_ != payload_.size()) {
    fail(std::to_string(remaining()) +
         " unread payload byte(s) — writer/reader layout mismatch");
  }
}

// ---- Writer -----------------------------------------------------------------

Writer::Writer(SystemKind kind, std::uint64_t config_digest, double sim_time,
               std::uint64_t run_seed) {
  header_.kind = kind;
  header_.git_sha = buildinfo::git_sha();
  header_.build_type = buildinfo::build_type();
  header_.config_digest = config_digest;
  header_.sim_time = sim_time;
  header_.run_seed = run_seed;
}

Encoder& Writer::begin_section(std::string name) {
  PABR_CHECK(!finished_, "begin_section after finish");
  for (const auto& [existing, enc] : sections_) {
    PABR_CHECK(existing != name, "duplicate snapshot section name");
  }
  sections_.emplace_back(std::move(name), Encoder{});
  return sections_.back().second;
}

Encoder& Writer::cur() {
  PABR_CHECK(!sections_.empty(), "encoding outside any section");
  return sections_.back().second;
}

void Writer::finish(std::ostream& os) {
  PABR_CHECK(!finished_, "finish called twice");
  finished_ = true;

  std::string out;
  out.append(kMagic.data(), kMagic.size());
  put_u32(out, header_.format_version);
  put_u32(out, static_cast<std::uint32_t>(header_.kind));
  put_u32(out, static_cast<std::uint32_t>(header_.git_sha.size()));
  out.append(header_.git_sha);
  put_u32(out, static_cast<std::uint32_t>(header_.build_type.size()));
  out.append(header_.build_type);
  put_u64(out, header_.config_digest);
  put_u64(out, std::bit_cast<std::uint64_t>(header_.sim_time));
  put_u64(out, header_.run_seed);
  put_u32(out, static_cast<std::uint32_t>(sections_.size()));

  for (const auto& [name, enc] : sections_) {
    const std::string& payload = enc.bytes();
    put_u32(out, static_cast<std::uint32_t>(name.size()));
    out.append(name);
    put_u64(out, payload.size());
    put_u64(out, util::fnv1a_bytes(payload.data(), payload.size()));
    out.append(payload);
  }

  os.write(out.data(), static_cast<std::streamsize>(out.size()));
  PABR_CHECK(os.good(), "snapshot write failed");
}

// ---- Reader -----------------------------------------------------------------

Reader::Reader(std::istream& is) {
  StreamCursor in(is);

  char magic[8];
  in.bytes(magic, sizeof(magic), "magic");
  if (std::string_view(magic, sizeof(magic)) != kMagic) {
    fail("not a PABR snapshot (bad magic)");
  }
  header_.format_version = in.u32("format version");
  if (header_.format_version != kFormatVersion) {
    fail("unsupported snapshot format version " +
         std::to_string(header_.format_version) + " (this build reads " +
         std::to_string(kFormatVersion) + ")");
  }
  const std::uint32_t kind = in.u32("system kind");
  if (kind < 1 || kind > 3) {
    fail("unknown system kind " + std::to_string(kind));
  }
  header_.kind = static_cast<SystemKind>(kind);
  header_.git_sha = in.str("git sha");
  header_.build_type = in.str("build type");
  header_.config_digest = in.u64("config digest");
  header_.sim_time = in.f64("sim time");
  header_.run_seed = in.u64("run seed");

  const std::uint32_t n_sections = in.u32("section count");
  if (n_sections > kMaxSections) {
    fail("implausible section count " + std::to_string(n_sections));
  }
  sections_.reserve(n_sections);
  for (std::uint32_t i = 0; i < n_sections; ++i) {
    Section s;
    s.name = in.str("section name");
    const std::uint64_t size = in.u64("section size");
    if (size > kMaxSectionBytes) {
      fail("section '" + s.name + "': implausible payload size");
    }
    s.checksum = in.u64("section checksum");
    s.payload.resize(static_cast<std::size_t>(size));
    if (size != 0) {
      in.bytes(s.payload.data(), s.payload.size(),
               ("payload of section '" + s.name + "'").c_str());
    }
    const std::uint64_t actual =
        util::fnv1a_bytes(s.payload.data(), s.payload.size());
    if (actual != s.checksum) {
      fail("section '" + s.name + "': checksum mismatch (file corrupted?)");
    }
    for (const Section& prev : sections_) {
      if (prev.name == s.name) fail("duplicate section '" + s.name + "'");
    }
    sections_.push_back(std::move(s));
  }
  // Anything after the last section is framing corruption, not slack.
  char extra;
  if (is.read(&extra, 1).gcount() != 0) {
    fail("trailing bytes after the last section");
  }
}

bool Reader::has_section(std::string_view name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return true;
  }
  return false;
}

Decoder Reader::open(std::string_view name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return Decoder(s.name, s.payload);
  }
  fail("missing required section '" + std::string(name) + "'");
}

void Reader::require_kind(SystemKind kind) const {
  if (header_.kind != kind) {
    fail("snapshot was written by a different simulator kind (file kind " +
         std::to_string(static_cast<std::uint32_t>(header_.kind)) +
         ", expected " + std::to_string(static_cast<std::uint32_t>(kind)) +
         ")");
  }
}

}  // namespace pabr::snapshot
