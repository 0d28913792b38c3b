// Semantic corruption that the container cannot see (DESIGN.md §13).
//
// Each case edits one field of a valid snapshot and recomputes every
// section checksum, so `pabr_snapshot --validate` still accepts the file
// and only the state decoders stand between the bytes and the simulator.
// A decoded count must fit in what is left of its section before anything
// is reserved, and a decoded enum must name one of its enumerators; both
// fail closed with a FormatError naming the section.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "core/system.h"
#include "sim/sharded/executor.h"
#include "snapshot/format.h"

namespace pabr {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

/// Re-frames `bytes` with the payload of `section` passed through `edit`.
std::string reseal(const std::string& bytes, std::string_view section,
                   const std::function<void(std::string&)>& edit) {
  std::istringstream is(bytes, std::ios::binary);
  const snapshot::Reader r(is);
  const snapshot::Header& h = r.header();
  snapshot::Writer w(h.kind, h.config_digest, h.sim_time, h.run_seed);
  for (const snapshot::Section& s : r.sections()) {
    std::string payload = s.payload;
    if (s.name == section) edit(payload);
    snapshot::Encoder& e = w.begin_section(s.name);
    for (const char c : payload) e.u8(static_cast<std::uint8_t>(c));
  }
  std::ostringstream os(std::ios::binary);
  w.finish(os);
  return os.str();
}

/// Overwrites the little-endian u32 at `offset` of a payload.
std::function<void(std::string&)> set_u32(std::size_t offset,
                                          std::uint32_t v) {
  return [offset, v](std::string& p) {
    ASSERT_LE(offset + 4, p.size());
    for (int i = 0; i < 4; ++i) {
      p[offset + static_cast<std::size_t>(i)] =
          static_cast<char>((v >> (8 * i)) & 0xffu);
    }
  };
}

/// Runs `load` and requires a FormatError whose message names `section`
/// and contains `detail`.
void expect_format_error(const std::function<void()>& load,
                         const std::string& section,
                         const std::string& detail) {
  try {
    load();
    ADD_FAILURE() << "loaded without error";
  } catch (const snapshot::FormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("section '" + section + "'"), std::string::npos)
        << what;
    EXPECT_NE(what.find(detail), std::string::npos) << what;
  }
}

std::unique_ptr<core::CellularSystem> load_linear(const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  return core::CellularSystem::load(is);
}

const std::string kFixture = std::string(PABR_TEST_DATA_DIR) +
                             "/linear_t10.pabrsnap";

TEST(SnapshotResealTest, UneditedResealLoads) {
  const std::string bytes = reseal(slurp(kFixture), "", [](std::string&) {});
  EXPECT_NO_THROW(load_linear(bytes));
}

TEST(SnapshotResealTest, HugeEngineCountFailsClosed) {
  // "engine": u32 stale-key count first. 2^32 - 1 keys would be a 32 GB
  // reservation; the count must be refused against the section size.
  const std::string bytes =
      reseal(slurp(kFixture), "engine", set_u32(0, 0xFFFFFFFFu));
  expect_format_error([&] { load_linear(bytes); }, "engine", "count");
}

TEST(SnapshotResealTest, OutOfRangeServiceClassFailsClosed) {
  // "mobiles": u32 count, then the first mobile's u64 id and u32 service.
  const std::string bytes = reseal(slurp(kFixture), "mobiles", set_u32(12, 7));
  expect_format_error([&] { load_linear(bytes); }, "mobiles", "enum");
}

TEST(SnapshotResealTest, OutOfRangeShardedEventKindFailsClosed) {
  sim::sharded::ShardedConfig cfg;
  cfg.system.rows = 4;
  cfg.system.cols = 4;
  cfg.system.wrap = true;
  cfg.system.policy = admission::PolicyKind::kAc2;
  cfg.system.arrival_rate_per_cell = 0.5;
  cfg.system.seed = 3;
  cfg.duration_s = 60.0;
  const std::string path = ::testing::TempDir() + "reseal_ckpt";
  {
    sim::sharded::ShardedConfig write = cfg;
    write.checkpoint_every_s = 30.0;
    write.checkpoint_path = path;
    sim::sharded::ShardedExecutor(write).run();
  }
  // "calendar": u32 count, then the first event's f64 time and u32 kind.
  const std::string bytes = reseal(slurp(path), "calendar", set_u32(12, 9));
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  cfg.resume_from = path;
  expect_format_error([&] { sim::sharded::ShardedExecutor(cfg).run(); },
                      "calendar", "enum");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pabr
