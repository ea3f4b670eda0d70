#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "trace/generators.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"
#include "trace/zipf_workload.hpp"

namespace kdd {
namespace {

TEST(TraceStats, CountsUniquePagesAndRequests) {
  Trace t;
  t.records = {
      {0, 10, 2, true},    // reads pages 10, 11
      {1, 11, 1, false},   // writes page 11
      {2, 10, 1, true},    // re-reads page 10
      {3, 100, 4, false},  // writes 100..103
  };
  const TraceStats s = compute_stats(t);
  EXPECT_EQ(s.unique_pages_total, 6u);  // {10, 11, 100, 101, 102, 103}
  EXPECT_EQ(s.unique_pages_read, 2u);
  EXPECT_EQ(s.unique_pages_written, 5u);
  EXPECT_EQ(s.read_requests, 2u);
  EXPECT_EQ(s.write_requests, 2u);
  EXPECT_DOUBLE_EQ(s.read_ratio(), 0.5);
  EXPECT_EQ(s.max_page, 103u);
}

TEST(TraceStats, RescaleDurationPreservesOrder) {
  Trace t;
  t.records = {{100, 0, 1, true}, {200, 1, 1, true}, {400, 2, 1, true}};
  rescale_duration(t, 3000);
  EXPECT_EQ(t.records.front().time_us, 0u);
  EXPECT_EQ(t.records.back().time_us, 3000u);
  EXPECT_EQ(t.records[1].time_us, 1000u);  // preserves relative spacing
}

struct PresetCase {
  const char* name;
  double read_ratio;
  std::uint64_t unique_total_k;  // Table I, thousands of pages
  std::uint64_t requests_k;
};

// Without this, gtest prints the raw bytes of the case -- including the
// ASLR-randomised `name` pointer -- into the listed test name, so the name
// CTest registers changes from one build to the next.
void PrintTo(const PresetCase& c, std::ostream* os) { *os << c.name; }

class PresetTest : public ::testing::TestWithParam<PresetCase> {};

TEST_P(PresetTest, MatchesTableOne) {
  const PresetCase& c = GetParam();
  constexpr double kScale = 0.05;  // keep the test fast
  const Trace t = generate_preset(c.name, kScale);
  const TraceStats s = compute_stats(t);
  const double expected_unique = static_cast<double>(c.unique_total_k) * 1000 * kScale;
  const double expected_requests = static_cast<double>(c.requests_k) * 1000 * kScale;
  EXPECT_NEAR(static_cast<double>(s.unique_pages_total), expected_unique,
              expected_unique * 0.05)
      << c.name;
  EXPECT_NEAR(static_cast<double>(s.read_requests + s.write_requests),
              expected_requests, expected_requests * 0.01)
      << c.name;
  EXPECT_NEAR(s.read_ratio(), c.read_ratio, 0.02) << c.name;
}

INSTANTIATE_TEST_SUITE_P(TableOne, PresetTest,
                         ::testing::Values(PresetCase{"Fin1", 0.19, 993, 6967},
                                           PresetCase{"Fin2", 0.80, 405, 4479},
                                           PresetCase{"Hm0", 0.33, 609, 8872},
                                           PresetCase{"Web0", 0.59, 1913, 7761}),
                         [](const auto& param_info) { return param_info.param.name; });

TEST(Generators, TimestampsAreMonotonic) {
  const Trace t = generate_preset("Fin2", 0.02);
  for (std::size_t i = 1; i < t.records.size(); ++i) {
    EXPECT_GE(t.records[i].time_us, t.records[i - 1].time_us);
  }
}

TEST(Generators, Web0WriteSetIsHotterThanReadSet) {
  // The property behind the paper's Fig. 7 anomaly discussion.
  const Trace t = generate_preset("Web0", 0.05);
  const TraceStats s = compute_stats(t);
  const double read_reuse = static_cast<double>(s.read_requests) /
                            static_cast<double>(s.unique_pages_read);
  const double write_reuse = static_cast<double>(s.write_requests) /
                             static_cast<double>(s.unique_pages_written);
  EXPECT_GT(write_reuse, read_reuse * 4);
}

TEST(Generators, UnknownPresetThrows) {
  EXPECT_THROW(generate_preset("Nope", 0.1), std::invalid_argument);
}

TEST(Generators, DifferentSeedsProduceDifferentTraces) {
  const Trace a = generate_preset("Fin1", 0.01, 1);
  const Trace b = generate_preset("Fin1", 0.01, 2);
  ASSERT_EQ(a.records.size(), b.records.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    if (a.records[i].page != b.records[i].page) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ZipfWorkload, MatchesFioSetup) {
  ZipfWorkloadConfig cfg;
  cfg.read_rate = 0.25;
  cfg.total_requests = 50000;
  ZipfWorkload w(cfg);
  std::uint64_t reads = 0;
  std::uint64_t max_page = 0;
  while (!w.done()) {
    const TraceRecord r = w.next();
    if (r.is_read) ++reads;
    max_page = std::max(max_page, r.page);
    EXPECT_EQ(r.pages, 1u);
  }
  EXPECT_LT(max_page, cfg.working_set_pages);
  EXPECT_NEAR(static_cast<double>(reads) / static_cast<double>(cfg.total_requests),
              0.25, 0.01);
}

TEST(ZipfWorkload, ScattersAcrossArray) {
  ZipfWorkloadConfig cfg;
  cfg.working_set_pages = 1000;
  cfg.array_pages = 100000;
  cfg.total_requests = 5000;
  ZipfWorkload w(cfg);
  std::uint64_t above = 0;
  while (!w.done()) {
    if (w.next().page >= 1000) ++above;
  }
  EXPECT_GT(above, 3000u);  // hot pages spread over the full array
}

TEST(TraceIo, CanonicalRoundTrip) {
  Trace t;
  t.name = "rt";
  t.records = {{5, 100, 2, true}, {9, 7, 1, false}};
  const std::string path = ::testing::TempDir() + "kdd_canonical_trace.csv";
  write_canonical_trace(t, path);
  const Trace back = read_canonical_trace(path, "rt");
  ASSERT_EQ(back.records.size(), t.records.size());
  for (std::size_t i = 0; i < t.records.size(); ++i) {
    EXPECT_EQ(back.records[i].time_us, t.records[i].time_us);
    EXPECT_EQ(back.records[i].page, t.records[i].page);
    EXPECT_EQ(back.records[i].pages, t.records[i].pages);
    EXPECT_EQ(back.records[i].is_read, t.records[i].is_read);
  }
  std::filesystem::remove(path);
}

TEST(TraceIo, ParsesSpcFormat) {
  const std::string path = ::testing::TempDir() + "kdd_spc_trace.csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  // ASU,LBA(512B sectors),size(bytes),opcode,timestamp(s)
  std::fprintf(f, "0,16,4096,W,0.000000\n");
  std::fprintf(f, "0,8,512,r,1.500000\n");
  std::fprintf(f, "garbage line\n");
  std::fclose(f);
  const Trace t = read_spc_trace(path, "spc");
  ASSERT_EQ(t.records.size(), 2u);
  EXPECT_EQ(t.records[0].page, 2u);  // sector 16 / 8 sectors-per-page
  EXPECT_EQ(t.records[0].pages, 1u);
  EXPECT_FALSE(t.records[0].is_read);
  EXPECT_EQ(t.records[1].page, 1u);
  EXPECT_TRUE(t.records[1].is_read);
  EXPECT_EQ(t.records[1].time_us, 1500000u);
  std::filesystem::remove(path);
}

TEST(TraceIo, ParsesMsrFormat) {
  const std::string path = ::testing::TempDir() + "kdd_msr_trace.csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  // Timestamp(100ns),Host,Disk,Type,Offset(bytes),Size(bytes),Latency
  std::fprintf(f, "128166372003061629,hm,0,Read,8192,8192,100\n");
  std::fprintf(f, "128166372013061629,hm,0,Write,4096,4096,100\n");
  std::fclose(f);
  const Trace t = read_msr_trace(path, "msr");
  ASSERT_EQ(t.records.size(), 2u);
  EXPECT_EQ(t.records[0].page, 2u);
  EXPECT_EQ(t.records[0].pages, 2u);
  EXPECT_TRUE(t.records[0].is_read);
  EXPECT_EQ(t.records[0].time_us, 0u);  // first timestamp is the epoch
  EXPECT_EQ(t.records[1].time_us, 1000000u);
  EXPECT_FALSE(t.records[1].is_read);
  std::filesystem::remove(path);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_spc_trace("/nonexistent/file.csv", "x"), std::runtime_error);
}

}  // namespace
}  // namespace kdd
