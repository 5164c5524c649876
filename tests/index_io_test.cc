// Round-trip and failure-path tests for KDashIndex persistence. Every bad
// input (garbage, truncation, version mismatch, unopenable file) must come
// back as a non-OK Status — never abort the process.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "core/engine.h"
#include "core/kdash_index.h"
#include "core/kdash_searcher.h"
#include "datasets/datasets.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace kdash::core {
namespace {

void ExpectIndexesEquivalent(const KDashIndex& a, const KDashIndex& b) {
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_DOUBLE_EQ(a.restart_prob(), b.restart_prob());
  EXPECT_DOUBLE_EQ(a.amax(), b.amax());
  EXPECT_EQ(a.amax_of_node(), b.amax_of_node());
  EXPECT_EQ(a.c_prime_of_node(), b.c_prime_of_node());
  EXPECT_EQ(a.new_of_old(), b.new_of_old());
  EXPECT_EQ(a.old_of_new(), b.old_of_new());
  EXPECT_EQ(a.lower_inverse(), b.lower_inverse());
  EXPECT_EQ(a.upper_inverse(), b.upper_inverse());
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    const auto na = a.OutNeighbors(u);
    const auto nb = b.OutNeighbors(u);
    ASSERT_EQ(na.size(), nb.size()) << "node " << u;
    for (std::size_t i = 0; i < na.size(); ++i) EXPECT_EQ(na[i], nb[i]);
  }
}

TEST(IndexIoTest, StreamRoundTripPreservesEverything) {
  const auto g = test::RandomDirectedGraph(80, 500, 91);
  KDashOptions options;
  options.restart_prob = 0.9;
  options.reorder_method = reorder::Method::kHybrid;
  options.seed = 5;
  const auto index = KDashIndex::Build(g, options);

  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  const auto loaded = KDashIndex::Load(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectIndexesEquivalent(index, *loaded);
  EXPECT_EQ(loaded->options().reorder_method, reorder::Method::kHybrid);
  EXPECT_EQ(loaded->options().seed, 5u);
  EXPECT_EQ(loaded->stats().nnz_lower_inverse,
            index.stats().nnz_lower_inverse);
}

TEST(IndexIoTest, LoadedIndexAnswersIdentically) {
  const auto g = test::RandomDirectedGraph(120, 800, 92);
  const auto index = KDashIndex::Build(g, {});
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  const auto loaded = KDashIndex::Load(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  KDashSearcher original(&index);
  KDashSearcher restored(&*loaded);
  for (const NodeId q : {0, 17, 63, 119}) {
    const auto a = original.Search(Query::Single(q, 10)).top;
    const auto b = restored.Search(Query::Single(q, 10)).top;
    ASSERT_EQ(a.size(), b.size()) << "q=" << q;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].node, b[i].node);
      EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
    }
  }
}

std::string SavedBytes(const KDashIndex& index) {
  std::stringstream buffer;
  EXPECT_TRUE(index.Save(buffer).ok());
  return buffer.str();
}

// Every source at k = 10: the ids and the score bits must match.
void ExpectSameAnswers(const KDashIndex& a, const KDashIndex& b) {
  KDashSearcher searcher_a(&a);
  KDashSearcher searcher_b(&b);
  for (NodeId q = 0; q < a.num_nodes(); ++q) {
    const auto want = searcher_a.Search(Query::Single(q, 10));
    const auto got = searcher_b.Search(Query::Single(q, 10));
    ASSERT_EQ(got.top, want.top) << "q=" << q;
    EXPECT_EQ(got.stats.proximity_computations,
              want.stats.proximity_computations)
        << "q=" << q;
  }
}

TEST(IndexIoTest, ResavedStandInsMatchTheirFilesByteForByte) {
  // Load converts the saved CSC inverses to head + run form and Save writes
  // them back as CSC: a built index and its save-load copy must give the
  // same file and the same answers, on every stand-in and on a shard.
  for (const datasets::DatasetId id : datasets::AllDatasets()) {
    const datasets::Dataset dataset = datasets::MakeDataset(id, 0.1);
    SCOPED_TRACE(dataset.name);
    const auto built = KDashIndex::Build(dataset.graph, {});
    std::vector<KDashIndex> indexes;
    indexes.push_back(built);
    if (id == datasets::DatasetId::kSocial) {
      const NodeId n = built.num_nodes();
      indexes.push_back(built.Restrict(n / 3, 2 * n / 3));
    }
    for (const KDashIndex& index : indexes) {
      SCOPED_TRACE(index.IsSharded() ? "shard" : "full index");
      const std::string saved = SavedBytes(index);
      std::stringstream buffer(saved);
      const auto loaded = KDashIndex::Load(buffer);
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      EXPECT_EQ(SavedBytes(*loaded), saved);
      ExpectSameAnswers(index, *loaded);
    }
  }
}

TEST(IndexIoTest, RejectsInverseStoringAnExactZero) {
  // The builder never stores an exact zero in L⁻¹ or U⁻¹, and a zero
  // inside a dense run could not be told from the run's fill, so such a
  // file would not save back to its own bytes: Load refuses it.
  const auto g = test::RandomDirectedGraph(40, 220, 102);
  const auto index = KDashIndex::Build(g, {});
  const std::string full = SavedBytes(index);

  // L⁻¹ follows the four per-node vectors (each a u64 length, then the
  // elements) as rows, cols, col_ptr, row ids, values; take a middle value.
  const auto n = static_cast<std::size_t>(index.num_nodes());
  const sparse::CscMatrix lower = index.lower_inverse().ToCsc();
  const std::size_t nnz = lower.values().size();
  const std::size_t at =
      56 + 2 * (8 + n * sizeof(Scalar)) + 2 * (8 + n * sizeof(NodeId)) +
      2 * sizeof(NodeId) + 8 + (n + 1) * sizeof(Index) +
      8 + nnz * sizeof(NodeId) + 8 + (nnz / 2) * sizeof(Scalar);
  Scalar stored = 0.0;
  std::memcpy(&stored, &full[at], sizeof(stored));
  ASSERT_EQ(stored, lower.values()[nnz / 2]);
  ASSERT_NE(stored, 0.0);

  std::string bytes = full;
  const Scalar zero = 0.0;
  std::memcpy(&bytes[at], &zero, sizeof(zero));
  std::stringstream corrupted(bytes);
  const auto loaded = KDashIndex::Load(corrupted);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("L⁻¹"), std::string::npos)
      << loaded.status();
}

TEST(IndexIoTest, FileRoundTrip) {
  const auto g = test::RandomDirectedGraph(50, 300, 93);
  const auto index = KDashIndex::Build(g, {});
  const std::string path = ::testing::TempDir() + "/kdash_index_test.bin";
  ASSERT_TRUE(index.SaveFile(path).ok());
  const auto loaded = KDashIndex::LoadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectIndexesEquivalent(index, *loaded);
  std::remove(path.c_str());
}

TEST(IndexIoTest, RejectsGarbage) {
  std::stringstream buffer("this is not an index");
  const auto loaded = KDashIndex::Load(buffer);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("not a K-dash index"),
            std::string::npos);
}

TEST(IndexIoTest, RejectsTruncationAtEveryPrefixLength) {
  const auto g = test::RandomDirectedGraph(40, 200, 94);
  const auto index = KDashIndex::Build(g, {});
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  const std::string full = buffer.str();
  // A sweep of prefix lengths exercises truncation inside the header, the
  // scalar block, each vector, and the factor matrices.
  for (const std::size_t fraction : {1ul, 7ul, 2ul, 3ul, 9ul}) {
    const std::size_t cut = full.size() * fraction / 10;
    std::stringstream truncated(full.substr(0, cut));
    const auto loaded = KDashIndex::Load(truncated);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  }
}

TEST(IndexIoTest, RejectsCorruptMagic) {
  const auto g = test::RandomDirectedGraph(30, 150, 95);
  const auto index = KDashIndex::Build(g, {});
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  std::string bytes = buffer.str();
  bytes[0] = 'X';  // corrupt the magic
  std::stringstream corrupted(bytes);
  const auto loaded = KDashIndex::Load(corrupted);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(IndexIoTest, RejectsVersionMismatch) {
  const auto g = test::RandomDirectedGraph(30, 150, 96);
  const auto index = KDashIndex::Build(g, {});
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  std::string bytes = buffer.str();
  bytes[4] = 99;  // version field follows the 4-byte magic (little-endian)
  std::stringstream mismatched(bytes);
  const auto loaded = KDashIndex::Load(mismatched);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

TEST(IndexIoTest, RejectsCorruptPayloadWithoutAborting) {
  const auto g = test::RandomDirectedGraph(40, 250, 97);
  const auto index = KDashIndex::Build(g, {});
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  const std::string full = buffer.str();
  // Flip bytes across the payload. Loads may legitimately succeed when the
  // flip lands in a benign float, but they must never abort, and a
  // detected corruption must be kDataLoss.
  for (const std::size_t at :
       {20ul, full.size() / 4, full.size() / 2, full.size() - 9}) {
    std::string bytes = full;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x5a);
    std::stringstream corrupted(bytes);
    const auto loaded = KDashIndex::Load(corrupted);
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
          << "flip at " << at << ": " << loaded.status();
    }
  }
}

TEST(IndexIoTest, RejectsCorruptScalarOptions) {
  const auto g = test::RandomDirectedGraph(30, 150, 89);
  const auto index = KDashIndex::Build(g, {});
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  const std::string full = buffer.str();

  // restart_prob is the 8 bytes after the 8-byte header; force it to 2.0.
  {
    std::string bytes = full;
    const double bad_c = 2.0;
    std::memcpy(&bytes[8], &bad_c, sizeof(bad_c));
    std::stringstream corrupted(bytes);
    const auto loaded = KDashIndex::Load(corrupted);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(loaded.status().message().find("restart probability"),
              std::string::npos);
  }

  // reorder_method follows restart_prob at offset 16; force an unknown id.
  // 5 is the retired reverse Cuthill–McKee order's id.
  for (const std::int32_t bad_method : {12345, 5, -1}) {
    std::string bytes = full;
    std::memcpy(&bytes[16], &bad_method, sizeof(bad_method));
    std::stringstream corrupted(bytes);
    const auto loaded = KDashIndex::Load(corrupted);
    ASSERT_FALSE(loaded.ok()) << "method " << bad_method;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "method " << bad_method;
    EXPECT_NE(loaded.status().message().find("reorder method"),
              std::string::npos)
        << "method " << bad_method;
  }
}

TEST(IndexIoTest, DropToleranceSlotMustHoldZero) {
  // The retired drop-tolerance slot, bytes 28-35 (magic, version, c,
  // reorder method and seed precede it). Save writes 0.0; a positive value
  // is a lossy index from an older binary, anything else is corruption.
  constexpr std::size_t kSlot = 28;
  const auto g = test::RandomDirectedGraph(30, 150, 88);
  const auto index = KDashIndex::Build(g, {});
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  const std::string full = buffer.str();
  const auto load_with = [&](double value) {
    std::string bytes = full;
    std::memcpy(&bytes[kSlot], &value, sizeof(value));
    std::stringstream patched(bytes);
    return KDashIndex::Load(patched);
  };

  double saved = -1.0;
  std::memcpy(&saved, &full[kSlot], sizeof(saved));
  EXPECT_EQ(saved, 0.0);
  const auto exact = load_with(0.0);
  ASSERT_TRUE(exact.ok()) << exact.status();
  ExpectIndexesEquivalent(index, *exact);

  const auto lossy = load_with(1e-6);
  ASSERT_FALSE(lossy.ok());
  EXPECT_EQ(lossy.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(lossy.status().message().find("rebuild"), std::string::npos);

  for (const double corrupt :
       {-1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    const auto loaded = load_with(corrupt);
    ASSERT_FALSE(loaded.ok()) << corrupt;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << corrupt;
  }
}

TEST(IndexIoTest, HugeLengthFieldRejectedNotAllocated) {
  const auto g = test::RandomDirectedGraph(30, 150, 98);
  const auto index = KDashIndex::Build(g, {});
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  std::string bytes = buffer.str();
  // The first vector length (amax table) sits right after the header and
  // scalar options: 4 magic + 4 version + 8 c + 4 reorder + 8 seed +
  // 8 drop_tol + 4 num_nodes + 4 owned_begin + 4 owned_end + 8 amax = 56.
  // Overwrite it with 2^56.
  bytes[56 + 7] = 0x01;
  std::stringstream corrupted(bytes);
  const auto loaded = KDashIndex::Load(corrupted);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

// Satellite regression: file-open failures must surface as Status, not be
// silently ignored or abort.
TEST(IndexIoTest, LoadFileMissingPathIsNotFound) {
  const auto loaded =
      KDashIndex::LoadFile("/nonexistent-dir/kdash-no-such-index.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(IndexIoTest, SaveFileUnwritablePathFails) {
  const auto g = test::RandomDirectedGraph(20, 100, 99);
  const auto index = KDashIndex::Build(g, {});
  const Status status =
      index.SaveFile("/nonexistent-dir/definitely/not/writable.bin");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(IndexIoTest, FailedSaveFileKeepsPreviousIndex) {
  const std::string path = ::testing::TempDir() + "/kdash_failed_save.bin";
  const auto a = KDashIndex::Build(test::RandomDirectedGraph(40, 200, 87), {});
  const auto b = KDashIndex::Build(test::RandomDirectedGraph(50, 300, 86), {});
  ASSERT_TRUE(a.SaveFile(path).ok());
  {
    fault::FaultSpec spec;
    spec.probability = 1.0;
    fault::ScopedFault guard("index_io.write", spec);
    const Status status = b.SaveFile(path);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  const auto loaded = KDashIndex::LoadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  std::stringstream want;
  std::stringstream got;
  ASSERT_TRUE(a.Save(want).ok());
  ASSERT_TRUE(loaded->Save(got).ok());
  EXPECT_EQ(got.str(), want.str());
  std::remove(path.c_str());
}

TEST(IndexIoTest, InjectedOpenFailureCountsAsLoadError) {
  const std::string path = ::testing::TempDir() + "/kdash_injected_open.bin";
  ASSERT_TRUE(KDashIndex::Build(test::RandomDirectedGraph(30, 150, 85), {})
                  .SaveFile(path)
                  .ok());
  const obs::Counter& load_errors =
      obs::MetricRegistry::Global().GetCounter("index_io.load_errors");
  const std::uint64_t before = load_errors.Value();
  {
    fault::FaultSpec spec;
    spec.code = StatusCode::kResourceExhausted;
    spec.max_fires = 1;
    fault::ScopedFault guard("index_io.open", spec);
    const auto opened = Engine::Open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(load_errors.Value(), before + 1);
    // The site fired its one time: the same file now opens.
    EXPECT_TRUE(Engine::Open(path).ok());
  }
  EXPECT_EQ(load_errors.Value(), before + 1);
  std::remove(path.c_str());
}

TEST(IndexIoTest, LoadFileCorruptFileFails) {
  const std::string path = ::testing::TempDir() + "/kdash_corrupt_test.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "KDSH";
    const std::uint32_t version = 2;  // current format (garbage payload)
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out << "garbage-after-header";
  }
  const auto loaded = KDashIndex::LoadFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(IndexIoTest, LoadFileTruncatedFileFails) {
  const auto g = test::RandomDirectedGraph(40, 200, 90);
  const auto index = KDashIndex::Build(g, {});
  const std::string path = ::testing::TempDir() + "/kdash_truncated_test.bin";
  ASSERT_TRUE(index.SaveFile(path).ok());
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  const std::string full = buffer.str();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(full.size() / 3));
  }
  const auto loaded = KDashIndex::LoadFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(IndexIoTest, UnknownFutureVersionSuggestsRebuild) {
  const auto g = test::RandomDirectedGraph(30, 150, 100);
  const auto index = KDashIndex::Build(g, {});
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  // 7: some future version this build cannot read. 1: the retired
  // pre-sharding layout, refused the same way.
  for (const char version : {7, 1}) {
    std::string bytes = buffer.str();
    bytes[4] = version;  // the version field follows the 4-byte magic
    std::stringstream mismatched(bytes);
    const auto loaded = KDashIndex::Load(mismatched);
    ASSERT_FALSE(loaded.ok()) << "version " << int{version};
    EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition)
        << "version " << int{version};
    EXPECT_NE(loaded.status().message().find("rebuild"), std::string::npos)
        << "version " << int{version};
  }
}

// The last 4 bytes of a saved index: the tail padding of the trailing
// PrecomputeStats block.
std::string TrailerPadding(const KDashIndex& index) {
  std::stringstream buffer;
  EXPECT_TRUE(index.Save(buffer).ok());
  const std::string bytes = buffer.str();
  return bytes.substr(bytes.size() - 4);
}

TEST(IndexIoTest, TrailerPaddingIsWrittenAsZeros) {
  const std::string zeros(4, '\0');
  const auto g = test::RandomDirectedGraph(90, 540, 101);
  const auto index = KDashIndex::Build(g, {});
  EXPECT_EQ(TrailerPadding(index), zeros) << "built index";
  EXPECT_EQ(TrailerPadding(index.Restrict(10, 50)), zeros) << "shard";

  // Load reads the block whole, padding included: a file whose padding
  // holds garbage must still save back with zeros.
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  std::string bytes = buffer.str();
  bytes.replace(bytes.size() - 4, 4, "\xab\xcd\xef\x01");
  std::stringstream dirty(bytes);
  const auto loaded = KDashIndex::Load(dirty);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(TrailerPadding(*loaded), zeros) << "load -> save";
}

}  // namespace
}  // namespace kdash::core
