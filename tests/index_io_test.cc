// Round-trip and failure-path tests for KDashIndex persistence. Every bad
// input (garbage, truncation, version mismatch, unopenable file) must come
// back as a non-OK Status — never abort the process. Save writes format v3,
// the only one Load reads.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "core/engine.h"
#include "core/kdash_index.h"
#include "core/kdash_searcher.h"
#include "datasets/datasets.h"
#include "index_file_util.h"
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
  // Save writes the head + run arrays as they are and Load checks and
  // adopts them: a built index and its save-load copy must give the same
  // file and the same answers, on every stand-in and on a shard.
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
  // Flip bytes across the payload: every flip is caught, as kDataLoss,
  // and no load aborts.
  const std::string full = SavedBytes(index);
  for (const std::size_t at :
       {20ul, full.size() / 4, full.size() / 2, full.size() - 9}) {
    std::string bytes = full;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x5a);
    std::stringstream corrupted(bytes);
    const auto loaded = KDashIndex::Load(corrupted);
    ASSERT_FALSE(loaded.ok()) << "flip at " << at;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "flip at " << at << ": " << loaded.status();
  }
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
  // The readable version, with a garbage payload.
  {
    std::ofstream out(path, std::ios::binary);
    out << "KDSH";
    const std::uint32_t version = 3;
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
  // 7: some future version this build cannot read. 2 and 1: the retired
  // unchecksummed and pre-sharding layouts, refused the same way.
  for (const char version : {7, 2, 1}) {
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
// stats section.
std::string TrailerPadding(const KDashIndex& index) {
  const std::string bytes = SavedBytes(index);
  return bytes.substr(bytes.size() - 4);
}

TEST(IndexIoTest, TrailerPaddingIsWrittenAsZeros) {
  const std::string zeros(4, '\0');
  const auto g = test::RandomDirectedGraph(90, 540, 101);
  const auto index = KDashIndex::Build(g, {});
  EXPECT_EQ(TrailerPadding(index), zeros) << "built index";
  EXPECT_EQ(TrailerPadding(index.Restrict(10, 50)), zeros) << "shard";

  // Load checks it: nonzero padding is refused even under a matching CRC.
  auto file = test::v3::File::Parse(SavedBytes(index));
  file.sections[test::v3::kStats].back() = '\x01';
  std::stringstream patched(file.Bytes());
  const auto refused = KDashIndex::Load(patched);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(refused.status().message().find("padding in precompute stats"),
            std::string::npos)
      << refused.status();
}

// ---- format v3 --------------------------------------------------------------

using test::v3::File;

Result<KDashIndex> LoadBytes(const std::string& bytes) {
  std::stringstream in(bytes);
  return KDashIndex::Load(in);
}

// Loading `bytes` must fail with kDataLoss and a message containing `what`.
void ExpectDataLoss(const std::string& bytes, const std::string& what) {
  const auto loaded = LoadBytes(bytes);
  ASSERT_FALSE(loaded.ok()) << what;
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << loaded.status();
  EXPECT_NE(loaded.status().message().find(what), std::string::npos)
      << "want \"" << what << "\" in: " << loaded.status();
}

template <typename T>
void AppendRaw(std::string* out, const std::vector<T>& values) {
  out->append(reinterpret_cast<const char*>(values.data()),
              values.size() * sizeof(T));
}

// An inverse section as the arrays HeadRunMatrix::FromStored takes.
struct InverseArrays {
  std::vector<sparse::ColumnExtent> extents;
  std::vector<NodeId> head_rows;
  std::vector<Scalar> head_values;
  std::vector<Scalar> run_values;

  static InverseArrays Of(const sparse::HeadRunMatrix& m) {
    return {m.ColumnExtents(), m.head_rows(), m.head_values(), m.run_values()};
  }

  // Where column `col`'s head and run start in the arrays.
  std::size_t HeadAt(std::size_t col) const {
    std::size_t at = 0;
    for (std::size_t c = 0; c < col; ++c) at += extents[c].head_size;
    return at;
  }
  std::size_t RunAt(std::size_t col) const {
    std::size_t at = 0;
    for (std::size_t c = 0; c < col; ++c) at += extents[c].run_size;
    return at;
  }

  // The section bytes: extents, head rows padded to 8 bytes, head values,
  // run values.
  std::string Bytes() const {
    std::string out;
    AppendRaw(&out, extents);
    AppendRaw(&out, head_rows);
    out.resize((out.size() + 7) / 8 * 8, '\0');
    AppendRaw(&out, head_values);
    AppendRaw(&out, run_values);
    return out;
  }
};

TEST(IndexIoTest, V3FileIsLaidOutAsItsTableSays) {
  const auto index = KDashIndex::Build(test::RandomDirectedGraph(60, 360, 81), {});
  const std::string bytes = SavedBytes(index);
  const File file = File::Parse(bytes);
  // Re-laying the parsed sections gives the same bytes: every section sits
  // at the next 8-byte boundary after zero padding, and its CRC is the
  // CRC-32C of its bytes.
  EXPECT_EQ(file.Bytes(), bytes);
  EXPECT_EQ(file.version, 3u);
  ASSERT_EQ(file.sections.size(), std::size_t{test::v3::kNumSections});
  for (std::uint32_t i = 0; i < file.tags.size(); ++i) {
    EXPECT_EQ(file.tags[i], i + 1);
  }
  const std::size_t n = static_cast<std::size_t>(index.num_nodes());
  EXPECT_EQ(file.sections[test::v3::kOptions].size(), 20u);
  EXPECT_EQ(file.sections[test::v3::kShape].size(), 20u);
  EXPECT_EQ(file.sections[test::v3::kAmaxOfNode].size(), 8 * n);
  EXPECT_EQ(file.sections[test::v3::kNewOfOld].size(), 4 * n);
  EXPECT_EQ(file.sections[test::v3::kAdjacencyPtr].size(), 8 * (n + 1));
  EXPECT_EQ(file.sections[test::v3::kStats].size(), sizeof(PrecomputeStats));
  // The inverses are stored as the arrays the matrices hold.
  EXPECT_EQ(file.sections[test::v3::kLowerInverse],
            InverseArrays::Of(index.lower_inverse()).Bytes());
  EXPECT_EQ(file.sections[test::v3::kUpperInverse],
            InverseArrays::Of(index.upper_inverse()).Bytes());
}

TEST(IndexIoTest, V3RejectsABadSectionTable) {
  const auto index = KDashIndex::Build(test::RandomDirectedGraph(30, 150, 82), {});
  const File base = File::Parse(SavedBytes(index));
  ASSERT_TRUE(LoadBytes(base.Bytes()).ok());
  {
    File file = base;
    file.tags[2] = 99;
    ExpectDataLoss(file.Bytes(), "unknown section tag 99");
  }
  {
    File file = base;
    file.tags[3] = 3;
    ExpectDataLoss(file.Bytes(), "duplicate section Amax(u)");
  }
  {
    File file = base;
    file.tags.erase(file.tags.begin() + 2);
    file.sections.erase(file.sections.begin() + 2);
    ExpectDataLoss(file.Bytes(), "section c′ out of order: Amax(u) missing");
  }
  {
    File file = base;
    std::swap(file.tags[4], file.tags[5]);
    std::swap(file.sections[4], file.sections[5]);
    ExpectDataLoss(file.Bytes(), "section old_of_new out of order");
  }
  {
    File file = base;
    file.tags.pop_back();
    file.sections.pop_back();
    ExpectDataLoss(file.Bytes(), "section precompute stats missing");
  }
  {
    File file = base;
    file.tags.push_back(12);
    file.sections.push_back(std::string(8, '\0'));
    ExpectDataLoss(file.Bytes(), "unknown section after precompute stats");
  }
}

TEST(IndexIoTest, V3RejectsBadPaddingOffsetsLengthsAndChecksums) {
  const auto index = KDashIndex::Build(test::RandomDirectedGraph(30, 150, 83), {});
  const std::string full = SavedBytes(index);
  using test::v3::EntryAt;
  using test::v3::ReadAt;
  using test::v3::WriteAt;
  const auto offset_of = [&](std::size_t section) {
    return ReadAt<std::uint64_t>(full, EntryAt(section) + test::v3::kOffsetAt);
  };
  {
    std::string bytes = full;
    bytes[12] = 1;  // the header's last 4 bytes
    ExpectDataLoss(bytes, "nonzero padding in the header");
  }
  {
    // The 20-byte options section is followed by 4 bytes of padding.
    std::string bytes = full;
    bytes[offset_of(test::v3::kOptions) + 21] = 1;
    ExpectDataLoss(bytes, "nonzero padding before shape");
  }
  {
    std::string bytes = full;
    WriteAt(&bytes, EntryAt(test::v3::kShape) + test::v3::kOffsetAt,
            offset_of(test::v3::kShape) + 8);
    ExpectDataLoss(bytes, "shape section has offset");
  }
  {
    std::string bytes = full;
    bytes[offset_of(test::v3::kCPrime) + 3] ^= 0x10;
    ExpectDataLoss(bytes, "c′ section fails its CRC");
  }
  {
    std::string bytes = full;
    WriteAt(&bytes, EntryAt(test::v3::kAmaxOfNode) + test::v3::kLengthAt,
            std::uint64_t{8});
    ExpectDataLoss(bytes, "Amax(u) section length 8");
  }
  {
    // The adjacency targets must fill whole node ids.
    File file = File::Parse(full);
    file.sections[test::v3::kAdjacency].push_back('\0');
    ExpectDataLoss(file.Bytes(), "adjacency targets section length");
  }
}

TEST(IndexIoTest, V3RejectsCorruptScalarOptions) {
  // Each patch re-stamps the options section's CRC, so the semantic check
  // is what refuses it.
  const auto index = KDashIndex::Build(test::RandomDirectedGraph(30, 150, 89), {});
  const File base = File::Parse(SavedBytes(index));
  {
    File file = base;
    test::v3::WriteAt(&file.sections[test::v3::kOptions], 0, 2.0);
    ExpectDataLoss(file.Bytes(), "restart probability");
  }
  // The reorder method follows c and the seed. 5 is the retired reverse
  // Cuthill–McKee order's id.
  for (const std::int32_t bad_method : {12345, 5, -1}) {
    File file = base;
    test::v3::WriteAt(&file.sections[test::v3::kOptions], 16, bad_method);
    ExpectDataLoss(file.Bytes(), "reorder method");
  }
}

TEST(IndexIoTest, V3OptionsHoldNoDropToleranceSlot) {
  // The retired drop-tolerance slot is gone, so an options section that
  // carries v2's eight bytes for it is the wrong length.
  const auto index = KDashIndex::Build(test::RandomDirectedGraph(30, 150, 88), {});
  File file = File::Parse(SavedBytes(index));
  file.sections[test::v3::kOptions].append(sizeof(Scalar), '\0');
  ExpectDataLoss(file.Bytes(), "options section length 28");
}

TEST(IndexIoTest, V3HugeLengthFieldRejectedNotAllocated) {
  // A huge count in a column extent, under a valid CRC, disagrees with the
  // section length before any array is sized by it; so does a huge table
  // length.
  const auto index = KDashIndex::Build(test::RandomDirectedGraph(30, 150, 98), {});
  const std::string full = SavedBytes(index);
  {
    File file = File::Parse(full);
    InverseArrays lower = InverseArrays::Of(index.lower_inverse());
    lower.extents[0].head_size = 0x7fffffffu;
    file.sections[test::v3::kLowerInverse] = lower.Bytes();
    ExpectDataLoss(file.Bytes(), "L⁻¹ section length");
  }
  {
    std::string bytes = full;
    test::v3::WriteAt(&bytes,
                      test::v3::EntryAt(test::v3::kAmaxOfNode) +
                          test::v3::kLengthAt,
                      std::uint64_t{1} << 56);
    ExpectDataLoss(bytes, "Amax(u) section length");
  }
}

TEST(IndexIoTest, V3RejectsInverseStoringAnExactZero) {
  // The builder never stores an exact zero in L⁻¹ or U⁻¹, and a zero inside
  // a dense run could not be told from the run's fill, so such a file would
  // not save back to its own bytes: Load refuses a zero in a head, or at
  // either end of a run, under a valid CRC.
  const auto index = KDashIndex::Build(test::RandomDirectedGraph(40, 220, 102), {});
  const File base = File::Parse(SavedBytes(index));
  const InverseArrays lower = InverseArrays::Of(index.lower_inverse());
  std::size_t col = 0;
  while (col < lower.extents.size() && lower.extents[col].head_size == 0) ++col;
  ASSERT_LT(col, lower.extents.size()) << "no L⁻¹ column has a head";
  {
    InverseArrays patched = lower;
    patched.head_values[patched.HeadAt(col)] = 0.0;
    File file = base;
    file.sections[test::v3::kLowerInverse] = patched.Bytes();
    ExpectDataLoss(file.Bytes(),
                   "L⁻¹: column " + std::to_string(col) + " stores an exact zero");
  }
  for (const bool last : {false, true}) {
    InverseArrays patched = lower;
    patched.run_values[patched.RunAt(col) +
                       (last ? patched.extents[col].run_size - 1 : 0)] = 0.0;
    File file = base;
    file.sections[test::v3::kLowerInverse] = patched.Bytes();
    ExpectDataLoss(file.Bytes(), "has a run that starts or ends in a zero");
  }
}

TEST(IndexIoTest, V3RejectsAnInverseNotCutWhereItTakesTheFewestBytes) {
  // Move a U⁻¹ column's cut one nonzero into its run: the same stored
  // nonzeros, 4 bytes more, so not the form the builder gives and not
  // loaded.
  const auto index = KDashIndex::Build(test::RandomDirectedGraph(40, 220, 103), {});
  InverseArrays upper = InverseArrays::Of(index.upper_inverse());
  std::size_t col = 0;
  while (col < upper.extents.size() &&
         !(upper.extents[col].run_size >= 2 &&
           upper.run_values[upper.RunAt(col) + 1] != 0.0)) {
    ++col;
  }
  ASSERT_LT(col, upper.extents.size());
  const std::size_t head_end = upper.HeadAt(col) + upper.extents[col].head_size;
  const std::size_t run_at = upper.RunAt(col);
  sparse::ColumnExtent& extent = upper.extents[col];
  upper.head_rows.insert(upper.head_rows.begin() + head_end,
                         static_cast<NodeId>(extent.run_begin));
  upper.head_values.insert(upper.head_values.begin() + head_end,
                           upper.run_values[run_at]);
  upper.run_values.erase(upper.run_values.begin() + run_at);
  ++extent.head_size;
  ++extent.run_begin;
  --extent.run_size;
  File file = File::Parse(SavedBytes(index));
  file.sections[test::v3::kUpperInverse] = upper.Bytes();
  ExpectDataLoss(file.Bytes(), "U⁻¹: column " + std::to_string(col) +
                                   " is not cut where it takes the fewest bytes");
}

TEST(IndexIoTest, V3SemanticChecksStillFireBehindAValidCrc) {
  const auto index = KDashIndex::Build(test::RandomDirectedGraph(30, 150, 84), {});
  const File base = File::Parse(SavedBytes(index));
  const auto n = index.num_nodes();
  {
    // owned_end past n.
    File file = base;
    test::v3::WriteAt(&file.sections[test::v3::kShape], 16, n + 1);
    ExpectDataLoss(file.Bytes(), "node-ownership window");
  }
  {
    File file = base;
    test::v3::WriteAt(&file.sections[test::v3::kNewOfOld], 0, NodeId{n});
    ExpectDataLoss(file.Bytes(), "permutations are not mutually inverse");
  }
  {
    File file = base;
    test::v3::WriteAt(&file.sections[test::v3::kAdjacency], 0, NodeId{-1});
    ExpectDataLoss(file.Bytes(), "adjacency target out of range");
  }
}

TEST(IndexIoTest, EveryBitFlipFailsOrLoadsTheSameIndex) {
  // Flip every bit of a small v3 file, one at a time. The flip must be
  // caught — kDataLoss, or kFailedPrecondition in the version field — or
  // the file must load to an index that answers bit for bit the same.
  const auto index = KDashIndex::Build(test::RandomDirectedGraph(24, 90, 79), {});
  const std::string full = SavedBytes(index);
  std::string bytes = full;
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[at] = static_cast<char>(full[at] ^ (1 << bit));
      const auto loaded = LoadBytes(bytes);
      if (loaded.ok()) {
        ExpectSameAnswers(index, *loaded);
      } else if (at >= 4 && at < 8) {
        ASSERT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition)
            << "byte " << at << " bit " << bit;
      } else {
        ASSERT_EQ(loaded.status().code(), StatusCode::kDataLoss)
            << "byte " << at << " bit " << bit << ": " << loaded.status();
      }
    }
    bytes[at] = full[at];
  }
}

// A stream that cannot seek or tell, like a pipe.
class PipeBuf : public std::streambuf {
 public:
  explicit PipeBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

TEST(IndexIoTest, LoadsFromANonSeekableStream) {
  const auto index = KDashIndex::Build(test::RandomDirectedGraph(80, 500, 78), {});
  PipeBuf pipe(SavedBytes(index));
  std::istream in(&pipe);
  ASSERT_EQ(in.tellg(), std::streampos(-1));
  const auto loaded = KDashIndex::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectIndexesEquivalent(index, *loaded);
}

}  // namespace
}  // namespace kdash::core
