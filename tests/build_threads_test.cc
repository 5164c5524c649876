// A build with KDashOptions::num_threads = 1 runs every stage inline: it
// starts no thread, not even the process-wide shared pool. This binary
// holds this one test so that nothing before it has started a pool, and it
// sizes the default pool at 4 so that a stage borrowing the shared pool by
// mistake would show up as new threads whatever KDASH_NUM_THREADS the
// suite runs under.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "core/kdash_index.h"
#include "datasets/datasets.h"

namespace kdash::core {
namespace {

// The `Threads:` line of /proc/self/status: the threads in this process.
int ThreadsInProcess() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  ADD_FAILURE() << "no Threads: line in /proc/self/status";
  return -1;
}

TEST(BuildThreadsTest, OneThreadBuildStartsNoThread) {
  setenv("KDASH_NUM_THREADS", "4", /*overwrite=*/1);
  const auto g = datasets::MakeDataset(datasets::DatasetId::kSocial, 0.2).graph;
  KDashOptions options;
  options.reorder_method = reorder::Method::kHybrid;
  options.num_threads = 1;

  const int before = ThreadsInProcess();
  ASSERT_EQ(before, 1);
  const KDashIndex index = KDashIndex::Build(g, options);
  EXPECT_GT(index.stats().num_partitions, 1);
  EXPECT_EQ(ThreadsInProcess(), before);
}

}  // namespace
}  // namespace kdash::core
