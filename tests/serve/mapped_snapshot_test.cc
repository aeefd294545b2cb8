// Zero-copy snapshot loading: the mapped Graph/CoreIndex must expose
// pointers into the mapping itself (the acceptance bar for "no copy"), and
// every solver must return bit-identical results on a mapped graph and the
// equivalent heap-built one.

#include "serve/mapped_snapshot.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algo/weights.h"
#include "core/search.h"
#include "core/verification.h"
#include "gen/chung_lu.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "testing/builders.h"

namespace ticl {
namespace {

using testing::TwoTrianglesAndK4;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "ticl_mapped_snapshot_test_" + name;
}

Graph WeightedChungLu(std::uint64_t seed) {
  ChungLuOptions cl;
  cl.num_vertices = 500;
  cl.target_average_degree = 8.0;
  cl.gamma = 2.5;
  cl.seed = seed;
  Graph g = GenerateChungLu(cl);
  AssignWeights(&g, WeightScheme::kPageRank, seed);
  return g;
}

std::string SaveWithIndex(const Graph& g, const std::string& name) {
  const CoreIndex index(g);
  SaveSnapshotOptions options;
  options.core_index = &index;
  const std::string path = TempPath(name);
  std::string error;
  EXPECT_TRUE(SaveSnapshot(path, g, options, &error)) << error;
  return path;
}

bool InMapping(const MappedSnapshot& snapshot, const void* p) {
  const auto* byte = static_cast<const unsigned char*>(p);
  return byte >= snapshot.data() && byte < snapshot.data() + snapshot.size();
}

TEST(MappedSnapshotTest, GraphAndIndexViewTheMappingDirectly) {
  const Graph original = TwoTrianglesAndK4();
  const std::string path = SaveWithIndex(original, "zero_copy.snap");

  std::string error;
  const auto snapshot = MappedSnapshot::Open(path, &error);
  ASSERT_NE(snapshot, nullptr) << error;
  const Graph& g = snapshot->graph();

  // The acceptance bar for zero-copy: every array the Graph exposes is a
  // pointer into the mapped file region, not a heap copy.
  EXPECT_TRUE(g.is_view());
  EXPECT_TRUE(InMapping(*snapshot, g.offsets().data()));
  EXPECT_TRUE(InMapping(*snapshot, g.adjacency().data()));
  ASSERT_TRUE(g.has_weights());
  EXPECT_TRUE(InMapping(*snapshot, g.weights().data()));

  ASSERT_TRUE(snapshot->has_core_index());
  const CoreIndex& index = snapshot->core_index();
  EXPECT_TRUE(InMapping(*snapshot, index.core_numbers().data()));
  EXPECT_TRUE(InMapping(*snapshot, index.CoreMembers(1).data()));
  EXPECT_EQ(index.degeneracy(), 3u);
  EXPECT_EQ(testing::ToVector(index.CoreMembers(3)),
            testing::Members({6, 7, 8, 9}));

  // And the graph content matches the original bit for bit.
  EXPECT_EQ(testing::ToVector(g.offsets()),
            testing::ToVector(original.offsets()));
  EXPECT_EQ(testing::ToVector(g.adjacency()),
            testing::ToVector(original.adjacency()));
  EXPECT_EQ(testing::ToVector(g.weights()),
            testing::ToVector(original.weights()));
  std::remove(path.c_str());
}

TEST(MappedSnapshotTest, RejectsV1Files) {
  // The committed v1 golden file still copy-loads (snapshot_test); mmap
  // must refuse it with a pointer to the v2 writer.
  std::string error;
  EXPECT_EQ(MappedSnapshot::Open(
                std::string(TICL_TEST_DATA_DIR) + "/tiny_v1.snap", &error),
            nullptr);
  EXPECT_NE(error.find("requires format v2"), std::string::npos) << error;
}

TEST(MappedSnapshotTest, RejectsMissingAndCorruptFiles) {
  std::string error;
  EXPECT_EQ(MappedSnapshot::Open(TempPath("nope.snap"), &error), nullptr);
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;

  const std::string path = TempPath("corrupt.snap");
  ASSERT_TRUE(SaveSnapshot(path, TwoTrianglesAndK4(), &error)) << error;
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 48, SEEK_SET), 0);
  std::fputc(0xa5, f);
  std::fclose(f);
  EXPECT_EQ(MappedSnapshot::Open(path, &error), nullptr);
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(MappedSnapshotTest, SnapshotWithoutIndexStillMaps) {
  const std::string path = TempPath("no_index.snap");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(path, TwoTrianglesAndK4(), &error)) << error;
  const auto snapshot = MappedSnapshot::Open(path, &error);
  ASSERT_NE(snapshot, nullptr) << error;
  EXPECT_FALSE(snapshot->has_core_index());
  EXPECT_EQ(snapshot->graph().num_vertices(), 10u);
  std::remove(path.c_str());
}

void ExpectIdenticalResults(const SearchResult& a, const SearchResult& b) {
  ASSERT_EQ(a.communities.size(), b.communities.size());
  for (std::size_t i = 0; i < a.communities.size(); ++i) {
    EXPECT_EQ(a.communities[i].members, b.communities[i].members);
    // Bit-level equality, not epsilon: both runs must do identical
    // arithmetic on identical bytes.
    EXPECT_EQ(a.communities[i].influence, b.communities[i].influence);
  }
}

TEST(MappedSnapshotTest, SolversBitIdenticalOnMappedAndHeapGraphs) {
  const Graph built = WeightedChungLu(31);
  const std::string path = SaveWithIndex(built, "equiv.snap");

  std::string error;
  Graph heap;
  ASSERT_TRUE(LoadSnapshot(path, &heap, &error)) << error;
  const auto snapshot = MappedSnapshot::Open(path, &error);
  ASSERT_NE(snapshot, nullptr) << error;
  const Graph& mapped = snapshot->graph();
  ASSERT_TRUE(snapshot->has_core_index());

  SolveOptions indexed;
  indexed.core_index = &snapshot->core_index();

  for (const auto spec :
       {AggregationSpec::Min(), AggregationSpec::Max(),
        AggregationSpec::Sum(), AggregationSpec::Avg()}) {
    for (const VertexId k : {2u, 3u}) {
      Query q;
      q.k = k;
      q.r = 4;
      q.aggregation = spec;
      const SearchResult on_heap = Solve(heap, q);
      const SearchResult on_mapped = Solve(mapped, q);
      const SearchResult on_mapped_indexed = Solve(mapped, q, indexed);
      ExpectIdenticalResults(on_heap, on_mapped);
      ExpectIdenticalResults(on_heap, on_mapped_indexed);
      EXPECT_EQ(ValidateResult(mapped, q, on_mapped_indexed), "");
    }
  }
  std::remove(path.c_str());
}

TEST(MappedSnapshotTest, EngineServesMappedSnapshotWithPersistedIndex) {
  const Graph built = WeightedChungLu(37);
  const std::string path = SaveWithIndex(built, "engine.snap");

  EngineOptions options;
  options.num_threads = 2;
  std::string error;
  const auto engine = QueryEngine::OpenSnapshot(
      path, SnapshotLoadMode::kMmap, options, &error);
  ASSERT_NE(engine, nullptr) << error;
  EXPECT_TRUE(engine->snapshot_mapped());
  EXPECT_TRUE(engine->index_from_snapshot());
  EXPECT_TRUE(engine->graph().is_view());

  const auto copy_engine = QueryEngine::OpenSnapshot(
      path, SnapshotLoadMode::kCopy, options, &error);
  ASSERT_NE(copy_engine, nullptr) << error;
  EXPECT_FALSE(copy_engine->snapshot_mapped());
  // kCopy deserializes the persisted index too (no decomposition).
  EXPECT_TRUE(copy_engine->index_from_snapshot());

  for (const auto spec : {AggregationSpec::Sum(), AggregationSpec::Min()}) {
    for (const VertexId k : {2u, 3u}) {
      Query q;
      q.k = k;
      q.r = 3;
      q.aggregation = spec;
      const SearchResult direct = Solve(built, q);
      ExpectIdenticalResults(*engine->Run(q).result, direct);
      ExpectIdenticalResults(*copy_engine->Submit(q).get().result, direct);
    }
  }
  std::remove(path.c_str());
}

TEST(MappedSnapshotTest, EngineRejectsUnweightedSnapshot) {
  const std::string path = TempPath("unweighted.snap");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(path, testing::CycleGraph(6), &error)) << error;
  for (const SnapshotLoadMode mode :
       {SnapshotLoadMode::kMmap, SnapshotLoadMode::kCopy}) {
    EXPECT_EQ(QueryEngine::OpenSnapshot(path, mode, {}, &error), nullptr);
    EXPECT_NE(error.find("weights"), std::string::npos) << error;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ticl
