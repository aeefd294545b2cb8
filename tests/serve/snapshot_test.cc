#include "serve/snapshot.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algo/weights.h"
#include "gen/chung_lu.h"
#include "serve/core_index.h"
#include "testing/builders.h"

namespace ticl {
namespace {

using testing::TwoTrianglesAndK4;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "ticl_snapshot_test_" + name;
}

void ExpectBitIdentical(const Graph& a, const Graph& b) {
  EXPECT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(testing::ToVector(a.offsets()), testing::ToVector(b.offsets()));
  EXPECT_EQ(testing::ToVector(a.adjacency()),
            testing::ToVector(b.adjacency()));
  ASSERT_EQ(a.has_weights(), b.has_weights());
  if (a.has_weights()) {
    ASSERT_EQ(a.weights().size(), b.weights().size());
    for (std::size_t v = 0; v < a.weights().size(); ++v) {
      // Bit-level, not epsilon: the snapshot stores the doubles verbatim.
      EXPECT_EQ(a.weights()[v], b.weights()[v]) << "vertex " << v;
    }
  }
}

TEST(SnapshotTest, RoundTripFixture) {
  const Graph original = TwoTrianglesAndK4();
  const std::string path = TempPath("fixture.snap");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(path, original, &error)) << error;
  Graph loaded;
  ASSERT_TRUE(LoadSnapshot(path, &loaded, &error)) << error;
  ExpectBitIdentical(original, loaded);
  std::remove(path.c_str());
}

TEST(SnapshotTest, RoundTripGeneratedGraphsProperty) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    ChungLuOptions cl;
    cl.num_vertices = 400;
    cl.target_average_degree = 6.0;
    cl.gamma = 2.5;
    cl.seed = seed;
    Graph original = GenerateChungLu(cl);
    AssignWeights(&original, WeightScheme::kPageRank, seed);

    const std::string path = TempPath("prop.snap");
    std::string error;
    ASSERT_TRUE(SaveSnapshot(path, original, &error)) << error;
    Graph loaded;
    ASSERT_TRUE(LoadSnapshot(path, &loaded, &error)) << error;
    ExpectBitIdentical(original, loaded);
    std::remove(path.c_str());
  }
}

TEST(SnapshotTest, RoundTripUnweighted) {
  const Graph original = testing::CycleGraph(12);
  const std::string path = TempPath("unweighted.snap");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(path, original, &error)) << error;
  Graph loaded;
  ASSERT_TRUE(LoadSnapshot(path, &loaded, &error)) << error;
  EXPECT_FALSE(loaded.has_weights());
  ExpectBitIdentical(original, loaded);
  std::remove(path.c_str());
}

TEST(SnapshotTest, RoundTripEmptyGraph) {
  const Graph original;
  const std::string path = TempPath("empty.snap");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(path, original, &error)) << error;
  Graph loaded = TwoTrianglesAndK4();  // must be overwritten
  ASSERT_TRUE(LoadSnapshot(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.num_vertices(), 0u);
  EXPECT_EQ(loaded.num_edges(), 0u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsMissingFile) {
  Graph loaded;
  std::string error;
  EXPECT_FALSE(LoadSnapshot(TempPath("does_not_exist.snap"), &loaded,
                            &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(SnapshotTest, RejectsBadMagic) {
  const std::string path = TempPath("badmagic.snap");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a snapshot, padded to be long enough", f);
  std::fclose(f);
  Graph loaded;
  std::string error;
  EXPECT_FALSE(LoadSnapshot(path, &loaded, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsWrongVersion) {
  const std::string path = TempPath("version.snap");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(path, TwoTrianglesAndK4(), &error)) << error;
  // Byte 8 is the low byte of the little-endian version field.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);
  std::fputc(0x7f, f);
  std::fclose(f);
  Graph loaded;
  EXPECT_FALSE(LoadSnapshot(path, &loaded, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsTruncatedFile) {
  const std::string path = TempPath("truncated.snap");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(path, TwoTrianglesAndK4(), &error)) << error;
  // Rewrite the file minus its last 16 bytes.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<char> bytes;
  int ch;
  while ((ch = std::fgetc(f)) != EOF) bytes.push_back(static_cast<char>(ch));
  std::fclose(f);
  ASSERT_GT(bytes.size(), 16u);
  f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size() - 16, f);
  std::fclose(f);

  Graph loaded;
  EXPECT_FALSE(LoadSnapshot(path, &loaded, &error));
  // v2 truncation lands on the checksum (the digest is read from what is
  // now the middle of the payload).
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsFlippedPayloadByte) {
  const Graph original = TwoTrianglesAndK4();
  const std::string path = TempPath("corrupt.snap");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(path, original, &error)) << error;
  // Flip one byte in the middle of the payload; the checksum must notice.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
  const long size = std::ftell(f);
  ASSERT_EQ(std::fseek(f, size / 2, SEEK_SET), 0);
  const int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, size / 2, SEEK_SET), 0);
  std::fputc(byte ^ 0xff, f);
  std::fclose(f);

  Graph loaded;
  EXPECT_FALSE(LoadSnapshot(path, &loaded, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  std::remove(path.c_str());
}

// Writers for hand-crafted (hostile) snapshot bytes.
struct RawWriter {
  std::vector<unsigned char> bytes;

  void Append(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    bytes.insert(bytes.end(), p, p + size);
  }
  template <typename T>
  void AppendValue(T value) {
    Append(&value, sizeof(value));
  }
  /// FNV-1a 64 over everything appended so far (mirrors the file format).
  std::uint64_t Checksum() const {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const unsigned char byte : bytes) {
      hash ^= byte;
      hash *= 0x100000001b3ULL;
    }
    return hash;
  }
  void WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }
};

TEST(SnapshotTest, RejectsNonMonotoneOffsetsWithoutOverread) {
  // offsets [0, 10, 2] with a 2-entry adjacency: front/back pass, but the
  // middle entry points past the array. Must be rejected as invalid, not
  // read out of bounds.
  RawWriter w;
  w.Append("TICLSNAP", 8);
  w.AppendValue<std::uint32_t>(1);  // v1 layout
  w.AppendValue<std::uint32_t>(0);                   // flags: no weights
  w.AppendValue<std::uint64_t>(2);                   // n
  w.AppendValue<std::uint64_t>(2);                   // adjacency length
  for (const std::uint64_t offset : {0ull, 10ull, 2ull}) {
    w.AppendValue<std::uint64_t>(offset);
  }
  w.AppendValue<std::uint32_t>(1);                   // adjacency
  w.AppendValue<std::uint32_t>(0);
  w.AppendValue<std::uint64_t>(w.Checksum());
  const std::string path = TempPath("nonmonotone.snap");
  w.WriteTo(path);

  Graph loaded;
  std::string error;
  EXPECT_FALSE(LoadSnapshot(path, &loaded, &error));
  EXPECT_NE(error.find("monotone"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsHugeAdjacencyLengthWithoutAllocating) {
  // adj_len = 2^62 makes `adj_len * sizeof(VertexId)` wrap to 0 in the
  // expected-size arithmetic; the loader must reject the header instead
  // of attempting a 2^62-element allocation.
  RawWriter w;
  w.Append("TICLSNAP", 8);
  w.AppendValue<std::uint32_t>(1);  // v1 layout
  w.AppendValue<std::uint32_t>(0);                   // flags
  w.AppendValue<std::uint64_t>(0);                   // n
  w.AppendValue<std::uint64_t>(1ull << 62);          // adjacency length
  w.AppendValue<std::uint64_t>(0);                   // offsets[0]
  w.AppendValue<std::uint64_t>(w.Checksum());
  const std::string path = TempPath("huge_adj.snap");
  w.WriteTo(path);

  Graph loaded;
  std::string error;
  EXPECT_FALSE(LoadSnapshot(path, &loaded, &error));
  EXPECT_NE(error.find("exceeds file size"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(SnapshotTest, FailedLoadLeavesOutputUntouched) {
  Graph out = TwoTrianglesAndK4();
  std::string error;
  ASSERT_FALSE(LoadSnapshot(TempPath("nope.snap"), &out, &error));
  EXPECT_EQ(out.num_vertices(), 10u);  // untouched
}

TEST(SnapshotTest, SaveToUnwritablePathFails) {
  std::string error;
  EXPECT_FALSE(SaveSnapshot("/nonexistent_dir_xyz/g.snap",
                            TwoTrianglesAndK4(), &error));
  EXPECT_FALSE(error.empty());
}

// -- Format compatibility ---------------------------------------------------

/// Builds syntactically valid v2 files section by section (the hostile /
/// forward-compatibility counterpart of the library writer).
struct V2Builder {
  struct Section {
    std::uint32_t type;
    std::vector<unsigned char> payload;
  };
  std::vector<Section> sections;

  template <typename T>
  void AddArraySection(std::uint32_t type, const std::vector<T>& values) {
    Section s;
    s.type = type;
    s.payload.resize(values.size() * sizeof(T));
    std::memcpy(s.payload.data(), values.data(), s.payload.size());
    sections.push_back(std::move(s));
  }

  RawWriter Build() const {
    RawWriter w;
    w.Append("TICLSNAP", 8);
    w.AppendValue<std::uint32_t>(2);
    w.AppendValue<std::uint32_t>(static_cast<std::uint32_t>(sections.size()));
    std::uint64_t cursor = 16 + 24ull * sections.size();
    for (const Section& s : sections) {
      w.AppendValue<std::uint32_t>(s.type);
      w.AppendValue<std::uint32_t>(0);
      w.AppendValue<std::uint64_t>(cursor);
      w.AppendValue<std::uint64_t>(s.payload.size());
      cursor += (s.payload.size() + 7) & ~7ull;
    }
    for (const Section& s : sections) {
      w.Append(s.payload.data(), s.payload.size());
      const std::size_t padding = ((s.payload.size() + 7) & ~7ull) -
                                  s.payload.size();
      for (std::size_t i = 0; i < padding; ++i) {
        w.AppendValue<unsigned char>(0);
      }
    }
    w.AppendValue<std::uint64_t>(w.Checksum());
    return w;
  }
};

/// Triangle on 3 vertices as raw v2 sections (types 1..3).
V2Builder TriangleV2() {
  V2Builder b;
  b.AddArraySection<std::uint64_t>(1, {3, 6});             // graph_meta
  b.AddArraySection<std::uint64_t>(2, {0, 2, 4, 6});       // offsets
  b.AddArraySection<std::uint32_t>(3, {1, 2, 0, 2, 0, 1}); // adjacency
  return b;
}

TEST(SnapshotCompatTest, CommittedV1GoldenFileStillLoads) {
  // tests/serve/testdata/tiny_v1.snap: weighted triangle written by the
  // PR-1 era v1 writer and committed verbatim. Old deployments' snapshot
  // stores must keep loading.
  Graph loaded;
  std::string error;
  ASSERT_TRUE(LoadSnapshot(std::string(TICL_TEST_DATA_DIR) + "/tiny_v1.snap",
                           &loaded, &error))
      << error;
  EXPECT_EQ(loaded.num_vertices(), 3u);
  EXPECT_EQ(loaded.num_edges(), 3u);
  EXPECT_TRUE(loaded.HasEdge(0, 1));
  EXPECT_TRUE(loaded.HasEdge(1, 2));
  EXPECT_TRUE(loaded.HasEdge(0, 2));
  ASSERT_TRUE(loaded.has_weights());
  EXPECT_EQ(loaded.weight(0), 1.0);
  EXPECT_EQ(loaded.weight(1), 2.0);
  EXPECT_EQ(loaded.weight(2), 3.0);
}

TEST(SnapshotCompatTest, UnweightedV1ImageLoadsBitIdentically) {
  // The golden file above covers a weighted v1 image; this hand-built one
  // covers the unweighted path (flags = 0, no weights block).
  const Graph weighted = TwoTrianglesAndK4();
  const Graph original(testing::ToVector(weighted.offsets()),
                       testing::ToVector(weighted.adjacency()));
  RawWriter w;
  w.Append("TICLSNAP", 8);
  w.AppendValue<std::uint32_t>(1);  // v1 layout
  w.AppendValue<std::uint32_t>(0);  // flags: no weights
  w.AppendValue<std::uint64_t>(original.num_vertices());
  w.AppendValue<std::uint64_t>(original.adjacency().size());
  w.Append(original.offsets().data(),
           original.offsets().size() * sizeof(EdgeIndex));
  w.Append(original.adjacency().data(),
           original.adjacency().size() * sizeof(VertexId));
  w.AppendValue<std::uint64_t>(w.Checksum());
  const std::string path = TempPath("v1_unweighted.snap");
  w.WriteTo(path);

  Graph loaded;
  std::string error;
  ASSERT_TRUE(LoadSnapshot(path, &loaded, &error)) << error;
  EXPECT_FALSE(loaded.has_weights());
  ExpectBitIdentical(original, loaded);
  std::remove(path.c_str());
}

TEST(SnapshotCompatTest, CoreIndexSectionRoundTripsThroughLoadSnapshot) {
  const Graph original = TwoTrianglesAndK4();
  const CoreIndex index(original);
  SaveSnapshotOptions options;
  options.core_index = &index;
  const std::string path = TempPath("with_index.snap");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(path, original, options, &error)) << error;
  // LoadSnapshot skips the core_index section; the graph is unaffected.
  Graph loaded;
  ASSERT_TRUE(LoadSnapshot(path, &loaded, &error)) << error;
  ExpectBitIdentical(original, loaded);
  std::remove(path.c_str());
}

TEST(SnapshotCompatTest, MixedGraphAndDeltaSectionsAreRejected) {
  // A file carrying both families would serve the base graph with the
  // recorded edits silently dropped; both loaders must refuse it.
  V2Builder b = TriangleV2();
  // delta_meta (type 6): parent fingerprint + zero edit counts, 48 bytes.
  b.AddArraySection<std::uint64_t>(6, {3, 6, 0x1234, 0, 0, 0});
  const std::string path = TempPath("mixed_sections.snap");
  b.Build().WriteTo(path);

  Graph loaded;
  std::string error;
  EXPECT_FALSE(LoadSnapshot(path, &loaded, &error));
  EXPECT_NE(error.find("both graph and delta"), std::string::npos) << error;
  GraphDelta delta;
  GraphFingerprint parent;
  EXPECT_FALSE(LoadDeltaSnapshot(path, &delta, &parent, &error));
  EXPECT_NE(error.find("both graph and delta"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(SnapshotCompatTest, UnknownOptionalSectionIsSkipped) {
  V2Builder b = TriangleV2();
  // A section type this reader has never heard of (a future delta table,
  // say). Forward compatibility: load fine, skip it.
  b.AddArraySection<std::uint64_t>(999, {0xdeadbeefull, 42});
  const std::string path = TempPath("unknown_section.snap");
  b.Build().WriteTo(path);

  Graph loaded;
  std::string error;
  ASSERT_TRUE(LoadSnapshot(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.num_vertices(), 3u);
  EXPECT_EQ(loaded.num_edges(), 3u);
  EXPECT_FALSE(loaded.has_weights());
  std::remove(path.c_str());
}

TEST(SnapshotCompatTest, TruncatedSectionTableRejected) {
  // Header declares 1000 sections; the file ends long before the table
  // does. Must fail with the specific table error, not a checksum read
  // somewhere past EOF.
  RawWriter w;
  w.Append("TICLSNAP", 8);
  w.AppendValue<std::uint32_t>(2);
  w.AppendValue<std::uint32_t>(1000);  // section count
  w.AppendValue<std::uint64_t>(0);     // a lone stub entry fragment
  w.AppendValue<std::uint64_t>(w.Checksum());
  const std::string path = TempPath("truncated_table.snap");
  w.WriteTo(path);

  Graph loaded;
  std::string error;
  EXPECT_FALSE(LoadSnapshot(path, &loaded, &error));
  EXPECT_NE(error.find("truncated section table"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST(SnapshotCompatTest, MissingRequiredSectionRejected) {
  V2Builder b;
  b.AddArraySection<std::uint64_t>(1, {3, 6});  // graph_meta only
  const std::string path = TempPath("missing_section.snap");
  b.Build().WriteTo(path);

  Graph loaded;
  std::string error;
  EXPECT_FALSE(LoadSnapshot(path, &loaded, &error));
  EXPECT_NE(error.find("missing required section"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST(SnapshotCompatTest, MisalignedSectionRejected) {
  // Hand-build a table whose adjacency section starts at a non-multiple
  // of 8: the zero-copy loader could never pointer-cast it safely.
  RawWriter w;
  w.Append("TICLSNAP", 8);
  w.AppendValue<std::uint32_t>(2);
  w.AppendValue<std::uint32_t>(1);
  w.AppendValue<std::uint32_t>(2);                  // type: offsets
  w.AppendValue<std::uint32_t>(0);
  w.AppendValue<std::uint64_t>(44);                 // misaligned offset
  w.AppendValue<std::uint64_t>(8);
  for (int i = 0; i < 12; ++i) w.AppendValue<unsigned char>(0);
  w.AppendValue<std::uint64_t>(w.Checksum());
  const std::string path = TempPath("misaligned.snap");
  w.WriteTo(path);

  Graph loaded;
  std::string error;
  EXPECT_FALSE(LoadSnapshot(path, &loaded, &error));
  EXPECT_NE(error.find("misaligned"), std::string::npos) << error;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ticl
