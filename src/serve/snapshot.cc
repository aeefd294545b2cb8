#include "serve/snapshot.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "serve/core_index.h"
#include "serve/snapshot_format.h"
#include "util/check.h"
#include "util/fnv1a.h"

namespace ticl {

namespace snapshot_internal {

std::string ValidateCsr(std::span<const EdgeIndex> offsets,
                        std::span<const VertexId> adjacency) {
  if (offsets.empty()) return "offsets section empty";
  if (offsets.front() != 0) return "offsets[0] != 0";
  if (offsets.back() != adjacency.size()) {
    return "offsets[n] does not match adjacency length";
  }
  const std::size_t n = offsets.size() - 1;
  // Full monotonicity first: together with front == 0 and back ==
  // adjacency.size() it bounds every edge range, so the per-edge loop
  // below cannot index past the adjacency array even on hostile input.
  for (std::size_t v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) return "offsets not monotone";
  }
  for (std::size_t v = 0; v < n; ++v) {
    for (EdgeIndex e = offsets[v]; e < offsets[v + 1]; ++e) {
      if (adjacency[e] >= n) return "neighbour id out of range";
      if (adjacency[e] == static_cast<VertexId>(v)) return "self-loop";
      if (e > offsets[v] && adjacency[e - 1] >= adjacency[e]) {
        return "neighbour list not strictly ascending";
      }
    }
  }
  return "";
}

bool ParseV2Table(const unsigned char* data, std::size_t size,
                  std::vector<SectionRef>* sections, std::string* error) {
  const auto fail = [error](std::string msg) {
    *error = "snapshot: " + std::move(msg);
    return false;
  };
  TICL_CHECK_MSG(reinterpret_cast<std::uintptr_t>(data) % 8 == 0,
                 "snapshot image must be 8-byte aligned");
  if (size < kV2HeaderBytes + kChecksumBytes) {
    return fail("truncated file (no room for header)");
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return fail("bad magic (not a TICL snapshot)");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, data + 8, sizeof(version));
  if (version != 2) {
    return fail("unsupported format version " + std::to_string(version) +
                " (ParseV2Table reads version 2)");
  }
  std::uint32_t section_count = 0;
  std::memcpy(&section_count, data + 12, sizeof(section_count));

  const std::size_t payload_end = size - kChecksumBytes;
  if (section_count >
      (payload_end - kV2HeaderBytes) / kSectionEntryBytes) {
    return fail("truncated section table (" + std::to_string(section_count) +
                " sections declared)");
  }
  const std::size_t table_end =
      kV2HeaderBytes + section_count * kSectionEntryBytes;

  // One checksum pass over everything before the trailing digest; every
  // later check can then trust the bytes it reads.
  std::uint64_t stored_digest = 0;
  std::memcpy(&stored_digest, data + payload_end, sizeof(stored_digest));
  if (Fnv1aHash(data, payload_end) != stored_digest) {
    return fail("checksum mismatch (file corrupted)");
  }

  sections->clear();
  sections->reserve(section_count);
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const unsigned char* entry = data + kV2HeaderBytes +
                                 static_cast<std::size_t>(i) *
                                     kSectionEntryBytes;
    std::uint32_t type = 0;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::memcpy(&type, entry, sizeof(type));
    std::memcpy(&offset, entry + 8, sizeof(offset));
    std::memcpy(&length, entry + 16, sizeof(length));
    if (offset % kSectionAlignment != 0) {
      return fail("misaligned section (type " + std::to_string(type) + ")");
    }
    if (offset < table_end || offset > payload_end ||
        length > payload_end - offset) {
      return fail("section out of bounds (type " + std::to_string(type) +
                  ")");
    }
    sections->push_back(SectionRef{type, data + offset, length});
  }
  return true;
}

bool ParseV2(const unsigned char* data, std::size_t size, ParsedSnapshot* out,
             std::string* error) {
  const auto fail = [error](std::string msg) {
    *error = "snapshot: " + std::move(msg);
    return false;
  };
  std::vector<SectionRef> sections;
  if (!ParseV2Table(data, size, &sections, error)) return false;

  const unsigned char* meta = nullptr;
  const unsigned char* offsets_ptr = nullptr;
  const unsigned char* adjacency_ptr = nullptr;
  const unsigned char* weights_ptr = nullptr;
  const unsigned char* index_ptr = nullptr;
  std::uint64_t meta_len = 0;
  std::uint64_t offsets_len = 0;
  std::uint64_t adjacency_len = 0;
  std::uint64_t weights_len = 0;
  std::uint64_t index_len = 0;
  bool has_delta_sections = false;

  for (const SectionRef& section : sections) {
    const auto claim = [&](const unsigned char** ptr, std::uint64_t* len,
                           const char* what) {
      if (*ptr != nullptr) {
        *error = std::string("snapshot: duplicate section (") + what + ")";
        return false;
      }
      *ptr = section.data;
      *len = section.length;
      return true;
    };
    switch (section.type) {
      case kSectionGraphMeta:
        if (!claim(&meta, &meta_len, "graph_meta")) return false;
        break;
      case kSectionOffsets:
        if (!claim(&offsets_ptr, &offsets_len, "offsets")) return false;
        break;
      case kSectionAdjacency:
        if (!claim(&adjacency_ptr, &adjacency_len, "adjacency")) return false;
        break;
      case kSectionWeights:
        if (!claim(&weights_ptr, &weights_len, "weights")) return false;
        break;
      case kSectionCoreIndex:
        if (!claim(&index_ptr, &index_len, "core_index")) return false;
        break;
      case kSectionDeltaMeta:
      case kSectionDeltaEdges:
      case kSectionDeltaWeights:
        has_delta_sections = true;
        break;
      default:
        break;  // unknown optional section: skip (forward compatibility)
    }
  }

  if (meta == nullptr || offsets_ptr == nullptr || adjacency_ptr == nullptr) {
    if (has_delta_sections) {
      return fail("this is a delta snapshot (edits against a parent), not a "
                  "full graph; replay it onto its base with LoadSnapshotChain "
                  "/ --delta");
    }
    return fail("missing required section (graph_meta/offsets/adjacency)");
  }
  // A full snapshot must not also carry delta sections — accepting the mix
  // would serve the base graph with the recorded edits silently dropped
  // (and the delta loader rejects the same file, so the two loaders would
  // disagree about what it is).
  if (has_delta_sections) {
    return fail("file carries both graph and delta sections");
  }
  if (meta_len != 16) return fail("graph_meta section size mismatch");
  std::uint64_t n = 0;
  std::uint64_t adj_count = 0;
  std::memcpy(&n, meta, sizeof(n));
  std::memcpy(&adj_count, meta + 8, sizeof(adj_count));
  if (n > static_cast<std::uint64_t>(kInvalidVertex)) {
    return fail("vertex count exceeds VertexId range");
  }
  if (offsets_len != (n + 1) * sizeof(EdgeIndex)) {
    return fail("offsets section size mismatch");
  }
  if (adj_count > (size - kChecksumBytes) / sizeof(VertexId)) {
    return fail("declared adjacency length exceeds file size");
  }
  if (adjacency_len != adj_count * sizeof(VertexId)) {
    return fail("adjacency section size mismatch");
  }
  if (weights_ptr != nullptr && weights_len != n * sizeof(Weight)) {
    return fail("weights section size mismatch");
  }

  out->offsets = {reinterpret_cast<const EdgeIndex*>(offsets_ptr),
                  static_cast<std::size_t>(n + 1)};
  out->adjacency = {reinterpret_cast<const VertexId*>(adjacency_ptr),
                    static_cast<std::size_t>(adj_count)};
  out->weights =
      weights_ptr == nullptr
          ? std::span<const Weight>{}
          : std::span<const Weight>{reinterpret_cast<const Weight*>(
                                        weights_ptr),
                                    static_cast<std::size_t>(n)};
  out->core_index = index_ptr;
  out->core_index_size = static_cast<std::size_t>(index_len);

  const std::string csr_problem = ValidateCsr(out->offsets, out->adjacency);
  if (!csr_problem.empty()) {
    return fail("invalid graph data: " + csr_problem);
  }
  for (const Weight w : out->weights) {
    if (!(w >= 0.0)) {  // catches negatives and NaN
      return fail("negative or NaN vertex weight");
    }
  }
  return true;
}

}  // namespace snapshot_internal

namespace {

namespace fmt = snapshot_internal;

/// fclose on scope exit; remove() the temp file unless committed.
class FileGuard {
 public:
  FileGuard(std::FILE* f, std::string path) : f_(f), path_(std::move(path)) {}
  ~FileGuard() {
    if (f_ != nullptr) std::fclose(f_);
    if (!committed_ && !path_.empty()) std::remove(path_.c_str());
  }
  void CloseAndCommit() {
    std::fclose(f_);
    f_ = nullptr;
    committed_ = true;
  }
  std::FILE* get() { return f_; }

 private:
  std::FILE* f_;
  std::string path_;
  bool committed_ = false;
};

bool WriteChecked(std::FILE* f, Fnv1a* checksum, const void* data,
                  std::size_t bytes, std::string* error) {
  if (bytes == 0) return true;
  if (std::fwrite(data, 1, bytes, f) != bytes) {
    *error = "snapshot: short write";
    return false;
  }
  if (checksum != nullptr) checksum->Update(data, bytes);
  return true;
}

bool ReadChecked(std::FILE* f, Fnv1a* checksum, void* data, std::size_t bytes,
                 const char* what, std::string* error) {
  if (bytes == 0) return true;
  if (std::fread(data, 1, bytes, f) != bytes) {
    *error = std::string("snapshot: truncated file (while reading ") + what +
             ")";
    return false;
  }
  if (checksum != nullptr) checksum->Update(data, bytes);
  return true;
}

/// Reads all of `f`, from its first byte, into *buffer in one read.
bool ReadWholeFile(std::FILE* f, std::vector<unsigned char>* buffer,
                   std::string* error) {
  if (std::fseek(f, 0, SEEK_END) != 0) {
    *error = "snapshot: seek failed";
    return false;
  }
  const long file_size = std::ftell(f);
  if (file_size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    *error = "snapshot: seek failed";
    return false;
  }
  buffer->resize(static_cast<std::size_t>(file_size));
  return ReadChecked(f, nullptr, buffer->data(), buffer->size(), "file",
                     error);
}

std::uint64_t AlignUp(std::uint64_t x) {
  return (x + (fmt::kSectionAlignment - 1)) &
         ~static_cast<std::uint64_t>(fmt::kSectionAlignment - 1);
}

struct Section {
  std::uint32_t type;
  const void* data;
  std::uint64_t length;
};

/// Writes the whole v2 container — header, section table, payloads padded
/// to the 8-byte boundary (padding is zero and checksummed; `length`
/// stays unpadded), trailing digest. Shared by the full-snapshot and
/// delta-snapshot writers.
bool WriteV2Container(std::FILE* f, const std::vector<Section>& sections,
                      std::string* error) {
  Fnv1a checksum;
  const std::uint32_t version = 2;
  const auto section_count = static_cast<std::uint32_t>(sections.size());
  if (!WriteChecked(f, &checksum, fmt::kMagic, sizeof(fmt::kMagic), error) ||
      !WriteChecked(f, &checksum, &version, sizeof(version), error) ||
      !WriteChecked(f, &checksum, &section_count, sizeof(section_count),
                    error)) {
    return false;
  }
  std::uint64_t cursor =
      fmt::kV2HeaderBytes + sections.size() * fmt::kSectionEntryBytes;
  for (const Section& section : sections) {
    const std::uint32_t reserved = 0;
    if (!WriteChecked(f, &checksum, &section.type, sizeof(section.type),
                      error) ||
        !WriteChecked(f, &checksum, &reserved, sizeof(reserved), error) ||
        !WriteChecked(f, &checksum, &cursor, sizeof(cursor), error) ||
        !WriteChecked(f, &checksum, &section.length, sizeof(section.length),
                      error)) {
      return false;
    }
    cursor += AlignUp(section.length);
  }
  const unsigned char padding[fmt::kSectionAlignment] = {0};
  for (const Section& section : sections) {
    if (!WriteChecked(f, &checksum, section.data, section.length, error) ||
        !WriteChecked(f, &checksum, padding,
                      AlignUp(section.length) - section.length, error)) {
      return false;
    }
  }
  const std::uint64_t digest = checksum.Digest();
  return WriteChecked(f, nullptr, &digest, sizeof(digest), error);
}

bool WriteV2Body(std::FILE* f, const Graph& g,
                 const SaveSnapshotOptions& options, std::string* error) {
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t adj_count = g.adjacency().size();

  const std::vector<EdgeIndex> empty_offsets{0};
  const std::span<const EdgeIndex> offsets =
      g.offsets().empty() ? std::span<const EdgeIndex>(empty_offsets)
                          : g.offsets();

  unsigned char meta[16];
  std::memcpy(meta, &n, sizeof(n));
  std::memcpy(meta + 8, &adj_count, sizeof(adj_count));

  std::vector<unsigned char> index_bytes;
  if (options.core_index != nullptr) {
    if (!(options.core_index->fingerprint() == g.fingerprint())) {
      *error = "snapshot: core index does not match the graph being saved";
      return false;
    }
    options.core_index->AppendSerialized(&index_bytes);
  }

  std::vector<Section> sections;
  sections.push_back({fmt::kSectionGraphMeta, meta, sizeof(meta)});
  sections.push_back({fmt::kSectionOffsets, offsets.data(),
                      offsets.size() * sizeof(EdgeIndex)});
  sections.push_back({fmt::kSectionAdjacency, g.adjacency().data(),
                      adj_count * sizeof(VertexId)});
  if (g.has_weights()) {
    sections.push_back(
        {fmt::kSectionWeights, g.weights().data(), n * sizeof(Weight)});
  }
  if (options.core_index != nullptr) {
    sections.push_back(
        {fmt::kSectionCoreIndex, index_bytes.data(), index_bytes.size()});
  }
  return WriteV2Container(f, sections, error);
}

/// v1 load body. `checksum` has already consumed magic + version.
bool LoadV1Body(std::FILE* f, Fnv1a checksum, Graph* out,
                std::string* error) {
  std::uint32_t flags = 0;
  std::uint64_t n = 0;
  std::uint64_t adj_len = 0;
  if (!ReadChecked(f, &checksum, &flags, sizeof(flags), "flags", error) ||
      !ReadChecked(f, &checksum, &n, sizeof(n), "vertex count", error) ||
      !ReadChecked(f, &checksum, &adj_len, sizeof(adj_len),
                   "adjacency length", error)) {
    return false;
  }
  if ((flags & ~fmt::kFlagHasWeights) != 0) {
    *error = "snapshot: unknown flag bits set";
    return false;
  }
  if (n > static_cast<std::uint64_t>(kInvalidVertex)) {
    *error = "snapshot: vertex count exceeds VertexId range";
    return false;
  }
  // Reject sizes inconsistent with the actual file before allocating.
  const long header_end = std::ftell(f);
  if (header_end < 0 || std::fseek(f, 0, SEEK_END) != 0) {
    *error = "snapshot: seek failed";
    return false;
  }
  const long file_size = std::ftell(f);
  if (file_size < 0) {
    *error = "snapshot: seek failed";
    return false;
  }
  // n is already bounded by the VertexId range (so the offsets/weights
  // terms cannot overflow); bound adj_len by the actual file size before
  // multiplying so a crafted header cannot wrap `expected` around and
  // sneak past this check into a huge allocation.
  if (adj_len > static_cast<std::uint64_t>(file_size) / sizeof(VertexId)) {
    *error = "snapshot: declared adjacency length exceeds file size";
    return false;
  }
  std::uint64_t expected = static_cast<std::uint64_t>(header_end);
  expected += (n + 1) * sizeof(EdgeIndex);
  expected += adj_len * sizeof(VertexId);
  if ((flags & fmt::kFlagHasWeights) != 0) expected += n * sizeof(Weight);
  expected += sizeof(std::uint64_t);  // checksum
  if (static_cast<std::uint64_t>(file_size) != expected) {
    *error = "snapshot: file size " + std::to_string(file_size) +
             " does not match declared sections (expected " +
             std::to_string(expected) + ")";
    return false;
  }
  if (std::fseek(f, header_end, SEEK_SET) != 0) {
    *error = "snapshot: seek failed";
    return false;
  }

  std::vector<EdgeIndex> offsets(n + 1);
  std::vector<VertexId> adjacency(adj_len);
  std::vector<Weight> weights;
  if (!ReadChecked(f, &checksum, offsets.data(),
                   offsets.size() * sizeof(EdgeIndex), "offsets", error) ||
      !ReadChecked(f, &checksum, adjacency.data(),
                   adj_len * sizeof(VertexId), "adjacency", error)) {
    return false;
  }
  if ((flags & fmt::kFlagHasWeights) != 0) {
    weights.resize(n);
    if (!ReadChecked(f, &checksum, weights.data(), n * sizeof(Weight),
                     "weights", error)) {
      return false;
    }
  }
  std::uint64_t stored_digest = 0;
  if (!ReadChecked(f, nullptr, &stored_digest, sizeof(stored_digest),
                   "checksum", error)) {
    return false;
  }
  if (stored_digest != checksum.Digest()) {
    *error = "snapshot: checksum mismatch (file corrupted)";
    return false;
  }

  const std::string csr_problem = fmt::ValidateCsr(offsets, adjacency);
  if (!csr_problem.empty()) {
    *error = "snapshot: invalid graph data: " + csr_problem;
    return false;
  }
  for (const Weight w : weights) {
    if (!(w >= 0.0)) {  // catches negatives and NaN
      *error = "snapshot: negative or NaN vertex weight";
      return false;
    }
  }

  Graph loaded(std::move(offsets), std::move(adjacency));
  if (!weights.empty()) loaded.SetWeights(std::move(weights));
  *out = std::move(loaded);
  return true;
}

/// v2 copy-load: slurp the file and parse it in place, then deep-copy the
/// sections into an owning Graph (the zero-copy alternative lives in
/// serve/mapped_snapshot.h). When index_payload is non-null it receives a
/// copy of the core_index section bytes (empty when absent).
bool LoadV2Body(std::FILE* f, Graph* out,
                std::vector<unsigned char>* index_payload,
                std::string* error) {
  std::vector<unsigned char> buffer;
  if (!ReadWholeFile(f, &buffer, error)) return false;
  fmt::ParsedSnapshot parsed;
  if (!fmt::ParseV2(buffer.data(), buffer.size(), &parsed, error)) {
    return false;
  }
  std::vector<EdgeIndex> offsets(parsed.offsets.begin(),
                                 parsed.offsets.end());
  std::vector<VertexId> adjacency(parsed.adjacency.begin(),
                                  parsed.adjacency.end());
  Graph loaded(std::move(offsets), std::move(adjacency));
  if (!parsed.weights.empty()) {
    loaded.SetWeights(
        std::vector<Weight>(parsed.weights.begin(), parsed.weights.end()));
  }
  if (index_payload != nullptr && parsed.core_index != nullptr) {
    index_payload->assign(parsed.core_index,
                          parsed.core_index + parsed.core_index_size);
  }
  *out = std::move(loaded);
  return true;
}

/// Writes `path` atomically: the body goes to a sibling temp file that is
/// renamed over `path` on success.
template <typename BodyFn>
bool AtomicWrite(const std::string& path, BodyFn&& body, std::string* error) {
  const std::string tmp_path = path + ".tmp";
  std::FILE* raw = std::fopen(tmp_path.c_str(), "wb");
  if (raw == nullptr) {
    *error = "snapshot: cannot open " + tmp_path + " for writing";
    return false;
  }
  FileGuard file(raw, tmp_path);
  std::FILE* f = file.get();
  if (!body(f)) return false;
  if (std::fflush(f) != 0) {
    *error = "snapshot: flush failed";
    return false;
  }
  file.CloseAndCommit();
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    *error = "snapshot: cannot rename " + tmp_path + " to " + path;
    std::remove(tmp_path.c_str());
    return false;
  }
  return true;
}

}  // namespace

bool SaveSnapshot(const std::string& path, const Graph& g,
                  std::string* error) {
  return SaveSnapshot(path, g, SaveSnapshotOptions{}, error);
}

bool SaveSnapshot(const std::string& path, const Graph& g,
                  const SaveSnapshotOptions& options, std::string* error) {
  return AtomicWrite(
      path, [&](std::FILE* f) { return WriteV2Body(f, g, options, error); },
      error);
}

bool LoadSnapshot(const std::string& path, Graph* out, std::string* error) {
  return LoadSnapshotWithIndex(path, out, nullptr, error);
}

bool LoadSnapshotWithIndex(const std::string& path, Graph* out,
                           std::vector<unsigned char>* core_index_payload,
                           std::string* error) {
  if (core_index_payload != nullptr) core_index_payload->clear();
  std::FILE* raw = std::fopen(path.c_str(), "rb");
  if (raw == nullptr) {
    *error = "snapshot: cannot open " + path;
    return false;
  }
  FileGuard file(raw, "");
  std::FILE* f = file.get();

  char magic[8];
  std::uint32_t version = 0;
  Fnv1a checksum;
  if (!ReadChecked(f, &checksum, magic, sizeof(magic), "magic", error)) {
    return false;
  }
  if (std::memcmp(magic, fmt::kMagic, sizeof(fmt::kMagic)) != 0) {
    *error = "snapshot: bad magic (not a TICL snapshot)";
    return false;
  }
  if (!ReadChecked(f, &checksum, &version, sizeof(version), "version",
                   error)) {
    return false;
  }
  if (version == 1) return LoadV1Body(f, checksum, out, error);
  if (version == 2) return LoadV2Body(f, out, core_index_payload, error);
  *error = "snapshot: unsupported format version " + std::to_string(version) +
           " (newest supported " + std::to_string(kSnapshotFormatVersion) +
           ")";
  return false;
}

bool SaveDeltaSnapshot(const std::string& path, const GraphDelta& delta,
                       const GraphFingerprint& parent, std::string* error) {
  unsigned char meta[fmt::kDeltaMetaBytes];
  const std::uint64_t insert_count = delta.insert_edges.size();
  const std::uint64_t delete_count = delta.delete_edges.size();
  const std::uint64_t weight_count = delta.weight_updates.size();
  std::memcpy(meta, &parent.num_vertices, 8);
  std::memcpy(meta + 8, &parent.adjacency_len, 8);
  std::memcpy(meta + 16, &parent.csr_hash, 8);
  std::memcpy(meta + 24, &insert_count, 8);
  std::memcpy(meta + 32, &delete_count, 8);
  std::memcpy(meta + 40, &weight_count, 8);

  // Edge pairs are stored normalized (u < v) so a byte-identical delta
  // always produces a byte-identical file.
  std::vector<VertexId> edge_words;
  edge_words.reserve((insert_count + delete_count) * 2);
  const auto append_edges = [&edge_words](const std::vector<Edge>& edges) {
    for (const Edge& e : edges) {
      edge_words.push_back(std::min(e.u, e.v));
      edge_words.push_back(std::max(e.u, e.v));
    }
  };
  append_edges(delta.insert_edges);
  append_edges(delta.delete_edges);

  std::vector<unsigned char> weight_bytes;
  weight_bytes.reserve(weight_count * 16);
  for (const WeightUpdate& wu : delta.weight_updates) {
    const std::uint64_t vertex = wu.vertex;
    const unsigned char* vp = reinterpret_cast<const unsigned char*>(&vertex);
    const unsigned char* wp =
        reinterpret_cast<const unsigned char*>(&wu.weight);
    weight_bytes.insert(weight_bytes.end(), vp, vp + 8);
    weight_bytes.insert(weight_bytes.end(), wp, wp + 8);
  }

  std::vector<Section> sections;
  sections.push_back({fmt::kSectionDeltaMeta, meta, sizeof(meta)});
  if (!edge_words.empty()) {
    sections.push_back({fmt::kSectionDeltaEdges, edge_words.data(),
                        edge_words.size() * sizeof(VertexId)});
  }
  if (!weight_bytes.empty()) {
    sections.push_back({fmt::kSectionDeltaWeights, weight_bytes.data(),
                        weight_bytes.size()});
  }
  return AtomicWrite(
      path, [&](std::FILE* f) { return WriteV2Container(f, sections, error); },
      error);
}

bool LoadDeltaSnapshot(const std::string& path, GraphDelta* delta,
                       GraphFingerprint* parent, std::string* error) {
  const auto fail = [error](std::string msg) {
    *error = "snapshot: " + std::move(msg);
    return false;
  };
  std::FILE* raw = std::fopen(path.c_str(), "rb");
  if (raw == nullptr) {
    *error = "snapshot: cannot open " + path;
    return false;
  }
  FileGuard file(raw, "");
  std::FILE* f = file.get();
  std::vector<unsigned char> buffer;
  if (!ReadWholeFile(f, &buffer, error)) return false;

  std::vector<fmt::SectionRef> sections;
  if (!fmt::ParseV2Table(buffer.data(), buffer.size(), &sections, error)) {
    return false;
  }
  const fmt::SectionRef* meta = nullptr;
  const fmt::SectionRef* edges = nullptr;
  const fmt::SectionRef* weights = nullptr;
  bool has_graph_sections = false;
  for (const fmt::SectionRef& section : sections) {
    switch (section.type) {
      case fmt::kSectionDeltaMeta:
        if (meta != nullptr) return fail("duplicate section (delta_meta)");
        meta = &section;
        break;
      case fmt::kSectionDeltaEdges:
        if (edges != nullptr) return fail("duplicate section (delta_edges)");
        edges = &section;
        break;
      case fmt::kSectionDeltaWeights:
        if (weights != nullptr) {
          return fail("duplicate section (delta_weights)");
        }
        weights = &section;
        break;
      case fmt::kSectionGraphMeta:
        has_graph_sections = true;
        break;
      default:
        break;
    }
  }
  if (meta == nullptr) {
    if (has_graph_sections) {
      return fail("this is a full snapshot, not a delta; load it with "
                  "LoadSnapshot / --snapshot");
    }
    return fail("missing required section (delta_meta)");
  }
  if (has_graph_sections) {
    return fail("file carries both graph and delta sections");
  }
  if (meta->length != fmt::kDeltaMetaBytes) {
    return fail("delta_meta section size mismatch");
  }

  GraphFingerprint stored;
  std::uint64_t insert_count = 0;
  std::uint64_t delete_count = 0;
  std::uint64_t weight_count = 0;
  std::memcpy(&stored.num_vertices, meta->data, 8);
  std::memcpy(&stored.adjacency_len, meta->data + 8, 8);
  std::memcpy(&stored.csr_hash, meta->data + 16, 8);
  std::memcpy(&insert_count, meta->data + 24, 8);
  std::memcpy(&delete_count, meta->data + 32, 8);
  std::memcpy(&weight_count, meta->data + 40, 8);
  const std::uint64_t n = stored.num_vertices;
  if (n > static_cast<std::uint64_t>(kInvalidVertex)) {
    return fail("parent vertex count exceeds VertexId range");
  }

  const std::uint64_t edge_bytes_budget =
      edges == nullptr ? 0 : edges->length;
  if (insert_count > edge_bytes_budget / 8 ||
      delete_count > edge_bytes_budget / 8 ||
      (insert_count + delete_count) * 8 != edge_bytes_budget) {
    return fail("delta_edges section size mismatch");
  }
  const std::uint64_t weight_bytes_budget =
      weights == nullptr ? 0 : weights->length;
  if (weight_count > weight_bytes_budget / 16 ||
      weight_count * 16 != weight_bytes_budget) {
    return fail("delta_weights section size mismatch");
  }

  GraphDelta parsed;
  parsed.insert_edges.reserve(insert_count);
  parsed.delete_edges.reserve(delete_count);
  parsed.weight_updates.reserve(weight_count);
  for (std::uint64_t i = 0; i < insert_count + delete_count; ++i) {
    VertexId u = 0;
    VertexId v = 0;
    std::memcpy(&u, edges->data + i * 8, 4);
    std::memcpy(&v, edges->data + i * 8 + 4, 4);
    if (u >= n || v >= n) return fail("delta edge endpoint out of range");
    if (u == v) return fail("delta edge is a self-loop");
    Edge e{std::min(u, v), std::max(u, v)};
    if (i < insert_count) {
      parsed.insert_edges.push_back(e);
    } else {
      parsed.delete_edges.push_back(e);
    }
  }
  for (std::uint64_t i = 0; i < weight_count; ++i) {
    std::uint64_t vertex = 0;
    Weight weight = 0.0;
    std::memcpy(&vertex, weights->data + i * 16, 8);
    std::memcpy(&weight, weights->data + i * 16 + 8, 8);
    if (vertex >= n) return fail("delta weight vertex out of range");
    if (!(weight >= 0.0) || std::isinf(weight)) {
      return fail("delta weight must be finite and non-negative");
    }
    parsed.weight_updates.push_back(
        WeightUpdate{static_cast<VertexId>(vertex), weight});
  }

  *delta = std::move(parsed);
  *parent = stored;
  return true;
}

bool LoadSnapshotChain(const std::string& base_path,
                       const std::vector<std::string>& delta_paths,
                       Graph* out, std::string* error) {
  Graph g;
  if (!LoadSnapshot(base_path, &g, error)) return false;
  for (const std::string& path : delta_paths) {
    GraphDelta delta;
    GraphFingerprint parent;
    if (!LoadDeltaSnapshot(path, &delta, &parent, error)) return false;
    if (!(parent == g.fingerprint())) {
      *error = "snapshot: delta " + path +
               " was recorded against a different parent (fingerprint "
               "mismatch — wrong base snapshot or wrong chain order)";
      return false;
    }
    const std::string problem = ValidateDelta(g, delta);
    if (!problem.empty()) {
      *error = "snapshot: delta " + path + ": " + problem;
      return false;
    }
    g = ApplyValidatedDelta(g, delta);
  }
  *out = std::move(g);
  return true;
}

}  // namespace ticl
