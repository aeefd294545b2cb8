// Versioned binary snapshot of a weighted graph (+ optional CoreIndex).
//
// The serve workload (many queries over one fixed graph) wants datasets
// generated, cleaned and weighted exactly once and then memory-mapped-fast
// to reload — re-parsing a text edge list and re-running PageRank per
// process is the single biggest cold-start cost, with the O(n + m) core
// decomposition right behind it. A snapshot captures the CSR arrays, the
// vertex weights and (optionally) the serialized CoreIndex verbatim, so a
// copy-load is a few bulk reads and a checksum pass — and an mmap load
// (serve/mapped_snapshot.h) is O(1) copies: the arrays are used in place.
//
// -- Format v2 (current writer) --------------------------------------------
//
// Little-endian, fixed-width, TLV section table:
//
//   offset  size   field
//   0       8      magic "TICLSNAP"
//   8       4      format version (uint32, 2)
//   12      4      section count C (uint32)
//   16      24*C   section table: C entries of
//                    {uint32 type, uint32 reserved(0),
//                     uint64 offset, uint64 length}
//   ...            section payloads
//   end-8   8      FNV-1a 64 checksum of every preceding byte
//
// Alignment rules: every section offset is a multiple of 8 (the writer
// inserts zero padding between sections; `length` is the unpadded payload
// size). Together with the page-aligned mmap base this lets a loader cast
// section payloads directly to uint64/double arrays with no misaligned
// access — the prerequisite for the zero-copy path being UBSan-clean.
//
// Section types (serve/snapshot_format.h):
//   1 graph_meta  {uint64 n, uint64 adjacency_len}          required
//   2 offsets     (n + 1) x uint64                          required
//   3 adjacency   adjacency_len x uint32                    required
//   4 weights     n x double                                optional
//   5 core_index  CoreIndex serialization (core_index.h)    optional
//   6 delta_meta  parent fingerprint + edit counts          delta files
//   7 delta_edges edge insert/delete pairs                  delta files
//   8 delta_weights vertex reweights                        delta files
//
// Sections 1-5 make a *full* snapshot, sections 6-8 a *delta* snapshot
// (see SaveDeltaSnapshot below); a file is one or the other. Unknown
// section types are skipped on load, so future optional sections (shard
// maps, ...) stay backward compatible. Loads validate
// magic, version, table bounds and alignment, the checksum, the CSR
// invariants (monotone offsets, in-range sorted neighbour lists; symmetry
// is trusted to the producer) and weight values. Every failure is reported
// through *error with a specific message; a snapshot never half-loads.
//
// -- Format v1 (legacy, read-only) -----------------------------------------
//
//   offset  size  field
//   0       8     magic "TICLSNAP"
//   8       4     format version (uint32, 1)
//   12      4     flags (uint32; bit 0 = weights present)
//   16      8     vertex count n (uint64)
//   24      8     adjacency length 2m (uint64)
//   32      ...   offsets   ((n + 1) x uint64)
//   ...     ...   adjacency (2m x uint32)
//   ...     ...   weights   (n x double, only when bit 0 of flags is set)
//   end-8   8     FNV-1a 64 checksum of every preceding byte
//
// v1 files keep loading forever (LoadSnapshot); they cannot carry a
// CoreIndex and — because the weights section is only 8-aligned when m is
// even — are not eligible for mmap.
//
// -- Mmap quickstart -------------------------------------------------------
//
//   ticl_query --generate standin:dblp --save-snapshot dblp.snap \
//       --snapshot-index                    # v2 + embedded CoreIndex
//   ticl_serve --snapshot dblp.snap --mmap  # start-up with zero copies
//
// or in code: MappedSnapshot::Open(path, &error) hands out a span-backed
// Graph (and CoreIndex) reading straight from the mapping.

#ifndef TICL_SERVE_SNAPSHOT_H_
#define TICL_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_delta.h"

namespace ticl {

class CoreIndex;  // serve/core_index.h

/// Current writer version. Loaders accept this and every earlier version.
inline constexpr std::uint32_t kSnapshotFormatVersion = 2;

struct SaveSnapshotOptions {
  /// Optional CoreIndex to embed so loaders skip the decomposition too.
  /// Must have been built for the graph being saved (fingerprint is
  /// checked).
  const CoreIndex* core_index = nullptr;
};

/// Writes `g` (topology + weights when assigned) to `path` in format
/// kSnapshotFormatVersion, atomically: the bytes go to a sibling temp file
/// first, which is renamed over `path` on success. Returns false and sets
/// *error on IO failure or a core index built for another graph.
bool SaveSnapshot(const std::string& path, const Graph& g,
                  std::string* error);
bool SaveSnapshot(const std::string& path, const Graph& g,
                  const SaveSnapshotOptions& options, std::string* error);

/// Reads a snapshot (v1 or v2) back into an owning Graph. On success *out
/// holds the graph (weights restored when the snapshot has them). A
/// persisted core-index section is skipped here — use
/// LoadSnapshotWithIndex, MappedSnapshot or QueryEngine::OpenSnapshot to
/// exploit it. On failure returns false, sets *error, and leaves *out
/// untouched.
bool LoadSnapshot(const std::string& path, Graph* out, std::string* error);

/// As LoadSnapshot, and additionally hands back the raw core_index
/// section payload (cleared when the snapshot has none / is v1) so the
/// caller can CoreIndex::Deserialize it against the loaded graph without
/// re-reading the file. The payload buffer satisfies the 8-byte alignment
/// Deserialize requires.
bool LoadSnapshotWithIndex(const std::string& path, Graph* out,
                           std::vector<unsigned char>* core_index_payload,
                           std::string* error);

// -- Delta snapshots --------------------------------------------------------
//
// A delta snapshot is a v2 container holding a GraphDelta and the
// fingerprint of the *parent* graph it applies to, instead of the graph
// sections — a child release is then a few kilobytes of edits rather than
// a full CSR rewrite. Children chain: base.snap <- d1.snap <- d2.snap,
// each delta's parent fingerprint matching the graph produced by
// everything before it, so a mis-ordered or foreign delta is rejected
// before any mutation happens. Full-snapshot loaders reject delta files
// (and vice versa) with a message naming the other loader.

/// Writes `delta` against a parent identified by `parent` (atomically,
/// like SaveSnapshot). The delta is stored verbatim; it is validated
/// against the actual parent graph at load/apply time.
bool SaveDeltaSnapshot(const std::string& path, const GraphDelta& delta,
                       const GraphFingerprint& parent, std::string* error);

/// Reads a delta snapshot back. On success *delta and *parent are filled.
/// Fails (with a pointed message) on full snapshots, corruption, or
/// malformed delta sections.
bool LoadDeltaSnapshot(const std::string& path, GraphDelta* delta,
                       GraphFingerprint* parent, std::string* error);

/// Loads `base_path` (a full snapshot) and replays `delta_paths` in
/// order, verifying each delta's parent fingerprint against the graph it
/// is applied to and validating the delta itself. On success *out is the
/// final graph (always heap-owned).
bool LoadSnapshotChain(const std::string& base_path,
                       const std::vector<std::string>& delta_paths,
                       Graph* out, std::string* error);

}  // namespace ticl

#endif  // TICL_SERVE_SNAPSHOT_H_
