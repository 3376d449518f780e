/**
 * @file
 * Plain-text edge-list I/O (the format the paper's prototype consumes).
 *
 * Format: one "src dst [weight]" triple per line; '#' or '%' start
 * comment lines (SNAP and Matrix Market headers respectively).  Vertex
 * ids may be sparse in the file; loadEdgeList() densifies them.
 */

#ifndef GRAPHABCD_GRAPH_IO_HH
#define GRAPHABCD_GRAPH_IO_HH

#include <string>

#include "graph/edge_list.hh"

namespace graphabcd {

/**
 * Load a whitespace-separated edge list.
 * @param path input file.
 * @param densify remap sparse ids to [0, n); when false the max id + 1
 *        becomes the vertex count.
 * @throws FatalError on missing/garbled files.
 */
EdgeList loadEdgeList(const std::string &path, bool densify = true);

/** Write "src dst weight" lines (weight omitted when uniformly 1). */
void saveEdgeList(const EdgeList &el, const std::string &path);

/**
 * Write the compact binary format: magic "ABCD", format version,
 * vertex count, edge count, then raw (src, dst, weight) records.
 * Roughly 5x smaller and 20x faster to load than the text format.
 */
void saveEdgeListBinary(const EdgeList &el, const std::string &path);

/** Load the binary format; fatal() on bad magic/version/truncation. */
EdgeList loadEdgeListBinary(const std::string &path);

/**
 * Write the packed binary format: magic "ABCZ", format version, vertex
 * count, edge count, weight-mode byte, then per-vertex varint degree +
 * delta-varint sorted out-neighbor lists, then the weight sidecar (one
 * byte per edge for small integral weights, f32 per edge otherwise,
 * nothing when every weight is 1).  Typically 3-6x smaller than the
 * "ABCD" raw-record format on sorted social graphs.
 */
void saveEdgeListPacked(const EdgeList &el, const std::string &path);

/**
 * Load the packed format.  Every varint is decoded through the checked
 * codec path: truncated, overlong or overflowing encodings, degree
 * sums disagreeing with the header edge count, and out-of-range
 * neighbor ids all fatal() with the path and byte offset — a corrupt
 * stream can never over-read or OOM.
 */
EdgeList loadEdgeListPacked(const std::string &path);

/** Load `path` in the format its extension names: .abcz packed, .bin
 *  binary, anything else the text edge list. */
EdgeList loadEdgeListFile(const std::string &path);

} // namespace graphabcd

#endif // GRAPHABCD_GRAPH_IO_HH
