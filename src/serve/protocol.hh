/**
 * @file
 * Request parsing of the serve line protocol (tools/abcd_serve): pure
 * functions from a line's tokens to a LoadSpec or a JobRequest.  A
 * malformed line yields an error message, never a cast of an
 * out-of-range number and never an exception.
 *
 * Numbers are strict.  An integer field takes digits only (no sign,
 * fraction or exponent) and must fit its range; a real field takes any
 * finite number std::from_chars reads whole.  Every key must be one
 * the verb knows.  Algorithm and engine names pass through untouched:
 * isRunnable (serve/runner.hh) is the one place that checks them.
 */

#ifndef GRAPHABCD_SERVE_PROTOCOL_HH
#define GRAPHABCD_SERVE_PROTOCOL_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/layout.hh"
#include "graph/types.hh"
#include "serve/job.hh"

namespace graphabcd {

/** Split a line into whitespace-separated tokens. */
std::vector<std::string> tokenize(const std::string &line);

/** @return `s` as an integer in [lo, hi]; nullopt if it is not one. */
std::optional<std::uint64_t>
parseUnsigned(std::string_view s, std::uint64_t lo = 0,
              std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

/** @return `s` as a finite real; nullopt if it is not one. */
std::optional<double> parseReal(std::string_view s);

/** A parsed `LOAD <name> <dataset-or-file> [key=value...]` line. */
struct LoadSpec
{
    std::string name;          //!< GraphRegistry name
    std::string source;        //!< dataset key, or a path (has '.' or '/')
    double scale = 1.0;        //!< dataset scale factor (> 0)
    std::uint64_t seed = 42;   //!< dataset generator seed
    VertexId blockSize = 512;  //!< vertices per block (>= 1)
    bool undirected = false;   //!< symmetrize the edge list
    LayoutOptions layout;
};

/**
 * Parse the tokens of a LOAD line (tokens[0] is the verb).  Keys:
 * scale, seed, block-size, undirected=0|1, layout, reorder.
 * @return whether it parsed; on failure *error says why.
 */
bool parseLoad(const std::vector<std::string> &tokens, LoadSpec *out,
               std::string *error);

/**
 * Parse the tokens of a RUN line (tokens[0] is the verb) onto *out,
 * whose fields are the defaults of the keys the line omits.  Keys:
 * engine, tenant, source, k, priority, timeout, tolerance, max-epochs,
 * schedule, threads, fragments, cached=0|1, warm=0|1.
 * @return whether it parsed; on failure *error says why and *out is
 *         partly written.
 */
bool parseRun(const std::vector<std::string> &tokens, JobRequest *out,
              std::string *error);

} // namespace graphabcd

#endif // GRAPHABCD_SERVE_PROTOCOL_HH
