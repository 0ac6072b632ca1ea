/**
 * @file
 * Execution tracing: per-unit busy intervals recorded by the cycle
 * simulation, exportable as a Chrome trace (chrome://tracing /
 * Perfetto) for visual inspection of the pipeline overlap the
 * architecture is built around.
 */
#ifndef FLOWGNN_CORE_TRACE_H
#define FLOWGNN_CORE_TRACE_H

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"

namespace flowgnn {

/**
 * Escapes a string for embedding inside a JSON string literal:
 * backslash, double quote, and control characters (as \uXXXX or the
 * short forms \n \r \t \b \f). Shared by every JSON writer in the
 * tree so no exported name can break a document.
 */
std::string json_escape(std::string_view s);

/** What a processing unit was doing during an interval. */
enum class TraceKind {
    kNtAccumulate, ///< NT unit accumulating a node's transform
    kNtOutput,     ///< NT unit streaming a node's embedding out
    kMpWork,       ///< MP unit processing one queue entry
};

/** Short label for a trace kind. */
const char *trace_kind_name(TraceKind kind);

/** One busy interval of one unit. */
struct TraceEvent {
    TraceKind kind;
    std::uint32_t unit;  ///< NT or MP unit index
    NodeId node;         ///< the node being processed
    std::uint64_t start; ///< absolute cycle (inclusive)
    std::uint64_t end;   ///< absolute cycle (exclusive)
};

/**
 * Writes the events as a Chrome trace JSON document. Each NT/MP unit
 * becomes a thread row labeled by process/thread-name metadata events
 * ("NT 0", "MP 2" under process "flowgnn engine (cycle domain)"), so
 * Perfetto shows named unit rows instead of bare tids; event
 * timestamps are microseconds at the given kernel clock. All name
 * strings are JSON-escaped. An empty event list writes an empty array
 * (no metadata).
 *
 * For a multi-subsystem wall-clock timeline that merges this cycle
 * trace with pool/shard/ghost/io spans, see
 * obs/trace_session.h.
 */
void write_chrome_trace(std::ostream &os,
                        const std::vector<TraceEvent> &events,
                        double clock_mhz = 300.0);

} // namespace flowgnn

#endif // FLOWGNN_CORE_TRACE_H
