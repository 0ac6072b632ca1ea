/**
 * @file
 * flowgnn::check — the include-layering lint, leg 2 of the static
 * analysis pass.
 *
 * The tree's one-way subsystem layering (tensor → core → graph → …
 * → pool; see docs/DESIGN.md "Static analysis & concurrency
 * contracts") has been a prose rule since PR 1. This turns it into a
 * machine-checked invariant: parse the `#include` graph of src/
 * against a committed layer spec, fail on back-edges (a lower layer
 * including a higher one) and on file-level include cycles (which
 * include guards let *compile*, silently), and print the offending
 * chain so the fix is obvious from the CI log alone.
 *
 * Spec format (tools/layering.spec), one directive per line,
 * `#` comments:
 *
 *     layer <name> : [<dep> ...]   # direct allowed dependencies
 *     path <prefix> <layer>        # assign files to layers
 *
 * Layer dependencies are transitively closed, so `layer pool :
 * engine obs` lets pool reach everything engine and obs may reach.
 * Path rules are plain string prefixes on root-relative paths;
 * the longest matching prefix wins, which is how single files are
 * carved out of their directory (e.g. `path core/engine. engine`
 * overriding `path core core_base`). Every scanned file must map to
 * a layer — an unmapped file is itself a violation, so new
 * subsystems must be placed in the spec before they pass CI.
 *
 * This header is deliberately std-only (no flowgnn dependencies):
 * the lint sits outside the layer DAG it checks.
 */
#ifndef FLOWGNN_CHECK_LAYERING_H
#define FLOWGNN_CHECK_LAYERING_H

#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace flowgnn {
namespace check {

/** Parsed, transitively-closed layer specification. */
struct LayerSpec {
    /** layer -> layers it may include (closed; contains itself). */
    std::map<std::string, std::set<std::string>> allowed;
    /** (path prefix, layer); longest matching prefix wins. */
    std::vector<std::pair<std::string, std::string>> path_rules;
};

/** Parses a spec stream. Throws std::runtime_error with a line
 * number on malformed directives, unknown layers in deps or path
 * rules, and duplicate layer definitions. */
LayerSpec parse_layer_spec(std::istream &in);

/** The layer the longest-prefix path rule assigns, or "" if none
 * matches. `path` must be root-relative with '/' separators. */
std::string layer_of(const LayerSpec &spec, const std::string &path);

/** file -> files it includes. Paths are root-relative. Only quoted
 * includes that resolve to files under the scanned root appear
 * (system and external includes are not layering's business). */
using IncludeGraph = std::map<std::string, std::vector<std::string>>;

/** Scans `root` recursively for .h/.cpp files and extracts their
 * in-tree `#include "..."` edges. Throws std::runtime_error when
 * root is not a readable directory. */
IncludeGraph scan_includes(const std::string &root);

/** One layering violation, with the chain that proves it. */
struct Violation {
    enum class Kind {
        kUnmappedFile, ///< no path rule matches; chain = {file}
        kBackEdge,     ///< illegal include; chain = {from, to}
        kCycle,        ///< include cycle; chain = the closed walk
    };
    Kind kind;
    std::vector<std::string> chain;
    std::string message; ///< human-readable, names the chain
};

/** Checks every include edge against the spec and the file graph for
 * cycles. Deterministic order: unmapped files first, then back-edges,
 * then cycles, each sorted by path. */
std::vector<Violation> check_layering(const LayerSpec &spec,
                                      const IncludeGraph &graph);

/**
 * The whole tool as one call (the check_layering binary is a thin
 * main over this, and the fixture tests assert on its return value):
 * scan `root`, parse `spec_path`, report every violation to `out`.
 * Returns the process exit code — 0 clean, 1 violations found,
 * 2 bad usage (unreadable root/spec, malformed spec).
 */
int run_layering_check(const std::string &root,
                       const std::string &spec_path, std::ostream &out);

} // namespace check
} // namespace flowgnn

#endif // FLOWGNN_CHECK_LAYERING_H
