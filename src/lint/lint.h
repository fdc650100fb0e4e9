#ifndef PAQOC_LINT_LINT_H_
#define PAQOC_LINT_LINT_H_

#include <string>
#include <vector>

#include "common/json.h"

namespace paqoc {
namespace lint {

/**
 * Project analyzer (DESIGN.md §8, §13): enforcement of PAQOC's
 * concurrency and determinism invariants, with no libclang dependency
 * so it builds and runs anywhere the project does. Two layers:
 *
 *  - *Per-file rules* look at lexed source text (comments and string
 *    literals stripped), one file at a time. They are deliberately
 *    shallow and deliberately strict.
 *  - *Whole-program passes* (analyzer.h) link a per-file
 *    symbol/call/lock-site index (index.h) across the tree: the
 *    lock-order graph, the failpoint-coverage audit, and the
 *    determinism taint pass all report properties no single file can
 *    show.
 *
 * A site that is safe for a non-obvious reason carries an explicit,
 * greppable suppression comment:
 *
 *     // paqoc-lint: allow(rule-name[, rule-name...]) why it is safe
 *
 * which silences the named rules on that line and the next one (so a
 * justification may sit on its own line above the flagged code).
 * Whole-program findings land on a concrete witness line (the lock
 * acquisition, the taint source, the failpoint registration) and are
 * suppressed the same way, at that line.
 *
 * Per-file rule catalogue (ids are stable; tests and CI match on
 * them):
 *   unseeded-random      rand()/srand()/std::random_device/std::mt19937
 *                        anywhere outside src/common/rng.h: all
 *                        randomness must flow through the seeded Rng.
 *   unordered-iteration  range-for over a container declared
 *                        unordered_map/unordered_set in a file that
 *                        produces serialized output (Json, journal,
 *                        protocol frames, file streams): hash order
 *                        must never reach bytes a client can see.
 *   naked-mutex          std::mutex / std::condition_variable /
 *                        std::lock_guard / std::unique_lock /
 *                        std::scoped_lock outside the annotated
 *                        wrappers in src/common/thread_annotations.h:
 *                        unwrapped primitives are invisible to clang's
 *                        -Wthread-safety analysis.
 *   printf-output        printf-family calls (printf, fprintf, puts,
 *                        fputs, putchar, sprintf -- snprintf into a
 *                        local buffer is fine) in library code under
 *                        src/: libraries return values, they do not
 *                        write to the process's streams.
 *   header-guard         every .h must carry the canonical include
 *                        guard PAQOC_<PATH>_H_ (matching #ifndef /
 *                        #define pair) or #pragma once. The only rule
 *                        with an autofix (paqoc_lint --fix).
 *   float-numerics       the `float` type in QOC numerics
 *                        (src/linalg, src/qoc, src/paqoc, src/sim):
 *                        pulse math is double-only; mixed precision
 *                        silently changes GRAPE convergence.
 *   raw-io               raw write()/send()-family syscalls (write,
 *                        send, pwrite, writev, sendto, sendmsg) in
 *                        the store, service, fleet, and tier layers
 *                        (src/store, src/service, src/fleet,
 *                        src/tier): durable
 *                        and wire I/O must go through the
 *                        failpoint-aware checked* wrappers in
 *                        src/common/failpoint.h so chaos tests can
 *                        inject faults on every path. The SCM_RIGHTS
 *                        handoff in src/fleet/fdpass.cpp is the one
 *                        allowlisted file: cmsg ancillary payloads
 *                        have no checked* spelling, and the file
 *                        carries its own `fleet.fdpass` failpoint.
 *   process-control      fork()/vfork()/kill()/waitpid()/exec*()/
 *                        posix_spawn*() anywhere except
 *                        src/fleet/router.*: child-process lifetime
 *                        flows through the fleet Router (also
 *                        `--supervise`, as a fleet of one) so the
 *                        restart budget, heartbeat watchdog, and
 *                        signal forwarding live in one audited state
 *                        machine (DESIGN.md §10, §12).
 *   matrix-product-in-loop  Matrix operator* between matrix-typed
 *                        operands inside a for/while body in src/qoc
 *                        or src/sim: the product allocates its result
 *                        every trip; hot loops multiply into reused
 *                        scratch via matmulInto or the kernels::
 *                        entry points instead (DESIGN.md §11).
 *                        Element access `m(r, c)` and calls never
 *                        trip the rule.
 *
 * Whole-program rule catalogue (analyzer.h; DESIGN.md §13):
 *   lock-order-cycle     a cycle in the global lock-order graph: lock
 *                        B acquired (directly or through a resolved
 *                        call chain) while lock A is held, and A
 *                        likewise reachable while B is held. Reported
 *                        with the full witness path.
 *   untested-failpoint   a failpoint name registered in src/ or
 *                        tools/ that no test (arm() calls and spec
 *                        strings in tests/ C++, PAQOC_FAILPOINTS
 *                        specs in tests/ shell scripts) ever arms:
 *                        dead chaos coverage.
 *   unguarded-checked-io a checked* I/O call site whose failpoint
 *                        name is not a literal and cannot be traced
 *                        to one in the file or its companion header:
 *                        fault injection cannot target the path.
 *   determinism-taint    a nondeterminism source (wall clock,
 *                        pointer-to-integer cast, unordered
 *                        iteration) that reaches a serialization sink
 *                        (Json dump, journal append, protocol frame)
 *                        in the same function or one resolved call
 *                        level away.
 */
struct Finding
{
    std::string rule;    ///< stable rule id (see catalogue above)
    std::string file;    ///< path as given to the linter
    int line = 0;        ///< 1-based
    std::string message; ///< human-readable explanation
};

/** Number of distinct rules the analyzer implements. */
int ruleCount();

/** The stable rule ids, sorted (for --list-rules and tests). */
std::vector<std::string> ruleNames();

/** One-line description per rule id (SARIF rule metadata). */
std::string ruleDescription(const std::string &rule);

/**
 * Run the per-file rules over one in-memory file. `path` decides
 * which rules apply (library vs. tool code, exempt files) and must
 * use '/' separators relative to the repository root, e.g.
 * "src/qoc/pulse_cache.cpp". Whole-program rules need the analyzer
 * (analyzer.h) and do not fire here.
 */
std::vector<Finding> lintFile(const std::string &path,
                              const std::string &content);

/**
 * lintFile with the companion header's content (same stem, .h), so
 * member iteration over unordered containers declared in the header
 * is caught in the implementation file too. Pass "" when absent.
 */
std::vector<Finding>
lintFileWithCompanion(const std::string &path, const std::string &content,
                      const std::string &companion);

/**
 * Full analysis of every .cpp/.h under `roots` (relative to `base`):
 * per-file rules plus the whole-program passes, findings in sorted
 * (file, line, rule) order so reports are deterministic. Unreadable
 * files raise FatalError. Thin wrapper over analyzeTree (analyzer.h)
 * with no cache; implemented there.
 */
std::vector<Finding> lintTree(const std::string &base,
                              const std::vector<std::string> &roots);

/**
 * Machine-readable report: {"ok": bool, "checked_rules": N,
 * "findings": [{rule, file, line, message}...]} with findings in
 * (file, line, rule) order.
 */
Json findingsToJson(const std::vector<Finding> &findings);

} // namespace lint
} // namespace paqoc

#endif // PAQOC_LINT_LINT_H_
