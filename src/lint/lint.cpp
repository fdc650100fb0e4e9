#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <set>
#include <utility>

#include "common/error.h"
#include "lint/lex.h"

namespace paqoc {
namespace lint {

namespace {

/**
 * Names declared with type Matrix (value, reference, or
 * std::vector<Matrix>) in stripped text: local variables, members,
 * and function parameters alike. Function names that merely *return*
 * Matrix also land here, which is harmless for the product rule --
 * call syntax `name(...)` is excluded at the use site.
 */
std::set<std::string>
matrixDeclNames(const std::string &stripped)
{
    std::set<std::string> names;
    static const std::regex decl(
        R"((?:\bMatrix|std\s*::\s*vector\s*<\s*Matrix\s*>)\s*[&*]?\s*([A-Za-z_]\w*))");
    auto begin = std::sregex_iterator(stripped.begin(), stripped.end(),
                                      decl);
    for (auto it = begin; it != std::sregex_iterator(); ++it)
        names.insert((*it)[1].str());
    return names;
}

/**
 * Offsets [start, end) of every for/while body in stripped text
 * (braced or single-statement). Nested loop bodies appear once per
 * enclosing loop; callers dedup findings by line.
 */
std::vector<std::pair<std::size_t, std::size_t>>
findLoopBodies(const std::string &s)
{
    std::vector<std::pair<std::size_t, std::size_t>> bodies;
    static const std::regex kw(R"(\b(for|while)\b)");
    auto begin = std::sregex_iterator(s.begin(), s.end(), kw);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
        std::size_t p =
            static_cast<std::size_t>(it->position() + it->length());
        while (p < s.size()
               && std::isspace(static_cast<unsigned char>(s[p])))
            ++p;
        if (p >= s.size() || s[p] != '(')
            continue;
        int depth = 0;
        while (p < s.size()) {
            if (s[p] == '(')
                ++depth;
            else if (s[p] == ')' && --depth == 0)
                break;
            ++p;
        }
        if (p >= s.size())
            continue;
        ++p; // past ')'
        while (p < s.size()
               && std::isspace(static_cast<unsigned char>(s[p])))
            ++p;
        if (p < s.size() && s[p] == '{') {
            std::size_t q = p;
            int braces = 0;
            while (q < s.size()) {
                if (s[q] == '{')
                    ++braces;
                else if (s[q] == '}' && --braces == 0)
                    break;
                ++q;
            }
            bodies.emplace_back(p, std::min(q + 1, s.size()));
        } else {
            const std::size_t semi = s.find(';', p);
            bodies.emplace_back(
                p, semi == std::string::npos ? s.size() : semi + 1);
        }
    }
    return bodies;
}

/** Does this file build serialized output a client or disk can see? */
bool
producesOutput(const std::string &stripped)
{
    static const char *kSinks[] = {"Json",     "journal",  "Journal",
                                   "protocol", "ofstream", "writeFrame"};
    for (const char *sink : kSinks)
        if (containsWord(stripped, sink))
            return true;
    return false;
}

std::string
expectedHeaderGuard(const std::string &path)
{
    std::string rel = path;
    if (startsWith(rel, "src/"))
        rel = rel.substr(4);
    const std::size_t dot = rel.rfind(".h");
    if (dot != std::string::npos)
        rel = rel.substr(0, dot);
    std::string guard = "PAQOC_";
    for (const char c : rel) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            guard += static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
        else
            guard += '_';
    }
    guard += "_H_";
    return guard;
}

struct FileContext
{
    const std::string &path;
    const std::string &raw;
    const std::string &stripped;
    const std::vector<std::string> &strippedLines;
    const std::map<int, std::set<std::string>> &suppressed;
    std::vector<Finding> &findings;

    bool
    isAllowed(const std::string &rule, int line) const
    {
        const auto it = suppressed.find(line);
        return it != suppressed.end() && it->second.count(rule) > 0;
    }

    void
    emit(const std::string &rule, int line, std::string message) const
    {
        if (isAllowed(rule, line))
            return;
        findings.push_back({rule, path, line, std::move(message)});
    }
};

void
checkLinePattern(const FileContext &ctx, const std::string &rule,
                 const std::regex &pattern, const std::string &message)
{
    for (std::size_t i = 0; i < ctx.strippedLines.size(); ++i) {
        if (std::regex_search(ctx.strippedLines[i], pattern))
            ctx.emit(rule, static_cast<int>(i) + 1, message);
    }
}

void
checkUnseededRandom(const FileContext &ctx)
{
    if (ctx.path == "src/common/rng.h")
        return;
    static const std::regex pattern(
        R"(\b(rand|srand)\s*\(|\brandom_device\b|\bmt19937)");
    checkLinePattern(ctx, "unseeded-random", pattern,
                     "unseeded/global randomness; use the seeded "
                     "paqoc::Rng from src/common/rng.h");
}

void
checkNakedMutex(const FileContext &ctx)
{
    if (ctx.path == "src/common/thread_annotations.h")
        return;
    static const std::regex pattern(
        R"(std\s*::\s*(mutex|condition_variable(_any)?|lock_guard|unique_lock|scoped_lock|shared_mutex|shared_lock)\b)");
    checkLinePattern(ctx, "naked-mutex", pattern,
                     "raw std synchronization primitive; use the "
                     "annotated Mutex/MutexLock/CondVar wrappers from "
                     "src/common/thread_annotations.h so "
                     "-Wthread-safety can see the lock");
}

void
checkPrintfOutput(const FileContext &ctx)
{
    if (!startsWith(ctx.path, "src/"))
        return; // tools, tests, and benches may write to streams
    static const std::regex pattern(
        R"(\b(printf|fprintf|puts|fputs|putchar|sprintf)\s*\()");
    checkLinePattern(ctx, "printf-output", pattern,
                     "printf-family call in library code; return "
                     "values or use the error-reporting helpers "
                     "instead of writing to process streams");
}

void
checkProcessControl(const FileContext &ctx)
{
    // Process lifetime is the fleet router's business alone (it is
    // also `--supervise`, as a fleet of one): a fork/kill/wait
    // anywhere else bypasses the restart budget, the heartbeat
    // watchdog, and the signal-forwarding state machine.
    if (startsWith(ctx.path, "src/fleet/router."))
        return;
    static const std::regex pattern(
        R"((::\s*)?\b(fork|vfork|kill|killpg|waitpid|wait4|posix_spawn\w*|exec[lv]\w*)\s*\()");
    checkLinePattern(ctx, "process-control", pattern,
                     "process-control syscall outside "
                     "src/fleet/router.*; child lifetime must flow "
                     "through the fleet Router so restarts, heartbeats, "
                     "and signal forwarding live in one audited state "
                     "machine");
}

void
checkFloatNumerics(const FileContext &ctx)
{
    const bool numeric = startsWith(ctx.path, "src/linalg/")
        || startsWith(ctx.path, "src/qoc/")
        || startsWith(ctx.path, "src/paqoc/")
        || startsWith(ctx.path, "src/sim/");
    if (!numeric)
        return;
    static const std::regex pattern(R"(\bfloat\b)");
    checkLinePattern(ctx, "float-numerics", pattern,
                     "`float` in QOC numerics; pulse math is "
                     "double-only (mixed precision changes GRAPE "
                     "convergence)");
}

void
checkRawIo(const FileContext &ctx)
{
    // Only the layers whose I/O the chaos tests must be able to fault:
    // durable storage, the wire protocol, and the fleet front end.
    // Reads are covered by the protocol's own wrapper; writes are
    // where corruption lives.
    const bool covered = startsWith(ctx.path, "src/store/")
        || startsWith(ctx.path, "src/service/")
        || startsWith(ctx.path, "src/fleet/")
        || startsWith(ctx.path, "src/tier/");
    if (!covered)
        return;
    // The SCM_RIGHTS fd handoff is the one allowlisted path: cmsg
    // ancillary payloads have no checked* spelling (sendmsg carries
    // the fd itself, not bytes the chaos tests could tear), and the
    // file carries its own `fleet.fdpass` failpoint instead.
    if (ctx.path == "src/fleet/fdpass.cpp")
        return;
    static const std::regex pattern(
        R"((::\s*)?\b(write|send|pwrite|writev|sendto|sendmsg)\s*\()");
    checkLinePattern(ctx, "raw-io", pattern,
                     "raw write()/send()-family syscall bypasses the "
                     "failpoint-aware checked* wrappers in "
                     "src/common/failpoint.h; route I/O through them "
                     "so fault injection covers this path");
}

void
checkHeaderGuard(const FileContext &ctx)
{
    if (!endsWith(ctx.path, ".h"))
        return;
    if (ctx.stripped.find("#pragma once") != std::string::npos)
        return;
    const std::string expected = expectedHeaderGuard(ctx.path);
    static const std::regex ifndef_re(R"(#\s*ifndef\s+([A-Za-z0-9_]+))");
    static const std::regex define_re(R"(#\s*define\s+([A-Za-z0-9_]+))");
    std::smatch mi, md;
    const bool has_ifndef =
        std::regex_search(ctx.stripped, mi, ifndef_re);
    const bool has_define =
        std::regex_search(ctx.stripped, md, define_re);
    if (!has_ifndef || !has_define) {
        ctx.emit("header-guard", 1,
                 "missing include guard; expected " + expected
                     + " (or #pragma once)");
        return;
    }
    const std::string got = mi[1].str();
    const int line = lineOfOffset(
        ctx.stripped, static_cast<std::size_t>(mi.position()));
    if (got != expected)
        ctx.emit("header-guard", line,
                 "include guard " + got + " does not match canonical "
                     + expected);
    else if (md[1].str() != got)
        ctx.emit("header-guard", line,
                 "#ifndef " + got + " is not followed by a matching "
                     + "#define");
}

void
checkMatrixProductInLoop(const FileContext &ctx)
{
    // Only the QOC/simulator hot paths: a Matrix operator* allocates
    // its result, and inside GRAPE-scale loops that allocation churn
    // is exactly what the kernel layer (matmulInto + scratch reuse)
    // exists to eliminate.
    const bool hot = startsWith(ctx.path, "src/qoc/")
        || startsWith(ctx.path, "src/sim/");
    if (!hot)
        return;
    const std::set<std::string> names = matrixDeclNames(ctx.stripped);
    if (names.empty())
        return;
    // name [idx]? * name [idx]?  -- call syntax `name(...)` on either
    // side is excluded (left: the ')' breaks the match; right: the
    // lookahead), so element access u(r, c) never trips the rule.
    static const std::regex prod(
        R"(([A-Za-z_]\w*)\s*(\[[^\][]*\])?\s*\*\s*([A-Za-z_]\w*)\b\s*(\[[^\][]*\])?(?!\s*[\(\[]))");
    // name.adjoint() * ...  /  name * name.adjoint()
    static const std::regex chain_left(
        R"(([A-Za-z_]\w*)\s*\.\s*(adjoint|transpose|conjugate)\s*\(\s*\)\s*\*)");
    static const std::regex chain_right(
        R"(([A-Za-z_]\w*)\b\s*\*\s*([A-Za-z_]\w*)\s*\.\s*(adjoint|transpose|conjugate)\s*\(\s*\))");
    std::set<int> flagged;
    for (const auto &[begin, end] : findLoopBodies(ctx.stripped)) {
        const std::string body = ctx.stripped.substr(begin, end - begin);
        auto scan = [&](const std::regex &re, auto matches) {
            auto it = std::sregex_iterator(body.begin(), body.end(), re);
            for (; it != std::sregex_iterator(); ++it) {
                if (!matches(*it))
                    continue;
                flagged.insert(lineOfOffset(
                    ctx.stripped,
                    begin + static_cast<std::size_t>(it->position())));
            }
        };
        scan(prod, [&](const std::smatch &m) {
            return names.count(m[1].str()) > 0
                && names.count(m[3].str()) > 0;
        });
        scan(chain_left, [&](const std::smatch &m) {
            return names.count(m[1].str()) > 0;
        });
        scan(chain_right, [&](const std::smatch &m) {
            return names.count(m[1].str()) > 0
                && names.count(m[2].str()) > 0;
        });
    }
    for (const int line : flagged)
        ctx.emit("matrix-product-in-loop", line,
                 "allocating Matrix operator* inside a loop; multiply "
                 "into reused scratch via matmulInto / the kernels:: "
                 "entry points (DESIGN.md §11), or hoist the product "
                 "out of the loop");
}

void
checkUnorderedIteration(const FileContext &ctx,
                        const std::set<std::string> &extra_decls)
{
    if (!producesOutput(ctx.stripped))
        return;
    std::set<std::string> names = unorderedDeclNames(ctx.stripped);
    names.insert(extra_decls.begin(), extra_decls.end());
    if (names.empty())
        return;
    for (const RangeFor &rf : findRangeFors(ctx.stripped)) {
        for (const std::string &name : names) {
            if (!containsWord(rf.rangeExpr, name))
                continue;
            ctx.emit("unordered-iteration",
                     lineOfOffset(ctx.stripped, rf.offset),
                     "iterating unordered container '" + name
                         + "' in a file that produces serialized "
                           "output; hash order must not reach bytes a "
                           "client sees -- use std::map, sort before "
                           "emitting, or suppress with a determinism "
                           "argument");
            break;
        }
    }
}

} // namespace

int
ruleCount()
{
    return static_cast<int>(ruleNames().size());
}

std::vector<std::string>
ruleNames()
{
    return {"determinism-taint", "float-numerics",
            "header-guard",      "lock-order-cycle",
            "matrix-product-in-loop", "naked-mutex",
            "printf-output",     "process-control",
            "raw-io",            "unguarded-checked-io",
            "unordered-iteration", "unseeded-random",
            "untested-failpoint"};
}

std::string
ruleDescription(const std::string &rule)
{
    static const std::map<std::string, std::string> kDescriptions = {
        {"determinism-taint",
         "nondeterminism source (wall clock, pointer-to-integer cast, "
         "unordered iteration) reaches a serialization sink within "
         "one call level"},
        {"float-numerics",
         "`float` in QOC numerics; pulse math is double-only"},
        {"header-guard",
         "header must carry the canonical PAQOC_<PATH>_H_ include "
         "guard (autofixable with --fix)"},
        {"lock-order-cycle",
         "cycle in the global lock-order graph; a consistent "
         "acquisition order is the deadlock-freedom argument"},
        {"matrix-product-in-loop",
         "allocating Matrix operator* inside a hot loop; use "
         "matmulInto / kernels:: into reused scratch"},
        {"naked-mutex",
         "raw std synchronization primitive invisible to clang "
         "-Wthread-safety; use the annotated wrappers"},
        {"printf-output",
         "printf-family call in library code; libraries return "
         "values, they do not write to process streams"},
        {"process-control",
         "process-control syscall outside the fleet router; "
         "child lifetime flows through one audited state machine"},
        {"raw-io",
         "raw write()/send()-family syscall bypasses the "
         "failpoint-aware checked* wrappers"},
        {"unguarded-checked-io",
         "checked* I/O call whose failpoint name cannot be traced to "
         "a literal; fault injection cannot target the path"},
        {"unordered-iteration",
         "hash-order iteration in a file that produces serialized "
         "output"},
        {"unseeded-random",
         "unseeded/global randomness; use the seeded paqoc::Rng"},
        {"untested-failpoint",
         "failpoint registered in source but never armed by any "
         "test; dead chaos coverage"},
    };
    const auto it = kDescriptions.find(rule);
    return it == kDescriptions.end() ? std::string() : it->second;
}

std::vector<Finding>
lintFile(const std::string &path, const std::string &content)
{
    return lintFileWithCompanion(path, content, "");
}

std::vector<Finding>
lintFileWithCompanion(const std::string &path, const std::string &content,
                      const std::string &companion)
{
    std::vector<Finding> findings;
    std::set<std::string> companion_decls;
    if (!companion.empty())
        companion_decls =
            unorderedDeclNames(stripCommentsAndStrings(companion));
    const std::string stripped = stripCommentsAndStrings(content);
    const std::vector<std::string> raw_lines = splitLines(content);
    const std::vector<std::string> stripped_lines = splitLines(stripped);
    const std::map<int, std::set<std::string>> suppressed =
        parseSuppressions(raw_lines);
    FileContext ctx{path,           content,    stripped,
                    stripped_lines, suppressed, findings};
    checkUnseededRandom(ctx);
    checkNakedMutex(ctx);
    checkPrintfOutput(ctx);
    checkProcessControl(ctx);
    checkFloatNumerics(ctx);
    checkRawIo(ctx);
    checkHeaderGuard(ctx);
    checkMatrixProductInLoop(ctx);
    checkUnorderedIteration(ctx, companion_decls);
    return findings;
}

Json
findingsToJson(const std::vector<Finding> &findings)
{
    Json report = Json::object();
    report.set("ok", Json(findings.empty()));
    report.set("checked_rules", Json(ruleCount()));
    Json list = Json::array();
    for (const Finding &f : findings) {
        Json j = Json::object();
        j.set("rule", Json(f.rule));
        j.set("file", Json(f.file));
        j.set("line", Json(f.line));
        j.set("message", Json(f.message));
        list.push(std::move(j));
    }
    report.set("findings", std::move(list));
    return report;
}

} // namespace lint
} // namespace paqoc
