/**
 * @file
 * Byte pins of the compiler's outputs. Each digest was recorded with
 * the set-based group contraction, the stream-built miner codes and
 * the unmemoized latency model; the implementations that replaced
 * them must reproduce every byte:
 *
 *  - the spectral compile of the fifteen Table I programs that
 *    perfbench's table1_spectral sends (all but dnn and majority), with
 *    the paper's labels on the 5x5 grid, at M = 0, tuned and inf, each
 *    with and without commutativity-aware merging;
 *  - the AccQOC n3d3 baseline on five of them;
 *  - the frequent-subcircuit miner's full output on the same fifteen
 *    programs, and on a chain whose canonical-code enumeration hits
 *    the ordering cap.
 *
 * A compile digest covers the payload's bytes (per-gate pulse
 * documents included) and the report's cost units, pulse calls and
 * cache hits. A digest that moves means a compile decision, a payload
 * byte or a modeled cost moved.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "mining/miner.h"
#include "qoc/pulse_generator.h"
#include "service/service.h"
#include "workloads/benchmarks.h"

namespace paqoc {
namespace {

/** FNV-1a 64 of a byte string, as 16 hex digits. */
std::string
digest(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** The exact bits of a double, as hex. */
std::string
bitsOf(double x)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

/** The Table I programs of perfbench's table1_spectral workload. */
std::vector<std::string>
table1Programs()
{
    std::vector<std::string> names;
    for (const auto &spec : workloads::allBenchmarks())
        if (spec.name != "dnn" && spec.name != "majority")
            names.push_back(spec.name);
    return names;
}

/** Digest of one serial spectral compile on a fresh generator. */
std::string
compileDigest(const CompileJob &job)
{
    SpectralPulseGenerator generator;
    const CompileReport report = runCompileJob(job, generator, 1);
    const std::string payload =
        compilePayload(job, report, generator).dump();
    return digest(payload + "|" + bitsOf(report.costUnits) + "|"
                  + std::to_string(report.pulseCalls) + "|"
                  + std::to_string(report.cacheHits));
}

/** Every member of every pattern, in order. */
std::string
minerDigest(const std::vector<MinedPattern> &patterns)
{
    std::string s;
    for (const MinedPattern &p : patterns) {
        s += p.code + '\n' + p.description + '\n'
            + std::to_string(p.numGates) + ' '
            + std::to_string(p.support) + ' '
            + std::to_string(p.coverage) + '\n';
        for (const std::vector<int> &e : p.embeddings) {
            for (int n : e)
                s += std::to_string(n) + ',';
            s += ';';
        }
        s += '\n';
    }
    return digest(s);
}

struct Pin
{
    const char *id;
    const char *digest;
};

/**
 * Recorded compile digests, keyed "program/M/plain|commute". On these
 * programs the commutation DAG changes no merge decision, so each pair
 * shares a digest; the commute run still contracts over that DAG.
 */
const std::vector<Pin> &
compilePins()
{
    static const std::vector<Pin> pins = {
        {"mod5d2/0/plain", "b514ceca0a61cee4"},
        {"mod5d2/0/commute", "b514ceca0a61cee4"},
        {"mod5d2/tuned/plain", "b5717adcb5651686"},
        {"mod5d2/tuned/commute", "b5717adcb5651686"},
        {"mod5d2/inf/plain", "dcb9b9b9cc60f21c"},
        {"mod5d2/inf/commute", "dcb9b9b9cc60f21c"},
        {"rd32/0/plain", "f62c24f81533c6b0"},
        {"rd32/0/commute", "f62c24f81533c6b0"},
        {"rd32/tuned/plain", "edea61eba996503f"},
        {"rd32/tuned/commute", "edea61eba996503f"},
        {"rd32/inf/plain", "b5bc3ed1e5659535"},
        {"rd32/inf/commute", "b5bc3ed1e5659535"},
        {"decod24/0/plain", "8bbeae0a2c7b891f"},
        {"decod24/0/commute", "8bbeae0a2c7b891f"},
        {"decod24/tuned/plain", "44626743ad4854c5"},
        {"decod24/tuned/commute", "44626743ad4854c5"},
        {"decod24/inf/plain", "52a1cc1a9b9d352b"},
        {"decod24/inf/commute", "52a1cc1a9b9d352b"},
        {"4gt10/0/plain", "a9cfe1db3059b3c4"},
        {"4gt10/0/commute", "a9cfe1db3059b3c4"},
        {"4gt10/tuned/plain", "046936d0a1d529dc"},
        {"4gt10/tuned/commute", "046936d0a1d529dc"},
        {"4gt10/inf/plain", "44025fa4d948e859"},
        {"4gt10/inf/commute", "44025fa4d948e859"},
        {"cnt3-5/0/plain", "22d2fdd10d044953"},
        {"cnt3-5/0/commute", "22d2fdd10d044953"},
        {"cnt3-5/tuned/plain", "23a5a2a1f4be7f4c"},
        {"cnt3-5/tuned/commute", "23a5a2a1f4be7f4c"},
        {"cnt3-5/inf/plain", "7e141ac763a9c638"},
        {"cnt3-5/inf/commute", "7e141ac763a9c638"},
        {"hwb4/0/plain", "c8c45c8d7d2f0155"},
        {"hwb4/0/commute", "c8c45c8d7d2f0155"},
        {"hwb4/tuned/plain", "203bee23fe85786b"},
        {"hwb4/tuned/commute", "203bee23fe85786b"},
        {"hwb4/inf/plain", "813e465a8104a751"},
        {"hwb4/inf/commute", "813e465a8104a751"},
        {"ham7/0/plain", "62b7695b22599e87"},
        {"ham7/0/commute", "62b7695b22599e87"},
        {"ham7/tuned/plain", "4f060f2934369760"},
        {"ham7/tuned/commute", "4f060f2934369760"},
        {"ham7/inf/plain", "29e3b57d6bb4dbd9"},
        {"ham7/inf/commute", "29e3b57d6bb4dbd9"},
        {"bv/0/plain", "df354f951576a265"},
        {"bv/0/commute", "df354f951576a265"},
        {"bv/tuned/plain", "a1c9c0145f71f80c"},
        {"bv/tuned/commute", "a1c9c0145f71f80c"},
        {"bv/inf/plain", "a1c9c0145f71f80c"},
        {"bv/inf/commute", "a1c9c0145f71f80c"},
        {"adder/0/plain", "197034f334221171"},
        {"adder/0/commute", "197034f334221171"},
        {"adder/tuned/plain", "7bb6052c6269a29f"},
        {"adder/tuned/commute", "7bb6052c6269a29f"},
        {"adder/inf/plain", "77d2ab3a2bd0c652"},
        {"adder/inf/commute", "77d2ab3a2bd0c652"},
        {"qft/0/plain", "dd0016f9b7963fcf"},
        {"qft/0/commute", "dd0016f9b7963fcf"},
        {"qft/tuned/plain", "8f9cc688251b89bc"},
        {"qft/tuned/commute", "8f9cc688251b89bc"},
        {"qft/inf/plain", "79e81ce0ca2297ec"},
        {"qft/inf/commute", "79e81ce0ca2297ec"},
        {"qaoa/0/plain", "573ca973d8907dcf"},
        {"qaoa/0/commute", "573ca973d8907dcf"},
        {"qaoa/tuned/plain", "d12aeefc63904221"},
        {"qaoa/tuned/commute", "d12aeefc63904221"},
        {"qaoa/inf/plain", "a6625524b0fd57ba"},
        {"qaoa/inf/commute", "a6625524b0fd57ba"},
        {"supre/0/plain", "6c7f6824a342757f"},
        {"supre/0/commute", "6c7f6824a342757f"},
        {"supre/tuned/plain", "4c4d8111f712e79f"},
        {"supre/tuned/commute", "4c4d8111f712e79f"},
        {"supre/inf/plain", "d17670c0d69fab3c"},
        {"supre/inf/commute", "d17670c0d69fab3c"},
        {"simon/0/plain", "74b598c0cdc09cc5"},
        {"simon/0/commute", "74b598c0cdc09cc5"},
        {"simon/tuned/plain", "348c83b3388b228f"},
        {"simon/tuned/commute", "348c83b3388b228f"},
        {"simon/inf/plain", "348c83b3388b228f"},
        {"simon/inf/commute", "348c83b3388b228f"},
        {"qpe/0/plain", "ddfbac7c7e3bdebb"},
        {"qpe/0/commute", "ddfbac7c7e3bdebb"},
        {"qpe/tuned/plain", "415f49077fc8ee37"},
        {"qpe/tuned/commute", "415f49077fc8ee37"},
        {"qpe/inf/plain", "7ea60180a2ee76e1"},
        {"qpe/inf/commute", "7ea60180a2ee76e1"},
        {"bb84/0/plain", "ec17b7e5d279252b"},
        {"bb84/0/commute", "ec17b7e5d279252b"},
        {"bb84/tuned/plain", "77c5e94ae7d2d8d8"},
        {"bb84/tuned/commute", "77c5e94ae7d2d8d8"},
        {"bb84/inf/plain", "77c5e94ae7d2d8d8"},
        {"bb84/inf/commute", "77c5e94ae7d2d8d8"},
        {"mod5d2/accqoc-n3d3", "6076d4fcceec347a"},
        {"rd32/accqoc-n3d3", "e392675733d541dd"},
        {"decod24/accqoc-n3d3", "29ae38af41590ff0"},
        {"qft/accqoc-n3d3", "90f2da9b21ab39e0"},
        {"adder/accqoc-n3d3", "c44804bb25540fa4"},
    };
    return pins;
}

/** Recorded miner digests, keyed by program. */
const std::vector<Pin> &
minerPins()
{
    static const std::vector<Pin> pins = {
        {"mod5d2", "6d868ec51f5bd44f"},
        {"rd32", "190beec47e88a4b4"},
        {"decod24", "fceef85e7d4dcd4f"},
        {"4gt10", "dcfe93edd4dc3bfa"},
        {"cnt3-5", "9e749ef0ee74d10f"},
        {"hwb4", "f785127d0389f55d"},
        {"ham7", "c9e7e9b1aa93c401"},
        {"bv", "31c2634fccfb0c52"},
        {"adder", "a1249d8bdf90cb23"},
        {"qft", "1435b41223514241"},
        {"qaoa", "5fef9500e490fe60"},
        {"supre", "47590e94b627e405"},
        {"simon", "c447fde2c31668ba"},
        {"qpe", "eed4322e016fae7f"},
        {"bb84", "38ab8a7c2f5d153a"},
        {"chain30", "aaa4055b4925096a"},
    };
    return pins;
}

std::string
pinned(const std::vector<Pin> &pins, const std::string &id)
{
    for (const Pin &p : pins)
        if (id == p.id)
            return p.digest;
    return "(none)";
}

TEST(CompilePins, Table1SpectralPayloadsAndCosts)
{
    for (const std::string &name : table1Programs()) {
        for (const char *m : {"0", "tuned", "inf"}) {
            for (const bool commute : {false, true}) {
                CompileJob job;
                job.benchmark = name;
                job.m = m;
                job.commute = commute;
                job.emitPulses = true;
                const std::string id = name + "/" + m + "/"
                    + (commute ? "commute" : "plain");
                const std::string got = compileDigest(job);
                EXPECT_EQ(got, pinned(compilePins(), id)) << id;
            }
        }
    }
}

TEST(CompilePins, AccqocN3d3PayloadsAndCosts)
{
    for (const char *name :
         {"mod5d2", "rd32", "decod24", "qft", "adder"}) {
        CompileJob job;
        job.benchmark = name;
        job.method = "accqoc";
        job.depth = 3;
        job.maxn = 3;
        job.emitPulses = true;
        const std::string id = std::string(name) + "/accqoc-n3d3";
        const std::string got = compileDigest(job);
        EXPECT_EQ(got, pinned(compilePins(), id)) << id;
    }
}

TEST(MinerPins, Table1ProgramsFullOutput)
{
    for (const std::string &name : table1Programs()) {
        const Circuit physical = workloads::makePhysicalDefault(name);
        const std::string got =
            minerDigest(mineFrequentSubcircuits(physical));
        EXPECT_EQ(got, pinned(minerPins(), name)) << name;
    }
}

TEST(MinerPins, CappedEnumerationOnIdenticalChain)
{
    // The middle nodes of a window share one invariant: a nine-gate
    // window has 7! = 5,040 orderings and a ten-gate one 8! = 40,320,
    // both past the 4,000-ordering cap, so their codes depend on the
    // capped enumeration order. Thirty gates hold at least two
    // disjoint windows of each, so both codes reach the output.
    Circuit chain(1);
    for (int i = 0; i < 30; ++i)
        chain.h(0);
    MinerOptions options;
    options.maxPatternGates = 10;
    const std::string got =
        minerDigest(mineFrequentSubcircuits(chain, options));
    EXPECT_EQ(got, pinned(minerPins(), "chain30"));
}

} // namespace
} // namespace paqoc
