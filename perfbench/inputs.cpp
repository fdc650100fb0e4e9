#include "inputs.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "common/error.h"
#include "workloads/benchmarks.h"

namespace perfbench {

using paqoc::Circuit;
using paqoc::Gate;
using paqoc::Json;
using paqoc::Op;
using paqoc::Rng;

namespace {

constexpr double kPi = 3.14159265358979323846;

/** Inputs per GRAPE workload: 24 leaves 10 above the p58 tail. */
constexpr std::size_t kGrapeInputs = 24;

/** The relabeling seed of table1_spectral's timed inputs. */
constexpr std::uint64_t kTimedLabelSeed = 1;

/** Independent stream of a seed (splitmix of seed and tag). */
std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t tag)
{
    Rng rng(seed ^ (tag * 0xd1b54a32d192ed03ULL));
    return rng.next();
}

std::uint64_t
nameHash(const std::string &name)
{
    std::uint64_t h = 1469598103934665603ULL; // FNV-1a
    for (unsigned char c : name)
        h = (h ^ c) * 1099511628211ULL;
    return h;
}

/** The double fromQasm computes for `[-]k*pi/b`. */
double
parsedPiFraction(bool negative, long k, long b)
{
    double v = kPi;
    if (k != 1)
        v *= static_cast<double>(k);
    if (b != 1)
        v /= static_cast<double>(b);
    return negative ? -v : v;
}

Json
grapeRequest(const std::string &qasm)
{
    Json r = Json::object();
    r.set("op", Json("compile"));
    r.set("qasm", Json(qasm));
    r.set("backend", Json("grape"));
    r.set("topology", Json("line:3"));
    r.set("maxn", Json(2));
    r.set("m", Json(0));
    r.set("emit_pulses", Json(true));
    return r;
}

std::vector<BenchInput>
grapeInputs(std::uint64_t stream, const char *prefix)
{
    Rng rng(stream);
    std::vector<BenchInput> out;
    for (std::size_t i = 0; i < kGrapeInputs; ++i) {
        char id[32];
        std::snprintf(id, sizeof id, "%s%02zu", prefix, i);
        BenchInput in;
        in.id = id;
        in.qasm = emitQasm(randomCircuit(rng, 3, 8, 10));
        in.request = grapeRequest(in.qasm);
        out.push_back(std::move(in));
    }
    return out;
}

/** The circuit with qubit q renamed perm[q]. */
Circuit
relabel(const Circuit &circuit, const std::vector<int> &perm)
{
    PAQOC_FATAL_IF(perm.size()
                       != static_cast<std::size_t>(circuit.numQubits()),
                   "permutation does not match the register");
    Circuit out(circuit.numQubits());
    for (const Gate &g : circuit.gates()) {
        PAQOC_FATAL_IF(g.isCustom(), "relabel expects primitive gates");
        std::vector<int> qubits;
        for (int q : g.qubits())
            qubits.push_back(perm[static_cast<std::size_t>(q)]);
        out.add(Gate(g.op(), std::move(qubits), g.angle(), g.symbol()));
    }
    return out;
}

/**
 * The Table I inputs, each program relabeled by a permutation drawn
 * from `seed` (seed 0: the paper's labels). `suffix` ends every id.
 */
std::vector<BenchInput>
table1Inputs(std::uint64_t seed, const std::string &suffix)
{
    std::vector<BenchInput> out;
    for (const std::string &name : table1Programs()) {
        const Circuit logical = paqoc::workloads::makeLogical(name);
        const std::uint64_t perm_seed =
            seed == 0 ? 0 : streamSeed(seed, nameHash(name));
        const std::string qasm = emitQasm(relabel(
            logical, seededPermutation(logical.numQubits(), perm_seed)));
        for (const bool tuned : {false, true}) {
            BenchInput in;
            in.id = name + (tuned ? "/tuned" : "/m0") + suffix;
            in.qasm = qasm;
            Json r = Json::object();
            r.set("op", Json("compile"));
            r.set("qasm", Json(qasm));
            r.set("backend", Json("spectral"));
            r.set("topology", Json("5x5"));
            r.set("m", tuned ? Json("tuned") : Json(0));
            in.request = std::move(r);
            out.push_back(std::move(in));
        }
    }
    return out;
}

} // namespace

const char *
workloadName(Workload w)
{
    switch (w) {
        case Workload::GrapeCold:
            return "grape_cold";
        case Workload::Table1Spectral:
            return "table1_spectral";
        case Workload::LibraryWarm:
            return "library_warm";
    }
    return "?";
}

Workload
workloadFromName(const std::string &name)
{
    for (Workload w : {Workload::GrapeCold, Workload::Table1Spectral,
                       Workload::LibraryWarm})
        if (name == workloadName(w))
            return w;
    throw paqoc::FatalError("unknown workload '" + name
                            + "' (grape_cold | table1_spectral | "
                              "library_warm)");
}

std::string
emitAngle(double angle)
{
    if (angle == 0.0)
        return "0";
    const bool negative = angle < 0.0;
    const double mag = std::fabs(angle);
    // Small denominators first so the text stays readable; every
    // candidate is accepted only if it reads back bit-identically.
    for (long b = 1; b <= (1L << 20); b = b < 64 ? b + 1 : b * 2) {
        const double k_real = mag * static_cast<double>(b) / kPi;
        const long k = std::lround(k_real);
        if (k < 1 || std::fabs(k_real - static_cast<double>(k)) > 1e-6)
            continue;
        if (parsedPiFraction(negative, k, b) != angle)
            continue;
        std::string s = negative ? "-" : "";
        if (k != 1)
            s += std::to_string(k) + "*";
        s += "pi";
        if (b != 1)
            s += "/" + std::to_string(b);
        return s;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%s%.17g", negative ? "-" : "", mag);
    return buf;
}

std::string
emitQasm(const Circuit &circuit)
{
    std::string out = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q["
                      + std::to_string(circuit.numQubits()) + "];\n";
    for (const Gate &g : circuit.gates()) {
        PAQOC_FATAL_IF(g.isCustom(), "custom gate '", g.label(),
                       "' has no QASM 2.0 spelling");
        out += paqoc::opName(g.op());
        if (paqoc::opHasAngle(g.op()))
            out += "(" + emitAngle(g.angle()) + ")";
        for (std::size_t i = 0; i < g.qubits().size(); ++i)
            out +=
                (i == 0 ? " q[" : ",q[") + std::to_string(g.qubits()[i]) + "]";
        out += ";\n";
    }
    return out;
}

Circuit
randomCircuit(Rng &rng, int qubits, int minGates, int maxGates)
{
    Circuit c(qubits);
    const int span = maxGates - minGates + 1;
    const int count =
        minGates + static_cast<int>(rng.next() % static_cast<unsigned>(span));
    const int cx_at = static_cast<int>(rng.next() % count);
    for (int i = 0; i < count; ++i) {
        const int q = static_cast<int>(rng.next() % qubits);
        if (i == cx_at) {
            const int off = 1 + static_cast<int>(rng.next() % (qubits - 1));
            c.cx(q, (q + off) % qubits);
            continue;
        }
        switch (rng.next() % 6) {
            case 0:
                c.h(q);
                break;
            case 1:
                c.x(q);
                break;
            case 2:
                c.sx(q);
                break;
            case 3:
                c.s(q);
                break;
            case 4:
                c.t(q);
                break;
            default: {
                const long k = 1 + static_cast<long>(rng.next() % 7);
                c.add(Gate(Op::RZ, {q}, parsedPiFraction(false, k, 4)));
                break;
            }
        }
    }
    return c;
}

std::vector<int>
seededPermutation(int n, std::uint64_t seed)
{
    std::vector<int> perm(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    if (seed == 0)
        return perm;
    Rng rng(seed);
    for (int i = n - 1; i > 0; --i) {
        const int j = static_cast<int>(rng.next() % (i + 1));
        std::swap(perm[static_cast<std::size_t>(i)],
                  perm[static_cast<std::size_t>(j)]);
    }
    return perm;
}

const std::vector<std::string> &
table1Programs()
{
    // dnn alone is ~70% of a 17-program pass; with it one input would
    // decide throughput_rps. majority's two inputs take about a third
    // of a pass (0.65-1.34 s of 2.2-3.0 s, by relabeling); without
    // them every input gets half as many samples again.
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto &spec : paqoc::workloads::allBenchmarks())
            if (spec.name != "dnn" && spec.name != "majority")
                v.push_back(spec.name);
        return v;
    }();
    return names;
}

std::vector<BenchInput>
makeInputs(Workload w, std::uint64_t seed, std::size_t limit)
{
    std::vector<BenchInput> inputs;
    switch (w) {
        case Workload::GrapeCold:
            inputs = grapeInputs(streamSeed(seed, 1), "rand");
            break;
        case Workload::LibraryWarm:
            inputs = grapeInputs(streamSeed(seed, 2), "warm");
            break;
        case Workload::Table1Spectral:
            inputs = table1Inputs(kTimedLabelSeed, "");
            break;
    }
    if (limit > 0 && limit < inputs.size())
        inputs.resize(limit);
    return inputs;
}

std::vector<BenchInput>
relabeledInputs(Workload w, std::uint64_t seed, std::size_t limit)
{
    if (w != Workload::Table1Spectral)
        return {};
    std::vector<BenchInput> inputs =
        table1Inputs(seed, "@seed" + std::to_string(seed));
    if (limit > 0 && limit < inputs.size())
        inputs.resize(limit);
    return inputs;
}

std::vector<std::size_t>
passOrder(std::size_t n, std::uint64_t seed, int pass)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    Rng rng(streamSeed(seed, 1000 + static_cast<std::uint64_t>(pass)));
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.next() % i]);
    return order;
}

} // namespace perfbench
