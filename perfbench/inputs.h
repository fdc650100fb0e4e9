#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "common/json.h"
#include "common/rng.h"

namespace perfbench {

/** The three workloads; each stresses a different layer. */
enum class Workload
{
    GrapeCold,      ///< GRAPE derivations on an empty library
    Table1Spectral, ///< compiler passes on the Table I programs
    LibraryWarm,    ///< every pulse served from a prepared library
};

/** Name used on the command line and in BENCHMARK.json. */
const char *workloadName(Workload w);
/** Inverse of workloadName; FatalError on an unknown name. */
Workload workloadFromName(const std::string &name);

/** One generated input: the compile request the daemon receives. */
struct BenchInput
{
    /** Stable label, e.g. "rand07" or "qft/tuned". */
    std::string id;
    std::string qasm;
    /** The full "compile" request (the daemon never sees the seed). */
    paqoc::Json request;
};

/**
 * OpenQASM 2.0 text of a primitive-gate circuit, one statement per
 * line (the parser accepts no more). Angles are written so that
 * fromQasm reads back the identical double: as `k*pi/b` when that
 * expression evaluates exactly to the angle, else as `%.17g`.
 */
std::string emitQasm(const paqoc::Circuit &circuit);

/** Angle text as emitQasm writes it (exposed for the self-tests). */
std::string emitAngle(double angle);

/**
 * Seeded random circuit over `qubits` qubits with a gate count drawn
 * uniformly from [minGates, maxGates]: exactly one cx, at a random
 * position on a random qubit pair, and otherwise one-qubit gates drawn
 * uniformly from h, x, sx, s, t and rz(k*pi/4) on random qubits.
 * With one cx every input needs one CX-equivalent two-qubit GRAPE
 * derivation, so the cost of a seed's input set varies little from
 * seed to seed.
 */
paqoc::Circuit randomCircuit(paqoc::Rng &rng, int qubits, int minGates,
                             int maxGates);

/** Permutation of [0, n) for a seed; seed 0 is the identity. */
std::vector<int> seededPermutation(int n, std::uint64_t seed);

/**
 * The timed inputs of a workload for a seed. `limit` > 0 keeps only
 * the first `limit` inputs (smoke mode). The same seed always yields
 * the same request bytes. The GRAPE workloads draw their circuits from
 * the seed. table1_spectral times the same inputs for every seed: the
 * Table I programs relabeled as seed 1 relabels them. A relabeling
 * changes what SABRE makes of a program, and with it the work of a
 * compile by up to 2.6x, so per-seed relabelings would make runs of
 * different seeds time different work.
 */
std::vector<BenchInput> makeInputs(Workload w, std::uint64_t seed,
                                   std::size_t limit = 0);

/**
 * Inputs the oracle sends once, untimed, for its checks alone: on
 * table1_spectral every program relabeled by a permutation drawn from
 * the seed (seed 0 keeps the paper's labels); none on the GRAPE
 * workloads, whose timed inputs already come from the seed.
 */
std::vector<BenchInput> relabeledInputs(Workload w, std::uint64_t seed,
                                        std::size_t limit = 0);

/** The seeded order in which pass `pass` sends `n` inputs. */
std::vector<std::size_t> passOrder(std::size_t n, std::uint64_t seed,
                                   int pass);

/** The Table I programs of the sweep (all but dnn and majority). */
const std::vector<std::string> &table1Programs();

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H_
