#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "qoc/pulse_generator.h"
#include "replica.h"

namespace perfbench {

/** Outcome of the correctness checks of one run. */
struct OracleTally
{
    std::size_t checks = 0;
    std::size_t failed = 0;
    /** Checks that could not run (register too large to simulate). */
    std::size_t unchecked = 0;
    std::vector<std::string> failures;

    /** Count one check; a false `ok` is a failed operation. */
    void check(bool ok, const std::string &what);
};

/**
 * routedFidelity of the logical circuit against the compiled one,
 * with the physical register compressed to the qubits the compiled
 * circuit and the layouts touch. nullopt when that is still more
 * than 14 qubits.
 */
std::optional<double> compressedRoutedFidelity(const ReplicaResult &r,
                                               std::uint64_t probe_seed);

/**
 * Lower bound on a circuit's process fidelity when each of its pulses
 * i has trace infidelity at most eps[i]: the Fubini-Study angle
 * arccos(sqrt(F)) is a unitarily invariant metric, so the angles of
 * the pulses add up.
 */
double impliedProcessFidelity(const std::vector<double> &eps);

/**
 * Checks of one input that need the replica (outside the timed
 * passes): replica payload == daemon payload, routed equivalence,
 * Observation 1 (payload latency <= the stitched primitive-gate
 * makespan under `stitched`, a generator of the same backend), and on
 * GRAPE the simulated process fidelity and degraded-pulse accounting.
 */
void checkInput(OracleTally &tally, const std::string &id,
                const std::string &daemon_payload, ReplicaResult &replica,
                paqoc::PulseGenerator &stitched, bool grape,
                std::uint64_t probe_seed);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H_
