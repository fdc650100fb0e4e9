#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "circuit/schedule.h"
#include "common/rng.h"
#include "qoc/grape.h"
#include "sim/pulse_simulator.h"
#include "sim/statevector.h"

namespace perfbench {

using namespace paqoc;

namespace {

/** Where two payloads first differ, with a little context. */
std::string
firstDifference(const std::string &daemon, const std::string &replica)
{
    std::size_t at = 0;
    while (at < daemon.size() && at < replica.size()
           && daemon[at] == replica[at])
        ++at;
    const std::size_t from = at < 40 ? 0 : at - 40;
    return " at byte " + std::to_string(at) + ": daemon '"
           + daemon.substr(from, 80) + "' vs replica '"
           + replica.substr(from, 80) + "'";
}

/**
 * Largest register the routed-equivalence check simulates; bigger
 * compressed registers count as unchecked.
 */
constexpr int kMaxSimQubits = 14;

/** Routed equivalence is exact up to rounding. */
constexpr double kEquivalenceTolerance = 1e-6;

/** Gate g with its qubits renamed through `map`. */
Gate
remapGate(const Gate &g, const std::map<int, int> &map)
{
    std::vector<int> qubits;
    for (int q : g.qubits())
        qubits.push_back(map.at(q));
    if (g.isCustom())
        return Gate::custom(g.label(), std::move(qubits), g.customUnitary(),
                            g.absorbedCount(), g.latencyCap());
    return Gate(g.op(), std::move(qubits), g.angle(), g.symbol());
}

} // namespace

void
OracleTally::check(bool ok, const std::string &what)
{
    ++checks;
    if (!ok) {
        ++failed;
        failures.push_back(what);
    }
}

std::optional<double>
compressedRoutedFidelity(const ReplicaResult &r, std::uint64_t probe_seed)
{
    std::map<int, int> map;
    for (const Gate &g : r.finalCircuit.gates())
        for (int q : g.qubits())
            map.emplace(q, 0);
    for (int q : r.initialLayout)
        map.emplace(q, 0);
    for (int q : r.finalLayout)
        map.emplace(q, 0);
    if (static_cast<int>(map.size()) > kMaxSimQubits)
        return std::nullopt;
    int next = 0;
    for (auto &[physical, compact] : map)
        compact = next++;

    Circuit compact(next);
    for (const Gate &g : r.finalCircuit.gates())
        compact.add(remapGate(g, map));
    std::vector<int> initial, final_layout;
    for (int q : r.initialLayout)
        initial.push_back(map.at(q));
    for (int q : r.finalLayout)
        final_layout.push_back(map.at(q));

    // |0...0>, |1...1> and two seeded basis states.
    const int nl = r.logical.numQubits();
    const std::size_t all = (std::size_t{1} << nl) - 1;
    Rng rng(probe_seed);
    std::vector<std::size_t> probes = {0, all, rng.next() & all,
                                       rng.next() & all};
    return routedFidelity(r.logical, compact, initial, final_layout, probes);
}

double
impliedProcessFidelity(const std::vector<double> &eps)
{
    const double half_pi = 2.0 * std::atan(1.0);
    double angle = 0.0;
    for (double e : eps)
        angle += std::acos(std::sqrt(std::clamp(1.0 - e, 0.0, 1.0)));
    const double c = std::cos(std::min(angle, half_pi));
    return c * c;
}

void
checkInput(OracleTally &tally, const std::string &id,
           const std::string &daemon_payload, ReplicaResult &replica,
           PulseGenerator &stitched, bool grape, std::uint64_t probe_seed)
{
    tally.check(replica.payload == daemon_payload,
                id + ": replica payload differs from the daemon's"
                    + firstDifference(daemon_payload, replica.payload));
    const Json payload = Json::parse(daemon_payload);

    if (const std::optional<double> f =
            compressedRoutedFidelity(replica, probe_seed))
        tally.check(*f >= 1.0 - kEquivalenceTolerance,
                    id
                        + ": compiled circuit is not equivalent to the "
                          "input (routed fidelity "
                        + std::to_string(*f) + ")");
    else
        ++tally.unchecked;

    // Observation 1: the merged circuit is never slower than the
    // routed physical circuit played with per-gate pulses.
    std::vector<PulseRequest> requests;
    for (const Gate &g : replica.physical.gates())
        requests.push_back({g.unitary(), g.arity()});
    const std::vector<PulseGenResult> primitive =
        stitched.generateBatch(requests);
    std::size_t k = 0;
    const Schedule sched =
        computeSchedule(replica.physical,
                        [&](const Gate &) { return primitive[k++].latency; });
    const double latency = payload.at("latency_dt").asNumber();
    tally.check(latency <= sched.makespan,
                id + ": merged latency " + std::to_string(latency)
                    + " dt exceeds the stitched "
                    + std::to_string(sched.makespan) + " dt");

    if (!grape)
        return;
    const Json &pulses = payload.at("pulses");
    const double target = GrapeOptions{}.targetInfidelity;
    std::vector<double> eps;
    std::size_t degraded = 0;
    bool within_target = true;
    for (const Json &p : pulses.items()) {
        const double err = p.at("error").asNumber();
        const bool is_degraded = p.get("degraded", Json(false)).asBool();
        degraded += is_degraded ? 1 : 0;
        within_target = within_target && (is_degraded || err <= target);
        eps.push_back(std::max(target, err));
    }
    tally.check(within_target,
                id
                    + ": a pulse not tagged degraded misses the "
                      "GRAPE fidelity target");
    tally.check(degraded == 0 || replica.degraded > 0,
                id + ": degraded pulses the replica did not derive");
    const SimResult sim =
        simulateCircuitPulses(replica.finalCircuit, *replica.generator);
    const double bound = impliedProcessFidelity(eps);
    tally.check(sim.processFidelity >= bound,
                id + ": simulated process fidelity "
                    + std::to_string(sim.processFidelity)
                    + " below the implied " + std::to_string(bound));
}

} // namespace perfbench
