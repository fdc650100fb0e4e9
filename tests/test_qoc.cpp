/**
 * @file
 * Tests for the QOC stack: device Hamiltonians, GRAPE convergence on
 * known gates, minimum-duration search monotonicity, the spectral
 * latency model's paper-observation properties, and the pulse cache.
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "linalg/expm.h"
#include "linalg/kernels.h"
#include "linalg/unitary_util.h"
#include "qoc/device.h"
#include "qoc/grape.h"
#include "qoc/latency_model.h"
#include "qoc/pulse_cache.h"
#include "qoc/pulse_generator.h"
#include "qoc/pulse_io.h"

namespace paqoc {
namespace {

const Complex kI(0.0, 1.0);
constexpr double kPi = 3.14159265358979323846;

/** Propagate a pulse schedule on a device and return the unitary. */
Matrix
propagate(const DeviceModel &device, const PulseSchedule &schedule)
{
    Matrix u = Matrix::identity(device.dim());
    for (const auto &slice : schedule.amplitudes)
        u = expmPropagator(device.sliceHamiltonian(slice), 1.0) * u;
    return u;
}

TEST(Device, ControlCountsAndBounds)
{
    const DeviceModel d1(1);
    EXPECT_EQ(d1.numControls(), 2u); // x0, y0
    const DeviceModel d2(2);
    EXPECT_EQ(d2.numControls(), 5u); // x0 y0 x1 y1 xy01
    const DeviceModel d3(3);
    EXPECT_EQ(d3.numControls(), 8u); // 6 drives + 2 couplings
    EXPECT_DOUBLE_EQ(d2.bound(0), DeviceModel::kOneQubitBound);
    EXPECT_DOUBLE_EQ(d2.bound(4), DeviceModel::kTwoQubitBound);
}

TEST(Device, ControlsAreHermitian)
{
    const DeviceModel d(3);
    for (std::size_t k = 0; k < d.numControls(); ++k)
        EXPECT_TRUE(d.control(k).isHermitian(1e-12)) << d.controlName(k);
}

TEST(Device, SliceHamiltonianIsLinearCombination)
{
    const DeviceModel d(2);
    std::vector<double> amps(d.numControls(), 0.0);
    amps[0] = 0.05;
    amps[4] = 0.01;
    Matrix expected = d.control(0);
    expected *= Complex(0.05, 0.0);
    Matrix c2 = d.control(4);
    c2 *= Complex(0.01, 0.0);
    expected += c2;
    EXPECT_TRUE(d.sliceHamiltonian(amps).approxEqual(expected, 1e-12));
}

TEST(Device, RejectsBadConfig)
{
    EXPECT_THROW(DeviceModel(0), FatalError);
    EXPECT_THROW(DeviceModel(2, {{0, 2}}), FatalError);
    EXPECT_THROW(DeviceModel(2, {{1, 1}}), FatalError);
}

TEST(Grape, ConvergesToXGate)
{
    const DeviceModel device(1);
    const Matrix x = Gate(Op::X, {0}).unitary();
    GrapeOptions opts;
    const GrapeResult r = grapeOptimize(device, x, 20, opts);
    EXPECT_TRUE(r.converged);
    EXPECT_GE(r.schedule.fidelity, 1.0 - opts.targetInfidelity);
    // The returned amplitudes really do implement X.
    const Matrix realized = propagate(device, r.schedule);
    EXPECT_GE(traceFidelity(x, realized), 0.995);
}

TEST(Grape, ConvergesToHadamard)
{
    const DeviceModel device(1);
    const Matrix h = Gate(Op::H, {0}).unitary();
    const GrapeResult r = grapeOptimize(device, h, 20, GrapeOptions{});
    EXPECT_TRUE(r.converged);
    const Matrix realized = propagate(device, r.schedule);
    EXPECT_GE(traceFidelity(h, realized), 0.995);
}

TEST(Grape, FailsWhenDurationTooShort)
{
    // An X rotation needs ~pi/2 of phase at rate <= ~0.14; two slices
    // cannot reach it.
    const DeviceModel device(1);
    const Matrix x = Gate(Op::X, {0}).unitary();
    const GrapeResult r = grapeOptimize(device, x, 2, GrapeOptions{});
    EXPECT_FALSE(r.converged);
}

TEST(Grape, RespectsAmplitudeBounds)
{
    const DeviceModel device(1);
    const Matrix h = Gate(Op::H, {0}).unitary();
    const GrapeResult r = grapeOptimize(device, h, 24, GrapeOptions{});
    for (const auto &slice : r.schedule.amplitudes)
        for (std::size_t k = 0; k < slice.size(); ++k)
            EXPECT_LE(std::abs(slice[k]), device.bound(k) + 1e-12);
}

TEST(Grape, ConvergesToCxGate)
{
    const DeviceModel device(2);
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    GrapeOptions opts;
    opts.maxIterations = 400;
    const GrapeResult r = grapeOptimize(device, cx, 110, opts);
    EXPECT_TRUE(r.converged)
        << "fidelity reached: " << r.schedule.fidelity;
    const Matrix realized = propagate(device, r.schedule);
    EXPECT_GE(traceFidelity(cx, realized), 0.99);
}

TEST(Grape, MinimumDurationFindsShortPulse)
{
    const DeviceModel device(1);
    const Matrix h = Gate(Op::H, {0}).unitary();
    const MinDurationResult r =
        findMinimumDuration(device, h, GrapeOptions{}, 16);
    EXPECT_GE(r.schedule.fidelity, 1.0 - 1e-3);
    EXPECT_GT(r.trials, 1);
    // A Hadamard at drive bound 0.1 with x+y drives takes ~11-16 dt.
    EXPECT_LE(r.schedule.latency(), 24.0);
    EXPECT_GE(r.schedule.latency(), 6.0);
}

TEST(Grape, WarmStartNoWorseThanCold)
{
    const DeviceModel device(1);
    const Matrix h = Gate(Op::H, {0}).unitary();
    GrapeOptions opts;
    const GrapeResult cold = grapeOptimize(device, h, 20, opts);
    ASSERT_TRUE(cold.converged);
    // Re-optimizing with the converged pulse as guess converges in
    // one iteration.
    const GrapeResult warm =
        grapeOptimize(device, h, 20, opts, &cold.schedule);
    EXPECT_TRUE(warm.converged);
    EXPECT_LE(warm.iterations, cold.iterations);
}

TEST(LatencyModel, ObservationTwoWidthOrdering)
{
    // Wider gates cost more for comparable phase content.
    const SpectralLatencyModel model;
    const Matrix x1 = Gate(Op::X, {0}).unitary();
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const Matrix ccx = Gate(Op::CCX, {0, 1, 2}).unitary();
    const double l1 = model.latency(x1, 1);
    const double l2 = model.latency(cx, 2);
    const double l3 = model.latency(ccx, 3);
    EXPECT_LT(l1, l2);
    EXPECT_LT(l2, l3);
}

class ObservationOne : public ::testing::TestWithParam<int> {};

TEST_P(ObservationOne, MergedNeverExceedsSum)
{
    // Observation 1 at the compiler level: a merged gate carrying the
    // stitched-pulse latency cap is never modeled slower than its two
    // halves run back to back. (The raw spectral model can exceed the
    // sum near the principal-log branch cut; the cap -- which every
    // compiler pass installs -- is what restores the invariant.)
    Rng rng(500 + static_cast<std::uint64_t>(GetParam()));
    const SpectralLatencyModel model;
    const int n = 1 + GetParam() % 3;
    Circuit a(n), b(n);
    auto random_gate = [&](Circuit &c) {
        if (n >= 2 && rng.chance(0.5)) {
            const int q = rng.range(0, n - 2);
            c.cx(q, q + 1);
        } else {
            const int q = rng.range(0, n - 1);
            c.rz(q, rng.uniform(0.1, 3.0));
            c.h(q);
        }
    };
    for (int i = 0; i < 3; ++i)
        random_gate(a);
    for (int i = 0; i < 3; ++i)
        random_gate(b);
    const Matrix ua = circuitUnitary(a);
    const Matrix ub = circuitUnitary(b);
    const double separate = model.latency(ua, n) + model.latency(ub, n);
    const double merged =
        std::min(model.latency(ub * ua, n), separate);
    EXPECT_LE(merged, separate + 1e-12);
    EXPECT_GE(merged, 2.0); // never below the hardware floor
}

INSTANTIATE_TEST_SUITE_P(RandomMerges, ObservationOne,
                         ::testing::Range(0, 12));

TEST(LatencyOracleClamp, CustomGateRespectsLatencyCap)
{
    // The oracle-level view of Observation 1: a capped custom gate
    // never reports more than its cap.
    SpectralPulseGenerator gen;
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    const Matrix u = circuitUnitary(c);
    const double raw = gen.estimateLatency(u, 2);
    const Gate capped = Gate::custom("m", {1, 0}, u, 2,
                                     std::min(raw, 50.0));
    EXPECT_DOUBLE_EQ(capped.latencyCap(), std::min(raw, 50.0));
}

TEST(LatencyModel, ErrorGrowsWithWidthAndDuration)
{
    const SpectralLatencyModel model;
    EXPECT_LT(model.pulseError(1, 10), model.pulseError(2, 10));
    EXPECT_LT(model.pulseError(2, 10), model.pulseError(2, 200));
    EXPECT_LE(model.pulseError(3, 1e9), 0.5); // clamped
}

TEST(LatencyModel, CompileCostGrowsWithWidth)
{
    const SpectralLatencyModel model;
    EXPECT_LT(model.compileCost(1, 16), model.compileCost(2, 16));
    EXPECT_LT(model.compileCost(2, 80), model.compileCost(3, 80));
}

TEST(LatencyModel, GrapeAgreesWithModelOrdering)
{
    // Ground-truth check: GRAPE's measured minimum durations respect
    // the model's 1q < 2q ordering.
    GrapeOptions opts;
    opts.maxIterations = 400;
    const Matrix h = Gate(Op::H, {0}).unitary();
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const MinDurationResult r1 =
        findMinimumDuration(DeviceModel(1), h, opts, 12);
    const MinDurationResult r2 =
        findMinimumDuration(DeviceModel(2), cx, opts, 70);
    EXPECT_LT(r1.schedule.latency(), r2.schedule.latency());
}

TEST(PulseCache, ExactHitAfterInsert)
{
    PulseCache cache;
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    EXPECT_EQ(cache.lookup(cx, 2), nullptr);
    CachedPulse entry;
    entry.latency = 80.0;
    entry.error = 1e-3;
    cache.insert(cx, 2, entry);
    const CachedPulse *hit = cache.lookup(cx, 2);
    ASSERT_NE(hit, nullptr);
    EXPECT_DOUBLE_EQ(hit->latency, 80.0);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(PulseCache, GlobalPhaseMapsToSameKey)
{
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const Matrix phased = cx * std::exp(kI * 0.9);
    EXPECT_EQ(PulseCache::canonicalKey(cx, 2),
              PulseCache::canonicalKey(phased, 2));
}

TEST(PulseCache, QubitReversalKeepsDistinctKeys)
{
    // A pulse drives its qubits in the order it was derived for, so a
    // unitary and its qubit-reversed twin must not share a cache
    // entry: serving CX(0->1)'s pulse for CX(1->0) plays the wrong
    // gate.
    const Matrix cx01 = Gate(Op::CX, {0, 1}).unitary();
    const Matrix cx10{{1.0, 0.0, 0.0, 0.0},
                      {0.0, 0.0, 0.0, 1.0},
                      {0.0, 0.0, 1.0, 0.0},
                      {0.0, 1.0, 0.0, 0.0}};
    EXPECT_NE(PulseCache::canonicalKey(cx01, 2),
              PulseCache::canonicalKey(cx10, 2));
}

TEST(PulseCache, DistinctGatesDistinctKeys)
{
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const Matrix cz = Gate(Op::CZ, {0, 1}).unitary();
    EXPECT_NE(PulseCache::canonicalKey(cx, 2),
              PulseCache::canonicalKey(cz, 2));
}

TEST(PulseCache, NearestRespectsRadius)
{
    PulseCache cache;
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    CachedPulse entry;
    entry.latency = 80.0;
    cache.insert(cx, 2, entry);
    const Matrix cp = Gate(Op::CP, {0, 1}, 2.8).unitary(); // close-ish
    EXPECT_NE(cache.nearest(cp, 2, 10.0), nullptr);
    EXPECT_EQ(cache.nearest(cp, 2, 1e-6), nullptr);
    EXPECT_EQ(cache.nearest(cp, 1, 10.0), nullptr); // width filter
}

TEST(PulseGenerator, SpectralCachesRepeatGates)
{
    SpectralPulseGenerator gen;
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const PulseGenResult first = gen.generate(cx, 2);
    EXPECT_FALSE(first.cacheHit);
    EXPECT_GT(first.costUnits, 0.0);
    const PulseGenResult second = gen.generate(cx, 2);
    EXPECT_TRUE(second.cacheHit);
    EXPECT_DOUBLE_EQ(second.costUnits, 0.0);
    EXPECT_DOUBLE_EQ(first.latency, second.latency);
    EXPECT_EQ(gen.cacheHits(), 1u);
    EXPECT_EQ(gen.generateCalls(), 2u);
}

TEST(PulseGenerator, EstimateMatchesGenerateForSpectral)
{
    SpectralPulseGenerator gen;
    const Matrix swap = Gate(Op::SWAP, {0, 1}).unitary();
    const double est = gen.estimateLatency(swap, 2);
    const PulseGenResult r = gen.generate(swap, 2);
    EXPECT_DOUBLE_EQ(est, r.latency);
}

TEST(PulseCache, DatabaseRoundTripOfflineOnline)
{
    // The paper's offline/online split (contribution 5): an offline
    // run generates pulses and saves the database; a fresh online run
    // loads it and serves every request as a cache hit.
    const std::string path = "/tmp/paqoc_test_pulse_db.txt";
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const Matrix h = Gate(Op::H, {0}).unitary();

    SpectralPulseGenerator offline;
    const PulseGenResult cx_off = offline.generate(cx, 2);
    const PulseGenResult h_off = offline.generate(h, 1);
    offline.saveDatabase(path);

    SpectralPulseGenerator online;
    online.loadDatabase(path);
    const PulseGenResult cx_on = online.generate(cx, 2);
    const PulseGenResult h_on = online.generate(h, 1);
    EXPECT_TRUE(cx_on.cacheHit);
    EXPECT_TRUE(h_on.cacheHit);
    EXPECT_DOUBLE_EQ(cx_on.latency, cx_off.latency);
    EXPECT_DOUBLE_EQ(h_on.latency, h_off.latency);
    EXPECT_DOUBLE_EQ(cx_on.error, cx_off.error);
}

TEST(PulseCache, DatabasePreservesGrapeSchedules)
{
    const std::string path = "/tmp/paqoc_test_pulse_db_grape.txt";
    GrapeOptions opts;
    GrapePulseGenerator offline(opts);
    const Matrix h = Gate(Op::H, {0}).unitary();
    const PulseGenResult off = offline.generate(h, 1);
    ASSERT_TRUE(off.schedule.has_value());
    offline.saveDatabase(path);

    GrapePulseGenerator online(opts);
    online.loadDatabase(path);
    const PulseGenResult on = online.generate(h, 1);
    EXPECT_TRUE(on.cacheHit);
    ASSERT_TRUE(on.schedule.has_value());
    ASSERT_EQ(on.schedule->numSlices(), off.schedule->numSlices());
    for (int t = 0; t < on.schedule->numSlices(); ++t)
        for (std::size_t k = 0;
             k < on.schedule->amplitudes[static_cast<std::size_t>(t)]
                     .size();
             ++k)
            EXPECT_NEAR(
                on.schedule->amplitudes[static_cast<std::size_t>(t)][k],
                off.schedule
                    ->amplitudes[static_cast<std::size_t>(t)][k],
                1e-12);
}

TEST(PulseCache, LoadRejectsCorruptDatabase)
{
    const std::string path = "/tmp/paqoc_test_pulse_db_bad.txt";
    {
        std::ofstream out(path);
        out << "not-a-db 9\n";
    }
    PulseCache cache;
    EXPECT_THROW(cache.load(path), FatalError);
    EXPECT_THROW(cache.load("/nonexistent/dir/db.txt"), FatalError);
}

TEST(PulseCache, LoadNamesTheBadLineAndLoadsNothing)
{
    // Build a valid database, then truncate it mid-entry: the error
    // must cite the offending line and the cache must stay empty (no
    // partial load).
    const std::string good = "/tmp/paqoc_test_pulse_db_good.txt";
    const std::string bad = "/tmp/paqoc_test_pulse_db_torn.txt";
    SpectralPulseGenerator gen;
    gen.generate(Gate(Op::CX, {0, 1}).unitary(), 2);
    gen.generate(Gate(Op::H, {0}).unitary(), 1);
    gen.saveDatabase(good);

    std::vector<std::string> lines;
    {
        std::ifstream in(good);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_GT(lines.size(), 3u);
    {
        std::ofstream out(bad);
        for (std::size_t i = 0; i + 1 < lines.size(); ++i)
            out << lines[i] << '\n';
        // Final line cut mid-row.
        out << lines.back().substr(0, 3) << '\n';
    }

    PulseCache cache;
    try {
        cache.load(bad);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("line " + std::to_string(lines.size())),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find(bad), std::string::npos) << msg;
    }
    EXPECT_EQ(cache.size(), 0u); // all-or-nothing

    // A garbage record type is also named.
    const std::string junk = "/tmp/paqoc_test_pulse_db_junk.txt";
    {
        std::ofstream out(junk);
        out << "paqoc-pulse-db 1\n";
        out << "entree 2 1 2 3\n";
    }
    try {
        cache.load(junk);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(PulseIo, JsonRoundTripsScheduleWithMetadata)
{
    // Unlike CSV, the JSON export carries fidelity and latency.
    const DeviceModel device(2);
    PulseSchedule schedule;
    schedule.fidelity = 0.9987654321012345;
    Rng rng(7);
    for (int t = 0; t < 5; ++t) {
        std::vector<double> slice;
        for (std::size_t k = 0; k < device.numControls(); ++k)
            slice.push_back(rng.uniform(-0.3, 0.3));
        schedule.amplitudes.push_back(std::move(slice));
    }

    const std::string json = pulseToJson(schedule, device);
    EXPECT_NE(json.find("\"paqoc-pulse-v1\""), std::string::npos);
    const PulseSchedule back = pulseFromJson(json, device);
    EXPECT_DOUBLE_EQ(back.fidelity, schedule.fidelity);
    ASSERT_EQ(back.numSlices(), schedule.numSlices());
    for (int t = 0; t < back.numSlices(); ++t)
        for (std::size_t k = 0; k < device.numControls(); ++k)
            EXPECT_EQ(
                back.amplitudes[static_cast<std::size_t>(t)][k],
                schedule.amplitudes[static_cast<std::size_t>(t)][k])
                << "slice " << t << " channel " << k;
    // Byte-stable: dumping the parsed schedule reproduces the bytes.
    EXPECT_EQ(pulseToJson(back, device), json);
}

TEST(PulseIo, JsonRoundTripsDegradedPayloads)
{
    // A stitched best-effort pulse ships with "degraded": true; the
    // tag must survive serialization without disturbing the waveform
    // bytes, and a healthy document must not grow the key.
    const DeviceModel device(1);
    PulseSchedule schedule;
    schedule.fidelity = 0.875;
    schedule.amplitudes = {{0.125, -0.25}, {0.0625, 0.5}};

    const std::string healthy = pulseToJson(schedule, device);
    EXPECT_EQ(healthy.find("degraded"), std::string::npos);
    const std::string degraded = pulseToJson(schedule, device, true);
    EXPECT_NE(degraded.find("\"degraded\":true"), std::string::npos);

    const PulseSchedule back = pulseFromJson(degraded, device);
    EXPECT_DOUBLE_EQ(back.fidelity, schedule.fidelity);
    ASSERT_EQ(back.numSlices(), schedule.numSlices());
    for (std::size_t t = 0; t < back.amplitudes.size(); ++t)
        for (std::size_t k = 0; k < back.amplitudes[t].size(); ++k)
            EXPECT_EQ(back.amplitudes[t][k],
                      schedule.amplitudes[t][k]);
    // Round-tripping the parsed schedule as degraded reproduces the
    // degraded document byte for byte.
    EXPECT_EQ(pulseToJson(back, device, true), degraded);
}

TEST(PulseIo, JsonRejectsWrongDeviceOrFormat)
{
    const DeviceModel one(1);
    const DeviceModel two(2);
    PulseSchedule schedule;
    schedule.amplitudes = {{0.1, 0.2}}; // 2 channels: a 1-qubit pulse
    const std::string json = pulseToJson(schedule, one);
    EXPECT_THROW(pulseFromJson(json, two), FatalError);
    EXPECT_THROW(pulseFromJson("{\"format\":\"nope\"}", one),
                 FatalError);
    EXPECT_THROW(pulseFromJson("not json at all", one), FatalError);
}

TEST(PulseGenerator, GrapeBackendProducesWorkingPulse)
{
    GrapeOptions opts;
    opts.maxIterations = 300;
    GrapePulseGenerator gen(opts);
    const Matrix h = Gate(Op::H, {0}).unitary();
    const PulseGenResult r = gen.generate(h, 1);
    ASSERT_TRUE(r.schedule.has_value());
    EXPECT_LE(r.error, 1e-3 + 1e-9);
    const Matrix realized = propagate(DeviceModel(1), *r.schedule);
    EXPECT_GE(traceFidelity(h, realized), 0.995);
    // Second call is a cache hit with zero added cost.
    const double cost_before = gen.totalCostUnits();
    const PulseGenResult again = gen.generate(h, 1);
    EXPECT_TRUE(again.cacheHit);
    EXPECT_DOUBLE_EQ(gen.totalCostUnits(), cost_before);
}

TEST(PulseCache, SingleFlightRoles)
{
    PulseCache cache;
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();

    const PulseCache::Acquired first = cache.acquire(cx, 2);
    EXPECT_EQ(first.role, PulseCache::FlightRole::Leader);
    EXPECT_FALSE(first.entry.has_value());

    // A joiner started while the flight is open must observe the
    // leader's published entry.
    std::thread joiner_thread([&]() {
        const PulseCache::Acquired joined = cache.acquire(cx, 2);
        EXPECT_NE(joined.role, PulseCache::FlightRole::Leader);
        ASSERT_TRUE(joined.entry.has_value());
        EXPECT_DOUBLE_EQ(joined.entry->latency, 42.0);
    });
    CachedPulse entry;
    entry.latency = 42.0;
    cache.completeFlight(cx, 2, std::move(entry));
    joiner_thread.join();

    const PulseCache::Acquired hit = cache.acquire(cx, 2);
    EXPECT_EQ(hit.role, PulseCache::FlightRole::Hit);
    ASSERT_TRUE(hit.entry.has_value());
    EXPECT_DOUBLE_EQ(hit.entry->latency, 42.0);
}

TEST(PulseCache, AbortedFlightReRacesToNewLeader)
{
    PulseCache cache;
    const Matrix h = Gate(Op::H, {0}).unitary();
    const PulseCache::Acquired first = cache.acquire(h, 1);
    ASSERT_EQ(first.role, PulseCache::FlightRole::Leader);

    std::thread waiter([&]() {
        // Blocks until the first leader aborts, then must win the
        // re-race and inherit leadership.
        const PulseCache::Acquired second = cache.acquire(h, 1);
        EXPECT_EQ(second.role, PulseCache::FlightRole::Leader);
        CachedPulse entry;
        entry.latency = 7.0;
        cache.completeFlight(h, 1, std::move(entry));
    });
    cache.abortFlight(h, 1);
    waiter.join();
    EXPECT_EQ(cache.size(), 1u);
}

TEST(PulseGenerator, ConcurrentSameUnitaryRunsGrapeOnce)
{
    // The single-flight contract: N threads asking for the same
    // unitary at once produce exactly one GRAPE run; everyone else is
    // served the cached result.
    GrapeOptions opts;
    opts.maxIterations = 300;
    GrapePulseGenerator gen(opts);
    const Matrix h = Gate(Op::H, {0}).unitary();

    constexpr int kThreads = 8;
    std::vector<PulseGenResult> results(kThreads);
    {
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int i = 0; i < kThreads; ++i)
            threads.emplace_back([&, i]() {
                results[static_cast<std::size_t>(i)] = gen.generate(h, 1);
            });
        for (std::thread &t : threads)
            t.join();
    }

    EXPECT_EQ(gen.generateCalls(), static_cast<std::size_t>(kThreads));
    EXPECT_EQ(gen.cacheHits(), static_cast<std::size_t>(kThreads - 1));
    EXPECT_EQ(gen.cache().size(), 1u);
    int misses = 0;
    for (const PulseGenResult &r : results) {
        misses += r.cacheHit ? 0 : 1;
        EXPECT_DOUBLE_EQ(r.latency, results[0].latency);
        EXPECT_DOUBLE_EQ(r.error, results[0].error);
        ASSERT_TRUE(r.schedule.has_value());
    }
    EXPECT_EQ(misses, 1);
}

TEST(PulseGenerator, BatchMatchesSerialReplayBitExactly)
{
    const Matrix h = Gate(Op::H, {0}).unitary();
    const Matrix x = Gate(Op::X, {0}).unitary();
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const std::vector<PulseRequest> requests = {
        {h, 1}, {cx, 2}, {h, 1}, {x, 1}, {cx, 2}, {h, 1},
    };

    SpectralPulseGenerator serial;
    std::vector<PulseGenResult> expected;
    for (const PulseRequest &r : requests)
        expected.push_back(serial.generate(r.unitary, r.numQubits));

    ThreadPool pool(4);
    SpectralPulseGenerator batched;
    const std::vector<PulseGenResult> got =
        batched.generateBatch(requests, &pool);

    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].cacheHit, expected[i].cacheHit) << i;
        EXPECT_DOUBLE_EQ(got[i].latency, expected[i].latency) << i;
        EXPECT_DOUBLE_EQ(got[i].error, expected[i].error) << i;
        EXPECT_DOUBLE_EQ(got[i].costUnits, expected[i].costUnits) << i;
    }
    EXPECT_EQ(batched.generateCalls(), serial.generateCalls());
    EXPECT_EQ(batched.cacheHits(), serial.cacheHits());
    EXPECT_DOUBLE_EQ(batched.totalCostUnits(), serial.totalCostUnits());
}

/** A random unitary exp(-iH) of the given width. */
Matrix
randomUnitaryOf(int num_qubits, Rng &rng)
{
    const std::size_t dim = std::size_t{1} << num_qubits;
    Matrix m(dim, dim);
    for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t c = 0; c < dim; ++c)
            m(r, c) = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    Matrix h = m + m.adjoint();
    h *= Complex(0.5, 0.0);
    return expm(h * Complex(0.0, -1.0));
}

/** canonicalKey as it was spelled with snprintf("%.4f,%.4f;"). */
std::string
printfCanonicalKey(const Matrix &u, int num_qubits)
{
    std::size_t best_r = 0, best_c = 0;
    double best = -1.0;
    for (std::size_t r = 0; r < u.rows(); ++r)
        for (std::size_t c = 0; c < u.cols(); ++c)
            if (std::abs(u(r, c)) > best + 1e-12) {
                best = std::abs(u(r, c));
                best_r = r;
                best_c = c;
            }
    const Complex pivot = u(best_r, best_c);
    Matrix v = u;
    if (std::abs(pivot) > 1e-12)
        v *= std::conj(pivot) / std::abs(pivot);
    std::string key = std::to_string(num_qubits) + ":";
    char buf[48];
    for (std::size_t r = 0; r < v.rows(); ++r)
        for (std::size_t c = 0; c < v.cols(); ++c) {
            const double re = std::round(v(r, c).real() * 1e4) / 1e4 + 0.0;
            const double im = std::round(v(r, c).imag() * 1e4) / 1e4 + 0.0;
            std::snprintf(buf, sizeof buf, "%.4f,%.4f;", re, im);
            key += buf;
        }
    return key;
}

TEST(PulseCache, CanonicalKeyMatchesThePrintfSpelling)
{
    Rng rng(0xca11ab1e);
    for (int i = 0; i < 10000; ++i) {
        const int n = 1 + i % 3;
        const Matrix u = randomUnitaryOf(n, rng);
        ASSERT_EQ(PulseCache::canonicalKey(u, n), printfCanonicalKey(u, n))
            << i;
    }
    // Entries that round to +-0 and +-1, and entries on the 5th-decimal
    // rounding boundary. The pivot 1 leaves every other entry as is.
    const double edges[] = {-0.00004, 0.00004,  -0.0,     0.0,
                            0.99996,  -0.99996, 0.99995,  -0.99995,
                            0.00005,  -0.00005, 0.00015,  -0.00015,
                            0.12345,  -0.12345, 0.123449, 0.5,
                            -0.5,     0.49995,  1e-300,   -1e-300};
    for (const double a : edges)
        for (const double b : edges) {
            Matrix m(2, 2);
            m(0, 0) = Complex(1.0, 0.0);
            m(0, 1) = Complex(a, b);
            m(1, 0) = Complex(b, a);
            m(1, 1) = Complex(a, -b);
            ASSERT_EQ(PulseCache::canonicalKey(m, 1), printfCanonicalKey(m, 1))
                << a << ' ' << b;
        }
    for (int i = 0; i < 2000; ++i) {
        Matrix m(4, 4);
        m(0, 0) = Complex(1.0, 0.0);
        for (std::size_t k = 1; k < 16; ++k) {
            const double step = static_cast<double>(rng.range(-9999, 9999));
            m(k / 4, k % 4) = Complex((step + 0.5) / 1e4, (step - 0.5) / 1e4);
        }
        ASSERT_EQ(PulseCache::canonicalKey(m, 2), printfCanonicalKey(m, 2))
            << i;
    }
}

/** A cache entry with content drawn from `rng`. */
CachedPulse
randomEntry(const Matrix &unitary, int num_qubits, Rng &rng)
{
    CachedPulse e;
    e.unitary = unitary;
    e.numQubits = num_qubits;
    e.latency = static_cast<double>(rng.range(1, 400));
    e.error = rng.uniform(0.0, 1e-3);
    e.schedule.fidelity = 1.0 - e.error;
    e.schedule.amplitudes.assign(static_cast<std::size_t>(rng.range(0, 3)),
                                 std::vector<double>(2));
    for (auto &slice : e.schedule.amplitudes)
        for (double &a : slice)
            a = rng.uniform(-0.1, 0.1);
    e.degraded = rng.chance(0.1);
    return e;
}

bool
sameMatrix(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            if (a(r, c) != b(r, c))
                return false;
    return true;
}

bool
sameEntry(const CachedPulse *a, const CachedPulse *b)
{
    if (a == nullptr || b == nullptr)
        return a == b;
    return a->latency == b->latency && a->error == b->error
        && a->numQubits == b->numQubits && a->degraded == b->degraded
        && a->fromTier == b->fromTier
        && a->schedule.fidelity == b->schedule.fidelity
        && a->schedule.amplitudes == b->schedule.amplitudes
        && sameMatrix(a->unitary, b->unitary);
}

std::string
savedBytes(const PulseCache &cache, const std::string &path)
{
    cache.save(path);
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(PulseCache, EpochAnswersAsInsertingItsEntriesDoes)
{
    // Cache A inserts a library's entries, then a request's own
    // inserts; cache B attaches the same entries as an epoch and then
    // takes the same inserts. Every read must agree.
    const Matrix pauli[] = {
        Gate(Op::X, {0}).unitary(), Gate(Op::Y, {0}).unitary(),
        Gate(Op::Z, {0}).unitary(), Gate(Op::CX, {0, 1}).unitary(),
        Gate(Op::SWAP, {0, 1}).unitary()};
    const int pauli_n[] = {1, 1, 1, 2, 2};
    const Matrix id1 = Matrix::identity(2);
    const Matrix id2 = Matrix::identity(4);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed * 7919);
        std::vector<std::pair<Matrix, int>> pool;
        PulseEpoch epoch;
        // Two of the 1-qubit Paulis sit in the epoch, the third comes
        // as an own insert: the identity is equidistant from all three.
        for (int k = 0; k < 5; ++k) {
            pool.emplace_back(pauli[k], pauli_n[k]);
            if (k == 2 || k == 4)
                continue;
            epoch[PulseCache::canonicalKey(pauli[k], pauli_n[k])] =
                randomEntry(pauli[k], pauli_n[k], rng);
        }
        for (int k = 0; k < 40; ++k) {
            const int n = 1 + rng.range(0, 1);
            const Matrix u = randomUnitaryOf(n, rng);
            pool.emplace_back(u, n);
            if (k < 30)
                epoch[PulseCache::canonicalKey(u, n)] =
                    randomEntry(u, n, rng);
        }
        pool.emplace_back(id1, 1);
        pool.emplace_back(id2, 2);

        PulseCache a;
        for (const auto &[key, e] : epoch)
            a.insert(e.unitary, e.numQubits, e);
        PulseCache b;
        b.attachEpoch(std::make_shared<const PulseEpoch>(epoch));
        EXPECT_EQ(b.generation(), 0u);

        std::vector<std::pair<std::uint64_t, std::uint64_t>> horizons = {
            {a.generation(), b.generation()}};
        const double radii[] = {0.0, 0.5, 1.5, 2.0, 2.5, 10.0};
        for (int step = 0; step < 600; ++step) {
            const auto &[u, n] = pool[rng.below(pool.size())];
            switch (rng.below(7)) {
            case 0: {
                const CachedPulse e = randomEntry(u, n, rng);
                a.insert(u, n, e);
                b.insert(u, n, e);
                break;
            }
            case 1: {
                const PulseCache::Acquired x = a.acquire(u, n);
                const PulseCache::Acquired y = b.acquire(u, n);
                ASSERT_EQ(x.role, y.role) << seed << ':' << step;
                if (x.role == PulseCache::FlightRole::Leader) {
                    const CachedPulse e = randomEntry(u, n, rng);
                    a.completeFlight(u, n, e);
                    b.completeFlight(u, n, e);
                } else {
                    ASSERT_TRUE(sameEntry(&*x.entry, &*y.entry))
                        << seed << ':' << step;
                }
                break;
            }
            case 2:
                ASSERT_TRUE(sameEntry(a.lookup(u, n), b.lookup(u, n)))
                    << seed << ':' << step;
                break;
            case 3: {
                const double r = radii[rng.below(std::size(radii))];
                ASSERT_TRUE(sameEntry(a.nearest(u, n, r), b.nearest(u, n, r)))
                    << seed << ':' << step;
                break;
            }
            case 4:
                horizons.emplace_back(a.generation(), b.generation());
                break;
            case 5: {
                const auto &[ha, hb] = horizons[rng.below(horizons.size())];
                const double r = radii[rng.below(std::size(radii))];
                const std::optional<CachedPulse> x =
                    a.nearestBefore(u, n, r, ha);
                const std::optional<CachedPulse> y =
                    b.nearestBefore(u, n, r, hb);
                ASSERT_EQ(x.has_value(), y.has_value())
                    << seed << ':' << step;
                if (x.has_value()) {
                    ASSERT_TRUE(sameEntry(&*x, &*y)) << seed << ':' << step;
                }
                break;
            }
            default:
                ASSERT_EQ(a.size(), b.size()) << seed << ':' << step;
            }
        }
        // The equal-distance case, at and around the tie's distance.
        for (const double r : {2.0, 2.5}) {
            ASSERT_TRUE(sameEntry(a.nearest(id1, 1, r), b.nearest(id1, 1, r)));
            for (const auto &[ha, hb] : horizons) {
                const std::optional<CachedPulse> x =
                    a.nearestBefore(id1, 1, r, ha);
                const std::optional<CachedPulse> y =
                    b.nearestBefore(id1, 1, r, hb);
                ASSERT_EQ(x.has_value(), y.has_value());
                if (x.has_value()) {
                    ASSERT_TRUE(sameEntry(&*x, &*y));
                }
            }
        }
        EXPECT_EQ(a.size(), b.size());
        const std::string dir = ::testing::TempDir();
        EXPECT_EQ(savedBytes(a, dir + "/paqoc_epoch_a.db"),
                  savedBytes(b, dir + "/paqoc_epoch_b.db"));
    }
}

/**
 * Spectral backend that takes 20 ms per pulse call and records the
 * thread each call ran on.
 */
class SleepyGenerator : public SpectralPulseGenerator
{
  public:
    std::set<std::thread::id>
    threads()
    {
        MutexLock lock(mutex_);
        return threads_;
    }

  protected:
    PulseGenResult
    generateOne(const Matrix &unitary, int num_qubits, ThreadPool *pool,
                std::uint64_t nearest_horizon) override
    {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        {
            MutexLock lock(mutex_);
            threads_.insert(std::this_thread::get_id());
        }
        return SpectralPulseGenerator::generateOne(unitary, num_qubits, pool,
                                                   nearest_horizon);
    }

  private:
    Mutex mutex_;
    std::set<std::thread::id> threads_ PAQOC_GUARDED_BY(mutex_);
};

TEST(PulseGenerator, AllHitBatchRunsOnTheCaller)
{
    const Matrix h = Gate(Op::H, {0}).unitary();
    const Matrix x = Gate(Op::X, {0}).unitary();
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    ThreadPool pool(4);
    SleepyGenerator gen;
    // One hit from the own table, two from an attached epoch.
    gen.cache().insert(h, 1, CachedPulse{});
    PulseEpoch epoch;
    for (const auto &[u, n] : {std::pair{x, 1}, std::pair{cx, 2}}) {
        CachedPulse e;
        e.unitary = u;
        e.numQubits = n;
        e.latency = 7.0;
        epoch[PulseCache::canonicalKey(u, n)] = e;
    }
    gen.cache().attachEpoch(std::make_shared<const PulseEpoch>(epoch));
    const std::vector<PulseGenResult> got =
        gen.generateBatch({{h, 1}, {x, 1}, {cx, 2}, {h, 1}}, &pool);
    for (const PulseGenResult &r : got)
        EXPECT_TRUE(r.cacheHit);
    EXPECT_EQ(got[2].latency, 7.0);
    EXPECT_EQ(gen.threads(),
              std::set<std::thread::id>{std::this_thread::get_id()});
    EXPECT_EQ(gen.cacheHits(), 4u);
}

TEST(PulseGenerator, MissingBatchStillFansOut)
{
    const Matrix h = Gate(Op::H, {0}).unitary();
    ThreadPool pool(4);
    SleepyGenerator gen;
    gen.cache().insert(h, 1, CachedPulse{});
    const std::vector<PulseGenResult> got = gen.generateBatch(
        {{h, 1},
         {Gate(Op::X, {0}).unitary(), 1},
         {Gate(Op::CX, {0, 1}).unitary(), 2},
         {Gate(Op::SWAP, {0, 1}).unitary(), 2}},
        &pool);
    EXPECT_TRUE(got[0].cacheHit);
    for (std::size_t i = 1; i < got.size(); ++i)
        EXPECT_FALSE(got[i].cacheHit) << i;
    EXPECT_GE(gen.threads().size(), 2u);
}

TEST(Grape, SeedIsAFunctionOfTargetNotCallOrder)
{
    // Two optimizations of the same gate must walk the same path no
    // matter what ran before them (seeds derive from the unitary hash,
    // not from shared RNG state).
    const DeviceModel device(1);
    const Matrix h = Gate(Op::H, {0}).unitary();
    const Matrix x = Gate(Op::X, {0}).unitary();
    GrapeOptions opts;
    opts.maxIterations = 40;

    const GrapeResult direct = grapeOptimize(device, h, 20, opts);
    (void)grapeOptimize(device, x, 20, opts); // unrelated work
    const GrapeResult replay = grapeOptimize(device, h, 20, opts);
    ASSERT_EQ(replay.iterations, direct.iterations);
    ASSERT_EQ(replay.schedule.amplitudes.size(),
              direct.schedule.amplitudes.size());
    for (std::size_t t = 0; t < replay.schedule.amplitudes.size(); ++t)
        for (std::size_t k = 0;
             k < replay.schedule.amplitudes[t].size(); ++k)
            EXPECT_EQ(replay.schedule.amplitudes[t][k],
                      direct.schedule.amplitudes[t][k]);
}

TEST(Grape, PoolDoesNotChangeTheResult)
{
    const DeviceModel device(1);
    const Matrix h = Gate(Op::H, {0}).unitary();
    GrapeOptions opts;
    opts.maxIterations = 300;
    opts.restarts = 2;

    ThreadPool pool(4);
    const MinDurationResult serial =
        findMinimumDuration(device, h, opts, 12, nullptr, nullptr);
    const MinDurationResult pooled =
        findMinimumDuration(device, h, opts, 12, nullptr, &pool);

    EXPECT_EQ(pooled.trials, serial.trials);
    EXPECT_EQ(pooled.totalIterations, serial.totalIterations);
    ASSERT_EQ(pooled.schedule.numSlices(), serial.schedule.numSlices());
    EXPECT_EQ(pooled.schedule.fidelity, serial.schedule.fidelity);
    for (std::size_t t = 0;
         t < pooled.schedule.amplitudes.size(); ++t)
        for (std::size_t k = 0;
             k < pooled.schedule.amplitudes[t].size(); ++k)
            EXPECT_EQ(pooled.schedule.amplitudes[t][k],
                      serial.schedule.amplitudes[t][k]);
}

/** exp(i (c1 XX + c2 YY + c3 ZZ)). */
Matrix
canonicalGate(double c1, double c2, double c3)
{
    const Matrix x{{0.0, 1.0}, {1.0, 0.0}};
    const Matrix y{{0.0, -kI}, {kI, 0.0}};
    const Matrix z{{1.0, 0.0}, {0.0, -1.0}};
    const Matrix h = kron(x, x) * Complex(c1, 0.0)
        + kron(y, y) * Complex(c2, 0.0) + kron(z, z) * Complex(c3, 0.0);
    return expm(h * kI);
}

/** A random one-qubit unitary, within `scale` of the identity. */
Matrix
randomOneQubit(Rng &rng, double scale)
{
    const Matrix h{{rng.uniform(-1, 1),
                    Complex(rng.uniform(-1, 1), rng.uniform(-1, 1))},
                   {0.0, rng.uniform(-1, 1)}};
    Matrix herm = h + h.adjoint();
    herm *= Complex(0.5 * scale, 0.0);
    return expm(herm * Complex(0.0, -1.0));
}

Matrix
randomLocal(Rng &rng, double scale = kPi)
{
    return kron(randomOneQubit(rng, scale), randomOneQubit(rng, scale));
}

Matrix
iswapGate()
{
    return Matrix{{1.0, 0.0, 0.0, 0.0},
                  {0.0, 0.0, kI, 0.0},
                  {0.0, kI, 0.0, 0.0},
                  {0.0, 0.0, 0.0, 1.0}};
}

/** The two-qubit targets the speed-limit tests probe. */
std::vector<std::pair<std::string, Matrix>>
speedLimitTargets()
{
    Circuit hcx(2);
    hcx.h(0);
    hcx.cx(0, 1);
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    std::vector<std::pair<std::string, Matrix>> targets = {
        {"cx", cx},
        {"cz", Gate(Op::CZ, {0, 1}).unitary()},
        {"iswap", iswapGate()},
        {"swap", Gate(Op::SWAP, {0, 1}).unitary()},
        {"h.cx", circuitUnitary(hcx)},
    };
    Rng rng(93);
    for (int i = 0; i < 3; ++i)
        targets.emplace_back("cx block " + std::to_string(i),
                             randomLocal(rng) * cx * randomLocal(rng));
    return targets;
}

TEST(SpeedLimit, BoundValuesOnTheExchangeCoupler)
{
    // The (XX+YY)/2 exchange at |u| <= 0.02 has canonical rates
    // (0.01, 0.01, 0) rad/dt, so T(c) = max(c1/0.01,
    // (c1+c2-c3)/0.02, (c1+c2+c3)/0.02); fidelity 1 - eps relaxes each
    // coordinate by delta = arccos(sqrt(1 - eps)).
    const DeviceModel device(2);
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const Matrix cz = Gate(Op::CZ, {0, 1}).unitary();
    const Matrix swap = Gate(Op::SWAP, {0, 1}).unitary();
    const double delta = std::acos(std::sqrt(1.0 - 1e-3));
    EXPECT_NEAR(delta, 0.0316, 1e-4);
    EXPECT_NEAR(twoQubitDurationFloor(device, cx, 0.0), 78.54, 5e-3);
    EXPECT_NEAR(twoQubitDurationFloor(device, cz, 0.0), 78.54, 5e-3);
    EXPECT_NEAR(twoQubitDurationFloor(device, iswapGate(), 0.0), 78.54,
                5e-3);
    EXPECT_NEAR(twoQubitDurationFloor(device, swap, 0.0), 117.81, 5e-3);
    EXPECT_NEAR(twoQubitDurationFloor(device, cx, 1e-3),
                (kPi / 4 - delta) / 0.01, 1e-7);
    EXPECT_NEAR(twoQubitDurationFloor(device, cx, 1e-3), 75.38, 5e-3);
    EXPECT_NEAR(twoQubitDurationFloor(device, swap, 1e-3),
                (3 * kPi / 4 - 3 * delta) / 0.02, 1e-7);
    EXPECT_NEAR(twoQubitDurationFloor(device, swap, 1e-3), 113.07, 5e-3);
    // Locals, and devices of other widths, get no floor.
    const Matrix local = kron(Gate(Op::H, {0}).unitary(),
                              Gate(Op::T, {0}).unitary());
    EXPECT_EQ(twoQubitDurationFloor(device, local, 1e-3), 0.0);
    EXPECT_EQ(twoQubitDurationFloor(device, Matrix::identity(4), 0.0),
              0.0);
    EXPECT_EQ(twoQubitDurationFloor(DeviceModel(1),
                                    Gate(Op::X, {0}).unitary(), 1e-3),
              0.0);
    EXPECT_EQ(twoQubitDurationFloor(DeviceModel(3), Matrix::identity(8),
                                    1e-3),
              0.0);
}

TEST(SpeedLimit, FidelityBoundsEachCoordinateShift)
{
    // Aligned canonical gates Can(c), Can(c + Delta) have fidelity
    // F = prod cos^2 Delta_j + prod sin^2 Delta_j, and F <= cos^2
    // Delta_j wherever |Delta_j| <= pi/4: F >= 1 - eps then moves the
    // coordinate by at most delta.
    Rng rng(94);
    for (int i = 0; i < 300; ++i) {
        const double c1 = rng.uniform(0, kPi / 4);
        const double c2 = rng.uniform(0, c1);
        const double c3 = rng.uniform(-c2, c2);
        const double d[3] = {rng.uniform(-kPi / 4, kPi / 4),
                             rng.uniform(-kPi / 4, kPi / 4),
                             rng.uniform(-kPi / 2, kPi / 2)};
        const double f = traceFidelity(
            canonicalGate(c1, c2, c3),
            canonicalGate(c1 + d[0], c2 + d[1], c3 + d[2]));
        double cos2 = 1.0, sin2 = 1.0;
        for (double dj : d) {
            cos2 *= std::cos(dj) * std::cos(dj);
            sin2 *= std::sin(dj) * std::sin(dj);
        }
        EXPECT_NEAR(f, cos2 + sin2, 1e-12) << i;
        for (double dj : d) {
            if (std::abs(dj) <= kPi / 4) {
                EXPECT_LE(f, std::cos(dj) * std::cos(dj) + 1e-12) << i;
            }
        }
    }
}

TEST(SpeedLimit, AlignedCanonicalFormsFitBestUnderLocals)
{
    // The relaxation assumes no local unitaries on either side raise
    // the fidelity of two nearby canonical gates above their aligned
    // value: sample near-identity locals around interior points.
    Rng rng(95);
    for (int i = 0; i < 200; ++i) {
        const double c1 = rng.uniform(0.3, kPi / 4 - 0.1);
        const double c2 = rng.uniform(0.15, c1 - 0.05);
        const double c3 = rng.uniform(-c2 + 0.05, c2 - 0.05);
        const double d[3] = {rng.uniform(-0.03, 0.03),
                             rng.uniform(-0.03, 0.03),
                             rng.uniform(-0.03, 0.03)};
        const Matrix target = canonicalGate(c1, c2, c3);
        const Matrix other =
            canonicalGate(c1 + d[0], c2 + d[1], c3 + d[2]);
        const double aligned = traceFidelity(target, other);
        const double scale = i % 2 == 0 ? 0.05 : 0.5;
        const double moved = traceFidelity(
            target,
            randomLocal(rng, scale) * other * randomLocal(rng, scale));
        EXPECT_LE(moved, aligned + 1e-12) << i;
    }
}

TEST(SpeedLimit, EveryUnitaryWithinTheTargetFidelityIsSlowerThanTheFloor)
{
    // The floor's soundness as GRAPE needs it: a pulse that converges
    // realizes some V with fidelity >= 1 - eps to the target, and T(V)
    // (the unrelaxed limit) is at least the target's relaxed floor.
    const DeviceModel device(2);
    const double eps = 1e-3;
    const double delta = std::acos(std::sqrt(1.0 - eps));
    Rng rng(96);
    std::vector<std::pair<std::string, Matrix>> targets =
        speedLimitTargets();
    targets.emplace_back("sqrt-swap", canonicalGate(kPi / 8, kPi / 8,
                                                    -kPi / 8));
    for (const auto &[name, target] : targets) {
        const double floor = twoQubitDurationFloor(device, target, eps);
        int near_edge = 0;
        for (int i = 0; i < 60; ++i) {
            Matrix g(4, 4);
            for (std::size_t r = 0; r < 4; ++r)
                for (std::size_t c = 0; c < 4; ++c)
                    g(r, c) = Complex(rng.uniform(-1, 1),
                                      rng.uniform(-1, 1));
            // Traceless, with eigenvalue variance (about 1 - fidelity)
            // spread around eps.
            Matrix h = g + g.adjoint();
            const Complex mean = h.trace() / 4.0;
            for (std::size_t d = 0; d < 4; ++d)
                h(d, d) -= mean;
            const double var = (h * h).trace().real() / 4.0;
            h *= Complex(std::sqrt(rng.uniform(0.3, 1.2) * eps / var), 0.0);
            const Matrix v = target * expm(h * Complex(0.0, -1.0));
            const double f = traceFidelity(target, v);
            if (f < 1.0 - eps)
                continue;
            near_edge += f < 1.0 - eps / 2 ? 1 : 0;
            EXPECT_GE(twoQubitDurationFloor(device, v, 0.0), floor - 1e-9)
                << name << " sample " << i << " fidelity " << f;
        }
        EXPECT_GE(near_edge, 1) << name;
    }
    // The CX edge itself: Can(pi/4 - delta, 0, 0) sits exactly at the
    // fidelity target and exactly at the floor.
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const Matrix edge = canonicalGate(kPi / 4 - delta, 0.0, 0.0);
    EXPECT_NEAR(traceFidelity(canonicalGate(kPi / 4, 0.0, 0.0), edge),
                1.0 - eps, 1e-12);
    EXPECT_NEAR(twoQubitDurationFloor(device, edge, 0.0),
                twoQubitDurationFloor(device, cx, eps), 1e-7);
}

TEST(SpeedLimit, GrapeFailsAtTheLongestSkippedDuration)
{
    const DeviceModel device(2);
    const GrapeOptions opts;
    for (const auto &[name, target] : speedLimitTargets()) {
        const double floor =
            twoQubitDurationFloor(device, target, opts.targetInfidelity);
        const int longest = static_cast<int>(std::ceil(floor)) - 1;
        ASSERT_GE(longest, 75) << name;
        const GrapeResult r = grapeOptimize(device, target, longest, opts);
        EXPECT_FALSE(r.converged)
            << name << " converged at " << longest << " slices, below "
            << "the floor " << floor << " (fidelity "
            << r.schedule.fidelity << ")";
    }
}

TEST(SpeedLimit, CxClassSearchSkipsCandidatesAndKeepsItsPulse)
{
    const DeviceModel device(2);
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const SpectralLatencyModel model;
    const MinDurationResult r = findMinimumDuration(
        device, cx, GrapeOptions{}, static_cast<int>(model.latency(cx, 2)));
    EXPECT_GE(r.floorSkips, 1);
    EXPECT_GE(r.schedule.fidelity, 1.0 - 1e-3);
    EXPECT_GE(r.schedule.latency(),
              twoQubitDurationFloor(device, cx, 1e-3));
}

/** FNV-1a over a schedule's amplitude and fidelity bits. */
std::uint64_t
scheduleHash(const PulseSchedule &schedule)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](double x) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &x, sizeof bits);
        for (int b = 0; b < 8; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    };
    for (const std::vector<double> &slice : schedule.amplitudes)
        for (double a : slice)
            mix(a);
    mix(schedule.fidelity);
    return h;
}

TEST(GrapeBytes, PinnedOnBothKernelBackends)
{
    // Stored pulses and checkpoints are served under
    // PulseLibrary::grapeFingerprint. A change that moves GRAPE's
    // output bytes must bump that fingerprint in the same change (and
    // then re-pin these hashes): otherwise libraries written before it
    // serve pulses that the new code would not derive.
    const std::string bump =
        "GRAPE's bytes moved: bump PulseLibrary::grapeFingerprint "
        "(src/store/pulse_library.cpp) and re-pin this hash";
    const kernels::Backend entry = kernels::activeBackend();
    const SpectralLatencyModel model;
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    Circuit hcx(2);
    hcx.h(0);
    hcx.cx(0, 1);
    const Matrix joint = circuitUnitary(hcx);
    Circuit local3(3);
    local3.h(0);
    local3.s(1);
    local3.x(2);
    const Matrix u3 = circuitUnitary(local3);
    for (const kernels::Backend backend :
         {kernels::Backend::Scalar, kernels::Backend::Avx2}) {
        kernels::setBackend(backend);
        const std::string on =
            std::string(" on ")
            + kernels::backendName(kernels::activeBackend()) + ": "
            + bump;
        EXPECT_EQ(scheduleHash(
                      grapeOptimize(DeviceModel(2), cx, 85).schedule),
                  0x890288b9f914ade4ULL)
            << "cx at 85 slices" << on;
        const MinDurationResult two = findMinimumDuration(
            DeviceModel(2), joint, GrapeOptions{},
            static_cast<int>(model.latency(joint, 2)));
        EXPECT_EQ(two.schedule.numSlices(), 79);
        EXPECT_EQ(scheduleHash(two.schedule), 0x46af8597c638590bULL)
            << "h.cx search" << on;
        const MinDurationResult one = findMinimumDuration(
            DeviceModel(1), Gate(Op::H, {0}).unitary(), GrapeOptions{},
            16);
        EXPECT_EQ(scheduleHash(one.schedule), 0x05acd9679cd483dcULL)
            << "h search" << on;
        const MinDurationResult three = findMinimumDuration(
            DeviceModel(3), u3, GrapeOptions{},
            static_cast<int>(model.latency(u3, 3)));
        EXPECT_EQ(scheduleHash(three.schedule), 0x5fb3b7b6889a65d5ULL)
            << "3-qubit h/s/x search" << on;
    }
    kernels::setBackend(entry);
}

/** The exact bits of a double. */
std::uint64_t
bitsOf(double x)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    return bits;
}

TEST(LatencyMemo, EstimatesAreTheModelBitForBit)
{
    // Both backends answer estimateLatency from one value-keyed memo
    // over the model; first calls and repeats must be the model's own
    // bits, whichever backend and whatever was asked before.
    const SpectralLatencyModel model;
    SpectralPulseGenerator spectral;
    GrapePulseGenerator grape;
    Rng rng(0x5eed1a7e);
    std::vector<std::pair<Matrix, int>> unitaries;
    for (int i = 0; i < 30; ++i) {
        const int n = 1 + i % 3;
        unitaries.emplace_back(randomUnitaryOf(n, rng), n);
    }
    // Matrices that differ only in the sign of a zero entry: equal as
    // values, distinct as bytes, so each gets its own memo entry.
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    Matrix neg_re = cx;
    neg_re(0, 1) = Complex(-0.0, 0.0);
    Matrix neg_im = cx;
    neg_im(0, 1) = Complex(0.0, -0.0);
    unitaries.emplace_back(cx, 2);
    unitaries.emplace_back(neg_re, 2);
    unitaries.emplace_back(neg_im, 2);
    for (int pass = 0; pass < 3; ++pass) {
        for (const auto &[u, n] : unitaries) {
            const std::uint64_t want = bitsOf(model.latency(u, n));
            EXPECT_EQ(bitsOf(spectral.estimateLatency(u, n)), want)
                << "spectral, pass " << pass << ", width " << n;
            EXPECT_EQ(bitsOf(grape.estimateLatency(u, n)), want)
                << "grape, pass " << pass << ", width " << n;
        }
    }
}

TEST(LatencyMemo, SpectralBatchOnPoolMatchesSerialRun)
{
    // Duplicate and distinct unitaries on four workers: the memo is
    // shared by the workers' derivations and must not change a bit.
    Rng rng(0xba7c4);
    std::vector<PulseRequest> requests;
    for (int i = 0; i < 12; ++i) {
        const int n = 1 + i % 3;
        requests.push_back({randomUnitaryOf(n, rng), n});
    }
    for (int i = 0; i < 8; ++i)
        requests.push_back(requests[rng.below(12)]);
    for (std::size_t i = requests.size() - 1; i > 0; --i)
        std::swap(requests[i], requests[rng.below(i + 1)]);

    SpectralPulseGenerator serial;
    std::vector<PulseGenResult> expected;
    for (const PulseRequest &r : requests)
        expected.push_back(serial.generate(r.unitary, r.numQubits));

    ThreadPool pool(4);
    SpectralPulseGenerator batched;
    // Half the unitaries were estimated before the batch, as the
    // passes estimate them before the pulse pass derives them.
    for (std::size_t i = 0; i < requests.size(); i += 2)
        batched.estimateLatency(requests[i].unitary,
                                requests[i].numQubits);
    const std::vector<PulseGenResult> got =
        batched.generateBatch(requests, &pool);

    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].cacheHit, expected[i].cacheHit) << i;
        EXPECT_EQ(bitsOf(got[i].latency), bitsOf(expected[i].latency))
            << i;
        EXPECT_EQ(bitsOf(got[i].error), bitsOf(expected[i].error)) << i;
        EXPECT_EQ(bitsOf(got[i].costUnits),
                  bitsOf(expected[i].costUnits))
            << i;
    }
    EXPECT_EQ(batched.generateCalls(), serial.generateCalls());
    EXPECT_EQ(batched.cacheHits(), serial.cacheHits());
    EXPECT_EQ(bitsOf(batched.totalCostUnits()),
              bitsOf(serial.totalCostUnits()));
}

} // namespace
} // namespace paqoc
