/**
 * @file
 * Crash-safe GRAPE checkpointing (DESIGN.md §10): interrupt a run,
 * resume it, and demand the final pulse is byte-identical to an
 * uninterrupted one; feed the recovery path truncated and bit-flipped
 * checkpoint tails (skip-and-warn, never resume from corrupt bytes);
 * rotate foreign and failpoint-corrupted files aside. Every suite name
 * starts with "Checkpoint" so the CI chaos lane selects the lot with
 * `ctest -R '^Checkpoint'`.
 */

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/gate.h"
#include "common/failpoint.h"
#include "common/quota.h"
#include "linalg/unitary_util.h"
#include "qoc/device.h"
#include "qoc/grape.h"
#include "qoc/pulse_cache.h"
#include "qoc/pulse_generator.h"
#include "store/checkpoint_store.h"

namespace paqoc {
namespace {

namespace fp = failpoint;

struct FailpointGuard
{
    FailpointGuard() { fp::disarmAll(); }
    ~FailpointGuard() { fp::disarmAll(); }
};

std::string
scratchDir(const std::string &name)
{
    const std::string dir = "/tmp/paqoc_test_checkpoint_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Options that run the full iteration budget (no early convergence). */
GrapeOptions
stubbornGrape()
{
    GrapeOptions o;
    o.maxIterations = 30;
    o.restarts = 1;
    o.durationProbes = 1;
    o.targetInfidelity = 1e-12;
    return o;
}

/** Run one fixed-duration optimization with an optional runtime. */
GrapeResult
runTrial(const GrapeRuntime &runtime, const GrapeOptions &opts)
{
    const DeviceModel device(1);
    const Matrix target = Gate(Op::H, {0}).unitary();
    return grapeOptimize(device, target, 8, opts, nullptr, runtime);
}

/**
 * Interrupt a checkpointed run by tripping a hard iteration quota
 * partway through, leaving snapshots behind. Returns the store's
 * checkpoint file path for the key.
 */
std::string
interruptRun(CheckpointStore &store, const std::string &key,
             const GrapeOptions &opts, long budget)
{
    auto ckpt = store.openCheckpoint(key);
    EXPECT_NE(ckpt, nullptr);
    GrapeRuntime runtime;
    runtime.checkpoint = ckpt.get();
    runtime.checkpointEvery = 4;
    QuotaLimits limits;
    limits.maxIters = budget;
    QuotaToken quota(limits);
    runtime.quota = &quota;
    EXPECT_THROW(runTrial(runtime, opts), QuotaExceededError);
    return store.checkpointPath(key);
}

/** Resume the interrupted run to completion and return its result. */
GrapeResult
resumeRun(CheckpointStore &store, const std::string &key,
          const GrapeOptions &opts)
{
    auto ckpt = store.openCheckpoint(key);
    EXPECT_NE(ckpt, nullptr);
    GrapeRuntime runtime;
    runtime.checkpoint = ckpt.get();
    runtime.checkpointEvery = 4;
    return runTrial(runtime, opts);
}

// ---------------------------------------------------------------------
// Store mechanics: locking, replay maps, discard.
// ---------------------------------------------------------------------

TEST(CheckpointStore, SavedTrialsReplayAcrossOpens)
{
    FailpointGuard guard;
    CheckpointStore store(scratchDir("replay"), "fp-v1");
    GrapeTrialKey key{0xabcdefu, 8, 0};
    {
        auto ckpt = store.openCheckpoint("some-key");
        ASSERT_NE(ckpt, nullptr);
        EXPECT_FALSE(ckpt->completedTrial(key).has_value());
        GrapeResult done;
        done.converged = true;
        done.iterations = 17;
        done.schedule.fidelity = 0.25;
        done.schedule.amplitudes = {{0.5, -0.5}, {0.125, 0.0}};
        ckpt->saveCompletedTrial(key, done);

        GrapeTrialState state;
        state.key = GrapeTrialKey{0xabcdefu, 8, 1};
        state.iteration = 4;
        state.bestFidelity = 0.125;
        state.u = state.m = state.v = state.bestU = {{0.0, 1.0}};
        ckpt->saveTrialState(state);
    }
    auto again = store.openCheckpoint("some-key");
    ASSERT_NE(again, nullptr);
    const auto done = again->completedTrial(key);
    ASSERT_TRUE(done.has_value());
    EXPECT_TRUE(done->converged);
    EXPECT_EQ(done->iterations, 17);
    EXPECT_EQ(done->schedule.fidelity, 0.25);
    ASSERT_EQ(done->schedule.amplitudes.size(), 2u);
    EXPECT_EQ(done->schedule.amplitudes[0][1], -0.5);
    const auto state =
        again->trialState(GrapeTrialKey{0xabcdefu, 8, 1});
    ASSERT_TRUE(state.has_value());
    EXPECT_EQ(state->iteration, 4);
    EXPECT_EQ(state->bestFidelity, 0.125);

    const CheckpointStore::Stats st = store.stats();
    EXPECT_EQ(st.opened, 2u);
    EXPECT_EQ(st.recordsWritten, 2u);
    EXPECT_EQ(st.recordsRecovered, 2u);
    EXPECT_EQ(st.corruptRecords, 0u);
}

TEST(CheckpointStore, ConcurrentHolderMakesOpenReturnNull)
{
    FailpointGuard guard;
    CheckpointStore store(scratchDir("locked"), "fp-v1");
    auto first = store.openCheckpoint("k");
    ASSERT_NE(first, nullptr);
    // The flock is held per open file description, so a second holder
    // -- same process or not -- must be refused, not blocked.
    EXPECT_EQ(store.openCheckpoint("k"), nullptr);
    EXPECT_EQ(store.stats().lockBusy, 1u);
    first.reset();
    EXPECT_NE(store.openCheckpoint("k"), nullptr);
}

TEST(CheckpointStore, DiscardRemovesTheFile)
{
    FailpointGuard guard;
    CheckpointStore store(scratchDir("discard"), "fp-v1");
    auto ckpt = store.openCheckpoint("k");
    ASSERT_NE(ckpt, nullptr);
    const std::string path = store.checkpointPath("k");
    EXPECT_TRUE(std::filesystem::exists(path));
    ckpt->discard();
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_EQ(store.stats().discarded, 1u);
}

// ---------------------------------------------------------------------
// Resume: interrupted optimizations finish byte-identical.
// ---------------------------------------------------------------------

TEST(CheckpointResume, InterruptedTrialResumesByteIdentical)
{
    FailpointGuard guard;
    const GrapeOptions opts = stubbornGrape();
    const GrapeResult reference = runTrial(GrapeRuntime{}, opts);

    CheckpointStore store(scratchDir("resume"), "fp-v1");
    const std::string path = interruptRun(store, "k", opts, 10);
    EXPECT_TRUE(std::filesystem::exists(path));

    const GrapeResult resumed = resumeRun(store, "k", opts);
    EXPECT_EQ(resumed.converged, reference.converged);
    EXPECT_EQ(resumed.iterations, reference.iterations);
    EXPECT_EQ(resumed.schedule.fidelity, reference.schedule.fidelity);
    EXPECT_EQ(resumed.schedule.amplitudes,
              reference.schedule.amplitudes);

    const CheckpointStore::Stats st = store.stats();
    EXPECT_GE(st.resumedTrials, 1u);
    EXPECT_GE(st.recordsRecovered, 1u);
}

TEST(CheckpointResume, HardTripSnapshotsTheTripIteration)
{
    // Every unwind snapshots first, a hard quota trip included: the
    // budget of 10 trips at iteration 11, between the periodic
    // snapshots at 8 and 12, and the resume starts at 12.
    FailpointGuard guard;
    const GrapeOptions opts = stubbornGrape();
    const GrapeResult reference = runTrial(GrapeRuntime{}, opts);

    CheckpointStore store(scratchDir("trip_iteration"), "fp-v1");
    interruptRun(store, "k", opts, 10);
    {
        auto ckpt = store.openCheckpoint("k");
        ASSERT_NE(ckpt, nullptr);
        const GrapeTrialKey key{
            matrixHash(Gate(Op::H, {0}).unitary()), 8, 0};
        const std::optional<GrapeTrialState> state =
            ckpt->trialState(key);
        ASSERT_TRUE(state.has_value());
        EXPECT_EQ(state->iteration, 11);
    }

    const GrapeResult resumed = resumeRun(store, "k", opts);
    EXPECT_EQ(resumed.iterations, reference.iterations);
    EXPECT_EQ(resumed.schedule.fidelity, reference.schedule.fidelity);
    EXPECT_EQ(resumed.schedule.amplitudes,
              reference.schedule.amplitudes);
}

TEST(CheckpointResume, CompletedRestartsReplayVerbatim)
{
    FailpointGuard guard;
    GrapeOptions opts = stubbornGrape();
    opts.restarts = 2;
    const GrapeResult reference = runTrial(GrapeRuntime{}, opts);

    // Budget covers restart 0 in full (30 iterations) and interrupts
    // restart 1 partway: on resume the first restart must replay from
    // its completed-trial record, not recompute.
    CheckpointStore store(scratchDir("restarts"), "fp-v1");
    interruptRun(store, "k", opts, 40);
    const GrapeResult resumed = resumeRun(store, "k", opts);
    EXPECT_EQ(resumed.schedule.amplitudes,
              reference.schedule.amplitudes);
    EXPECT_EQ(resumed.schedule.fidelity, reference.schedule.fidelity);
    EXPECT_EQ(resumed.iterations, reference.iterations);
    EXPECT_GE(store.stats().completedTrialHits, 1u);
}

// ---------------------------------------------------------------------
// Recovery: damaged checkpoints skip-and-warn, never poison a resume.
// ---------------------------------------------------------------------

TEST(CheckpointRecovery, TruncatedTailIsSkippedAndRunStillMatches)
{
    FailpointGuard guard;
    const GrapeOptions opts = stubbornGrape();
    const GrapeResult reference = runTrial(GrapeRuntime{}, opts);

    CheckpointStore store(scratchDir("trunc"), "fp-v1");
    const std::string path = interruptRun(store, "k", opts, 10);
    const auto size = std::filesystem::file_size(path);
    ASSERT_GT(size, 3u);
    std::filesystem::resize_file(path, size - 3);

    const GrapeResult resumed = resumeRun(store, "k", opts);
    EXPECT_EQ(resumed.schedule.amplitudes,
              reference.schedule.amplitudes);
    EXPECT_EQ(resumed.schedule.fidelity, reference.schedule.fidelity);

    const CheckpointStore::Stats st = store.stats();
    EXPECT_GE(st.corruptRecords, 1u);
    EXPECT_FALSE(st.warnings.empty());
}

TEST(CheckpointRecovery, BitFlippedTailIsSkippedAndRunStillMatches)
{
    FailpointGuard guard;
    const GrapeOptions opts = stubbornGrape();
    const GrapeResult reference = runTrial(GrapeRuntime{}, opts);

    CheckpointStore store(scratchDir("bitflip"), "fp-v1");
    const std::string path = interruptRun(store, "k", opts, 10);
    const auto size = std::filesystem::file_size(path);
    ASSERT_GT(size, 16u);
    {
        // Flip one byte inside the last record's payload: its CRC no
        // longer matches, so recovery must drop it (and everything
        // after it) rather than resume from silently corrupt state.
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(static_cast<std::streamoff>(size) - 9);
        char byte = 0;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x40);
        f.seekp(static_cast<std::streamoff>(size) - 9);
        f.write(&byte, 1);
    }

    const GrapeResult resumed = resumeRun(store, "k", opts);
    EXPECT_EQ(resumed.schedule.amplitudes,
              reference.schedule.amplitudes);
    EXPECT_EQ(resumed.schedule.fidelity, reference.schedule.fidelity);
    EXPECT_GE(store.stats().corruptRecords, 1u);
}

TEST(CheckpointRecovery, CorruptFailpointRotatesFileAside)
{
    FailpointGuard guard;
    const GrapeOptions opts = stubbornGrape();
    const GrapeResult reference = runTrial(GrapeRuntime{}, opts);

    CheckpointStore store(scratchDir("corrupt_fp"), "fp-v1");
    const std::string path = interruptRun(store, "k", opts, 10);
    fp::arm("checkpoint.corrupt", "return-error:1");
    // The rotated file must not be resumed from: the run starts fresh
    // and still lands on the reference bytes (trials are pure).
    const GrapeResult resumed = resumeRun(store, "k", opts);
    EXPECT_EQ(resumed.schedule.amplitudes,
              reference.schedule.amplitudes);
    EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
    const CheckpointStore::Stats st = store.stats();
    EXPECT_EQ(st.rotatedFiles, 1u);
    EXPECT_EQ(st.resumedTrials, 0u);
}

TEST(CheckpointRecovery, ForeignFingerprintRotatesStale)
{
    FailpointGuard guard;
    const GrapeOptions opts = stubbornGrape();
    const std::string dir = scratchDir("stale");
    std::string path;
    {
        CheckpointStore store(dir, "fp-v1");
        path = interruptRun(store, "k", opts, 10);
    }
    // Same key, different GRAPE configuration: resuming would splice
    // state optimized under other knobs into this run. The file is
    // stale by definition and must be set aside.
    CheckpointStore other(dir, "fp-v2");
    auto ckpt = other.openCheckpoint("k");
    ASSERT_NE(ckpt, nullptr);
    EXPECT_TRUE(std::filesystem::exists(path + ".stale"));
    EXPECT_EQ(other.stats().rotatedFiles, 1u);
    EXPECT_EQ(other.stats().resumedTrials, 0u);
}

// ---------------------------------------------------------------------
// Generator integration: checkpoints ride the cache key, discard on
// publish, and survive an interrupted derivation end to end.
// ---------------------------------------------------------------------

TEST(CheckpointGenerator, DiscardsCheckpointOncePulsePublishes)
{
    FailpointGuard guard;
    GrapeOptions opts;
    opts.maxIterations = 40;
    opts.restarts = 1;
    opts.durationProbes = 1;
    CheckpointStore store(scratchDir("gen_discard"), "fp-v1");
    GrapePulseGenerator gen(opts);
    gen.setCheckpoints(&store, 4);
    const Matrix ux = Gate(Op::X, {0}).unitary();
    const PulseGenResult r = gen.generate(ux, 1);
    ASSERT_TRUE(r.schedule.has_value());
    const std::string path =
        store.checkpointPath(PulseCache::canonicalKey(ux, 1));
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_GE(store.stats().discarded, 1u);
}

TEST(CheckpointGenerator, InterruptedDerivationResumesByteIdentical)
{
    FailpointGuard guard;
    GrapeOptions opts;
    opts.maxIterations = 40;
    opts.restarts = 1;
    opts.durationProbes = 1;
    const Matrix ux = Gate(Op::X, {0}).unitary();

    GrapePulseGenerator reference(opts);
    const PulseGenResult ref = reference.generate(ux, 1);
    ASSERT_TRUE(ref.schedule.has_value());

    CheckpointStore store(scratchDir("gen_resume"), "fp-v1");
    {
        GrapePulseGenerator interrupted(opts);
        interrupted.setCheckpoints(&store, 3);
        QuotaLimits limits;
        limits.maxIters = 5;
        QuotaToken quota(limits);
        interrupted.setQuota(&quota);
        EXPECT_THROW(interrupted.generate(ux, 1),
                     QuotaExceededError);
        EXPECT_TRUE(std::filesystem::exists(
            store.checkpointPath(PulseCache::canonicalKey(ux, 1))));
    }

    GrapePulseGenerator resumed_gen(opts);
    resumed_gen.setCheckpoints(&store, 3);
    const PulseGenResult resumed = resumed_gen.generate(ux, 1);
    ASSERT_TRUE(resumed.schedule.has_value());
    EXPECT_EQ(resumed.schedule->amplitudes, ref.schedule->amplitudes);
    EXPECT_EQ(resumed.schedule->fidelity, ref.schedule->fidelity);
    EXPECT_EQ(resumed.latency, ref.latency);
    EXPECT_EQ(resumed.degraded, ref.degraded);
    // Something actually replayed from disk.
    const CheckpointStore::Stats st = store.stats();
    EXPECT_GE(st.completedTrialHits + st.resumedTrials, 1u);
    EXPECT_FALSE(std::filesystem::exists(
        store.checkpointPath(PulseCache::canonicalKey(ux, 1))));
}

TEST(CheckpointGenerator, FailedAppendDegradesButDerivationFinishes)
{
    FailpointGuard guard;
    GrapeOptions opts;
    opts.maxIterations = 40;
    opts.restarts = 1;
    opts.durationProbes = 1;
    const Matrix ux = Gate(Op::X, {0}).unitary();

    GrapePulseGenerator reference(opts);
    const PulseGenResult ref = reference.generate(ux, 1);

    // Checkpoint persistence is best effort: a full disk degrades the
    // checkpoint to read-only, never the derivation.
    CheckpointStore store(scratchDir("gen_enospc"), "fp-v1");
    GrapePulseGenerator gen(opts);
    gen.setCheckpoints(&store, 2);
    fp::arm("checkpoint.append", "enospc:1");
    const PulseGenResult r = gen.generate(ux, 1);
    fp::disarmAll();
    ASSERT_TRUE(r.schedule.has_value());
    EXPECT_EQ(r.schedule->amplitudes, ref.schedule->amplitudes);
    const CheckpointStore::Stats st = store.stats();
    EXPECT_GE(st.failedWrites, 1u);
    EXPECT_FALSE(st.warnings.empty());
}

} // namespace
} // namespace paqoc
