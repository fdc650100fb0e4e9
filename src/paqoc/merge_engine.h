#ifndef PAQOC_PAQOC_MERGE_ENGINE_H_
#define PAQOC_PAQOC_MERGE_ENGINE_H_

#include "circuit/circuit.h"
#include "qoc/pulse_generator.h"

namespace paqoc {

/** Knobs of the criticality-aware customized-gates generator. */
struct MergeOptions
{
    /** Maximum qubits in a customized gate (the paper's maxN). */
    int maxN = 3;
    /** Customized gates generated per iteration (the paper's top-k). */
    int topK = 1;
    /** Enable Observation-1 nested-support preprocessing. */
    bool preprocess = true;
    /** Enable Case-III pruning (skip fully non-critical candidates). */
    bool criticalityPrune = true;
    /**
     * Schedule and merge against the commutation-relaxed DAG
     * (commutativity-aware instruction aggregation, the future-work
     * extension of Section VII / Shi et al. [43]).
     */
    bool commutativityAware = false;
    /**
     * Fallback attempts per iteration when the batched top-k commit
     * fails to improve the true makespan.
     */
    int fallbackAttempts = 25;
};

/** Statistics of one merge-engine run. */
struct MergeStats
{
    int iterations = 0;
    int mergesApplied = 0;
    int candidatesScored = 0;
    int candidatesPruned = 0;
    /** Makespan of the input circuit (before preprocessing). */
    double initialMakespan = 0.0;
    double finalMakespan = 0.0;
};

/** Output of the customized-gates generator. */
struct MergeResult
{
    Circuit circuit{1};
    MergeStats stats;
};

/**
 * Algorithm 1 of the paper: iteratively merge dependence-adjacent gate
 * pairs into customized gates, ranked by the criticality-aware
 * analytical model (Cases I/II of Section V-A, Case III pruned), with
 * a strict monotone-makespan guarantee -- a merge only commits when
 * the rescheduled circuit is strictly faster under the generator's
 * latency estimates.
 */
MergeResult mergeCustomizedGates(const Circuit &circuit,
                                 PulseGenerator &generator,
                                 const MergeOptions &options = {});

} // namespace paqoc

#endif // PAQOC_PAQOC_MERGE_ENGINE_H_
