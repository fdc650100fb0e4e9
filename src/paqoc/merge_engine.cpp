#include "paqoc/merge_engine.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "circuit/commute.h"
#include "circuit/contract.h"
#include "circuit/dag.h"
#include "circuit/schedule.h"
#include "common/error.h"
#include "paqoc/latency_oracle.h"
#include "paqoc/preprocess.h"

namespace paqoc {

namespace {

/** A scored merge candidate: the DAG edge (u, v). */
struct Candidate
{
    int u = 0;
    int v = 0;
    double score = 0.0;
};

/**
 * Stable identity string of a gate for cross-iteration memoization:
 * custom gates key on their shared unitary's address (stable across
 * circuit copies), primitives on (op, angle).
 */
std::string
gateKey(const Gate &g)
{
    if (g.isCustom()) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "c%p", // NOLINT
                      static_cast<const void *>(&g.customUnitary()));
        return buf;
    }
    char buf[48];
    std::snprintf(buf, sizeof buf, "p%d:%.12g",
                  static_cast<int>(g.op()), g.angle());
    return buf;
}

/** Qubit support union size of two gates. */
int
unionSupport(const Gate &a, const Gate &b)
{
    int n = a.arity();
    for (int q : b.qubits())
        if (!a.actsOn(q))
            ++n;
    return n;
}

/** Merged custom gate from member gates, capped by their sum. */
Gate
mergePair(const Circuit &circuit, const std::vector<int> &members,
          const LatencyFn &latency)
{
    std::vector<Gate> gates;
    int absorbed = 0;
    double cap = 0.0;
    for (int m : members) {
        gates.push_back(circuit.gate(static_cast<std::size_t>(m)));
        absorbed += gates.back().absorbedCount();
        cap += latency(gates.back());
    }
    const SubcircuitUnitary sub = subcircuitUnitary(gates);
    return Gate::custom("merged", sub.qubits, sub.matrix, absorbed,
                        cap);
}

/**
 * Local makespan-delta estimate for merging DAG edge (u, v), following
 * the paper's Case I/II analysis: compare the longest path through the
 * pair before and after the merge, with the merged latency taken from
 * Observation 2's width average when the merge widens the gate and
 * from the analytical model otherwise.
 */
double
scoreCandidate(const Circuit &circuit, const Dag &dag, const Schedule &s,
               int u, int v, PulseGenerator &generator,
               std::map<std::string, double> &pair_memo)
{
    const Gate &gu = circuit.gate(static_cast<std::size_t>(u));
    const Gate &gv = circuit.gate(static_cast<std::size_t>(v));
    const auto su = static_cast<std::size_t>(u);
    const auto sv = static_cast<std::size_t>(v);

    const int width = unionSupport(gu, gv);
    double merged_latency;
    if (width > std::max(gu.arity(), gv.arity())) {
        // Widening merge: approximate with the width-average latency
        // (Observation 2) -- no pulse generation needed.
        merged_latency = generator.averageLatency(width);
    } else {
        // Same-width merge: the merged unitary is cheap to form; ask
        // the analytical model (Observation 1 guarantees <= sum).
        // Memoized across iterations -- most candidate pairs persist.
        const std::string memo_key = gateKey(gu) + "|" + gateKey(gv);
        const auto it = pair_memo.find(memo_key);
        if (it != pair_memo.end()) {
            merged_latency = it->second;
        } else {
            const SubcircuitUnitary sub = subcircuitUnitary({gu, gv});
            merged_latency =
                generator.estimateLatency(sub.matrix, width);
            pair_memo.emplace(memo_key, merged_latency);
        }
    }

    // Stitched-pulse fallback caps the merged estimate (Observation 1).
    merged_latency =
        std::min(merged_latency, s.latency[su] + s.latency[sv]);

    // Longest path through the pair before the merge.
    const double old_through =
        std::max(s.start[su] + s.latency[su] + s.cpAfter[su],
                 s.start[sv] + s.latency[sv] + s.cpAfter[sv]);

    // After the merge the joint gate starts once all external preds of
    // both gates finish...
    double new_start = s.start[su];
    for (int p : dag.preds[sv]) {
        if (p != u)
            new_start = std::max(new_start,
                                 s.finish[static_cast<std::size_t>(p)]);
    }
    // ...and is followed by the worst external successor path.
    double new_after = s.cpAfter[sv];
    for (int w : dag.succs[su]) {
        if (w == v)
            continue;
        const auto sw = static_cast<std::size_t>(w);
        new_after = std::max(new_after, s.latency[sw] + s.cpAfter[sw]);
    }
    const double new_through = new_start + merged_latency + new_after;
    return old_through - new_through;
}

} // namespace

MergeResult
mergeCustomizedGates(const Circuit &circuit, PulseGenerator &generator,
                     const MergeOptions &options)
{
    PAQOC_FATAL_IF(options.maxN < 1, "maxN must be positive");
    PAQOC_FATAL_IF(options.topK < 1, "topK must be positive");

    LatencyOracle latency(generator);
    const LatencyFn lat_fn = [&](const Gate &g) { return latency(g); };
    std::map<std::string, double> pair_memo;
    const double eps = 1e-9;

    MergeResult result;
    result.stats.initialMakespan =
        computeSchedule(circuit, lat_fn).makespan;
    // Preprocessing merges nested-support runs, which Observation 1
    // bounds group by group; but a group also serializes members that
    // ran in parallel, so the makespan can grow. Where the estimates
    // are the pulses' own latencies, keep it only if it is no longer.
    Circuit cur = circuit;
    if (options.preprocess) {
        Circuit pre =
            preprocessMergeNestedSupport(circuit, options.maxN, &lat_fn);
        if (!generator.estimatesArePulseLatencies()
            || computeSchedule(pre, lat_fn).makespan
                <= result.stats.initialMakespan + eps)
            cur = std::move(pre);
    }

    while (true) {
        ++result.stats.iterations;
        // Scheduling stays on the plain DAG (commuting gates still
        // contend for their qubits); the relaxed DAG only widens the
        // merge search: its contraction validity allows sliding
        // commuting gates out of the way, and same-run commuting
        // pairs become candidates too.
        const Dag dag = buildDag(cur);
        const Schedule sched = computeSchedule(cur, dag, lat_fn);
        const Dag relaxed = options.commutativityAware
            ? buildCommutationDag(cur)
            : Dag{};
        const Dag &contract_dag =
            options.commutativityAware ? relaxed : dag;
        DagReach reach(contract_dag);

        // Gather and rank candidates: two-gate grouping over plain DAG
        // edges, plus (when commutativity-aware) same-run commuting
        // pairs that can be slid adjacent.
        std::vector<std::pair<int, int>> pair_pool;
        for (std::size_t u = 0; u < cur.size(); ++u)
            for (int v : dag.succs[u])
                pair_pool.emplace_back(static_cast<int>(u), v);
        if (options.commutativityAware) {
            for (const auto &p : commutingAdjacentPairs(cur))
                pair_pool.push_back(p);
        }

        std::vector<Candidate> candidates;
        for (const auto &[ui, v] : pair_pool) {
            const auto u = static_cast<std::size_t>(ui);
            const Gate &gu = cur.gate(u);
            const Gate &gv = cur.gate(static_cast<std::size_t>(v));
            if (unionSupport(gu, gv) > options.maxN)
                continue;
            if (options.criticalityPrune && !sched.onCriticalPath[u]
                && !sched.onCriticalPath[static_cast<std::size_t>(v)]) {
                ++result.stats.candidatesPruned;
                continue; // Case III
            }
            // A pair contraction is invalid when a dependence path
            // leaves u and re-enters at v around the pair.
            if (reach.reachesIndirectly(ui, v))
                continue;
            Candidate c;
            c.u = ui;
            c.v = v;
            c.score = scoreCandidate(cur, dag, sched, ui, v, generator,
                                     pair_memo);
            ++result.stats.candidatesScored;
            if (c.score > eps)
                candidates.push_back(c);
        }
        if (candidates.empty())
            break;
        std::sort(candidates.begin(), candidates.end(),
                  [](const Candidate &a, const Candidate &b) {
                      if (a.score != b.score)
                          return a.score > b.score;
                      return std::make_pair(a.u, a.v)
                          < std::make_pair(b.u, b.v);
                  });

        // Apply up to top-k disjoint candidates in one contraction,
        // then verify the true makespan improved.
        struct Batch
        {
            Circuit circuit{1};
            int applied = 0;
        };
        auto applyBatch = [&](int batch) -> std::optional<Batch> {
            GroupContraction gc(cur, contract_dag);
            std::set<int> used;
            int applied = 0;
            for (const Candidate &c : candidates) {
                if (applied >= batch)
                    break;
                if (used.count(c.u) || used.count(c.v))
                    continue; // no longer valid this iteration
                if (!gc.tryMerge({c.u, c.v}))
                    continue;
                used.insert(c.u);
                used.insert(c.v);
                ++applied;
            }
            if (applied == 0)
                return std::nullopt;
            Batch b;
            b.applied = applied;
            b.circuit = gc.emit([&](const std::vector<int> &m) {
                return mergePair(cur, m, lat_fn);
            });
            const Schedule ts = computeSchedule(b.circuit, lat_fn);
            // Non-increase acceptance: each committed merge shrinks
            // the gate count and (by positive score) some through-path
            // even when parallel branches pin the global makespan --
            // symmetric circuits need many merges before the makespan
            // itself moves. Still monotone, still terminating.
            if (ts.makespan <= sched.makespan + eps)
                return b;
            return std::nullopt;
        };

        std::optional<Batch> next = applyBatch(options.topK);
        if (!next && options.topK > 1)
            next = applyBatch(1);
        if (!next) {
            // The best candidate's local estimate was optimistic; walk
            // down the list trying single merges before giving up.
            int attempts = 0;
            for (std::size_t skip = 1;
                 skip < candidates.size()
                 && attempts < options.fallbackAttempts;
                 ++skip, ++attempts) {
                GroupContraction gc(cur, contract_dag);
                const Candidate &c = candidates[skip];
                if (!gc.tryMerge({c.u, c.v}))
                    continue;
                Circuit trial = gc.emit(
                    [&](const std::vector<int> &m) {
                        return mergePair(cur, m, lat_fn);
                    });
                const Schedule ts = computeSchedule(trial, lat_fn);
                if (ts.makespan <= sched.makespan + eps) {
                    Batch b;
                    b.applied = 1;
                    b.circuit = std::move(trial);
                    next = std::move(b);
                    break;
                }
            }
        }
        if (!next)
            break;
        cur = std::move(next->circuit);
        result.stats.mergesApplied += next->applied;
    }

    const Schedule final_sched = computeSchedule(cur, lat_fn);
    result.stats.finalMakespan = final_sched.makespan;
    result.circuit = std::move(cur);
    return result;
}

} // namespace paqoc
