#include "mining/miner.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <span>
#include <string_view>
#include <tuple>

#include "circuit/contract.h"
#include "common/error.h"
#include "common/stamp_set.h"

namespace paqoc {

namespace {

/** Sorted-set membership test. */
bool
contains(const std::vector<int> &sorted, int v)
{
    return std::binary_search(sorted.begin(), sorted.end(), v);
}

/** True if a gate set acts on at most `max_qubits` qubits. */
bool
fitsQubits(const Circuit &circuit, const std::vector<int> &nodes,
           int max_qubits, StampSet &qubits)
{
    qubits.reset(static_cast<std::size_t>(circuit.numQubits()));
    int count = 0;
    for (int n : nodes) {
        for (int q : circuit.gate(static_cast<std::size_t>(n)).qubits()) {
            if (qubits.insert(q) && ++count > max_qubits)
                return false;
        }
    }
    return true;
}

/**
 * Convexity: replacing the set by one node must not create a cycle,
 * i.e. no dependence path leaves the set and re-enters it.
 */
bool
isConvex(const Dag &dag, const std::vector<int> &nodes, StampSet &seen,
         std::vector<int> &stack)
{
    const int hi = nodes.back();
    seen.reset(dag.size());
    stack.clear();
    for (int n : nodes) {
        for (int s : dag.succs[static_cast<std::size_t>(n)]) {
            if (!contains(nodes, s) && s < hi && seen.insert(s))
                stack.push_back(s);
        }
    }
    while (!stack.empty()) {
        const int u = stack.back();
        stack.pop_back();
        for (int s : dag.succs[static_cast<std::size_t>(u)]) {
            if (contains(nodes, s))
                return false;
            if (s < hi && seen.insert(s))
                stack.push_back(s);
        }
    }
    return true;
}

/**
 * Canonical serialization of the induced labeled subgraph on a node
 * set: minimize over node orderings, permuting only within blocks of
 * equal (label, in-degree, out-degree) invariants to keep the search
 * small.
 *
 * A code is the node labels in the chosen order, each followed by
 * '|', then the edge strings "from>to(label)" (positions under that
 * order) sorted as strings, each followed by ';'. Every ordering
 * enumerated keeps each block's label at its positions, so the label
 * part is the same for all of them and only the edge part is compared.
 * The buffers persist across calls of one mining run.
 */
class CanonicalCoder
{
  public:
    std::string
    code(const LabeledGraph &graph, const std::vector<int> &nodes)
    {
        const int k = static_cast<int>(nodes.size());
        const auto sk = static_cast<std::size_t>(k);
        edges_.clear();
        indeg_.assign(sk, 0);
        outdeg_.assign(sk, 0);
        for (int i = 0; i < k; ++i) {
            const auto ni = static_cast<std::size_t>(
                nodes[static_cast<std::size_t>(i)]);
            for (int ei : graph.out[ni]) {
                const auto &e = graph.edges[static_cast<std::size_t>(ei)];
                const auto it =
                    std::lower_bound(nodes.begin(), nodes.end(), e.to);
                if (it == nodes.end() || *it != e.to)
                    continue;
                const auto j = static_cast<int>(it - nodes.begin());
                edges_.push_back({i, j, &e.label});
                ++outdeg_[static_cast<std::size_t>(i)];
                ++indeg_[static_cast<std::size_t>(j)];
            }
        }

        // Invariant-sorted base ordering.
        order_.resize(sk);
        std::iota(order_.begin(), order_.end(), 0);
        const auto invariant = [&](int i) {
            return std::tuple<const std::string &, int, int>(
                graph.nodeLabels[static_cast<std::size_t>(
                    nodes[static_cast<std::size_t>(i)])],
                indeg_[static_cast<std::size_t>(i)],
                outdeg_[static_cast<std::size_t>(i)]);
        };
        std::sort(order_.begin(), order_.end(), [&](int a, int b) {
            return invariant(a) < invariant(b);
        });

        // Identify blocks of equal invariants.
        blocks_.clear();
        for (int i = 0; i < k;) {
            int j = i + 1;
            while (j < k
                   && invariant(order_[static_cast<std::size_t>(i)])
                       == invariant(order_[static_cast<std::size_t>(j)]))
                ++j;
            blocks_.emplace_back(i, j);
            i = j;
        }

        edgePart(order_, best_);
        // With every block a single node the base ordering is the only
        // one, and it is already serialized.
        if (blocks_.size() < sk) {
            // Enumerate permutations within blocks (capped for
            // pathological label multiplicity; the cap only risks
            // splitting one pattern into a few equivalent codes, never
            // merging distinct ones).
            budget_ = 4000;
            perm_ = order_;
            enumerate(0);
        }

        std::string out;
        for (int p : order_) {
            out += graph.nodeLabels[static_cast<std::size_t>(
                nodes[static_cast<std::size_t>(p)])];
            out += '|';
        }
        out += best_;
        return out;
    }

  private:
    struct LocalEdge
    {
        int from, to;
        const std::string *label;
    };

    /** Nested block permutations, block 0 outermost. */
    void
    enumerate(std::size_t b)
    {
        if (budget_ <= 0)
            return;
        if (b == blocks_.size()) {
            --budget_;
            edgePart(perm_, cand_);
            if (cand_ < best_)
                std::swap(best_, cand_);
            return;
        }
        const auto [lo, hi] = blocks_[b];
        std::sort(perm_.begin() + lo, perm_.begin() + hi);
        do {
            enumerate(b + 1);
        } while (budget_ > 0
                 && std::next_permutation(perm_.begin() + lo,
                                          perm_.begin() + hi));
    }

    /** The sorted edge strings of one ordering, each ending in ';'. */
    void
    edgePart(const std::vector<int> &perm, std::string &out)
    {
        // pos[i] = position of local node i under this ordering.
        pos_.resize(perm.size());
        for (std::size_t p = 0; p < perm.size(); ++p)
            pos_[static_cast<std::size_t>(perm[p])] = static_cast<int>(p);
        text_.clear();
        spans_.clear();
        for (const LocalEdge &e : edges_) {
            const std::size_t begin = text_.size();
            appendInt(pos_[static_cast<std::size_t>(e.from)]);
            text_ += '>';
            appendInt(pos_[static_cast<std::size_t>(e.to)]);
            text_ += '(';
            text_ += *e.label;
            text_ += ')';
            spans_.emplace_back(begin, text_.size() - begin);
        }
        const std::string_view text = text_;
        // Equal strings may tie in any order: the concatenation is the
        // same.
        std::sort(spans_.begin(), spans_.end(),
                  [&](const auto &a, const auto &b) {
                      return text.substr(a.first, a.second)
                          < text.substr(b.first, b.second);
                  });
        out.clear();
        for (const auto &[begin, length] : spans_) {
            out.append(text.substr(begin, length));
            out += ';';
        }
    }

    void
    appendInt(int v)
    {
        char buf[16];
        const auto res = std::to_chars(buf, buf + sizeof buf, v);
        text_.append(buf, res.ptr);
    }

    std::vector<LocalEdge> edges_;
    std::vector<int> indeg_;
    std::vector<int> outdeg_;
    std::vector<int> order_;
    std::vector<int> perm_;
    std::vector<int> pos_;
    std::vector<std::pair<int, int>> blocks_;
    std::string text_;
    std::vector<std::pair<std::size_t, std::size_t>> spans_;
    std::string best_;
    std::string cand_;
    long budget_ = 0;
};

/** Human-readable pattern text from one embedding. */
std::string
describe(const LabeledGraph &graph, const std::vector<int> &nodes)
{
    std::string out;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (i)
            out += ' ';
        out += graph.nodeLabels[static_cast<std::size_t>(nodes[i])];
    }
    bool first = true;
    for (int n : nodes) {
        for (int ei : graph.out[static_cast<std::size_t>(n)]) {
            const auto &e = graph.edges[static_cast<std::size_t>(ei)];
            if (!contains(nodes, e.to))
                continue;
            out += first ? "  [" : ", ";
            first = false;
            const auto it_f =
                std::lower_bound(nodes.begin(), nodes.end(), e.from);
            const auto it_t =
                std::lower_bound(nodes.begin(), nodes.end(), e.to);
            out += std::to_string(it_f - nodes.begin()) + "->"
                + std::to_string(it_t - nodes.begin()) + ":" + e.label;
        }
    }
    if (!first)
        out += "]";
    return out;
}

/** Greedy maximal set of pairwise-disjoint embeddings. */
std::vector<std::vector<int>>
disjointEmbeddings(std::vector<std::vector<int>> embeddings)
{
    std::sort(embeddings.begin(), embeddings.end(),
              [](const std::vector<int> &a, const std::vector<int> &b) {
                  return a.back() < b.back();
              });
    std::vector<std::vector<int>> chosen;
    std::set<int> used;
    for (auto &e : embeddings) {
        bool clash = false;
        for (int n : e) {
            if (used.count(n)) {
                clash = true;
                break;
            }
        }
        if (clash)
            continue;
        used.insert(e.begin(), e.end());
        chosen.push_back(std::move(e));
    }
    return chosen;
}

} // namespace

std::vector<MinedPattern>
mineFrequentSubcircuits(const Circuit &circuit, const MinerOptions &options)
{
    std::vector<MinedPattern> result;
    if (circuit.size() < 2)
        return result;

    const Dag dag = buildDag(circuit);
    const LabeledGraph graph = buildLabeledGraph(circuit, dag);
    StampSet qubits;
    StampSet seen;
    std::vector<int> stack;
    std::vector<int> neighbors;
    CanonicalCoder coder;

    // Round 1: every dependence edge seeds a two-gate set.
    std::set<std::vector<int>> frontier;
    for (const auto &e : graph.edges) {
        std::vector<int> s{std::min(e.from, e.to),
                           std::max(e.from, e.to)};
        if (fitsQubits(circuit, s, options.maxQubits, qubits))
            frontier.insert(std::move(s));
    }

    for (int size = 2; size <= options.maxPatternGates && !frontier.empty();
         ++size) {
        // Group this round's sets by canonical pattern code.
        std::map<std::string, std::vector<std::vector<int>>> by_code;
        for (const auto &nodes : frontier)
            by_code[coder.code(graph, nodes)].push_back(nodes);

        std::set<std::vector<int>> next;
        for (auto &[code, embeddings] : by_code) {
            // Only convex embeddings are usable as gates.
            std::vector<std::vector<int>> convex;
            for (auto &e : embeddings)
                if (isConvex(dag, e, seen, stack))
                    convex.push_back(e);
            const std::vector<std::vector<int>> disjoint =
                disjointEmbeddings(convex);
            if (static_cast<int>(disjoint.size()) < options.minSupport)
                continue;

            MinedPattern p;
            p.code = code;
            p.description = describe(graph, disjoint.front());
            p.numGates = size;
            p.support = static_cast<int>(disjoint.size());
            p.coverage = p.support * size;
            p.embeddings = disjoint;
            result.push_back(std::move(p));

            // Grow every disjoint embedding by one adjacent gate, the
            // neighbours in ascending order.
            if (size == options.maxPatternGates)
                continue;
            for (const auto &nodes : disjoint) {
                neighbors.clear();
                for (int n : nodes) {
                    const auto ns = static_cast<std::size_t>(n);
                    for (int ei : graph.out[ns])
                        neighbors.push_back(
                            graph.edges[static_cast<std::size_t>(ei)].to);
                    for (int ei : graph.in[ns])
                        neighbors.push_back(
                            graph.edges[static_cast<std::size_t>(ei)]
                                .from);
                }
                std::sort(neighbors.begin(), neighbors.end());
                neighbors.erase(
                    std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
                for (int w : neighbors) {
                    if (contains(nodes, w))
                        continue;
                    std::vector<int> grown = nodes;
                    grown.insert(std::upper_bound(grown.begin(),
                                                  grown.end(), w), w);
                    if (fitsQubits(circuit, grown, options.maxQubits,
                                   qubits))
                        next.insert(std::move(grown));
                }
            }
        }
        frontier = std::move(next);
    }

    std::sort(result.begin(), result.end(),
              [](const MinedPattern &a, const MinedPattern &b) {
                  if (a.coverage != b.coverage)
                      return a.coverage > b.coverage;
                  return a.code < b.code;
              });
    return result;
}

namespace {

/**
 * Makespan of the contracted circuit evaluated directly on the group
 * DAG -- no circuit emission. Multi-gate group latencies are merged-
 * unitary estimates clamped by the members' summed latency, memoized
 * by member set so repeated trials are cheap. Member lists are read in
 * place from the contraction.
 */
class ContractedScheduler
{
  public:
    ContractedScheduler(const Circuit &circuit, const Dag &dag,
                        const LatencyFn &latency)
        : circuit_(circuit), dag_(dag), latency_(latency),
          finish_(circuit.size(), 0.0)
    {}

    double
    makespan(const GroupContraction &gc)
    {
        // finish_ holds each gate's group finish time, written for all
        // members once the group is scheduled.
        double best = 0.0;
        for (int gid : gc.topologicalOrder()) {
            const std::span<const int> m = gc.members(gid);
            double start = 0.0;
            for (int gate : m) {
                for (int p : dag_.preds[static_cast<std::size_t>(
                         gate)]) {
                    if (gc.groupOf(p) != gid)
                        start = std::max(
                            start, finish_[static_cast<std::size_t>(p)]);
                }
            }
            const double finish = start + groupLatency(m);
            for (int gate : m)
                finish_[static_cast<std::size_t>(gate)] = finish;
            best = std::max(best, finish);
        }
        return best;
    }

  private:
    /** Lexicographic order of member lists, stored or in place. */
    struct MembersLess
    {
        using is_transparent = void;
        bool
        operator()(std::span<const int> a, std::span<const int> b) const
        {
            return std::lexicographical_compare(a.begin(), a.end(),
                                                b.begin(), b.end());
        }
    };

    double
    groupLatency(std::span<const int> members)
    {
        if (members.size() == 1) {
            return latency_(circuit_.gate(
                static_cast<std::size_t>(members[0])));
        }
        const auto it = memo_.find(members);
        if (it != memo_.end())
            return it->second;
        std::vector<Gate> gates;
        gates.reserve(members.size());
        double cap = 0.0;
        for (int m : members) {
            gates.push_back(circuit_.gate(static_cast<std::size_t>(m)));
            cap += latency_(gates.back());
        }
        const SubcircuitUnitary sub = subcircuitUnitary(gates);
        const Gate merged = Gate::custom(
            "trial", sub.qubits, sub.matrix,
            static_cast<int>(members.size()), cap);
        const double lat = std::min(latency_(merged), cap);
        memo_.emplace(std::vector<int>(members.begin(), members.end()),
                      lat);
        return lat;
    }

    const Circuit &circuit_;
    const Dag &dag_;
    const LatencyFn &latency_;
    std::vector<double> finish_;
    std::map<std::vector<int>, double, MembersLess> memo_;
};

} // namespace

ApaRewriteResult
applyApaBasis(const Circuit &circuit,
              const std::vector<MinedPattern> &patterns, int max_apa,
              bool tuned, const LatencyFn *latency)
{
    ApaRewriteResult result;
    if (max_apa == 0 && !tuned) {
        result.circuit = circuit;
        return result;
    }

    const Dag dag = buildDag(circuit);
    GroupContraction contractor(circuit, dag);

    std::set<int> used_nodes;
    std::map<std::vector<int>, int> accepted; // nodes -> pattern index
    int covered = 0;
    int uses = 0;
    int kinds = 0;

    const auto emitter = [&](const std::vector<int> &members) {
        std::vector<Gate> gates;
        gates.reserve(members.size());
        int absorbed = 0;
        double cap = 0.0;
        for (int m : members) {
            gates.push_back(circuit.gate(static_cast<std::size_t>(m)));
            absorbed += gates.back().absorbedCount();
            if (latency != nullptr)
                cap += (*latency)(gates.back());
        }
        const SubcircuitUnitary sub = subcircuitUnitary(gates);
        const auto it = accepted.find(members);
        PAQOC_ASSERT(it != accepted.end(),
                     "merged group missing from accepted map");
        return Gate::custom("apa" + std::to_string(it->second),
                            sub.qubits, sub.matrix, absorbed,
                            latency != nullptr
                                ? cap
                                : std::numeric_limits<
                                      double>::infinity());
    };

    // Section V-C acceptance: an APA substitution must never lengthen
    // the critical path. Same-width substitutions are covered by
    // Observation 1 (merging gates sharing the same qubits is always
    // beneficial); substitutions that *widen* the gate fall under
    // Observation 2's width penalty and are only taken when the
    // modeled merged latency does not exceed the member latencies run
    // back to back.
    const auto locally_beneficial = [&](const std::vector<int> &nodes) {
        if (latency == nullptr)
            return true;
        std::vector<Gate> gates;
        gates.reserve(nodes.size());
        double sum = 0.0;
        int absorbed = 0;
        int max_member_width = 0;
        std::set<int> support;
        for (int n : nodes) {
            const Gate &g = circuit.gate(static_cast<std::size_t>(n));
            gates.push_back(g);
            sum += (*latency)(g);
            absorbed += g.absorbedCount();
            max_member_width = std::max(max_member_width, g.arity());
            support.insert(g.qubits().begin(), g.qubits().end());
        }
        if (static_cast<int>(support.size()) <= max_member_width)
            return true; // same width: Observation 1 applies
        const SubcircuitUnitary sub = subcircuitUnitary(gates);
        const Gate merged = Gate::custom("apa?", sub.qubits, sub.matrix,
                                         absorbed);
        return (*latency)(merged) <= sum + 1e-9;
    };

    std::unique_ptr<ContractedScheduler> scheduler;
    double cur_makespan = 0.0;
    if (latency != nullptr) {
        scheduler = std::make_unique<ContractedScheduler>(circuit, dag,
                                                          *latency);
        cur_makespan = scheduler->makespan(contractor);
    }

    for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
        if (!tuned && max_apa >= 0 && kinds >= max_apa)
            break;
        if (tuned
            && uses > static_cast<int>(circuit.size()) - covered)
            break; // APA uses already form the majority
        const MinedPattern &p = patterns[pi];
        bool used_this = false;
        for (const auto &nodes : p.embeddings) {
            bool clash = false;
            for (int n : nodes) {
                if (used_nodes.count(n)) {
                    clash = true;
                    break;
                }
            }
            if (clash || !locally_beneficial(nodes))
                continue;
            const GroupContraction::State state =
                contractor.snapshot();
            if (!contractor.tryMerge(nodes))
                continue;
            if (scheduler != nullptr) {
                // Global Section V-C check: the substitution must not
                // lengthen the critical path (false dependences can
                // delay sibling gates even when the merged pulse is
                // locally faster -- the paper's Fig. 4 scenario).
                const double makespan =
                    scheduler->makespan(contractor);
                if (makespan > cur_makespan + 1e-9) {
                    contractor.restore(state);
                    continue;
                }
                cur_makespan = makespan;
            }
            accepted[nodes] = static_cast<int>(pi);
            used_nodes.insert(nodes.begin(), nodes.end());
            covered += static_cast<int>(nodes.size());
            ++uses;
            used_this = true;
        }
        if (used_this) {
            ++kinds;
            result.selected.push_back(p);
        }
    }

    result.apaGatesUsed = kinds;
    result.gatesCovered = covered;
    result.apaUseCount = uses;
    result.circuit = contractor.emit(emitter);
    return result;
}

} // namespace paqoc
