#include "circuit/dag.h"

#include <algorithm>

#include "common/error.h"

namespace paqoc {

bool
Dag::hasEdge(int u, int v) const
{
    const auto &s = succs[static_cast<std::size_t>(u)];
    return std::find(s.begin(), s.end(), v) != s.end();
}

bool
DagReach::reachesIndirectly(int u, int v)
{
    // Nodes are numbered in topological (program) order, so only nodes
    // in (u, v) can lie on a path into v.
    seen_.reset(dag_.size());
    stack_.clear();
    const auto visit = [&](int s) {
        if (s < v && seen_.insert(s))
            stack_.push_back(s);
    };
    for (int w : dag_.succs[static_cast<std::size_t>(u)])
        if (w != v)
            visit(w);
    while (!stack_.empty()) {
        const int n = stack_.back();
        stack_.pop_back();
        for (int s : dag_.succs[static_cast<std::size_t>(n)]) {
            if (s == v)
                return true;
            visit(s);
        }
    }
    return false;
}

Dag
buildDag(const Circuit &circuit)
{
    Dag dag;
    dag.preds.resize(circuit.size());
    dag.succs.resize(circuit.size());

    std::vector<int> last_on_qubit(
        static_cast<std::size_t>(circuit.numQubits()), -1);
    for (std::size_t i = 0; i < circuit.size(); ++i) {
        const Gate &g = circuit.gate(i);
        for (int q : g.qubits()) {
            const int prev = last_on_qubit[static_cast<std::size_t>(q)];
            if (prev >= 0 && !dag.hasEdge(prev, static_cast<int>(i))) {
                dag.succs[static_cast<std::size_t>(prev)]
                    .push_back(static_cast<int>(i));
                dag.preds[i].push_back(prev);
            }
            last_on_qubit[static_cast<std::size_t>(q)] =
                static_cast<int>(i);
        }
    }
    return dag;
}

} // namespace paqoc
