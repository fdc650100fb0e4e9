#include "circuit/contract.h"

#include <algorithm>
#include <functional>

#include "common/error.h"

namespace paqoc {

GroupContraction::GroupContraction(const Circuit &circuit, const Dag &dag)
    : circuit_(circuit), dag_(dag), group_of_(circuit.size())
{
    PAQOC_ASSERT(dag.size() == circuit.size(), "DAG/circuit mismatch");
    for (std::size_t i = 0; i < circuit.size(); ++i)
        group_of_[i] = static_cast<int>(i);
    n_groups_ = static_cast<int>(circuit.size());
}

std::span<const int>
GroupContraction::members(int gid) const
{
    const int n = static_cast<int>(circuit_.size());
    if (gid < n) {
        // A live single-gate group holds its own id as its one gate,
        // and group_of_[gid] stores exactly that value.
        return {&group_of_[static_cast<std::size_t>(gid)], 1};
    }
    return fused_[static_cast<std::size_t>(gid - n)];
}

int
GroupContraction::firstMember(int gid) const
{
    return members(gid).front();
}

bool
GroupContraction::tryMerge(const std::vector<int> &gates)
{
    PAQOC_ASSERT(!gates.empty(), "empty merge set");
    const int n = static_cast<int>(circuit_.size());
    fusing_.clear();
    for (int g : gates) {
        const int gid = group_of_[static_cast<std::size_t>(g)];
        if (std::find(fusing_.begin(), fusing_.end(), gid)
            == fusing_.end())
            fusing_.push_back(gid);
    }
    std::vector<int> merged;
    for (int gid : fusing_) {
        const std::span<const int> m = members(gid);
        merged.insert(merged.end(), m.begin(), m.end());
    }
    std::sort(merged.begin(), merged.end());

    const int gid = n_groups_++;
    for (int m : merged)
        group_of_[static_cast<std::size_t>(m)] = gid;
    fused_.push_back(std::move(merged));
    if (!closesCycle(gid)) {
        for (int old : fusing_)
            if (old >= n)
                fused_[static_cast<std::size_t>(old - n)].clear();
        return true;
    }
    // Undo: only the fused members moved.
    for (int old : fusing_) {
        if (old < n) {
            group_of_[static_cast<std::size_t>(old)] = old;
            continue;
        }
        for (int m : fused_[static_cast<std::size_t>(old - n)])
            group_of_[static_cast<std::size_t>(m)] = old;
    }
    fused_.pop_back();
    --n_groups_;
    return false;
}

bool
GroupContraction::closesCycle(int gid)
{
    // The state before the merge was acyclic, so any cycle now runs
    // through the fused group: search the quotient graph from its
    // out-edges and report whether the search comes back to it. A
    // group is expanded once, when the search first enters it; its
    // members are marked together.
    seen_.reset(circuit_.size());
    stack_.clear();
    const auto enter = [&](int group) {
        for (int m : members(group)) {
            seen_.insert(m);
            stack_.push_back(m);
        }
    };
    for (int m : members(gid)) {
        for (int s : dag_.succs[static_cast<std::size_t>(m)]) {
            const int gs = group_of_[static_cast<std::size_t>(s)];
            if (gs != gid && !seen_.contains(s))
                enter(gs);
        }
    }
    while (!stack_.empty()) {
        const int u = stack_.back();
        stack_.pop_back();
        for (int s : dag_.succs[static_cast<std::size_t>(u)]) {
            if (seen_.contains(s))
                continue;
            const int gs = group_of_[static_cast<std::size_t>(s)];
            if (gs == gid)
                return true;
            enter(gs);
        }
    }
    return false;
}

void
GroupContraction::restore(const State &state)
{
    const auto n = circuit_.size();
    group_of_ = state.groupOf;
    n_groups_ = state.numGroups;
    fused_.resize(static_cast<std::size_t>(n_groups_) - n);
    for (auto &m : fused_)
        m.clear();
    for (std::size_t i = 0; i < n; ++i) {
        const auto gid = static_cast<std::size_t>(group_of_[i]);
        if (gid >= n)
            fused_[gid - n].push_back(static_cast<int>(i));
    }
}

std::vector<std::vector<int>>
GroupContraction::groups() const
{
    std::vector<std::vector<int>> out;
    for (std::size_t i = 0; i < circuit_.size(); ++i)
        if (group_of_[i] == static_cast<int>(i))
            out.push_back({static_cast<int>(i)});
    for (const auto &m : fused_)
        if (!m.empty())
            out.push_back(m);
    return out;
}

std::vector<std::vector<int>>
GroupContraction::membersById() const
{
    std::vector<std::vector<int>> out(circuit_.size());
    for (std::size_t i = 0; i < circuit_.size(); ++i)
        if (group_of_[i] == static_cast<int>(i))
            out[i] = {static_cast<int>(i)};
    out.insert(out.end(), fused_.begin(), fused_.end());
    return out;
}

std::vector<int>
GroupContraction::topologicalOrder() const
{
    std::vector<int> order = topoOrder();
    PAQOC_ASSERT(!order.empty() || circuit_.size() == 0,
                 "contracted graph is cyclic");
    return order;
}

std::vector<int>
GroupContraction::topoOrder() const
{
    // Kahn's algorithm with in-degrees counted per gate-level edge and
    // kept at each group's first member. Parallel edges raise and
    // lower a count alike, so a group becomes ready exactly when its
    // last predecessor group leaves; first members are unique, so the
    // min-heap on them fixes the order.
    const std::size_t n = circuit_.size();
    std::vector<int> indeg(n, 0);
    for (std::size_t u = 0; u < n; ++u) {
        const int gu = group_of_[u];
        for (int v : dag_.succs[u]) {
            const int gv = group_of_[static_cast<std::size_t>(v)];
            if (gu != gv)
                ++indeg[static_cast<std::size_t>(firstMember(gv))];
        }
    }
    std::vector<int> heap;
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (firstMember(group_of_[i]) != static_cast<int>(i))
            continue;
        ++total;
        if (indeg[i] == 0)
            heap.push_back(static_cast<int>(i));
    }
    const std::greater<int> later;
    std::make_heap(heap.begin(), heap.end(), later);
    std::vector<int> order;
    order.reserve(total);
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), later);
        const int g = group_of_[static_cast<std::size_t>(heap.back())];
        heap.pop_back();
        order.push_back(g);
        for (int m : members(g)) {
            for (int s : dag_.succs[static_cast<std::size_t>(m)]) {
                const int gs = group_of_[static_cast<std::size_t>(s)];
                if (gs == g)
                    continue;
                const int key = firstMember(gs);
                if (--indeg[static_cast<std::size_t>(key)] == 0) {
                    heap.push_back(key);
                    std::push_heap(heap.begin(), heap.end(), later);
                }
            }
        }
    }
    if (order.size() != total)
        order.clear();
    return order;
}

Circuit
GroupContraction::emit(
    const std::function<Gate(const std::vector<int> &)> &merged_emitter)
    const
{
    const std::vector<int> order = topoOrder();
    PAQOC_ASSERT(!order.empty() || circuit_.size() == 0,
                 "contracted graph is cyclic at emit time");
    const int n = static_cast<int>(circuit_.size());
    Circuit out(circuit_.numQubits());
    for (int gid : order) {
        const std::span<const int> m = members(gid);
        if (m.size() == 1)
            out.add(circuit_.gate(static_cast<std::size_t>(m[0])));
        else
            out.add(merged_emitter(
                fused_[static_cast<std::size_t>(gid - n)]));
    }
    return out;
}

} // namespace paqoc
