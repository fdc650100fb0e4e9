/**
 * @file
 * Differential test of GroupContraction: random merge, snapshot and
 * restore sequences on seeded random circuits, over both the plain and
 * the commutation DAG, checked step by step against a reference copy
 * of the set-based contraction it replaced (relabel every gate, then
 * re-sort the whole quotient graph to detect a cycle).
 */

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "circuit/commute.h"
#include "circuit/contract.h"
#include "circuit/dag.h"
#include "common/rng.h"

namespace paqoc {
namespace {

/** The set-based contraction, kept as the reference. */
class ReferenceContraction
{
  public:
    ReferenceContraction(const Circuit &circuit, const Dag &dag)
        : circuit_(circuit), dag_(dag), group_of_(circuit.size())
    {
        for (std::size_t i = 0; i < circuit.size(); ++i)
            group_of_[i] = static_cast<int>(i);
        n_groups_ = static_cast<int>(circuit.size());
    }

    bool
    tryMerge(const std::vector<int> &gates)
    {
        const std::vector<int> snapshot = group_of_;
        std::set<int> fused;
        for (int g : gates)
            fused.insert(group_of_[static_cast<std::size_t>(g)]);
        const int gid = n_groups_++;
        for (std::size_t i = 0; i < group_of_.size(); ++i) {
            if (fused.count(group_of_[i]))
                group_of_[i] = gid;
        }
        if (!topoOrder().empty() || circuit_.size() == 0)
            return true;
        group_of_ = snapshot;
        --n_groups_;
        return false;
    }

    int groupOf(int gate) const
    { return group_of_[static_cast<std::size_t>(gate)]; }

    GroupContraction::State snapshot() const
    { return {group_of_, n_groups_}; }

    void
    restore(const GroupContraction::State &state)
    {
        group_of_ = state.groupOf;
        n_groups_ = state.numGroups;
    }

    std::vector<std::vector<int>>
    membersById() const
    {
        std::vector<std::vector<int>> members(
            static_cast<std::size_t>(n_groups_));
        for (std::size_t i = 0; i < circuit_.size(); ++i)
            members[static_cast<std::size_t>(group_of_[i])].push_back(
                static_cast<int>(i));
        return members;
    }

    std::vector<std::vector<int>>
    groups() const
    {
        std::vector<std::vector<int>> members = membersById();
        members.erase(std::remove_if(members.begin(), members.end(),
                                     [](const std::vector<int> &m)
                                     { return m.empty(); }),
                      members.end());
        return members;
    }

    std::vector<int>
    topoOrder() const
    {
        const auto ng = static_cast<std::size_t>(n_groups_);
        std::vector<std::set<int>> succ(ng);
        std::vector<int> indeg(ng, 0);
        std::vector<char> present(ng, 0);
        for (std::size_t u = 0; u < circuit_.size(); ++u) {
            present[static_cast<std::size_t>(group_of_[u])] = 1;
            for (int v : dag_.succs[u]) {
                const int gu = group_of_[u];
                const int gv = group_of_[static_cast<std::size_t>(v)];
                if (gu != gv
                    && succ[static_cast<std::size_t>(gu)].insert(gv)
                           .second)
                    ++indeg[static_cast<std::size_t>(gv)];
            }
        }
        std::vector<int> first_member(ng, 1 << 30);
        for (std::size_t i = 0; i < circuit_.size(); ++i) {
            auto &fm =
                first_member[static_cast<std::size_t>(group_of_[i])];
            fm = std::min(fm, static_cast<int>(i));
        }
        auto cmp = [&](int a, int b) {
            return first_member[static_cast<std::size_t>(a)]
                > first_member[static_cast<std::size_t>(b)];
        };
        std::vector<int> heap;
        std::size_t total = 0;
        for (std::size_t g = 0; g < ng; ++g) {
            if (!present[g])
                continue;
            ++total;
            if (indeg[g] == 0) {
                heap.push_back(static_cast<int>(g));
                std::push_heap(heap.begin(), heap.end(), cmp);
            }
        }
        std::vector<int> order;
        while (!heap.empty()) {
            std::pop_heap(heap.begin(), heap.end(), cmp);
            const int g = heap.back();
            heap.pop_back();
            order.push_back(g);
            for (int s : succ[static_cast<std::size_t>(g)]) {
                if (--indeg[static_cast<std::size_t>(s)] == 0) {
                    heap.push_back(s);
                    std::push_heap(heap.begin(), heap.end(), cmp);
                }
            }
        }
        if (order.size() != total)
            order.clear();
        return order;
    }

    Circuit
    emit(const std::function<Gate(const std::vector<int> &)>
             &merged_emitter) const
    {
        const std::vector<std::vector<int>> members = membersById();
        Circuit out(circuit_.numQubits());
        for (int gid : topoOrder()) {
            const auto &m = members[static_cast<std::size_t>(gid)];
            if (m.size() == 1)
                out.add(circuit_.gate(static_cast<std::size_t>(m[0])));
            else
                out.add(merged_emitter(m));
        }
        return out;
    }

  private:
    const Circuit &circuit_;
    const Dag &dag_;
    std::vector<int> group_of_;
    int n_groups_;
};

Circuit
randomCircuit(Rng &rng)
{
    const int nq = rng.range(1, 6);
    Circuit c(nq);
    const int n_gates = rng.range(2, 80);
    for (int i = 0; i < n_gates; ++i) {
        const int a = rng.range(0, nq - 1);
        const int kind = rng.range(0, 9);
        if (nq >= 2 && kind < 4) {
            int b = rng.range(0, nq - 2);
            if (b >= a)
                ++b;
            c.cx(a, b);
        } else if (nq >= 3 && kind == 4) {
            int b = rng.range(0, nq - 2);
            if (b >= a)
                ++b;
            int t = 0;
            while (t == a || t == b)
                ++t;
            c.ccx(a, b, t);
        } else if (kind < 7) {
            c.rz(a, 0.25 * rng.range(1, 7));
        } else if (kind == 7) {
            c.x(a);
        } else {
            c.h(a);
        }
    }
    return c;
}

/** Gates to fuse: 2-4 picks, near each other, in one group, or anywhere. */
std::vector<int>
pickGates(Rng &rng, const Circuit &c, const Dag &dag,
          const GroupContraction &gc)
{
    const int n = static_cast<int>(c.size());
    const int count = rng.range(2, 4);
    std::vector<int> gates;
    const int style = rng.range(0, 2);
    int cur = rng.range(0, n - 1);
    gates.push_back(cur);
    while (static_cast<int>(gates.size()) < count) {
        if (style == 0) {
            // A walk along dependence edges: mostly contractible.
            const auto &next = rng.chance(0.5)
                ? dag.succs[static_cast<std::size_t>(cur)]
                : dag.preds[static_cast<std::size_t>(cur)];
            if (!next.empty())
                cur = next[rng.below(next.size())];
            gates.push_back(cur);
        } else if (style == 1) {
            // Members of the first pick's group: an already fused set.
            const auto m = gc.members(gc.groupOf(gates[0]));
            gates.push_back(m[rng.below(m.size())]);
        } else {
            // Anywhere: often a cycle.
            gates.push_back(rng.range(0, n - 1));
        }
    }
    return gates;
}

/** Emitted gates, with each merged group's members spelled out. */
std::vector<std::string>
emitted(const Circuit &out, const std::vector<std::vector<int>> &merged)
{
    std::vector<std::string> seq;
    std::size_t k = 0;
    for (const Gate &g : out.gates()) {
        std::string s = std::to_string(static_cast<int>(g.op())) + ":"
            + std::to_string(g.angle());
        for (int q : g.qubits())
            s += "," + std::to_string(q);
        if (g.op() == Op::Y && k < merged.size()) {
            s += " merged";
            for (int m : merged[k++])
                s += " " + std::to_string(m);
        }
        seq.push_back(std::move(s));
    }
    return seq;
}

void
expectSame(const GroupContraction &gc, const ReferenceContraction &ref,
           const Circuit &c, const std::string &where)
{
    for (int i = 0; i < static_cast<int>(c.size()); ++i)
        ASSERT_EQ(gc.groupOf(i), ref.groupOf(i)) << where << " gate " << i;
    ASSERT_EQ(gc.membersById(), ref.membersById()) << where;
    ASSERT_EQ(gc.groups(), ref.groups()) << where;
    ASSERT_EQ(gc.topologicalOrder(), ref.topoOrder()) << where;
    // Merged groups emit a Y marker (absent from the random circuits)
    // so the sequences show where each group landed.
    std::vector<std::vector<int>> got_groups;
    std::vector<std::vector<int>> ref_groups;
    const Circuit got = gc.emit([&](const std::vector<int> &m) {
        got_groups.push_back(m);
        return Gate(Op::Y, {0});
    });
    const Circuit want = ref.emit([&](const std::vector<int> &m) {
        ref_groups.push_back(m);
        return Gate(Op::Y, {0});
    });
    ASSERT_EQ(emitted(got, got_groups), emitted(want, ref_groups))
        << where;
}

class ContractDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ContractDifferential, MatchesSetBasedReference)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 17);
    for (int round = 0; round < 8; ++round) {
        const Circuit c = randomCircuit(rng);
        for (const bool commute : {false, true}) {
            const Dag dag =
                commute ? buildCommutationDag(c) : buildDag(c);
            GroupContraction gc(c, dag);
            ReferenceContraction ref(c, dag);
            std::vector<GroupContraction::State> saved;
            expectSame(gc, ref, c, "initial");
            for (int step = 0; step < 40; ++step) {
                const std::string where = "seed " + std::to_string(
                    GetParam()) + " round " + std::to_string(round)
                    + (commute ? " commute" : " plain") + " step "
                    + std::to_string(step);
                const int op = rng.range(0, 9);
                if (op < 7) {
                    const std::vector<int> gates =
                        pickGates(rng, c, dag, gc);
                    ASSERT_EQ(gc.tryMerge(gates), ref.tryMerge(gates))
                        << where;
                } else if (op < 9 || saved.empty()) {
                    saved.push_back(gc.snapshot());
                    const GroupContraction::State r = ref.snapshot();
                    ASSERT_EQ(saved.back().groupOf, r.groupOf) << where;
                    ASSERT_EQ(saved.back().numGroups, r.numGroups)
                        << where;
                } else {
                    const auto &state = saved[rng.below(saved.size())];
                    gc.restore(state);
                    ref.restore(state);
                }
                expectSame(gc, ref, c, where);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Random, ContractDifferential,
                         ::testing::Range(0, 12));

} // namespace
} // namespace paqoc
