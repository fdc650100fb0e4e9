#ifndef PAQOC_CIRCUIT_CONTRACT_H_
#define PAQOC_CIRCUIT_CONTRACT_H_

#include <functional>
#include <span>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/dag.h"
#include "common/stamp_set.h"

namespace paqoc {

/**
 * Incrementally contracts groups of gates into single nodes of a
 * circuit's dependence DAG, rejecting contractions that would create a
 * cycle, and finally emits a dependence-respecting circuit in which
 * each multi-gate group is replaced by one gate.
 *
 * Group ids: gate i starts in group i; every accepted merge opens the
 * next id (a rejected one opens none) and retires the ids it fused.
 * Each live multi-gate group keeps its member list, updated as merges
 * happen, so no query rescans the circuit. Every reachable state is
 * acyclic (DESIGN.md §17), so a merge is checked by one search from
 * the fused group alone.
 *
 * Used by the APA-basis rewriter, the customized-gates merge engine,
 * preprocessing, and the AccQOC baseline's fixed-depth grouping.
 */
class GroupContraction
{
  public:
    GroupContraction(const Circuit &circuit, const Dag &dag);

    /**
     * Try to merge the given gate indices (which may already belong to
     * merged groups; all their groups fuse) into one group. Returns
     * false and leaves the state unchanged if the contraction would
     * create a dependence cycle.
     */
    bool tryMerge(const std::vector<int> &gates);

    /** Group id currently containing a gate. */
    int groupOf(int gate) const
    { return group_of_[static_cast<std::size_t>(gate)]; }

    /**
     * Members (gate indices, ascending) of a live group, read in
     * place; valid until the next tryMerge or restore.
     */
    std::span<const int> members(int gid) const;

    /** Opaque state for rollback across tryMerge calls. */
    struct State
    {
        std::vector<int> groupOf;
        int numGroups = 0;
    };

    /** Capture the current grouping. */
    State snapshot() const { return {group_of_, n_groups_}; }

    /** Restore a previously captured grouping. */
    void restore(const State &state);

    /** Members (gate indices, ascending) of every live group. */
    std::vector<std::vector<int>> groups() const;

    /**
     * Member gate indices indexed by group id (dead ids map to empty
     * vectors). Pairs with topologicalOrder() for group-level passes.
     */
    std::vector<std::vector<int>> membersById() const;

    /**
     * Live group ids in dependence order, ties broken by the lowest
     * first member; throws if cyclic.
     */
    std::vector<int> topologicalOrder() const;

    /**
     * Emit the contracted circuit. merged_emitter receives the member
     * gate indices (ascending) of each multi-gate group and returns
     * the replacement gate; single-gate groups pass through.
     */
    Circuit emit(const std::function<Gate(const std::vector<int> &)>
                     &merged_emitter) const;

  private:
    std::vector<int> topoOrder() const; // empty when cyclic
    /** Lowest member of a live group: its key in topological ties. */
    int firstMember(int gid) const;
    /** True if a dependence path leaves group gid and re-enters it. */
    bool closesCycle(int gid);

    const Circuit &circuit_;
    const Dag &dag_;
    std::vector<int> group_of_;
    int n_groups_;
    /**
     * Member list of group n + k at fused_[k] (n = gate count); empty
     * once the group is fused into a later one. Groups below n are
     * single gates and need no list.
     */
    std::vector<std::vector<int>> fused_;
    /** Scratch reused across tryMerge calls. */
    StampSet seen_;
    std::vector<int> stack_;
    std::vector<int> fusing_;
};

} // namespace paqoc

#endif // PAQOC_CIRCUIT_CONTRACT_H_
