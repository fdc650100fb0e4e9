#ifndef PAQOC_CIRCUIT_DAG_H_
#define PAQOC_CIRCUIT_DAG_H_

#include <vector>

#include "circuit/circuit.h"
#include "common/stamp_set.h"

namespace paqoc {

/**
 * Dependence DAG of a circuit. Node i is gate i of the circuit; there
 * is an edge u -> v when v is the next gate after u on some shared
 * qubit. Program order is a topological order by construction.
 */
struct Dag
{
    std::vector<std::vector<int>> preds;
    std::vector<std::vector<int>> succs;

    std::size_t size() const { return preds.size(); }

    /** True if v directly depends on u. */
    bool hasEdge(int u, int v) const;
};

/**
 * Reachability queries over one DAG whose edges run forward in node
 * order (both DAG builders guarantee it). The visited set and the
 * stack are reused across queries, so a query allocates nothing once
 * they have grown.
 */
class DagReach
{
  public:
    explicit DagReach(const Dag &dag) : dag_(dag) {}

    /**
     * True if a path of two or more edges leads from u to v, i.e. some
     * successor of u other than v reaches v. Contracting u and v into
     * one node would then close a cycle: the false dependence gate
     * merging must not create.
     */
    bool reachesIndirectly(int u, int v);

  private:
    const Dag &dag_;
    StampSet seen_;
    std::vector<int> stack_;
};

/** Build the shared-qubit dependence DAG of a circuit. */
Dag buildDag(const Circuit &circuit);

} // namespace paqoc

#endif // PAQOC_CIRCUIT_DAG_H_
