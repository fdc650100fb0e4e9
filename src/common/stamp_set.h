#ifndef PAQOC_COMMON_STAMP_SET_H_
#define PAQOC_COMMON_STAMP_SET_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace paqoc {

/**
 * A set of indices below a bound, emptied in O(1) by bumping a stamp:
 * the visited array of a search that runs many times over one index
 * range allocates once, on its first reset.
 */
class StampSet
{
  public:
    /** Empty the set and size it for indices below `bound`. */
    void
    reset(std::size_t bound)
    {
        if (seen_.size() != bound) {
            seen_.assign(bound, 0);
            stamp_ = 0;
        }
        if (++stamp_ == 0) {
            std::fill(seen_.begin(), seen_.end(), 0);
            stamp_ = 1;
        }
    }

    bool
    contains(int i) const
    {
        return seen_[static_cast<std::size_t>(i)] == stamp_;
    }

    /** Add i; true if it was not in the set yet. */
    bool
    insert(int i)
    {
        unsigned &s = seen_[static_cast<std::size_t>(i)];
        if (s == stamp_)
            return false;
        s = stamp_;
        return true;
    }

  private:
    std::vector<unsigned> seen_;
    unsigned stamp_ = 0;
};

} // namespace paqoc

#endif // PAQOC_COMMON_STAMP_SET_H_
