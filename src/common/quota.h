#ifndef PAQOC_COMMON_QUOTA_H_
#define PAQOC_COMMON_QUOTA_H_

#include <atomic>
#include <string>
#include <utility>

#include "common/cancellation.h"
#include "common/error.h"

namespace paqoc {

/**
 * Per-request resource budgets (DESIGN.md §10): the counted work a
 * request may spend. A zero limit means "unlimited"; the service
 * resolves each request's effective limits from its own caps plus the
 * request's overrides (resolveQuota) and hands the optimizer a
 * QuotaToken to charge against. Wall time is not a count: the server
 * bounds it as the request's deadline (ServerOptions::maxWallMs).
 */
struct QuotaLimits
{
    /** GRAPE/ADAM iterations across all trials of the request. */
    long maxIters = 0;
    /** Distinct pulses the request may derive (cache misses). */
    long maxResidentPulses = 0;

    bool any() const { return maxIters > 0 || maxResidentPulses > 0; }
};

/**
 * One effective limit: the request's value, clamped by the server
 * cap. A zero cap passes the request value through; a zero (or
 * absent) request value inherits the cap; otherwise the smaller wins,
 * so a request can tighten but never widen the server's budget.
 */
template <typename T>
T
resolveLimit(T cap, T requested)
{
    if (cap <= T(0))
        return requested < T(0) ? T(0) : requested;
    if (requested <= T(0))
        return cap;
    return requested < cap ? requested : cap;
}

/** Effective per-request limits (resolveLimit per dimension). */
inline QuotaLimits
resolveQuota(const QuotaLimits &caps, const QuotaLimits &requested)
{
    QuotaLimits out;
    out.maxIters = resolveLimit(caps.maxIters, requested.maxIters);
    out.maxResidentPulses =
        resolveLimit(caps.maxResidentPulses, requested.maxResidentPulses);
    return out;
}

/** Raised when a hard quota is exhausted mid-request. */
class QuotaExceededError : public FatalError
{
  public:
    QuotaExceededError(const char *limit, const std::string &detail,
                       long iters_charged = 0)
        : FatalError("quota_exceeded: " + std::string(limit)
                     + (detail.empty() ? "" : " (" + detail + ")")),
          limit_(limit), iters_charged_(iters_charged)
    {}

    /** Stable limit id: "max_iters" | "max_resident_pulses". */
    const char *limit() const { return limit_; }

    /** Iterations spent before the trip -- tripped work still costs
     *  real compute, so tenant budgets charge it (fleet/budget.h). */
    long itersCharged() const { return iters_charged_; }

  private:
    const char *limit_;
    long iters_charged_;
};

/**
 * The context of one request: its counted budgets and its
 * cancellation. GRAPE makes one check per ADAM step (step(): charge
 * the iteration, poll the cancel token) and the pulse generators
 * charge one resident pulse per cache-missing derivation; the first
 * charge that exhausts a budget trips the token permanently. In hard
 * mode a trip unwinds with QuotaExceededError; in degrade mode
 * (degradeOnExceeded) the optimizer instead stops early and hands
 * back its best effort through the stitched-fallback path. A
 * cancelled request (explicit cancel, disconnect, shed, or its
 * deadline, which the wall bound tightens) unwinds with
 * CancelledError in either mode. Both errors carry itersCharged().
 *
 * Thread-safe: trials may charge concurrently from the thread pool.
 * Which trial observes the trip first then depends on scheduling, and
 * so do the iterations charged by then, which limit trips first and
 * where each degraded trial stopped; the service therefore derives
 * without a pool any request that can trip on counted work or that
 * degrades.
 */
class QuotaToken
{
  public:
    /** What step() tells the optimizer after an iteration. */
    enum class Step
    {
        Continue,     ///< within budget, not cancelled
        StopDegraded, ///< a degrade-mode budget tripped: stop early
        Unwind,       ///< hard trip or cancelled: throwStop()
    };

    explicit QuotaToken(const QuotaLimits &limits,
                        bool degrade_on_exceeded = false,
                        CancelToken cancel = {})
        : limits_(limits), degrade_(degrade_on_exceeded),
          cancel_(std::move(cancel))
    {}

    QuotaToken(const QuotaToken &) = delete;
    QuotaToken &operator=(const QuotaToken &) = delete;

    /**
     * Charge `n` optimizer iterations. False once any budget is
     * exhausted. Iterations are counted even when maxIters is
     * unlimited: itersCharged() feeds the per-tenant budget ledger
     * (fleet/budget.h), which meters spend regardless of whether this
     * request carries a hard cap.
     */
    bool
    chargeIterations(long n)
    {
        if (tripped())
            return false;
        const long total =
            iters_.fetch_add(n, std::memory_order_relaxed) + n;
        if (limits_.maxIters > 0 && total > limits_.maxIters)
            trip("max_iters");
        return !tripped();
    }

    /** Charge one derived (cache-missing) pulse. */
    bool
    chargeResidentPulse()
    {
        if (tripped())
            return false;
        if (limits_.maxResidentPulses > 0
            && resident_.fetch_add(1, std::memory_order_relaxed) + 1
                   > limits_.maxResidentPulses)
            trip("max_resident_pulses");
        return !tripped();
    }

    /**
     * The per-iteration check: charge one iteration, then poll the
     * cancel token. A hard trip wins over a cancellation landing in
     * the same step; a degrade-mode trip still unwinds when cancelled.
     */
    Step
    step()
    {
        const bool within = chargeIterations(1);
        if ((!within && !degrade_) || cancel_.cancelled())
            return Step::Unwind;
        return within ? Step::Continue : Step::StopDegraded;
    }

    /** Raise what step() answered Unwind for. */
    [[noreturn]] void
    throwStop() const
    {
        if (tripped() && !degrade_)
            throwQuotaExceeded();
        cancel_.throwCancelled(itersCharged());
    }

    /** Raise CancelledError if the request was cancelled. */
    void throwIfCancelled() const
    { cancel_.throwIfCancelled(itersCharged()); }

    /** The request's cancel token (null when none was given). */
    const CancelToken &cancelToken() const { return cancel_; }

    bool exceeded() const { return tripped(); }

    /** Stable id of the first exhausted limit (nullptr if none). */
    const char *
    limitName() const
    {
        return limit_.load(std::memory_order_acquire);
    }

    bool degradeOnExceeded() const { return degrade_; }

    /** Raise the structured error for the tripped limit. */
    [[noreturn]] void
    throwQuotaExceeded() const
    {
        const char *limit = limitName();
        throw QuotaExceededError(limit != nullptr ? limit : "quota",
                                 describe(limit), itersCharged());
    }

    long itersCharged() const
    { return iters_.load(std::memory_order_relaxed); }
    long residentCharged() const
    { return resident_.load(std::memory_order_relaxed); }
    const QuotaLimits &limits() const { return limits_; }

  private:
    bool
    tripped() const
    {
        return limit_.load(std::memory_order_acquire) != nullptr;
    }

    void
    trip(const char *limit)
    {
        const char *expected = nullptr;
        limit_.compare_exchange_strong(expected, limit,
                                       std::memory_order_acq_rel);
    }

    std::string
    describe(const char *limit) const
    {
        if (limit == nullptr)
            return "";
        const std::string name(limit);
        if (name == "max_iters")
            return "iteration budget "
                   + std::to_string(limits_.maxIters) + " exhausted";
        if (name == "max_resident_pulses")
            return "resident-pulse budget "
                   + std::to_string(limits_.maxResidentPulses)
                   + " exhausted";
        return "";
    }

    QuotaLimits limits_;
    bool degrade_;
    CancelToken cancel_;
    std::atomic<long> iters_{0};
    std::atomic<long> resident_{0};
    std::atomic<const char *> limit_{nullptr};
};

} // namespace paqoc

#endif // PAQOC_COMMON_QUOTA_H_
