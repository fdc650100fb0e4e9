#ifndef PAQOC_COMMON_CANCELLATION_H_
#define PAQOC_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <string>

#include "common/error.h"

namespace paqoc {

/**
 * Cooperative cancellation (DESIGN.md §15). A CancelSource owns the
 * cancelled bit of one unit of work; CancelTokens are cheap handles
 * the expensive loops poll. The uncancelled fast path is one relaxed
 * atomic load (the failpoint.h discipline), so polling once per GRAPE
 * iteration is free.
 *
 * Why the work stops is part of the contract -- the server turns the
 * reason into a typed wire response and distinct counters, so the
 * taxonomy below is stable API, not decoration.
 */
enum class CancelReason : int
{
    None = 0,
    DeadlineExceeded,   ///< the request's deadline passed mid-run
    ClientDisconnected, ///< the requesting connection went away
    ExplicitCancel,     ///< a `cancel` op named this request
    OverloadShed,       ///< shed by the overload controller
    Shutdown,           ///< the daemon is draining for exit
};

/** Stable wire name of a reason ("deadline_exceeded", ...). */
const char *cancelReasonName(CancelReason reason);

/**
 * Raised when cancelled work unwinds (the QuotaExceededError shape:
 * the service catches it and answers with a structured `cancelled`
 * response). `iters_charged` preserves the work already spent so
 * tenant budgets still bill a cancelled derivation's real compute.
 */
class CancelledError : public FatalError
{
  public:
    explicit CancelledError(CancelReason reason,
                            const std::string &detail = "",
                            long iters_charged = 0)
        : FatalError("cancelled: "
                     + std::string(cancelReasonName(reason))
                     + (detail.empty() ? "" : " (" + detail + ")")),
          reason_(reason), iters_charged_(iters_charged)
    {}

    CancelReason reason() const { return reason_; }
    const char *reasonName() const { return cancelReasonName(reason_); }
    long itersCharged() const { return iters_charged_; }

  private:
    CancelReason reason_;
    long iters_charged_;
};

namespace detail {

/**
 * Shared cancellation state. Tokens may outlive their source (a
 * detached worker can poll after the connection that spawned the
 * request died), so the state is reference-counted, immutable except
 * for the atomics, and safe to poll from any thread.
 */
struct CancelState
{
    using Clock = std::chrono::steady_clock;

    /** CancelReason, or None. Relaxed loads on the poll fast path;
     *  the trip CAS publishes with acq_rel like QuotaToken. */
    mutable std::atomic<int> reason{0};
    /** Absolute deadline; max() means "not deadline-armed". Only
     *  ever moves earlier (armDeadline), also after the token is
     *  shared. */
    std::atomic<Clock::time_point::rep> deadline{
        Clock::time_point::max().time_since_epoch().count()};

    bool poll() const;
    void trip(CancelReason why) const;
};

} // namespace detail

/**
 * Read-only handle polled by the work. Default-constructed tokens are
 * null: never cancelled, no deadline -- so call sites can thread a
 * token unconditionally and pay nothing when cancellation is not
 * wired up.
 */
class CancelToken
{
  public:
    using Clock = detail::CancelState::Clock;

    CancelToken() = default;

    /** True once the source cancelled, the armed deadline passed,
     *  or the `cancel.poll` failpoint fired. */
    bool
    cancelled() const
    {
        return state_ != nullptr && state_->poll();
    }

    /** Why (None while cancelled() is false). */
    CancelReason
    reason() const
    {
        if (state_ == nullptr)
            return CancelReason::None;
        return static_cast<CancelReason>(
            state_->reason.load(std::memory_order_acquire));
    }

    /** The armed deadline (max() = none). */
    Clock::time_point
    deadline() const
    {
        return state_ != nullptr
            ? Clock::time_point(Clock::duration(
                  state_->deadline.load(std::memory_order_acquire)))
            : Clock::time_point::max();
    }

    /** Milliseconds until the deadline (infinity when none armed,
     *  clamped at zero once it passed). Tier fetches cap their op
     *  budget with this. */
    double
    remainingMs() const
    {
        const Clock::time_point d = deadline();
        if (d == Clock::time_point::max())
            return std::numeric_limits<double>::infinity();
        const double ms =
            std::chrono::duration<double, std::milli>(d - Clock::now())
                .count();
        return ms > 0.0 ? ms : 0.0;
    }

    /** Raise CancelledError if cancelled; otherwise no-op. */
    void
    throwIfCancelled(long iters_charged = 0) const
    {
        if (cancelled())
            throwCancelled(iters_charged);
    }

    /** Raise the structured error for the recorded reason. */
    [[noreturn]] void throwCancelled(long iters_charged = 0) const;

    bool valid() const { return state_ != nullptr; }

  private:
    friend class CancelSource;
    explicit CancelToken(std::shared_ptr<const detail::CancelState> s)
        : state_(std::move(s))
    {}

    std::shared_ptr<const detail::CancelState> state_;
};

/**
 * Owning side. The server holds one source per in-flight request;
 * cancel() is idempotent and the first reason wins (a request both
 * shed and disconnected reports whichever tripped first, which keeps
 * counters additive).
 */
class CancelSource
{
  public:
    using Clock = detail::CancelState::Clock;

    CancelSource() : state_(std::make_shared<detail::CancelState>()) {}

    /**
     * Arm the deadline, or tighten an armed one: polls trip with
     * DeadlineExceeded once the earlier of the two passes. A later
     * `when` changes nothing, so the scheduler arms the request's
     * deadline at submission and the server tightens it by the wall
     * bound when the work starts, on the one source. Safe while the
     * token is shared. True when `when` became the deadline.
     */
    bool
    armDeadline(Clock::time_point when) const
    {
        const Clock::time_point::rep want = when.time_since_epoch().count();
        Clock::time_point::rep armed =
            state_->deadline.load(std::memory_order_acquire);
        while (want < armed)
            if (state_->deadline.compare_exchange_weak(
                    armed, want, std::memory_order_acq_rel))
                return true;
        return false;
    }

    /** Trip the state; the first call's reason sticks. */
    void cancel(CancelReason why) const { state_->trip(why); }

    CancelToken token() const { return CancelToken(state_); }

  private:
    std::shared_ptr<detail::CancelState> state_;
};

} // namespace paqoc

#endif // PAQOC_COMMON_CANCELLATION_H_
