#include "common/cancellation.h"

#include "common/failpoint.h"

namespace paqoc {

const char *
cancelReasonName(CancelReason reason)
{
    switch (reason) {
    case CancelReason::None:
        return "none";
    case CancelReason::DeadlineExceeded:
        return "deadline_exceeded";
    case CancelReason::ClientDisconnected:
        return "client_disconnected";
    case CancelReason::ExplicitCancel:
        return "explicit_cancel";
    case CancelReason::OverloadShed:
        return "overload_shed";
    case CancelReason::Shutdown:
        return "shutdown";
    }
    return "none";
}

namespace detail {

void
CancelState::trip(CancelReason why) const
{
    // First reason wins (QuotaToken's CAS discipline): concurrent
    // cancels race, but the recorded reason is whichever landed, not
    // a torn mix, and counters key off exactly one reason.
    int expected = static_cast<int>(CancelReason::None);
    reason.compare_exchange_strong(expected, static_cast<int>(why),
                                   std::memory_order_acq_rel);
}

bool
CancelState::poll() const
{
    // Fast path: already tripped (or not) -- one relaxed load.
    if (reason.load(std::memory_order_relaxed)
        != static_cast<int>(CancelReason::None))
        return true;

    // `cancel.poll` failpoint: lets tests force a cancellation at a
    // precise poll site (the GRAPE loop, a batch item, ...) without
    // any wire traffic. Any injected failure action cancels;
    // delay-ms just stretches the poll (evaluate sleeps internally).
    const failpoint::Hit hit = failpoint::evaluate("cancel.poll");
    if (hit.action != failpoint::Action::Off
        && hit.action != failpoint::Action::DelayMs) {
        trip(CancelReason::ExplicitCancel);
        return true;
    }

    const Clock::time_point armed(Clock::duration(
        deadline.load(std::memory_order_acquire)));
    if (armed != Clock::time_point::max() && Clock::now() >= armed) {
        trip(CancelReason::DeadlineExceeded);
        return true;
    }
    return false;
}

} // namespace detail

void
CancelToken::throwCancelled(long iters_charged) const
{
    const CancelReason why = reason();
    throw CancelledError(why == CancelReason::None
                             ? CancelReason::ExplicitCancel
                             : why,
                         "", iters_charged);
}

} // namespace paqoc
