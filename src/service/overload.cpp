#include "service/overload.h"

#include "common/failpoint.h"

namespace paqoc {

void
OverloadController::observe(double delay_ms)
{
    if (!enabled())
        return;
    MutexLock lock(mutex_);
    const Clock::time_point now = Clock::now();
    // The first sample has no window yet: check for the min() sentinel
    // before subtracting it, which would overflow.
    if (window_start_ == Clock::time_point::min()
        || std::chrono::duration<double, std::milli>(now - window_start_)
                .count()
            >= options_.windowMs) {
        previous_min_ = current_min_;
        current_min_ = -1.0;
        window_start_ = now;
    }
    if (current_min_ < 0.0 || delay_ms < current_min_)
        current_min_ = delay_ms;
    last_sample_ = now;
}

double
OverloadController::effectiveMinLocked() const
{
    // An idle server is not overloaded: with no sample inside two
    // windows, the standing queue (if there ever was one) is gone.
    const Clock::time_point now = Clock::now();
    if (last_sample_ == Clock::time_point::min())
        return 0.0;
    const double silence_ms =
        std::chrono::duration<double, std::milli>(now - last_sample_)
            .count();
    if (silence_ms > 2.0 * options_.windowMs)
        return 0.0;
    double m = current_min_;
    if (previous_min_ >= 0.0 && (m < 0.0 || previous_min_ < m))
        m = previous_min_;
    return m < 0.0 ? 0.0 : m;
}

OverloadController::Level
OverloadController::level() const
{
    if (!enabled())
        return Level::Nominal;
    // Deterministic ladder walking for tests: the failpoint argument
    // substitutes for the measured delay.
    const failpoint::Hit hit = failpoint::evaluate("overload.clock");
    double d;
    if (hit.action != failpoint::Action::Off
        && hit.action != failpoint::Action::DelayMs) {
        d = static_cast<double>(hit.arg);
    } else {
        MutexLock lock(mutex_);
        d = effectiveMinLocked();
    }
    const double t = options_.targetMs;
    if (d <= t)
        return Level::Nominal;
    if (d <= 2.0 * t)
        return Level::Brownout;
    if (d <= 4.0 * t)
        return Level::ShedOverBudget;
    return Level::ShedAll;
}

double
OverloadController::retryAfterMs() const
{
    // Long enough for the standing queue to drain to target, short
    // enough that capacity freed by sheds is re-offered quickly.
    MutexLock lock(mutex_);
    const double d = effectiveMinLocked();
    const double floor_ms = options_.targetMs;
    return d > floor_ms ? d : floor_ms;
}

double
OverloadController::minDelayMs() const
{
    MutexLock lock(mutex_);
    return effectiveMinLocked();
}

const char *
OverloadController::levelName(Level level)
{
    switch (level) {
    case Level::Nominal:
        return "nominal";
    case Level::Brownout:
        return "brownout";
    case Level::ShedOverBudget:
        return "shed_over_budget";
    case Level::ShedAll:
        return "shed_all";
    }
    return "nominal";
}

} // namespace paqoc
