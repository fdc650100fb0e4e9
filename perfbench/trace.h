#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** One timed call into a layer. */
struct Span
{
    std::string name;
    /** Seconds since the tracer was created. */
    double start = 0.0;
    double end = 0.0;
    /** Index of the enclosing span, -1 for a top-level call. */
    int parent = -1;
    /** Input the call served (Tracer::setInput). */
    int input = -1;
};

/**
 * In-memory span recorder for the benchmark's replica of the daemon's
 * request path. Spans are opened around public calls into the
 * layers (Scope) and kept until the run ends. A span's parent is the
 * innermost span open when it starts.
 *
 * A tracer is used from one thread: the replica runs each request
 * serially, as the daemon does. A disabled tracer records nothing
 * and reads no clock, which is how the tracing overhead is measured.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /** Tag subsequent spans with `input` (no-op when disabled). */
    void setInput(int input)
    {
        if (enabled_)
            input_ = input;
    }

    /** RAII span; the name may be refined before it closes. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        void rename(const char *name) { name_ = name; }

      private:
        Tracer &tracer_;
        const char *name_;
        int index_ = -1;
    };

    /** Every recorded span, in the order they opened. */
    const std::vector<Span> &spans() const { return spans_; }

  private:
    double now() const;

    const bool enabled_;
    const std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
    int input_ = -1;
    /** Indices of the open spans, innermost last. */
    std::vector<int> open_;
    std::vector<Span> spans_;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval that the union of its children's intervals covers
 * (overlapping children are counted once).
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Sum of self (or inclusive) time per span name. */
std::map<std::string, double> timeByName(const std::vector<Span> &spans,
                                         bool self);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H_
