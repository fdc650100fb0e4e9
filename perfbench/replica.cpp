#include "replica.h"

#include <utility>

#include "circuit/qasm.h"
#include "common/quota.h"
#include "common/stopwatch.h"
#include "mining/miner.h"
#include "paqoc/compiler.h"
#include "paqoc/esp.h"
#include "paqoc/latency_oracle.h"
#include "service/service.h"
#include "transpile/decompose.h"
#include "transpile/sabre.h"
#include "transpile/topology.h"

namespace perfbench {

using namespace paqoc;

namespace {

/**
 * A pulse backend with spans around the two calls the compiler makes
 * into it: estimateLatency (the model query of merge and APA) and
 * generateOne (a cache lookup, or a derivation when it misses).
 * Counts are per generator, i.e. per request.
 */
template <class Base> class Traced : public Base
{
  public:
    template <class... Args>
    explicit Traced(Tracer &tracer, Args &&...args)
        : Base(std::forward<Args>(args)...), tracer_(tracer)
    {
    }

    /** estimates / derivations / degraded of this request. */
    ReplicaCounters counters;

    double estimateLatency(const Matrix &unitary, int num_qubits) override
    {
        const Tracer::Scope span(tracer_, "qoc.estimate");
        ++counters.estimates;
        return Base::estimateLatency(unitary, num_qubits);
    }

  protected:
    PulseGenResult generateOne(const Matrix &unitary, int num_qubits,
                               ThreadPool *pool,
                               std::uint64_t nearest_horizon) override
    {
        Tracer::Scope span(tracer_, "qoc.lookup");
        PulseGenResult r =
            Base::generateOne(unitary, num_qubits, pool, nearest_horizon);
        if (!r.cacheHit) {
            span.rename("qoc.derive");
            ++counters.derivations;
            if (r.degraded)
                ++counters.degraded;
        }
        return r;
    }

  private:
    Tracer &tracer_;
};

/** The daemon's topology spec parser (service.cpp keeps its own). */
Topology
topologyFromSpec(const std::string &spec)
{
    if (spec.rfind("line:", 0) == 0)
        return Topology::line(std::stoi(spec.substr(5)));
    const std::size_t x = spec.find('x');
    PAQOC_FATAL_IF(x == std::string::npos, "bad topology '", spec, "'");
    return Topology::grid(std::stoi(spec.substr(0, x)),
                          std::stoi(spec.substr(x + 1)));
}

std::string
fingerprint(const std::string &backend)
{
    return backend == "grape" ? PulseLibrary::grapeFingerprint(GrapeOptions{})
                              : PulseLibrary::spectralFingerprint();
}

} // namespace

/** Forwards journal appends to the replica's library, timing each. */
class Replica::TimedSink : public PulseStoreSink
{
  public:
    TimedSink(Tracer &tracer, ReplicaCounters &counters,
              PulseStoreSink &target)
        : tracer_(tracer), counters_(counters), target_(target)
    {
    }

    void onInsert(const std::string &key, const CachedPulse &entry) override
    {
        const Tracer::Scope span(tracer_, "store.append");
        ++counters_.appends;
        target_.onInsert(key, entry);
    }

  private:
    Tracer &tracer_;
    ReplicaCounters &counters_;
    PulseStoreSink &target_;
};

Replica::Replica(Tracer &tracer, const std::string &backend,
                 const std::string &epoch_dir, const std::string &journal_dir)
    : tracer_(tracer)
{
    // The daemon keeps one sub-library per backend under --library.
    const Stopwatch watch;
    epoch_ = std::make_unique<PulseLibrary>(epoch_dir + "/" + backend,
                                            fingerprint(backend));
    recover_s_ = watch.seconds();
    journal_ = std::make_unique<PulseLibrary>(journal_dir + "/" + backend,
                                              fingerprint(backend));
    sink_ = std::make_unique<TimedSink>(tracer_, counters_, *journal_);
}

Replica::~Replica() = default;

ReplicaResult
Replica::run(int index, const BenchInput &input)
{
    tracer_.setInput(index);
    ReplicaResult out;
    const Stopwatch watch;
    Json payload;
    {
        const Tracer::Scope handle(tracer_, "service.handle");
        const CompileJob job = compileJobFromJson(input.request);
        PAQOC_FATAL_IF(job.method != "paqoc" || !job.benchmark.empty(),
                       "the replica covers QASM paqoc jobs only");
        // PulseService::handleCompile: a fresh generator per request,
        // exact-hit warm starts only (grapeSeedDistance 0), an
        // unlimited quota token that still counts iterations.
        const ReplicaCounters *hooks = nullptr;
        if (job.backend == "grape") {
            auto g = std::make_unique<Traced<GrapePulseGenerator>>(
                tracer_, GrapeOptions{});
            g->setSeedDistance(0.0);
            hooks = &g->counters;
            out.generator = std::move(g);
        } else {
            auto g = std::make_unique<Traced<SpectralPulseGenerator>>(tracer_);
            hooks = &g->counters;
            out.generator = std::move(g);
        }
        PulseGenerator &gen = *out.generator;
        QuotaToken quota(QuotaLimits{});
        gen.setQuota(&quota);
        {
            const Tracer::Scope span(tracer_, "service.epoch_warm");
            epoch_->warm(gen.cache());
        }
        gen.cache().attachStore(sink_.get());

        // runCompileJob's front end.
        const Topology topology = topologyFromSpec(job.topology);
        {
            const Tracer::Scope span(tracer_, "circuit.parse");
            out.logical = fromQasm(job.qasm);
        }
        Circuit cx_level{1};
        {
            const Tracer::Scope span(tracer_, "transpile.decompose");
            cx_level = decomposeToCx(out.logical);
        }
        RoutingResult routed;
        {
            const Tracer::Scope span(tracer_, "transpile.route");
            routed = sabreRoute(cx_level, topology);
        }
        {
            const Tracer::Scope span(tracer_, "transpile.lower");
            out.physical = decomposeToBasis(routed.physical);
        }
        out.initialLayout = routed.initialLayout;
        out.finalLayout = routed.finalLayout;
        out.swaps = routed.swapCount;

        PaqocOptions opts;
        if (job.m == "inf")
            opts.apaM = -1;
        else if (job.m == "tuned")
            opts.tuned = true;
        else
            opts.apaM = std::stoi(job.m);
        opts.merge.maxN = job.maxn;
        opts.miner.maxQubits = job.maxn;
        opts.merge.commutativityAware = job.commute;

        // compilePaqoc, stage by stage.
        CompileReport report;
        const double cost0 = gen.totalCostUnits();
        const std::size_t calls0 = gen.generateCalls();
        const std::size_t hits0 = gen.cacheHits();
        Circuit working = out.physical;
        if (opts.apaM != 0 || opts.tuned) {
            {
                const Tracer::Scope span(tracer_, "mining.mine");
                report.patterns =
                    mineFrequentSubcircuits(out.physical, opts.miner);
            }
            LatencyOracle oracle(gen);
            const LatencyFn lat_fn = [&](const Gate &g) { return oracle(g); };
            ApaRewriteResult apa;
            {
                const Tracer::Scope span(tracer_, "mining.apa");
                apa = applyApaBasis(out.physical, report.patterns, opts.apaM,
                                    opts.tuned, &lat_fn);
            }
            report.apaKinds = apa.apaGatesUsed;
            report.apaUses = apa.apaUseCount;
            report.gatesCovered = apa.gatesCovered;
            working = std::move(apa.circuit);
        }
        {
            const Tracer::Scope span(tracer_, "paqoc.merge");
            MergeResult merged =
                mergeCustomizedGates(working, gen, opts.merge);
            out.merge = merged.stats;
            report.merges = merged.stats.mergesApplied;
            working = std::move(merged.circuit);
        }
        // The daemon runs each request on a pool worker, where nested
        // parallel loops run inline; the replica runs serially too.
        CircuitPulses pulses;
        {
            const Tracer::Scope span(tracer_, "paqoc.pulse_pass");
            pulses = generateCircuitPulses(working, gen, nullptr);
        }
        report.circuit = working;
        report.latency = pulses.makespan;
        report.esp = pulses.esp;
        report.finalGateCount = static_cast<int>(working.size());
        report.costUnits = gen.totalCostUnits() - cost0;
        report.pulseCalls = gen.generateCalls() - calls0;
        report.cacheHits = gen.cacheHits() - hits0;
        report.wallSeconds = watch.seconds();

        {
            const Tracer::Scope span(tracer_, "service.payload");
            payload = compilePayload(job, report, gen);
        }
        Json response = Json::object();
        response.set("ok", Json(true));
        response.set("payload", payload);
        Json stats = Json::object();
        stats.set("pulse_calls", Json(report.pulseCalls));
        stats.set("cache_hits", Json(report.cacheHits));
        stats.set("cost_units", Json(report.costUnits));
        stats.set("wall_seconds", Json(report.wallSeconds));
        stats.set("iters_charged",
                  Json(static_cast<double>(quota.itersCharged())));
        response.set("stats", std::move(stats));
        std::string text;
        {
            const Tracer::Scope span(tracer_, "common.json_dump");
            text = response.dump();
        }
        {
            const Tracer::Scope span(tracer_, "common.json_parse");
            (void)Json::parse(text);
        }

        out.finalCircuit = report.circuit;
        out.patterns = static_cast<int>(report.patterns.size());
        out.apaUses = report.apaUses;
        out.pulseCalls = report.pulseCalls;
        out.cacheHits = report.cacheHits;
        out.grapeIters = quota.itersCharged();
        out.degraded = hooks->degraded;
        counters_.estimates += hooks->estimates;
        counters_.derivations += hooks->derivations;
        counters_.degraded += out.degraded;
        // The quota token and the sink do not outlive this request.
        gen.setQuota(nullptr);
        gen.cache().attachStore(nullptr);
    }
    out.seconds = watch.seconds();
    out.payload = payload.dump();
    return out;
}

} // namespace perfbench
