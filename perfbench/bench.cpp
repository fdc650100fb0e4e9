#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>

#include "common/error.h"
#include "common/stopwatch.h"
#include "daemon.h"
#include "oracle.h"
#include "qoc/pulse_generator.h"
#include "replica.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace fs = std::filesystem;
using paqoc::Json;
using paqoc::Stopwatch;

namespace {

/** Inputs with at least this many ranked above the tail value. */
constexpr std::size_t kTailBeyond = 10;

/** Safety cap on passes of a long, cheap run. */
constexpr int kMaxPasses = 400;

/**
 * Fewest passes of a timed run. A grape_cold pass takes 8-16 s, so
 * at 25 s the time rule alone would often stop after two.
 */
constexpr int kMinTimedPasses = 3;

/** The timed samples of one pass (fresh daemon, every input once). */
struct PassRecord
{
    double setup = 0.0;
    /** Round-trip seconds, indexed by input. */
    std::vector<double> rt;
    double cpuPerRequest = 0.0;
    double rssMb = 0.0;
    /** Wall seconds of the pass, launch to reap. */
    double seconds = 0.0;
};

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, format, v);
    return buf;
}

/** One run's state: inputs, daemon launches, and the checks so far. */
class Session
{
  public:
    Session(const RunOptions &options, std::ostream &log)
        : opt_(options), log_(log),
          inputs_(
              makeInputs(options.workload, options.seed, options.inputLimit)),
          payloads_(inputs_.size()), stable_(inputs_.size(), true)
    {
        fs::remove_all(opt_.workdir);
        fs::create_directories(opt_.workdir);
    }

    ~Session()
    {
        std::error_code ec;
        fs::remove_all(opt_.workdir, ec);
    }

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    bool grape() const { return opt_.workload != Workload::Table1Spectral; }
    bool warm() const { return opt_.workload == Workload::LibraryWarm; }
    const char *backend() const { return grape() ? "grape" : "spectral"; }
    const std::vector<BenchInput> &inputs() const { return inputs_; }
    std::size_t n() const { return inputs_.size(); }
    OracleTally &tally() { return tally_; }
    const std::string &payload(std::size_t i) const { return payloads_[i]; }
    const RunOptions &options() const { return opt_; }

    /** A new empty directory under the work directory. */
    std::string freshDir(const std::string &tag)
    {
        const fs::path p =
            fs::path(opt_.workdir) / (tag + std::to_string(dirs_++));
        fs::remove_all(p);
        fs::create_directories(p);
        return p.string();
    }

    std::unique_ptr<Daemon> launch(const std::string &library)
    {
        const std::string socket =
            (fs::path(opt_.workdir)
             / ("d" + std::to_string(dirs_++) + ".sock"))
                .string();
        return std::make_unique<Daemon>(
            opt_.paqocd, socket, library,
            (fs::path(opt_.workdir) / "paqocd.log").string());
    }

    /**
     * Untimed: a fresh daemon on `library` answers each input once,
     * on one connection like the timed passes (concurrent clients are
     * out of this benchmark's scope). Returns the payloads, "" for an
     * error response.
     */
    std::vector<std::string> sendOnce(const std::vector<BenchInput> &inputs,
                                      const std::string &library)
    {
        std::unique_ptr<Daemon> d = launch(library);
        std::vector<std::string> payloads;
        for (const BenchInput &in : inputs)
            payloads.push_back(record(d->client().request(in.request), in.id));
        tally_.check(d->stop().clean, "untimed daemon exited unclean");
        return payloads;
    }

    /**
     * library_warm's preparation: every input once through a daemon on
     * an empty library, which journals every derivation.
     */
    void prepareLibrary()
    {
        prepared_ = freshDir("prepared");
        sendOnce(inputs_, prepared_);
    }

    /** One pass: fresh daemon, every input once in seeded order. */
    PassRecord runPass(int pass)
    {
        const Stopwatch pass_watch;
        // The prepared library, or a fresh empty one.
        const std::string library = warm() ? prepared_ : freshDir("lib");
        std::unique_ptr<Daemon> d = launch(library);
        PassRecord rec;
        rec.setup = d->setupSeconds();
        rec.rt.assign(n(), 0.0);
        for (std::size_t i : passOrder(n(), opt_.seed, pass)) {
            const Json request = inputs_[i].request;
            const Stopwatch watch;
            const Json response = d->client().request(request);
            rec.rt[i] = watch.seconds();
            const std::string payload = record(response, inputs_[i].id);
            if (passes_ == 0)
                payloads_[i] = payload;
            else if (payload != payloads_[i])
                stable_[i] = false;
        }
        if (warm()) {
            Json stats_op = Json::object();
            stats_op.set("op", Json("stats"));
            const Json stats = d->client().request(stats_op);
            const Json &serving = stats.at("payload").at("serving");
            tally_.check(serving.at("pulse_calls").asNumber()
                             == serving.at("cache_hits").asNumber(),
                         "pass " + std::to_string(pass)
                             + ": a pulse call missed the prepared "
                               "library");
        }
        const DaemonExit exit = d->stop();
        tally_.check(exit.clean, "daemon exited unclean after pass "
                                     + std::to_string(pass));
        rec.cpuPerRequest = exit.cpuSeconds / static_cast<double>(n());
        rec.rssMb = exit.peakRssMb;
        if (!warm())
            fs::remove_all(library);
        ++passes_;
        rec.seconds = pass_watch.seconds();
        return rec;
    }

    /**
     * Passes until their own wall time comes closest to `seconds` (at
     * least min_passes), or exactly opt.passes when that is set.
     * `between`, when given, runs untimed work after every pass that
     * another pass follows; it gets the passes so far.
     */
    std::vector<PassRecord> runPasses(
        double seconds, int min_passes,
        const std::function<void(const std::vector<PassRecord> &)> &between =
            nullptr)
    {
        std::vector<PassRecord> out;
        double spent = 0.0;
        for (int p = 0; p < kMaxPasses; ++p) {
            out.push_back(runPass(p));
            const PassRecord &r = out.back();
            spent += r.seconds;
            double sum = 0.0;
            for (double v : r.rt)
                sum += v;
            log_ << "pass " << p << ": setup " << fmt("%.4f", r.setup)
                 << " s, sum of round trips " << fmt("%.4f", sum)
                 << " s, median " << fmt("%.5f", median(r.rt))
                 << " s, daemon cpu/request " << fmt("%.5f", r.cpuPerRequest)
                 << " s, peak rss " << fmt("%.1f", r.rssMb) << " MiB\n";
            const int done = p + 1;
            // Another pass if it would end less than half a pass
            // past `seconds`.
            const bool more =
                opt_.passes > 0 ? done < opt_.passes
                                : done < min_passes
                                      || spent + 0.5 * spent / done < seconds;
            if (!more)
                break;
            if (between)
                between(out);
        }
        return out;
    }

    /** Directory the replica's epoch library reads. */
    std::string epochDir() { return warm() ? prepared_ : freshDir("epoch"); }

    std::size_t requests() const { return requests_; }
    std::size_t requestFailures() const { return request_failures_; }

    /** Per-input stability of the payload over every pass. */
    void checkStability()
    {
        for (std::size_t i = 0; i < n(); ++i)
            tally_.check(stable_[i], inputs_[i].id
                                         + ": payload changed between "
                                           "passes");
    }

  private:
    /** Count a response; returns its payload dump ("" on error). */
    std::string record(const Json &response, const std::string &id)
    {
        ++requests_;
        if (response.get("ok", Json(false)).asBool())
            return response.at("payload").dump();
        ++request_failures_;
        log_ << id << ": error response "
             << response.get("error", Json("?")).asString() << "\n";
        return "";
    }

    const RunOptions &opt_;
    std::ostream &log_;
    std::vector<BenchInput> inputs_;
    std::vector<std::string> payloads_;
    std::vector<bool> stable_;
    OracleTally tally_;
    std::string prepared_;
    std::size_t requests_ = 0;
    std::size_t request_failures_ = 0;
    int passes_ = 0;
    int dirs_ = 0;
};

void
add(RunResult &r, const std::string &name, double value,
    const std::string &unit)
{
    r.metrics.push_back({name, value, unit});
}

/** Geometric mean of one numeric payload member over the inputs. */
double
payloadGeomean(Session &s, const char *member)
{
    std::vector<double> values;
    for (std::size_t i = 0; i < s.n(); ++i)
        if (!s.payload(i).empty())
            values.push_back(Json::parse(s.payload(i)).at(member).asNumber());
    return values.empty() ? 0.0 : geomean(values);
}

void
finish(RunResult &r, Session &s, std::ostream &log)
{
    r.attempted = s.requests() + s.tally().checks;
    r.failed = s.requestFailures() + s.tally().failed;
    r.correct = r.failed == 0;
    for (const std::string &f : s.tally().failures)
        log << "FAILED: " << f << "\n";
    log << "operations: " << r.attempted << " attempted (" << s.requests()
        << " requests, " << s.tally().checks << " checks), " << r.failed
        << " failed, " << s.tally().unchecked << " unchecked\n";
}

std::unique_ptr<paqoc::PulseGenerator>
stitchedGenerator(bool grape)
{
    if (!grape)
        return std::make_unique<paqoc::SpectralPulseGenerator>();
    auto g = std::make_unique<paqoc::GrapePulseGenerator>();
    g->setSeedDistance(0.0);
    return g;
}

/**
 * The replica-side checks of a timed run, all untimed: every timed
 * input against the payload of the passes, then every relabeled input
 * (relabeledInputs) through a daemon of its own. They run in slices
 * between the passes, which spreads the passes over the whole run,
 * and what is left after the last pass.
 */
class Oracle
{
  public:
    explicit Oracle(Session &s)
        : s_(s),
          relabeled_(relabeledInputs(s.options().workload, s.options().seed,
                                     s.options().inputLimit)),
          replica_(off_, s.backend(), s.epochDir(), s.freshDir("replica")),
          stitched_(stitchedGenerator(s.grape()))
    {
    }

    Oracle(const Oracle &) = delete;
    Oracle &operator=(const Oracle &) = delete;

    /** Split the checks into `slices` slices of equal count. */
    void plan(std::size_t slices)
    {
        slice_ = (total() + slices - 1) / std::max<std::size_t>(1, slices);
    }

    /** Run the next slice of the checks. */
    void step() { runUntil(std::min(total(), next_ + slice_)); }

    /** Every check not run yet, then payload stability over the passes. */
    void finish()
    {
        runUntil(total());
        s_.checkStability();
    }

  private:
    /** Check items: the timed inputs, then the relabeled ones. */
    std::size_t total() const { return s_.n() + relabeled_.size(); }

    void runUntil(std::size_t end)
    {
        for (; next_ < end && next_ < s_.n(); ++next_)
            check(next_, s_.inputs()[next_], s_.payload(next_));
        if (next_ >= end)
            return;
        const std::vector<BenchInput> batch(
            relabeled_.begin() + static_cast<long>(next_ - s_.n()),
            relabeled_.begin() + static_cast<long>(end - s_.n()));
        const std::string library = s_.freshDir("relabeled");
        const std::vector<std::string> payloads = s_.sendOnce(batch, library);
        fs::remove_all(library);
        for (std::size_t k = 0; k < batch.size(); ++k, ++next_)
            check(next_, batch[k], payloads[k]);
    }

    void check(std::size_t item, const BenchInput &in,
               const std::string &payload)
    {
        // An error response already counts as a failed operation.
        if (payload.empty())
            return;
        ReplicaResult r = replica_.run(static_cast<int>(item), in);
        checkInput(s_.tally(), in.id, payload, r, *stitched_, s_.grape(),
                   s_.options().seed * 1000003ULL + item);
    }

    Session &s_;
    const std::vector<BenchInput> relabeled_;
    Tracer off_{false};
    Replica replica_;
    const std::unique_ptr<paqoc::PulseGenerator> stitched_;
    std::size_t next_ = 0;
    std::size_t slice_ = 0;
};

RunResult
timedRun(const RunOptions &opt, std::ostream &log)
{
    Session s(opt, log);
    log << "workload " << workloadName(opt.workload) << ", seed " << opt.seed
        << ": " << s.n()
        << " inputs, closed loop over one connection to paqocd\n";
    if (s.warm())
        s.prepareLibrary();
    Oracle oracle(s);
    const std::vector<PassRecord> passes = s.runPasses(
        opt.seconds, kMinTimedPasses,
        [&](const std::vector<PassRecord> &done) {
            // One slice for each gap between the passes pass 0 predicts.
            if (done.size() == 1) {
                const long expected =
                    std::max<long>(kMinTimedPasses,
                                   std::lround(opt.seconds / done[0].seconds));
                oracle.plan(static_cast<std::size_t>(expected - 1));
            }
            oracle.step();
        });
    oracle.finish();

    std::vector<std::vector<double>> rts;
    double setup = std::numeric_limits<double>::infinity();
    double cpu = std::numeric_limits<double>::infinity();
    double rss = 0.0;
    for (const PassRecord &p : passes) {
        rts.push_back(p.rt);
        setup = std::min(setup, p.setup);
        cpu = std::min(cpu, p.cpuPerRequest);
        rss = std::max(rss, p.rssMb);
    }
    const std::vector<double> best = bestOfPasses(rts);
    double total = 0.0;
    for (double v : best)
        total += v;
    const TailPercentile tail = tailPercentile(best, kTailBeyond);

    RunResult r;
    add(r, "setup_s", setup, "s");
    add(r, "latency_p50_s", median(best), "s");
    add(r, "latency_tail_s", tail.value, "s");
    add(r, "latency_geomean_s", geomean(best), "s");
    add(r, "throughput_rps", static_cast<double>(s.n()) / total, "1/s");
    add(r, "cpu_s_per_request", cpu, "s");
    add(r, "peak_rss_mb", rss, "MiB");
    add(r, "pulse_dt_geomean", payloadGeomean(s, "latency_dt"), "dt");
    add(r, "esp_geomean", payloadGeomean(s, "esp"), "ratio");

    for (std::size_t i = 0; i < s.n(); ++i)
        log << "input " << s.inputs()[i].id << ": best round trip "
            << fmt("%.5f", best[i]) << " s\n";
    log << "samples: " << s.n() << " inputs x " << passes.size()
        << " passes; each input's best round trip, and the best setup, "
        << "over the passes\n";
    log << "latency_tail_s is p" << fmt("%.1f", tail.percentile) << " ("
        << tail.beyondCount << " of " << s.n() << " inputs beyond it)\n";
    for (const Metric &m : r.metrics)
        log << m.name << " " << fmt("%.6g", m.value) << " " << m.unit << "\n";
    finish(r, s, log);
    return r;
}

/** Sum of a per-input replica quantity. */
template <class F>
double
sumOver(const std::vector<ReplicaResult> &results, F f)
{
    double total = 0.0;
    for (const ReplicaResult &r : results)
        total += static_cast<double>(f(r));
    return total;
}

/** Per-input replica seconds over the first `subset` inputs. */
std::vector<double>
replayTimes(Session &s, bool traced, std::size_t subset)
{
    Tracer tracer(traced);
    Replica replica(tracer, s.backend(), s.epochDir(), s.freshDir("overhead"));
    std::vector<double> out;
    for (std::size_t i = 0; i < subset; ++i)
        out.push_back(replica.run(static_cast<int>(i), s.inputs()[i]).seconds);
    return out;
}

RunResult
tracedRun(const RunOptions &opt, std::ostream &log)
{
    Session s(opt, log);
    log << "traced run of " << workloadName(opt.workload) << ", seed "
        << opt.seed << ": " << s.n() << " inputs\n";
    if (s.warm())
        s.prepareLibrary();
    // Daemon passes give the payloads the replica must reproduce and
    // the best round trips that service.transport_s subtracts from.
    const std::vector<PassRecord> passes = s.runPasses(opt.seconds / 3.0, 1);
    std::vector<std::vector<double>> rts;
    for (const PassRecord &p : passes)
        rts.push_back(p.rt);
    const std::vector<double> best = bestOfPasses(rts);

    Tracer tracer(true);
    Replica replica(tracer, s.backend(), s.epochDir(), s.freshDir("replica"));
    std::vector<ReplicaResult> results;
    bool faithful = true;
    for (std::size_t i = 0; i < s.n(); ++i) {
        results.push_back(replica.run(static_cast<int>(i), s.inputs()[i]));
        const bool same = results.back().payload == s.payload(i);
        s.tally().check(same, s.inputs()[i].id
                                  + ": replica payload differs from "
                                    "the daemon's");
        faithful = faithful && same;
        // Only the generator's cache is needed past this point.
        results.back().generator.reset();
    }
    s.checkStability();
    RunResult r;
    if (!faithful) {
        log << "the replica did not reproduce the daemon's payloads; "
               "no spans are reported\n";
        finish(r, s, log);
        r.correct = false;
        return r;
    }

    const std::vector<Span> &spans = tracer.spans();
    const std::map<std::string, double> self = timeByName(spans, true);
    const std::map<std::string, double> incl = timeByName(spans, false);
    const std::vector<double> own = selfTimes(spans);
    auto selfOf = [&](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    auto inclOf = [&](const char *name) {
        const auto it = incl.find(name);
        return it == incl.end() ? 0.0 : it->second;
    };

    // Fig. 11 check: pulse generation's share of compile time. Lookups
    // also run under the payload build, so the generator's time in the
    // pulse pass is taken as the pass's covered time (inclusive minus
    // self).
    double covered_pulse_pass = 0.0;
    for (std::size_t k = 0; k < spans.size(); ++k)
        if (spans[k].name == "paqoc.pulse_pass")
            covered_pulse_pass += (spans[k].end - spans[k].start) - own[k];
    double compile = 0.0;
    for (const char *stage :
         {"circuit.parse", "transpile.decompose", "transpile.route",
          "transpile.lower", "mining.mine", "mining.apa", "paqoc.merge",
          "paqoc.pulse_pass"})
        compile += inclOf(stage);
    const double pulse_gen = inclOf("qoc.estimate") + covered_pulse_pass;
    const double share = compile > 0.0 ? pulse_gen / compile : 0.0;

    // Tracing overhead: replay inputs with spans off and on, best of
    // `reps` per input; as many replays as daemon passes (up to 20),
    // so replica and daemon bests rest on similar sample counts.
    // GRAPE replays are dear, so grape_cold replays 4 inputs twice.
    const bool cold_grape = s.grape() && !s.warm();
    const std::size_t subset =
        cold_grape ? std::min<std::size_t>(s.n(), 4) : s.n();
    const int reps =
        cold_grape ? 2 : std::min(20, static_cast<int>(passes.size()));
    std::vector<double> plain(subset, std::numeric_limits<double>::infinity());
    std::vector<double> traced = plain;
    for (int k = 0; k < reps; ++k) {
        const std::vector<double> p = replayTimes(s, false, subset);
        const std::vector<double> t = replayTimes(s, true, subset);
        for (std::size_t i = 0; i < subset; ++i) {
            plain[i] = std::min(plain[i], p[i]);
            traced[i] = std::min(traced[i], t[i]);
        }
    }
    double plain_sum = 0.0;
    double traced_sum = 0.0;
    for (std::size_t i = 0; i < subset; ++i) {
        plain_sum += plain[i];
        traced_sum += traced[i];
    }

    const ReplicaCounters &c = replica.counters();
    const double derivations = static_cast<double>(c.derivations);
    const double iters =
        sumOver(results, [](const ReplicaResult &x) { return x.grapeIters; });
    const double pulse_calls =
        sumOver(results, [](const ReplicaResult &x) { return x.pulseCalls; });
    const double hits =
        sumOver(results, [](const ReplicaResult &x) { return x.cacheHits; });
    const double scored = sumOver(results, [](const ReplicaResult &x) {
        return x.merge.candidatesScored;
    });
    const double merges = sumOver(
        results, [](const ReplicaResult &x) { return x.merge.mergesApplied; });
    // Transport: the daemon's best round trip minus the best untraced
    // replay of the same request (the traced one outside the subset).
    double transport = 0.0;
    double response_bytes = 0.0;
    for (std::size_t i = 0; i < s.n(); ++i) {
        transport += best[i] - (i < subset ? plain[i] : results[i].seconds);
        response_bytes += static_cast<double>(s.payload(i).size());
    }
    const bool grape_iters = s.grape() && iters > 0.0;

    add(r, "qoc.derivations", derivations, "count");
    add(r, "qoc.derive_s", selfOf("qoc.derive"), "s");
    add(r, "qoc.grape_iters", iters, "count");
    add(r, "qoc.iters_per_derivation", grape_iters ? iters / derivations : 0.0,
        "count");
    add(r, "qoc.grape_iter_us",
        grape_iters ? 1e6 * inclOf("qoc.derive") / iters : 0.0, "us");
    add(r, "qoc.degraded_pulses", static_cast<double>(c.degraded), "count");
    add(r, "qoc.estimate_calls", static_cast<double>(c.estimates), "count");
    add(r, "qoc.estimate_s", selfOf("qoc.estimate"), "s");
    add(r, "qoc.lookup_s", selfOf("qoc.lookup"), "s");
    add(r, "qoc.pulse_calls", pulse_calls, "count");
    add(r, "qoc.cache_hits", hits, "count");
    add(r, "qoc.hit_ratio", pulse_calls > 0 ? hits / pulse_calls : 0.0,
        "ratio");
    add(r, "qoc.pulse_gen_share", share, "ratio");
    add(r, "mining.mine_s", selfOf("mining.mine"), "s");
    add(r, "mining.patterns",
        sumOver(results, [](const ReplicaResult &x) { return x.patterns; }),
        "count");
    add(r, "mining.apa_s", selfOf("mining.apa"), "s");
    add(r, "mining.apa_uses",
        sumOver(results, [](const ReplicaResult &x) { return x.apaUses; }),
        "count");
    add(r, "paqoc.merge_s", selfOf("paqoc.merge"), "s");
    add(r, "paqoc.merge_iterations",
        sumOver(results,
                [](const ReplicaResult &x) { return x.merge.iterations; }),
        "count");
    add(r, "paqoc.candidates_scored", scored, "count");
    add(r, "paqoc.candidates_pruned",
        sumOver(
            results,
            [](const ReplicaResult &x) { return x.merge.candidatesPruned; }),
        "count");
    add(r, "paqoc.merges_applied", merges, "count");
    add(r, "paqoc.merge_yield", scored > 0 ? merges / scored : 0.0, "ratio");
    add(r, "paqoc.pulse_pass_s", selfOf("paqoc.pulse_pass"), "s");
    add(r, "paqoc.final_gates",
        sumOver(results,
                [](const ReplicaResult &x) { return x.finalCircuit.size(); }),
        "count");
    add(r, "transpile.route_s",
        selfOf("circuit.parse") + selfOf("transpile.decompose")
            + selfOf("transpile.route") + selfOf("transpile.lower"),
        "s");
    add(r, "transpile.swaps",
        sumOver(results, [](const ReplicaResult &x) { return x.swaps; }),
        "count");
    add(r, "transpile.physical_gates",
        sumOver(results,
                [](const ReplicaResult &x) { return x.physical.size(); }),
        "count");
    add(r, "service.epoch_warm_s", selfOf("service.epoch_warm"), "s");
    add(r, "service.payload_s", selfOf("service.payload"), "s");
    add(r, "service.response_bytes", response_bytes, "bytes");
    add(r, "service.transport_s", transport, "s");
    add(r, "service.handle_self_s", selfOf("service.handle"), "s");
    add(r, "common.json_dump_s", selfOf("common.json_dump"), "s");
    add(r, "common.json_parse_s", selfOf("common.json_parse"), "s");
    add(r, "store.recover_s", replica.recoverSeconds(), "s");
    add(r, "store.records", static_cast<double>(replica.epochRecords()),
        "count");
    add(r, "store.appends", static_cast<double>(c.appends), "count");
    add(r, "store.append_s", selfOf("store.append"), "s");
    add(r, "trace.overhead_frac", traced_sum / plain_sum - 1.0, "ratio");

    log << "replica reproduced all " << s.n()
        << " daemon payloads byte for byte; " << spans.size() << " spans\n";
    log << "Fig. 11 check: pulse generation is " << fmt("%.1f", 100.0 * share)
        << "% of compile time on the " << s.backend() << " backend\n";
    log << "tracing overhead over " << subset << " inputs, best of " << reps
        << " replays each: " << fmt("%.4f", traced_sum) << " s traced vs "
        << fmt("%.4f", plain_sum) << " s plain\n";
    for (const Metric &m : r.metrics)
        log << m.name << " " << fmt("%.6g", m.value) << " " << m.unit << "\n";
    finish(r, s, log);
    return r;
}

} // namespace

RunResult
runBenchmark(const RunOptions &options, std::ostream &log)
{
    return options.trace ? tracedRun(options, log) : timedRun(options, log);
}

std::string
resultJson(const RunResult &result)
{
    Json metrics = Json::object();
    for (const Metric &m : result.metrics) {
        Json v = Json::object();
        v.set("value", Json(m.value));
        v.set("unit", Json(m.unit));
        metrics.set(m.name, std::move(v));
    }
    Json out = Json::object();
    out.set("correct", Json(result.correct));
    out.set("attempted", Json(result.attempted));
    out.set("failed", Json(result.failed));
    out.set("metrics", std::move(metrics));
    return out.dump();
}

} // namespace perfbench
