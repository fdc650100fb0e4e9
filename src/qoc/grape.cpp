#include "qoc/grape.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "linalg/expm.h"
#include "linalg/kernels.h"
#include "linalg/unitary_util.h"

namespace paqoc {

namespace {

/**
 * Trace of a * b given aT = a.transpose(): Tr(a b) = sum_{i,k}
 * a(i,k) b(k,i) = sum elementwise aT .* b, so both operands stream
 * row-major instead of b being walked down its columns. The dotu
 * kernel accumulates in ascending-i order on every backend.
 */
Complex
traceOfProductT(const Matrix &a_t, const Matrix &b)
{
    return kernels::dotu(a_t.data(), b.data(),
                         a_t.rows() * a_t.cols());
}

/** hash_combine-style seed mixer. */
std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

/** One ADAM-optimized GRAPE state. */
class GrapeRun
{
  public:
    GrapeRun(const DeviceModel &device, const Matrix &target,
             int num_slices, const GrapeOptions &opts)
        : device_(device), target_(target),
          target_adj_(target.adjoint()),
          target_conj_(target.conjugate()),
          opts_(opts),
          n_slices_(num_slices),
          n_controls_(device.numControls()),
          dim_(device.dim())
    {
        u_.assign(static_cast<std::size_t>(n_slices_),
                  std::vector<double>(n_controls_, 0.0));
        m_.assign(u_.size(), std::vector<double>(n_controls_, 0.0));
        v_.assign(u_.size(), std::vector<double>(n_controls_, 0.0));
        props_.resize(u_.size());
        prefix_.assign(u_.size(), Matrix(dim_, dim_));
        identity_ = Matrix::identity(dim_);
        tmp_.resize(dim_, dim_);
    }

    void
    seedRandom(Rng &rng)
    {
        for (auto &slice : u_)
            for (std::size_t k = 0; k < n_controls_; ++k)
                slice[k] = 0.5 * device_.bound(k)
                    * rng.uniform(-1.0, 1.0);
    }

    void
    seedFrom(const PulseSchedule &guess)
    {
        // Stretch or shrink the guess to the new slice count by
        // nearest-neighbor resampling, then clip to bounds.
        const int src = guess.numSlices();
        if (src == 0)
            return;
        // Resampled guesses repeat slices across adjacent duration
        // probes, so the first evaluation may reuse the shared
        // propagator cache.
        guess_seeded_ = true;
        for (int t = 0; t < n_slices_; ++t) {
            const int s = std::min(src - 1, t * src / n_slices_);
            for (std::size_t k = 0; k < n_controls_; ++k) {
                const double amp =
                    k < guess.amplitudes[static_cast<std::size_t>(s)]
                            .size()
                        ? guess.amplitudes[static_cast<std::size_t>(s)][k]
                        : 0.0;
                u_[static_cast<std::size_t>(t)][k] = std::clamp(
                    amp, -device_.bound(k), device_.bound(k));
            }
        }
    }

    /**
     * Adopt a mid-trial snapshot; the next iteration to run is
     * `state.iteration + 1`. False (state untouched beyond dims
     * check) when the snapshot's shape does not match this problem.
     */
    bool
    restore(const GrapeTrialState &state)
    {
        auto shaped = [&](const std::vector<std::vector<double>> &w) {
            if (w.size() != static_cast<std::size_t>(n_slices_))
                return false;
            for (const auto &slice : w)
                if (slice.size() != n_controls_)
                    return false;
            return true;
        };
        if (state.iteration < 0 || !shaped(state.u) || !shaped(state.m)
            || !shaped(state.v) || !shaped(state.bestU))
            return false;
        u_ = state.u;
        m_ = state.m;
        v_ = state.v;
        best_u_ = state.bestU;
        best_fidelity_ = state.bestFidelity;
        return true;
    }

    GrapeResult optimize(const GrapeRuntime &rt,
                         const GrapeTrialKey &key, int start_iter);

  private:
    double fidelityAndGradient(std::vector<std::vector<double>> &grad,
                               const GrapeRuntime &rt);

    const DeviceModel &device_;
    const Matrix &target_;
    const Matrix target_adj_;  // target^dag, hoisted out of the loop
    const Matrix target_conj_; // conj(target) = (target^dag)^T
    const GrapeOptions &opts_;
    int n_slices_;
    std::size_t n_controls_;
    std::size_t dim_;

    std::vector<std::vector<double>> u_; // amplitudes [slice][control]
    std::vector<std::vector<double>> m_; // ADAM first moment
    std::vector<std::vector<double>> v_; // ADAM second moment
    double best_fidelity_ = 0.0;
    std::vector<std::vector<double>> best_u_;

    // Scratch reused across all iterations of the trial: one warm
    // fidelity+gradient evaluation performs no matrix allocations at
    // all (the historical code allocated ~6 matrices per slice per
    // iteration). Contents never survive an iteration, so reuse
    // cannot change results.
    std::vector<Matrix> props_;  // slice propagators U_t
    std::vector<Matrix> prefix_; // prefix products F_t
    Matrix identity_;
    Matrix h_;   // slice Hamiltonian
    Matrix r_;   // backward accumulator R_t
    Matrix tmp_; // matmulInto cannot alias; multiply here and swap
    ExpmWorkspace ews_;
    bool guess_seeded_ = false;
};

double
GrapeRun::fidelityAndGradient(std::vector<std::vector<double>> &grad,
                              const GrapeRuntime &rt)
{
    const double d = static_cast<double>(dim_);
    // The cache only pays off on the very first evaluation of a
    // guess-seeded trial (before ADAM perturbs the amplitudes into
    // unique values); afterwards lookups would only waste time.
    PropagatorCache *cache = guess_seeded_ ? rt.propCache : nullptr;
    guess_seeded_ = false;

    // Forward pass: slice propagators and prefix products
    // F_t = U_t F_{t-1}, each written straight into its slot
    // (F_{-1} = I; the product with I is kept, it normalizes zeros).
    for (int t = 0; t < n_slices_; ++t) {
        const auto ts = static_cast<std::size_t>(t);
        const std::vector<double> &amps = u_[ts];
        // The propagator is a pure function of the slice amplitudes,
        // so equal amplitude vectors (common in resampled guesses and
        // zero-amplitude stretches) share one exponential -- first
        // with the previous slice, then through the cross-probe cache.
        if (t > 0 && amps == u_[ts - 1]) {
            props_[ts] = props_[ts - 1];
        } else if (cache == nullptr || !cache->lookup(amps, props_[ts])) {
            device_.sliceHamiltonianInto(amps, h_);
            expmPropagatorInto(h_, 1.0, props_[ts], ews_);
            if (cache != nullptr)
                cache->insert(amps, props_[ts]);
        }
        matmulInto(props_[ts], t > 0 ? prefix_[ts - 1] : identity_,
                   prefix_[ts]);
    }
    // Tr(target^dag F) as an elementwise dot with conj(target):
    // (target^dag)^T = conj(target), both matrices stream row-major.
    const Complex g = traceOfProductT(target_conj_, prefix_.back());
    const double fidelity = std::norm(g) / (d * d);

    // Backward pass: R_t = target^dag * U_N ... U_{t+1}; the gradient
    // of |g|^2/d^2 w.r.t. amplitude u_{t,k} with the first-order
    // propagator derivative -i dt H_k U_t is
    //   (2/d^2) * Re( conj(g) * Tr(R_t * (-i) * H_k * F_t) ).
    // Every control has one +-1/+-i entry per row, so Tr(R_t H_k F_t)
    // comes straight from R_t, F_t and the control's row map, bit for
    // bit the dense product's trace (kernels::traceRowMap).
    r_ = target_adj_;
    for (int t = n_slices_ - 1; t >= 0; --t) {
        const auto ts = static_cast<std::size_t>(t);
        for (std::size_t k = 0; k < n_controls_; ++k) {
            const ControlRowMap &map = device_.controlRowMap(k);
            const Complex tr = kernels::traceRowMap(
                r_.data(), prefix_[ts].data(), map.column.data(),
                map.phase.data(), dim_);
            const Complex dgrad = std::conj(g) * (Complex(0, -1) * tr);
            grad[ts][k] = 2.0 * dgrad.real() / (d * d);
        }
        matmulInto(r_, props_[ts], tmp_);
        std::swap(r_, tmp_);
    }
    return fidelity;
}

GrapeResult
GrapeRun::optimize(const GrapeRuntime &rt, const GrapeTrialKey &key,
                   int start_iter)
{
    constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;
    std::vector<std::vector<double>> grad(
        static_cast<std::size_t>(n_slices_),
        std::vector<double>(n_controls_, 0.0));

    GrapeResult result;
    // On resume the loop may not execute at all (snapshot taken at
    // the final iteration); account for the completed prefix.
    result.iterations = start_iter - 1;
    if (best_u_.empty())
        best_u_ = u_;
    const auto snapshot = [&](int iter) {
        if (rt.checkpoint != nullptr && rt.checkpointEvery > 0)
            rt.checkpoint->saveTrialState(GrapeTrialState{
                key, iter, best_fidelity_, u_, m_, v_, best_u_});
    };

    for (int iter = start_iter; iter <= opts_.maxIterations; ++iter) {
        const double fidelity = fidelityAndGradient(grad, rt);
        if (fidelity > best_fidelity_) {
            best_fidelity_ = fidelity;
            best_u_ = u_;
        }
        result.iterations = iter;
        if (1.0 - fidelity <= opts_.targetInfidelity) {
            result.converged = true;
            break;
        }

        const double b1t = 1.0 - std::pow(kBeta1, iter);
        const double b2t = 1.0 - std::pow(kBeta2, iter);
        for (int t = 0; t < n_slices_; ++t) {
            const auto ts = static_cast<std::size_t>(t);
            for (std::size_t k = 0; k < n_controls_; ++k) {
                const double gkt = grad[ts][k];
                m_[ts][k] = kBeta1 * m_[ts][k] + (1.0 - kBeta1) * gkt;
                v_[ts][k] = kBeta2 * v_[ts][k]
                    + (1.0 - kBeta2) * gkt * gkt;
                const double mhat = m_[ts][k] / b1t;
                const double vhat = v_[ts][k] / b2t;
                const double step = opts_.learningRate * device_.bound(k)
                    * mhat / (std::sqrt(vhat) + kEps);
                u_[ts][k] = std::clamp(u_[ts][k] + step,
                                       -device_.bound(k),
                                       device_.bound(k));
            }
        }

        // One check per iteration, after the snapshot so work done
        // before a trip is resumable, and after the convergence break
        // so every trial performs at least one full iteration (a
        // degraded token always has a best effort to hand back). An
        // unwind (hard trip or cancel) snapshots first, unless this
        // iteration's periodic snapshot was just written, so the
        // interrupted derivation resumes at iter + 1 byte-identically.
        const bool periodic =
            rt.checkpointEvery > 0 && iter % rt.checkpointEvery == 0;
        if (periodic)
            snapshot(iter);
        if (rt.quota != nullptr) {
            const QuotaToken::Step verdict = rt.quota->step();
            if (verdict == QuotaToken::Step::StopDegraded)
                break;
            if (verdict == QuotaToken::Step::Unwind) {
                if (!periodic)
                    snapshot(iter);
                rt.quota->throwStop();
            }
        }
    }

    result.schedule.amplitudes = best_u_;
    result.schedule.fidelity = best_fidelity_;
    return result;
}

} // namespace

bool
PropagatorCache::lookup(const std::vector<double> &amplitudes,
                        Matrix &out) const
{
    MutexLock lock(mutex_);
    const auto it = entries_.find(amplitudes);
    if (it == entries_.end())
        return false;
    out = it->second;
    return true;
}

void
PropagatorCache::insert(const std::vector<double> &amplitudes,
                        const Matrix &propagator)
{
    MutexLock lock(mutex_);
    if (entries_.size() >= kMaxEntries)
        return;
    entries_.emplace(amplitudes, propagator);
}

std::size_t
PropagatorCache::size() const
{
    MutexLock lock(mutex_);
    return entries_.size();
}

GrapeResult
grapeOptimize(const DeviceModel &device, const Matrix &target,
              int num_slices, const GrapeOptions &options,
              const PulseSchedule *initial_guess, ThreadPool *pool)
{
    GrapeRuntime runtime;
    runtime.pool = pool;
    return grapeOptimize(device, target, num_slices, options,
                         initial_guess, runtime);
}

GrapeResult
grapeOptimize(const DeviceModel &device, const Matrix &target,
              int num_slices, const GrapeOptions &options,
              const PulseSchedule *initial_guess,
              const GrapeRuntime &runtime)
{
    PAQOC_FATAL_IF(num_slices <= 0, "pulse needs at least one slice");
    PAQOC_FATAL_IF(target.rows() != device.dim(),
                   "target dimension ", target.rows(),
                   " does not match device dimension ", device.dim());
    const int restarts = std::max(1, options.restarts);
    // Per-gate seeding: the base seed is mixed with the target hash,
    // the slice count, and the restart index, so the initial pulse of
    // every (target, duration, restart) triple is a pure function of
    // the problem -- identical across threads, batch orders and probe
    // rounds.
    const std::uint64_t target_hash = matrixHash(target);
    auto run_one = [&](int restart) {
        const GrapeTrialKey key{target_hash, num_slices, restart};
        if (runtime.checkpoint != nullptr) {
            // Memoized replay: a finished trial's recorded result is
            // exactly what re-running it would produce (the trial is
            // a pure function of its key), so return it verbatim.
            if (std::optional<GrapeResult> done =
                    runtime.checkpoint->completedTrial(key))
                return *done;
        }
        GrapeRun run(device, target, num_slices, options);
        int start_iter = 1;
        bool resumed = false;
        if (runtime.checkpoint != nullptr) {
            if (std::optional<GrapeTrialState> state =
                    runtime.checkpoint->trialState(key);
                state && run.restore(*state)) {
                start_iter = state->iteration + 1;
                resumed = true;
            }
        }
        if (!resumed) {
            // The trial RNG is consumed entirely here, before the
            // first snapshot could be taken, so snapshots need not
            // carry RNG state to replay exactly.
            if (restart == 0 && initial_guess != nullptr
                && initial_guess->numSlices() > 0) {
                run.seedFrom(*initial_guess);
            } else {
                Rng rng(mixSeed(
                    mixSeed(mixSeed(options.seed, target_hash),
                            static_cast<std::uint64_t>(num_slices)),
                    static_cast<std::uint64_t>(restart)));
                run.seedRandom(rng);
            }
        }
        GrapeResult r = run.optimize(runtime, key, start_iter);
        // The grape.converge failpoint turns any run into a
        // non-converging one so the degraded (stitched) path can be
        // driven without constructing a genuinely hard unitary.
        // Applied before the completed-trial record is written so a
        // replayed trial matches what the live run returned.
        if (r.converged
            && failpoint::evaluate("grape.converge").action
                != failpoint::Action::Off)
            r.converged = false;
        // A quota-degraded trial stopped early; its result is not the
        // pure function of the key, so it must never be memoized (an
        // unbudgeted retry would replay the truncated pulse).
        if (runtime.checkpoint != nullptr
            && !(runtime.quota != nullptr && runtime.quota->exceeded()))
            runtime.checkpoint->saveCompletedTrial(key, r);
        return r;
    };

    if (restarts == 1)
        return run_one(0);

    std::vector<GrapeResult> results(
        static_cast<std::size_t>(restarts));
    if (runtime.pool != nullptr) {
        runtime.pool->parallelFor(results.size(), [&](std::size_t i) {
            results[i] = run_one(static_cast<int>(i));
        });
    } else {
        for (std::size_t i = 0; i < results.size(); ++i)
            results[i] = run_one(static_cast<int>(i));
    }

    // Deterministic pick: converged beats not, then higher fidelity,
    // then the lower restart index.
    std::size_t best = 0;
    int total_iterations = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        total_iterations += results[i].iterations;
        const GrapeResult &r = results[i];
        const GrapeResult &b = results[best];
        if (i == 0)
            continue;
        if ((r.converged && !b.converged)
            || (r.converged == b.converged
                && r.schedule.fidelity > b.schedule.fidelity))
            best = i;
    }
    GrapeResult out = std::move(results[best]);
    out.iterations = total_iterations;
    return out;
}

MinDurationResult
findMinimumDuration(const DeviceModel &device, const Matrix &target,
                    const GrapeOptions &options, int latency_hint,
                    const PulseSchedule *initial_guess, ThreadPool *pool)
{
    GrapeRuntime runtime;
    runtime.pool = pool;
    return findMinimumDuration(device, target, options, latency_hint,
                               initial_guess, runtime);
}

MinDurationResult
findMinimumDuration(const DeviceModel &device, const Matrix &target,
                    const GrapeOptions &options, int latency_hint,
                    const PulseSchedule *initial_guess,
                    const GrapeRuntime &runtime)
{
    MinDurationResult out;
    ThreadPool *pool = runtime.pool;

    // Adjacent duration probes seeded from the same guess share their
    // first-iteration slice propagators through this cache (values
    // are pure functions of the amplitudes, so sharing is invisible
    // to the results). An externally supplied cache wins, letting a
    // caller share across searches.
    PropagatorCache local_prop_cache;
    GrapeRuntime rt = runtime;
    if (rt.propCache == nullptr && initial_guess != nullptr)
        rt.propCache = &local_prop_cache;
    const GrapeRuntime &runtime_ref = rt;

    // Evaluate a deterministic set of candidate durations; with a pool
    // the candidates run concurrently, and the trial/iteration
    // accounting always folds in candidate order. A candidate shorter
    // than `floor` cannot converge: it is answered "not converged"
    // without a trial, so it costs no iteration, quota or checkpoint.
    auto eval_many = [&](const std::vector<int> &slices, double floor) {
        std::vector<GrapeResult> rs(slices.size());
        std::vector<std::size_t> run;
        run.reserve(slices.size());
        for (std::size_t i = 0; i < slices.size(); ++i) {
            if (slices[i] < floor)
                ++out.floorSkips;
            else
                run.push_back(i);
        }
        auto trial = [&](std::size_t j) {
            rs[run[j]] = grapeOptimize(device, target, slices[run[j]],
                                       options, initial_guess,
                                       runtime_ref);
        };
        if (pool != nullptr && run.size() > 1)
            pool->parallelFor(run.size(), trial);
        else
            for (std::size_t j = 0; j < run.size(); ++j)
                trial(j);
        for (std::size_t i : run) {
            out.totalIterations += rs[i].iterations;
            ++out.trials;
        }
        return rs;
    };

    const int probes = std::max(1, options.durationProbes);
    const int kMaxSlices = 4096;
    // A tripped degrade-mode token starts no further trial (a hard
    // trip has already unwound): the search then leaves the way the
    // duration cap does, from wherever the bracket stands.
    const auto stopped = [&]() {
        return runtime.quota != nullptr && runtime.quota->exceeded();
    };

    // Exponential bracketing upward from the hint until convergence;
    // with probes >= 2 each round tests the next two octaves at once.
    // Every bracketing trial runs, so the search only ever returns a
    // pulse it optimized.
    int lo = 1;
    int hi = std::max(latency_hint, 4);
    GrapeResult at_hi = eval_many({hi}, 0.0)[0];
    while (!at_hi.converged && hi < kMaxSlices && !stopped()) {
        if (probes <= 1) {
            lo = hi + 1;
            hi *= 2;
            at_hi = eval_many({hi}, 0.0)[0];
        } else {
            const std::vector<GrapeResult> rs =
                eval_many({hi * 2, hi * 4}, 0.0);
            if (rs[0].converged) {
                lo = hi + 1;
                hi *= 2;
                at_hi = rs[0];
            } else {
                lo = hi * 2 + 1;
                hi *= 4;
                at_hi = rs[1];
            }
        }
    }
    if (!at_hi.converged) {
        // Duration cap (or a degrade trip) reached without hitting
        // the fidelity target. Hand back the best effort and let the
        // caller degrade (stitch + tag) rather than abort the compile.
        out.converged = false;
        out.schedule = std::move(at_hi.schedule);
        return out;
    }

    // Multi-probe narrowing for the shortest converging duration in
    // [lo, hi]: p candidates split the bracket into p+1 parts (p = 1
    // is the classic binary search). Candidates below the two-qubit
    // speed limit are skipped, not cut from the bracket: convergence
    // is not monotone in duration, so the rounds and their candidates
    // stay exactly those of a search that ran every trial.
    const double floor =
        twoQubitDurationFloor(device, target, options.targetInfidelity);
    GrapeResult best = at_hi;
    while (lo < hi && !stopped()) {
        const int width = hi - lo;
        const int p = std::min(probes, width);
        std::vector<int> mids;
        mids.reserve(static_cast<std::size_t>(p));
        for (int i = 1; i <= p; ++i)
            mids.push_back(lo + (width * i) / (p + 1));
        const std::vector<GrapeResult> rs = eval_many(mids, floor);
        int found = -1;
        for (std::size_t i = 0; i < rs.size(); ++i) {
            if (rs[i].converged) {
                found = static_cast<int>(i);
                break;
            }
        }
        if (found >= 0) {
            best = rs[static_cast<std::size_t>(found)];
            hi = mids[static_cast<std::size_t>(found)];
            if (found > 0)
                lo = mids[static_cast<std::size_t>(found - 1)] + 1;
        } else {
            lo = mids.back() + 1;
        }
    }
    // A degrade trip may have cut a trial short or ended the rounds:
    // `best` meets the target but need not be the minimum.
    out.stopped = stopped();
    out.schedule = std::move(best.schedule);
    return out;
}

double
twoQubitDurationFloor(const DeviceModel &device, const Matrix &target,
                      double infidelity)
{
    if (device.numQubits() != 2 || target.rows() != 4
        || target.cols() != 4)
        return 0.0;
    // Controls past the 2n single-qubit drives are (XX+YY)/2 exchanges
    // on the one pair (at least one); at amplitude u each has
    // canonical rates (u/2, u/2, 0).
    double h = 0.0;
    for (std::size_t k = 2 * static_cast<std::size_t>(device.numQubits());
         k < device.numControls(); ++k)
        h += 0.5 * device.bound(k);
    const std::array<double, 3> c = weylCoordinates(target);
    // Fidelity >= 1 - infidelity moves each coordinate by at most
    // delta = arccos(sqrt(1 - infidelity)) (DESIGN.md §16).
    const double delta =
        std::acos(std::sqrt(std::max(0.0, 1.0 - infidelity)));
    // s-majorization of c by t (h, h, 0) (Vidal, Hammerer & Cirac;
    // Khaneja, Brockett & Glaser).
    return std::max({(c[0] - delta) / h,
                     (c[0] + c[1] - c[2] - 3.0 * delta) / (2.0 * h),
                     (c[0] + c[1] + c[2] - 3.0 * delta) / (2.0 * h),
                     0.0});
}

Matrix
schedulePropagator(const DeviceModel &device,
                   const PulseSchedule &schedule)
{
    Matrix acc = Matrix::identity(device.dim());
    Matrix h, u, tmp;
    ExpmWorkspace ws;
    for (const auto &slice : schedule.amplitudes) {
        device.sliceHamiltonianInto(slice, h);
        expmPropagatorInto(h, 1.0, u, ws);
        tmp.resize(device.dim(), device.dim());
        matmulInto(u, acc, tmp);
        std::swap(acc, tmp);
    }
    return acc;
}

double
scheduleFidelity(const DeviceModel &device, const Matrix &target,
                 const PulseSchedule &schedule)
{
    PAQOC_FATAL_IF(target.rows() != device.dim(),
                   "target dimension ", target.rows(),
                   " does not match device dimension ", device.dim());
    const Matrix acc = schedulePropagator(device, schedule);
    const Complex g = traceOfProductT(target.conjugate(), acc);
    const double d = static_cast<double>(device.dim());
    return std::norm(g) / (d * d);
}

} // namespace paqoc
