#include "fleet/router.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.h"
#include "common/failpoint.h"
#include "fleet/endpoint.h"
#include "fleet/fdpass.h"

namespace paqoc {
namespace fleet {

namespace {

// Self-pipe for SIGTERM/SIGINT delivery into the router's poll loop
// (and for requestStop() from another thread). Written from a signal
// handler, so it must be async-signal-safe raw I/O.
int g_signal_pipe[2] = {-1, -1};
volatile sig_atomic_t g_signal_seen = 0;

extern "C" void
routerSignalHandler(int signum)
{
    g_signal_seen = signum;
    const unsigned char byte = static_cast<unsigned char>(signum);
    // paqoc-lint: allow(raw-io) -- async-signal-safe handler
    [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

void
makePipe(int fds[2])
{
    PAQOC_FATAL_IF(::pipe(fds) != 0, "fleet: pipe(): ",
                   std::strerror(errno));
    for (int i = 0; i < 2; ++i)
        ::fcntl(fds[i], F_SETFD, FD_CLOEXEC);
    // The writer (heartbeat / signal handler) must never block.
    ::fcntl(fds[1], F_SETFL, O_NONBLOCK);
}

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Drain all readable bytes; returns bytes read (0 = EOF, -1 = EAGAIN). */
ssize_t
drainPipe(int fd)
{
    char buf[256];
    ssize_t total = -1;
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n > 0) {
            total = total < 0 ? n : total + n;
            continue;
        }
        if (n == 0)
            return 0;
        if (errno == EINTR)
            continue;
        return total;
    }
}

int
listenUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    PAQOC_FATAL_IF(path.size() >= sizeof addr.sun_path,
                   "fleet: socket path '", path, "' too long");
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof addr.sun_path - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    PAQOC_FATAL_IF(fd < 0, "fleet: socket(): ", std::strerror(errno));
    ::unlink(path.c_str());
    PAQOC_FATAL_IF(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                          sizeof addr)
                       != 0,
                   "fleet: cannot bind '", path, "': ",
                   std::strerror(errno));
    PAQOC_FATAL_IF(::listen(fd, 64) != 0, "fleet: listen(): ",
                   std::strerror(errno));
    return fd;
}

} // namespace

Router::Router(RouterOptions options,
               std::function<int(const FleetWorkerContext &)> worker)
    : options_(std::move(options)), worker_(std::move(worker))
{
    PAQOC_FATAL_IF(options_.workers < 1,
                   "fleet: --fleet needs at least 1 worker");
    slots_.resize(static_cast<std::size_t>(options_.workers));
}

Router::~Router()
{
    for (Slot &slot : slots_)
        closeSlotParentFds(slot);
    if (unix_fd_ >= 0)
        ::close(unix_fd_);
    if (tcp_fd_ >= 0)
        ::close(tcp_fd_);
}

void
Router::say(const std::string &message) const
{
    if (options_.log)
        options_.log(message);
}

void
Router::closeSlotParentFds(Slot &slot)
{
    if (slot.controlFd >= 0) {
        ::close(slot.controlFd);
        slot.controlFd = -1;
    }
    if (slot.heartbeatFd >= 0) {
        ::close(slot.heartbeatFd);
        slot.heartbeatFd = -1;
    }
}

void
Router::start()
{
    if (started_)
        return;
    started_ = true;
    PAQOC_FATAL_IF(options_.socketPath.empty()
                       && options_.listenHost.empty(),
                   "fleet: no listening endpoint configured");
    if (!options_.socketPath.empty())
        unix_fd_ = listenUnix(options_.socketPath);
    if (!options_.listenHost.empty()) {
        std::string error;
        tcp_fd_ = listenTcp(options_.listenHost, options_.listenPort,
                            64, &error, &tcp_port_);
        PAQOC_FATAL_IF(tcp_fd_ < 0, "fleet: ", error);
    }
    makePipe(g_signal_pipe);
    ::fcntl(g_signal_pipe[0], F_SETFL, O_NONBLOCK);
    for (int i = 0; i < options_.workers; ++i)
        spawnWorker(i);
}

void
Router::spawnWorker(int slot_index)
{
    Slot &slot = slots_[static_cast<std::size_t>(slot_index)];
    int control[2];
    PAQOC_FATAL_IF(::socketpair(AF_UNIX, SOCK_STREAM, 0, control) != 0,
                   "fleet: socketpair(): ", std::strerror(errno));
    int heartbeat[2];
    makePipe(heartbeat);
    ::fcntl(heartbeat[0], F_SETFL, O_NONBLOCK);

    const int incarnation = slot.incarnation + 1;
    // Hold SIGTERM/SIGINT across fork(): a stop forwarded before the
    // child resets its handlers would otherwise land in the inherited
    // router handler and be lost, leaving the worker running.
    sigset_t stop_signals, saved_mask;
    ::sigemptyset(&stop_signals);
    ::sigaddset(&stop_signals, SIGTERM);
    ::sigaddset(&stop_signals, SIGINT);
    ::pthread_sigmask(SIG_BLOCK, &stop_signals, &saved_mask);
    const pid_t pid = ::fork();
    if (pid != 0)
        ::pthread_sigmask(SIG_SETMASK, &saved_mask, nullptr);
    PAQOC_FATAL_IF(pid < 0, "fleet: fork(): ", std::strerror(errno));
    if (pid == 0) {
        // Worker incarnation: shed every router-side fd so the only
        // links back are this slot's control pair and heartbeat pipe.
        ::signal(SIGTERM, SIG_DFL);
        ::signal(SIGINT, SIG_DFL);
        ::pthread_sigmask(SIG_SETMASK, &saved_mask, nullptr);
        if (unix_fd_ >= 0)
            ::close(unix_fd_);
        if (tcp_fd_ >= 0)
            ::close(tcp_fd_);
        ::close(g_signal_pipe[0]);
        ::close(g_signal_pipe[1]);
        for (Slot &other : slots_)
            closeSlotParentFds(other);
        ::close(control[0]);
        ::close(heartbeat[0]);
        if (slot_index == 0 && incarnation == 0) {
            // Worker-only fault injection arms exactly once, in the
            // fleet's first worker, so chaos tests crash one worker
            // and assert the restarted incarnation serves cleanly.
            const char *spec =
                std::getenv("PAQOC_WORKER_FAILPOINTS");
            if (spec != nullptr && *spec != '\0')
                failpoint::armFromSpec(spec);
        }
        FleetWorkerContext ctx;
        ctx.slot = slot_index;
        ctx.incarnation = incarnation;
        ctx.controlFd = control[1];
        ctx.heartbeatFd = heartbeat[1];
        ctx.heartbeatIntervalMs = options_.heartbeatIntervalMs;
        int code = 1;
        try {
            code = worker_(ctx);
        } catch (const std::exception &e) {
            // paqoc-lint: allow(printf-output) -- last words before _exit()
            std::fprintf(stderr, "paqocd fleet worker: %s\n", e.what());
            code = 1;
        }
        std::fflush(nullptr);
        ::_exit(code);
    }

    ::close(control[1]);
    ::close(heartbeat[1]);
    slot.pid = pid;
    slot.controlFd = control[0];
    slot.heartbeatFd = heartbeat[0];
    slot.incarnation = incarnation;
    slot.alive = true;
    slot.killedForHang = false;
    slot.lastBeatMs = nowMs();
    slot.restartDueMs = 0.0;
    if (incarnation == 0)
        slot.backoffMs = options_.backoffMs;
    say("worker " + std::to_string(slot_index) + " incarnation "
        + std::to_string(incarnation) + " started (pid "
        + std::to_string(static_cast<long>(pid)) + ")");
}

void
Router::dispatchConnection(int listen_fd)
{
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0)
        return;
    // fleet.accept: the router mishandles (or dies on, with abort) a
    // freshly accepted connection; the client sees a severed socket
    // and rides to another attempt on its retry/backoff policy.
    const failpoint::Hit hit = failpoint::evaluate("fleet.accept");
    if (hit.action != failpoint::Action::Off
        && hit.action != failpoint::Action::DelayMs) {
        ::close(fd);
        return;
    }
    const int n = options_.workers;
    for (int k = 0; k < n; ++k) {
        const int i = (next_slot_ + k) % n;
        Slot &slot = slots_[static_cast<std::size_t>(i)];
        if (!slot.alive || slot.controlFd < 0)
            continue;
        if (sendFd(slot.controlFd, fd)) {
            ++slot.handed;
            next_slot_ = (i + 1) % n;
            ::close(fd); // the worker holds its own copy now
            return;
        }
    }
    // No worker took it (all dead or handoffs failed): sever the
    // connection so the client's retry policy kicks in.
    ::close(fd);
}

void
Router::beginShutdown(int signum)
{
    if (stopping_)
        return;
    stopping_ = true;
    stop_signal_ = signum;
    // Stop accepting first -- a drained fleet must not keep admitting.
    if (unix_fd_ >= 0) {
        ::close(unix_fd_);
        unix_fd_ = -1;
    }
    if (tcp_fd_ >= 0) {
        ::close(tcp_fd_);
        tcp_fd_ = -1;
    }
    const int forward = signum > 0 ? signum : SIGTERM;
    for (const Slot &slot : slots_)
        if (slot.alive)
            ::kill(slot.pid, forward);
    say(signum > 0
            ? "forwarding signal " + std::to_string(signum)
                  + " to workers; draining"
            : "draining fleet");
}

void
Router::reapWorker(int slot_index)
{
    Slot &slot = slots_[static_cast<std::size_t>(slot_index)];
    int status = 0;
    while (::waitpid(slot.pid, &status, 0) < 0 && errno == EINTR) {
    }
    closeSlotParentFds(slot);
    slot.alive = false;
    slot.lastStatus = status;
    const std::string who = "worker " + std::to_string(slot_index);

    if (stopping_) {
        say(who + " stopped");
        return;
    }
    if (!slot.killedForHang && WIFEXITED(status)
        && WEXITSTATUS(status) == 0) {
        // A clean solo exit is a client-requested shutdown: drain the
        // whole fleet rather than silently serving at lower capacity.
        say(who + " exited cleanly; draining fleet");
        beginShutdown(0);
        return;
    }

    const std::string why = slot.killedForHang ? "hung"
        : WIFSIGNALED(status)
        ? "killed by signal " + std::to_string(WTERMSIG(status))
        : "exited with status " + std::to_string(WEXITSTATUS(status));
    if (slot.incarnation >= options_.maxRestarts) {
        slot.dead = true;
        say(who + " " + why + "; restart budget ("
            + std::to_string(options_.maxRestarts)
            + ") spent, slot retired");
        return;
    }
    say(who + " " + why + "; restarting in "
        + std::to_string(static_cast<long>(slot.backoffMs)) + " ms");
    slot.restartDueMs = nowMs() + slot.backoffMs;
    slot.backoffMs = std::min(slot.backoffMs * 2.0,
                              options_.backoffCapMs);
}

int
Router::runLoop()
{
    PAQOC_FATAL_IF(!started_, "fleet: runLoop() before start()");
    struct sigaction sa{};
    sa.sa_handler = routerSignalHandler;
    ::sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    for (;;) {
        std::vector<pollfd> fds;
        fds.push_back({g_signal_pipe[0], POLLIN, 0});
        const std::size_t unix_at = fds.size();
        if (unix_fd_ >= 0)
            fds.push_back({unix_fd_, POLLIN, 0});
        const std::size_t tcp_at = fds.size();
        if (tcp_fd_ >= 0)
            fds.push_back({tcp_fd_, POLLIN, 0});
        const std::size_t beats_at = fds.size();
        std::vector<int> beat_slots;
        for (int i = 0; i < options_.workers; ++i) {
            const Slot &slot = slots_[static_cast<std::size_t>(i)];
            if (slot.alive && slot.heartbeatFd >= 0) {
                fds.push_back({slot.heartbeatFd, POLLIN, 0});
                beat_slots.push_back(i);
            }
        }

        const int r = ::poll(fds.data(),
                             static_cast<nfds_t>(fds.size()), 100);
        if (r < 0 && errno != EINTR)
            break;

        if (fds[0].revents & POLLIN) {
            drainPipe(g_signal_pipe[0]);
            beginShutdown(g_signal_seen != 0 ? g_signal_seen
                                             : SIGTERM);
        }
        if (!stopping_ && unix_fd_ >= 0
            && (fds[unix_at].revents & POLLIN))
            dispatchConnection(unix_fd_);
        if (!stopping_ && tcp_fd_ >= 0
            && (fds[tcp_at].revents & POLLIN))
            dispatchConnection(tcp_fd_);

        for (std::size_t b = 0; b < beat_slots.size(); ++b) {
            const int i = beat_slots[b];
            Slot &slot = slots_[static_cast<std::size_t>(i)];
            if (!slot.alive)
                continue; // reaped earlier this iteration
            if (fds[beats_at + b].revents
                & (POLLIN | POLLHUP | POLLERR)) {
                const ssize_t n = drainPipe(slot.heartbeatFd);
                if (n > 0)
                    slot.lastBeatMs = nowMs();
                else if (n == 0)
                    reapWorker(i);
            }
        }

        const double now = nowMs();
        for (int i = 0; i < options_.workers; ++i) {
            Slot &slot = slots_[static_cast<std::size_t>(i)];
            if (slot.alive && !slot.killedForHang
                && options_.heartbeatTimeoutMs > 0.0
                && now - slot.lastBeatMs
                    > options_.heartbeatTimeoutMs) {
                say("worker " + std::to_string(i)
                    + " heartbeat silent > "
                    + std::to_string(static_cast<long>(
                        options_.heartbeatTimeoutMs))
                    + " ms; killing hung worker");
                ::kill(slot.pid, SIGKILL);
                slot.killedForHang = true;
            }
            if (!stopping_ && !slot.alive && !slot.dead
                && slot.restartDueMs > 0.0
                && now >= slot.restartDueMs)
                spawnWorker(i);
        }

        bool any_alive = false;
        bool any_pending = false;
        for (const Slot &slot : slots_) {
            any_alive = any_alive || slot.alive;
            any_pending = any_pending
                || (!stopping_ && !slot.dead
                    && slot.restartDueMs > 0.0);
        }
        if (!any_alive && !any_pending)
            break;
    }

    if (unix_fd_ >= 0) {
        ::close(unix_fd_);
        unix_fd_ = -1;
    }
    if (tcp_fd_ >= 0) {
        ::close(tcp_fd_);
        tcp_fd_ = -1;
    }
    if (!options_.socketPath.empty())
        ::unlink(options_.socketPath.c_str());
    ::close(g_signal_pipe[0]);
    ::close(g_signal_pipe[1]);
    g_signal_pipe[0] = g_signal_pipe[1] = -1;

    // A drain is clean only if every worker exited 0; a fleet whose
    // slots all spent their restart budgets surfaces a worker's status.
    for (const Slot &slot : slots_) {
        const int status = slot.lastStatus;
        if (WIFSIGNALED(status))
            return 128 + WTERMSIG(status);
        if (WIFEXITED(status) && WEXITSTATUS(status) != 0)
            return WEXITSTATUS(status);
    }
    return 0;
}

int
Router::run()
{
    start();
    return runLoop();
}

void
Router::requestStop()
{
    if (g_signal_pipe[1] >= 0)
        routerSignalHandler(SIGTERM);
}

std::vector<Router::SlotStats>
Router::slotStats() const
{
    std::vector<SlotStats> stats;
    stats.reserve(slots_.size());
    for (const Slot &slot : slots_)
        stats.push_back(SlotStats{slot.incarnation + 1, slot.handed});
    return stats;
}

HeartbeatThread::HeartbeatThread(int fd, double interval_ms)
{
    if (fd < 0)
        return;
    thread_ = std::thread([this, fd, interval_ms]() {
        const auto step = std::chrono::milliseconds(10);
        auto next = std::chrono::steady_clock::now();
        while (!stop_.load(std::memory_order_relaxed)) {
            if (std::chrono::steady_clock::now() >= next) {
                // heartbeat.stall simulates a wedged worker: the
                // process stays alive but its beats stop, which the
                // router must treat as a hang.
                if (failpoint::evaluate("heartbeat.stall").action
                    == failpoint::Action::Off) {
                    const char byte = '.';
                    failpoint::checkedWrite("heartbeat.write", fd,
                                            &byte, 1);
                }
                next = std::chrono::steady_clock::now()
                    + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            std::max(1.0, interval_ms)));
            }
            std::this_thread::sleep_for(step);
        }
    });
}

HeartbeatThread::~HeartbeatThread()
{
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable())
        thread_.join();
}

} // namespace fleet
} // namespace paqoc
