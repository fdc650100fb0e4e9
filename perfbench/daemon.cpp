#include "daemon.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.h"

extern char **environ;

namespace perfbench {

namespace {

/** Give up on a daemon that does not answer within this long. */
constexpr double kStartTimeoutS = 60.0;

/**
 * Wait between start-up pings. Start-up takes about 2 ms, so this
 * bounds how late setup_s can read the moment the socket is bound.
 */
constexpr std::chrono::microseconds kPollInterval{50};

/** Socket timeout of the benchmark's requests; a run ends in 180 s. */
constexpr double kRequestTimeoutMs = 170000.0;

/** Reap `pid`, retrying on EINTR; fills `ru` and returns the status. */
int
reap(pid_t pid, rusage *ru)
{
    int status = 0;
    while (::wait4(pid, &status, 0, ru) < 0) {
        PAQOC_FATAL_IF(errno != EINTR, "wait4: ", std::strerror(errno));
    }
    return status;
}

/**
 * The process's own peak resident set (VmHWM) in MiB. wait4's
 * ru_maxrss would not do: a child spawned with vfork semantics
 * inherits the spawner's high-water mark at exec.
 */
double
peakRssMb(pid_t pid)
{
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            status >> kib;
            return kib / 1024.0;
        }
        status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    throw paqoc::FatalError("no VmHWM in /proc/" + std::to_string(pid)
                            + "/status");
}

} // namespace

Daemon::Daemon(const std::string &binary, const std::string &socket,
               const std::string &library, const std::string &log)
    : socket_(socket)
{
    std::vector<std::string> args = {binary, "--socket", socket, "--library",
                                     library};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const paqoc::Stopwatch watch;
    const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    PAQOC_FATAL_IF(rc != 0, "cannot launch ", binary, ": ", std::strerror(rc));
    try {
        awaitPing(watch, log);
        paqoc::ClientOptions copts;
        copts.timeoutMs = kRequestTimeoutMs;
        client_ = std::make_unique<paqoc::ServiceClient>(socket_, copts);
    } catch (...) {
        killAndReap();
        throw;
    }
}

void
Daemon::awaitPing(const paqoc::Stopwatch &watch, const std::string &log)
{
    // Poll: connect, then ping. A refused connect means the daemon
    // has not bound its socket yet (library recovery runs first).
    paqoc::Json ping = paqoc::Json::object();
    ping.set("op", paqoc::Json("ping"));
    for (;;) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw paqoc::FatalError("paqocd exited during start-up (see " + log
                                    + ")");
        }
        const double left_s = kStartTimeoutS - watch.seconds();
        PAQOC_FATAL_IF(left_s <= 0.0, "paqocd did not answer a ping within ",
                       kStartTimeoutS, " s");
        paqoc::ClientOptions copts;
        copts.timeoutMs = std::max(1.0, 1000.0 * left_s);
        try {
            paqoc::ServiceClient client(socket_, copts);
            const paqoc::Json pong = client.request(ping);
            if (pong.get("ok", paqoc::Json(false)).asBool()) {
                setup_s_ = watch.seconds();
                return;
            }
        } catch (const paqoc::TransportError &) {
        }
        std::this_thread::sleep_for(kPollInterval);
    }
}

void
Daemon::killAndReap()
{
    if (pid_ <= 0)
        return;
    ::kill(pid_, SIGKILL);
    rusage ru{};
    try {
        reap(pid_, &ru);
    } catch (const std::exception &) {
    }
    pid_ = -1;
    ::unlink(socket_.c_str());
}

Daemon::~Daemon()
{
    killAndReap();
}

DaemonExit
Daemon::stop()
{
    PAQOC_FATAL_IF(pid_ <= 0, "daemon already stopped");
    client_.reset();
    DaemonExit out;
    out.peakRssMb = peakRssMb(pid_);
    ::kill(pid_, SIGTERM);
    rusage ru{};
    const int status = reap(pid_, &ru);
    pid_ = -1;
    ::unlink(socket_.c_str());
    out.cpuSeconds = static_cast<double>(ru.ru_utime.tv_sec)
                     + 1e-6 * static_cast<double>(ru.ru_utime.tv_usec)
                     + static_cast<double>(ru.ru_stime.tv_sec)
                     + 1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
    out.clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return out;
}

} // namespace perfbench
