#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

#include <memory>
#include <string>

#include <sys/types.h>

#include "common/stopwatch.h"
#include "service/client.h"

namespace perfbench {

/** What the daemon process cost. */
struct DaemonExit
{
    /** User + system CPU seconds of its lifetime, from wait4. */
    double cpuSeconds = 0.0;
    /** Its own peak resident set (VmHWM) in MiB, read before SIGTERM. */
    double peakRssMb = 0.0;
    /** True when the daemon exited 0 after SIGTERM. */
    bool clean = false;
};

/**
 * One `paqocd` process serving a Unix socket with `--library`. The
 * benchmark talks to it over a single ServiceClient connection and
 * stops it with SIGTERM (the daemon's graceful path).
 */
class Daemon
{
  public:
    /**
     * Launch `binary --socket socket --library library`, redirecting
     * its output to `log`, then poll until a `ping` is answered.
     * setupSeconds() is launch-to-first-pong. A daemon that exits,
     * or does not answer within the start-up budget, is killed and
     * reaped before the constructor throws.
     */
    Daemon(const std::string &binary, const std::string &socket,
           const std::string &library, const std::string &log);
    /** Kills and reaps a daemon that was not stopped. */
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    double setupSeconds() const { return setup_s_; }
    paqoc::ServiceClient &client() { return *client_; }

    /** Close the connection, read the peak RSS, SIGTERM and reap. */
    DaemonExit stop();

  private:
    /** Ping on fresh connections until one is answered. */
    void awaitPing(const paqoc::Stopwatch &watch, const std::string &log);
    /** SIGKILL and reap a daemon that is still running. */
    void killAndReap();

    pid_t pid_ = -1;
    std::string socket_;
    double setup_s_ = 0.0;
    std::unique_ptr<paqoc::ServiceClient> client_;
};

} // namespace perfbench

#endif // PERFBENCH_DAEMON_H_
