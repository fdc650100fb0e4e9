/**
 * @file
 * perfbench -- end-to-end and per-layer benchmark of paqocd.
 *
 * Usage:
 *   perfbench --paqocd PATH --workdir DIR --workload NAME --seed N
 *             --seconds S --trace 0|1
 *
 * Prints a human-readable report and, as its last line, one JSON
 * object {"correct", "attempted", "failed", "metrics"}. Exits 0 once
 * that line is printed, whether or not every operation succeeded (the
 * line says so); 2 on a usage or set-up error, with no result line.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(stderr, "usage: perfbench --paqocd PATH --workdir DIR "
                         "--workload grape_cold|table1_spectral|library_warm "
                         "--seed N --seconds S --trace 0|1\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions opt;
    bool have_workload = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (++i >= argc)
                    usage();
                return argv[i];
            };
            if (arg == "--workload") {
                opt.workload = perfbench::workloadFromName(next());
                have_workload = true;
            } else if (arg == "--seed")
                opt.seed = std::stoull(next());
            else if (arg == "--seconds")
                opt.seconds = std::stod(next());
            else if (arg == "--trace")
                opt.trace = next() != "0";
            else if (arg == "--paqocd")
                opt.paqocd = next();
            else if (arg == "--workdir")
                opt.workdir = next();
            else
                usage();
        }
        if (opt.paqocd.empty() || opt.workdir.empty() || !have_workload)
            usage();
        const perfbench::RunResult r = perfbench::runBenchmark(opt, std::cout);
        std::cout << perfbench::resultJson(r) << std::endl;
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
