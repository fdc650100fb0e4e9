// Fixture: process-control syscalls outside the fleet router (every
// lint path except src/fleet/router.* is covered).
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

int
rogue(int pid)
{
    const int child = fork();               // flagged
    (void)::kill(pid, 9);                   // flagged
    (void)waitpid(child, nullptr, 0);       // flagged
    execlp("ls", "ls", nullptr);            // flagged
    // Near misses: identifiers embedding the words are fine.
    extern void forkJoinPool(int);
    extern int taskkill(int);
    forkJoinPool(pid);   // not flagged
    (void)taskkill(pid); // not flagged
    // paqoc-lint: allow(process-control) fixture exercises suppression
    (void)::kill(pid, 15); // suppressed
    return child;
}
