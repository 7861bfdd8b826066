// Restart-with-backoff supervisor for the qapprox server (or any child).
//
//   qapprox_supervisor [--pidfile=PATH] [--max-restarts=N] [--stable-ms=N]
//                      [--] child-command [child-args...]
//
// Everything after "--" is the child's command line; with no "--" the
// supervisor runs the qapprox_serve binary next to itself. The child is
// forked/exec'd and respawned whenever it dies dirty (non-zero exit or a
// signal — a chaos harness SIGKILL included), with jittered exponential
// backoff between spawns; a child that stays up past --stable-ms (default
// 5000) resets the backoff, so a crash loop slows down but an occasional
// crash restarts promptly. A clean exit 0 (wire "shutdown") ends
// supervision with exit 0. --max-restarts (default: unlimited) bounds the
// total respawns — past it the supervisor gives up with exit 1, which is
// what CI wants from a server that cannot hold its socket.
//
// --pidfile is rewritten (atomically) after every spawn with the child's
// current pid: the chaos harness re-reads it each kill cycle to aim its
// SIGKILL at the live incarnation, never a recycled pid. SIGTERM/SIGINT to
// the supervisor forward to the child, wait for it, and exit cleanly.
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <sys/types.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/backoff.hpp"
#include "common/cli.hpp"
#include "common/io.hpp"

namespace {

volatile sig_atomic_t g_shutdown = 0;
volatile sig_atomic_t g_child = -1;

void handle_signal(int sig) {
  g_shutdown = 1;
  const pid_t child = g_child;
  if (child > 0) ::kill(child, sig);
}

std::string sibling_binary(const char* argv0, const char* name) {
  std::string path = argv0;
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string(name)
                                    : path.substr(0, slash + 1) + name;
}

}  // namespace

static int run(int argc, char** argv) {
  using namespace qc;
  int split = argc;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--") == 0) {
      split = i;
      break;
    }
  common::CliArgs args(split, argv);
  const std::string pidfile = args.get("pidfile", "");
  const int max_restarts =  // -1 = unlimited
      args.get_number("max-restarts", -1, -1, std::numeric_limits<int>::max());
  const double stable_ms = args.get_number("stable-ms", 5000.0, 0.0, common::kMaxPeriodMs);

  std::string default_child;  // keeps the c_str alive across iterations
  std::vector<char*> child_argv;
  for (int i = split + 1; i < argc; ++i) child_argv.push_back(argv[i]);
  if (child_argv.empty()) {
    default_child = sibling_binary(argv[0], "qapprox_serve");
    child_argv.push_back(default_child.data());
  }
  child_argv.push_back(nullptr);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  common::BackoffOptions bo;
  bo.initial_ms = 100.0;
  bo.max_ms = 5000.0;
  common::Backoff backoff(bo);
  int restarts = 0;
  while (true) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "qapprox_supervisor: fork failed: %s\n",
                   std::strerror(errno));
      return 1;
    }
    if (pid == 0) {
      ::execvp(child_argv[0], child_argv.data());
      std::fprintf(stderr, "qapprox_supervisor: exec(%s) failed: %s\n",
                   child_argv[0], std::strerror(errno));
      ::_exit(127);
    }
    g_child = pid;
    if (!pidfile.empty()) {
      try {
        common::atomic_write_file(pidfile, std::to_string(pid) + "\n");
      } catch (const std::exception& e) {
        std::fprintf(stderr, "qapprox_supervisor: pidfile write failed: %s\n",
                     e.what());
      }
    }
    std::fprintf(stderr, "qapprox_supervisor: spawned %s as pid %d\n",
                 child_argv[0], static_cast<int>(pid));
    const auto spawned_at = std::chrono::steady_clock::now();

    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
      if (errno == EINTR) continue;  // signal handler forwarded, keep waiting
      std::fprintf(stderr, "qapprox_supervisor: waitpid failed: %s\n",
                   std::strerror(errno));
      return 1;
    }
    g_child = -1;
    const double uptime_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - spawned_at)
                                 .count();

    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      std::fprintf(stderr, "qapprox_supervisor: child exited cleanly\n");
      return 0;
    }
    if (g_shutdown) {
      // We asked it to stop; however it died, this is our exit too.
      std::fprintf(stderr, "qapprox_supervisor: shutdown requested\n");
      return 0;
    }
    if (WIFSIGNALED(status))
      std::fprintf(stderr,
                   "qapprox_supervisor: child killed by signal %d after "
                   "%.0f ms\n",
                   WTERMSIG(status), uptime_ms);
    else
      std::fprintf(stderr,
                   "qapprox_supervisor: child exited %d after %.0f ms\n",
                   WIFEXITED(status) ? WEXITSTATUS(status) : -1, uptime_ms);

    if (uptime_ms > stable_ms) backoff.reset();
    ++restarts;
    if (max_restarts >= 0 && restarts > max_restarts) {
      std::fprintf(stderr, "qapprox_supervisor: gave up after %d restarts\n",
                   restarts - 1);
      return 1;
    }
    const double delay_ms = backoff.next_ms();
    std::fprintf(stderr, "qapprox_supervisor: restart %d in %.0f ms\n",
                 restarts, delay_ms);
    // Sleep in small slices so a shutdown signal during backoff is honored
    // promptly instead of spawning one last doomed child.
    const auto resume_at =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(delay_ms));
    while (!g_shutdown && std::chrono::steady_clock::now() < resume_at)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (g_shutdown) return 0;
  }
}

int main(int argc, char** argv) { return qc::common::run_main(argc, argv, run); }
