// The pluggable process backend: how the swarm turns "run shard i" into an
// actual child somewhere.  The supervisor only ever talks to this interface,
// so the local fork/exec pool shipped here is merely the first
// implementation — a job-array or container backend slots in by implementing
// three methods, and every restart/backoff/stall policy above it is reused
// unchanged (tests exercise the supervisor against an in-memory fake the
// same way).
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hydra::swarm {

/// What to run: argv[0] is the executable (resolved via PATH like execvp),
/// stdout/stderr are redirected to files so worker output survives the
/// worker and never interleaves with the orchestrator's own streams.
struct WorkerSpec {
  std::vector<std::string> argv;
  std::string stdout_path;  ///< "" inherits the parent's stdout
  std::string stderr_path;  ///< "" inherits the parent's stderr
};

/// How a worker ended.  `signaled` distinguishes "exited with code" from
/// "killed by signal" (SIGKILL'd workers — crashes, stall kills, chaos
/// injection — report signaled=true, value=SIGKILL).
struct ExitStatus {
  bool signaled = false;
  int value = 0;  ///< exit code, or the terminating signal number

  bool success() const { return !signaled && value == 0; }
  std::string describe() const;
};

using WorkerId = std::size_t;

/// Backend contract (single-threaded: the supervisor calls from one thread):
///   * start() launches the worker and returns a handle, throwing
///     std::runtime_error when the launch itself fails;
///   * poll() is non-blocking; it returns the exit status once the worker
///     has ended (reaping it), nullopt while it runs, and keeps returning
///     the same status for an already-reaped worker;
///   * stop() requests immediate termination (SIGKILL-equivalent); the death
///     is still observed through poll(), like any other.
class ProcessBackend {
 public:
  virtual ~ProcessBackend() = default;
  virtual WorkerId start(const WorkerSpec& spec) = 0;
  virtual std::optional<ExitStatus> poll(WorkerId id) = 0;
  virtual void stop(WorkerId id) = 0;
};

/// The local pool: fork + execvp per worker, children reaped synchronously
/// with waitpid(WNOHANG) inside poll() — no SIGCHLD handler, so the backend
/// composes with any host process (gtest binaries included) without
/// installing global signal state.
class LocalProcessBackend : public ProcessBackend {
 public:
  ~LocalProcessBackend() override;

  WorkerId start(const WorkerSpec& spec) override;
  std::optional<ExitStatus> poll(WorkerId id) override;
  void stop(WorkerId id) override;

  /// Test seam: the waitpid used by poll().  Production code never touches
  /// this; tests inject a wrapper that fakes EINTR/ECHILD failures to pin
  /// the retry-vs-loud-crash split without a real stray signal.
  using WaitFn = std::function<int(int pid, int* status, int flags)>;
  void set_wait_fn_for_test(WaitFn fn) { wait_fn_ = std::move(fn); }

 private:
  WorkerId next_id_ = 1;
  std::map<WorkerId, int> running_;       ///< id -> pid
  std::map<WorkerId, ExitStatus> reaped_; ///< id -> final status
  WaitFn wait_fn_;                        ///< empty = real ::waitpid
};

}  // namespace hydra::swarm
