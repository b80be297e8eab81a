#include "swarm/process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace hydra::swarm {

std::string ExitStatus::describe() const {
  if (signaled) return "killed by signal " + std::to_string(value);
  if (value == 0) return "exited cleanly";
  return "exited with code " + std::to_string(value);
}

namespace {

/// In the child, routes `path` onto `target_fd`; failures must not throw
/// (we are post-fork), so they _exit with a distinctive code.
void redirect_or_die(const std::string& path, int target_fd) {
  if (path.empty()) return;
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0 || ::dup2(fd, target_fd) < 0) _exit(126);
  // If target_fd was closed at fork time, open() may hand us target_fd
  // itself; closing it then would undo the redirect we just set up.
  if (fd != target_fd) ::close(fd);
}

}  // namespace

LocalProcessBackend::~LocalProcessBackend() {
  // Never leave orphans: anything still running when the backend dies is
  // killed and reaped (best effort — the destructor cannot report).
  for (const auto& [id, pid] : running_) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
}

WorkerId LocalProcessBackend::start(const WorkerSpec& spec) {
  if (spec.argv.empty()) throw std::runtime_error("worker spec has an empty argv");

  std::vector<char*> argv;
  argv.reserve(spec.argv.size() + 1);
  for (const auto& arg : spec.argv) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("fork failed: ") + std::strerror(errno));
  }
  if (pid == 0) {
    redirect_or_die(spec.stdout_path, STDOUT_FILENO);
    redirect_or_die(spec.stderr_path, STDERR_FILENO);
    ::execvp(argv[0], argv.data());
    // exec failed; 127 is the shell's "command not found" convention.
    _exit(127);
  }
  const WorkerId id = next_id_++;
  running_[id] = static_cast<int>(pid);
  return id;
}

std::optional<ExitStatus> LocalProcessBackend::poll(WorkerId id) {
  const auto done = reaped_.find(id);
  if (done != reaped_.end()) return done->second;
  const auto it = running_.find(id);
  if (it == running_.end()) throw std::runtime_error("poll of unknown worker id");

  int status = 0;
  pid_t r;
  do {
    r = wait_fn_ ? wait_fn_(it->second, &status, WNOHANG)
                 : ::waitpid(it->second, &status, WNOHANG);
    // EINTR is not a death: a stray signal interrupted the wait, the child
    // is untouched.  Retrying here keeps the supervisor from burning a
    // retry attempt on a phantom crash.
  } while (r < 0 && errno == EINTR);
  if (r == 0) return std::nullopt;  // still running
  ExitStatus exit;
  if (r < 0) {
    // ECHILD etc. — the child vanished outside our control; report it as a
    // signal death so the supervisor treats it as a crash, loudly.
    exit.signaled = true;
    exit.value = SIGKILL;
  } else if (WIFSIGNALED(status)) {
    exit.signaled = true;
    exit.value = WTERMSIG(status);
  } else {
    exit.value = WIFEXITED(status) ? WEXITSTATUS(status) : 125;
  }
  running_.erase(it);
  reaped_[id] = exit;
  return exit;
}

void LocalProcessBackend::stop(WorkerId id) {
  const auto it = running_.find(id);
  if (it == running_.end()) return;  // already dead or reaped — stop is idempotent
  ::kill(it->second, SIGKILL);
}

}  // namespace hydra::swarm
