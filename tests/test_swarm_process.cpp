// Process-backend contract tests: the LocalProcessBackend waitpid edge cases
// (EINTR must retry, ECHILD must stay a loud crash) via the injectable wait
// seam.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>

#include <cerrno>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "swarm/process.h"

namespace swarm = hydra::swarm;

namespace {

/// Polls until the worker reports an exit status (real children need a
/// moment to die); fails the test rather than spinning forever.
swarm::ExitStatus wait_for_exit(swarm::ProcessBackend& backend,
                                swarm::WorkerId id) {
  for (int i = 0; i < 2000; ++i) {
    if (const auto exit = backend.poll(id)) return *exit;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ADD_FAILURE() << "worker " << id << " never exited";
  return {};
}

}  // namespace

TEST(LocalBackend, PollRetriesInterruptedWaits) {
  swarm::LocalProcessBackend backend;
  int interruptions = 0;
  backend.set_wait_fn_for_test([&interruptions](int pid, int* status, int flags) {
    // The first two waits land as if a stray signal interrupted them; the
    // old code translated ANY failure into a phantom SIGKILL death here.
    if (interruptions < 2) {
      ++interruptions;
      errno = EINTR;
      return -1;
    }
    return static_cast<int>(::waitpid(pid, status, flags));
  });

  swarm::WorkerSpec spec;
  spec.argv = {"/bin/sh", "-c", "exit 0"};
  const auto id = backend.start(spec);
  const auto exit = wait_for_exit(backend, id);
  EXPECT_GE(interruptions, 2);
  // The child was alive and well the whole time: its real, clean exit is
  // reported — no retry budget burned on a phantom crash.
  EXPECT_FALSE(exit.signaled);
  EXPECT_TRUE(exit.success());
}

TEST(LocalBackend, EchildStaysALoudCrash) {
  swarm::LocalProcessBackend backend;
  backend.set_wait_fn_for_test([](int, int*, int) {
    errno = ECHILD;  // the child vanished outside our control
    return -1;
  });
  swarm::WorkerSpec spec;
  spec.argv = {"/bin/sh", "-c", "exit 0"};
  const auto id = backend.start(spec);
  const auto exit = backend.poll(id);
  ASSERT_TRUE(exit.has_value());
  EXPECT_TRUE(exit->signaled);
  EXPECT_EQ(exit->value, SIGKILL);
  // The real child is a zombie now (poll reported it without reaping); it is
  // collected when this test process exits, like any unwaited child.
}
