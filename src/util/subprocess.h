// Minimal subprocess ownership: fork/exec a child, poll or wait for its
// exit status, and kill it without leaking a zombie.
//
// This is the process-level analogue of ThreadPool.  The cluster
// coordinator's local slots (cluster/coordinator.h) run every job attempt
// in a fresh entrace_worker child owned by one of these, scoped to the
// attempt: whatever way the attempt ends, the destructor SIGKILLs and reaps
// the child, so none outlives its attempt.  Tests use the same type to
// drive the real tool binaries.  What a popen()-style API does not give:
// non-blocking status polls (a child that exits before it publishes its
// port is noticed at once), the distinction between "exited with code" and
// "died on signal", and a kill that cannot leak a zombie.  stdout/stderr
// are inherited; a worker child talks to the coordinator over TCP, not
// pipes.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace entrace::util {

// How a child ended.  Exactly one of exited/signaled is true once the
// process has been reaped.
struct ExitStatus {
  bool exited = false;    // normal termination
  int exit_code = -1;     // valid when exited
  bool signaled = false;  // killed by a signal
  int term_signal = 0;    // valid when signaled

  bool success() const { return exited && exit_code == 0; }
};

class Subprocess {
 public:
  Subprocess() = default;
  ~Subprocess();  // kills and reaps a still-running child (no zombies)

  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;

  // fork + execv of argv (argv[0] is the binary path).  Throws
  // std::runtime_error when fork itself fails; an exec failure in the child
  // surfaces as exit code 127 (the shell convention), not an exception.
  static Subprocess spawn(const std::vector<std::string>& argv);

  // Non-blocking reap: the child's status if it has exited, std::nullopt
  // while it is still running.  Idempotent after the child is reaped.
  std::optional<ExitStatus> poll();

  // Blocking reap.
  ExitStatus wait();

  // Poll until the child exits or `seconds` of wall clock elapse
  // (std::nullopt on timeout; the child keeps running).
  std::optional<ExitStatus> wait_for(double seconds);

  // SIGKILL + blocking reap.  Safe to call on an already-exited child (the
  // original exit status is returned).
  ExitStatus kill_and_wait();

  bool running();
  int pid() const { return pid_; }

 private:
  int pid_ = -1;
  std::optional<ExitStatus> status_;
};

}  // namespace entrace::util
