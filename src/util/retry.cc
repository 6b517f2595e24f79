#include "util/retry.h"

#include "util/rng.h"

namespace entrace::util {

double RetryPolicy::backoff_seconds(std::uint64_t job, int failed_attempts) const {
  if (failed_attempts < 1) failed_attempts = 1;
  double delay = base_delay;
  for (int i = 1; i < failed_attempts && delay < max_delay; ++i) delay *= 2.0;
  if (delay > max_delay) delay = max_delay;
  if (jitter > 0) {
    // One Rng stream per (job, attempt): forked streams are independent, so
    // the jitter a job draws never depends on how many other jobs retried.
    Rng rng = Rng(seed).fork(job).fork(static_cast<std::uint64_t>(failed_attempts));
    delay *= rng.uniform(1.0 - jitter / 2.0, 1.0 + jitter / 2.0);
  }
  return delay > 0 ? delay : 0.0;
}

}  // namespace entrace::util
