#include "core/parallel_runner.h"

#include <algorithm>

#include "util/metrics.h"

namespace gam::core {

void breaker_count_failure() {
  static util::Counter& c =
      util::MetricsRegistry::instance().counter("breaker.task_failures");
  c.inc();
}

void breaker_count_open() {
  static util::Counter& c = util::MetricsRegistry::instance().counter("breaker.open");
  c.inc();
}

size_t ParallelStudyRunner::resolve_jobs(size_t jobs) {
  return jobs == 0 ? util::ThreadPool::hardware_threads() : jobs;
}

size_t ParallelStudyRunner::workers(size_t jobs, size_t tasks) {
  return std::clamp<size_t>(tasks, 1, resolve_jobs(jobs));
}

ParallelStudyRunner::ParallelStudyRunner(size_t jobs, size_t countries)
    : pool_(workers(jobs, countries)) {}

}  // namespace gam::core
