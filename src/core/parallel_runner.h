// Deterministic parallel fan-out over the study's countries.
//
// The paper's campaign is embarrassingly parallel: 23 volunteer crawls that
// never talk to each other, then 23 analyses that only read shared immutable
// substrate (topology, DNS zones, geo database, filter lists). The runner
// executes one task per country on a fixed-size util::ThreadPool and hands
// each result over under its input index, so downstream merges
// (analysis::StudyStats and every figure) see the same deterministic country
// order regardless of thread count or scheduling.
//
// Determinism contract (see DESIGN.md): tasks must draw randomness only from
// util::Rng::substream(study_seed, name) streams keyed by their own country,
// and must touch shared state only through const, thread-safe reads (e.g.
// the frozen net::Topology's route trees). Under that contract the runner
// guarantees byte-identical output for any `jobs` value.
#pragma once

#include <cstddef>
#include <exception>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/thread_pool.h"
#include "util/trace.h"

namespace gam::core {

// Metric hooks for the per-country circuit breaker (out of line so this
// header stays free of the metrics registry): one task attempt threw /
// a country exhausted its attempts and was degraded to its fallback.
void breaker_count_failure();
void breaker_count_open();

class ParallelStudyRunner {
 public:
  /// `jobs == 0` means one worker per hardware thread; `jobs == 1` degrades
  /// to serial execution (same code path, same results). Never starts more
  /// workers than the study has `countries` (and always at least one).
  ParallelStudyRunner(size_t jobs, size_t countries);

  size_t jobs() const { return pool_.size(); }

  /// Clamp a user-supplied --jobs value: 0 -> hardware threads, else as-is.
  static size_t resolve_jobs(size_t jobs);

  /// The pool size for `jobs` over `tasks` tasks: resolve_jobs(jobs), at
  /// most `tasks` and at least one.
  static size_t workers(size_t jobs, size_t tasks);

  /// Run stage(i, country, attempt) for every country concurrently behind a
  /// per-country circuit breaker: a throwing stage is retried up to
  /// `attempts` times (attempt starts at 1), then the breaker opens and
  /// fallback(i, country, what) supplies a degraded result instead — one
  /// wedged country must not sink the other 22. Deterministic: a stage that
  /// throws on draw-free preconditions (or on fault-plane decisions keyed by
  /// country and attempt) settles the same way for any `jobs` value. Counts
  /// breaker.task_failures per throw and breaker.open per degraded country.
  ///
  /// The runner accumulates nothing: consume(i, country, result&&) runs on
  /// the worker the moment its country settles, exactly once per index, so
  /// a caller that drops what it does not keep bounds peak memory by the
  /// in-flight countries (~jobs). consume must be safe for concurrent calls
  /// on distinct indices (e.g. writes to pre-sized slots) and must not throw.
  template <typename Fn, typename Fallback, typename Consume>
  void for_each_with_breaker(const std::vector<std::string>& countries, Fn&& stage,
                             Fallback&& fallback, Consume&& consume, int attempts = 2) {
    using R = std::invoke_result_t<Fn&, size_t, const std::string&, int>;
    if (attempts < 1) attempts = 1;
    util::parallel_for(pool_, countries.size(), [&](size_t i) {
      // Per-country root span: the input index is the root ordinal, so the
      // exported sim-time span stream is identical for any `jobs` value.
      // Opened around the whole stage, so breaker retries and the degraded
      // fallback land under the same root.
      util::trace::ScopedSpan root(countries[i], "study", static_cast<uint32_t>(i));
      std::string last_error = "unknown failure";
      std::optional<R> settled;
      for (int attempt = 1; attempt <= attempts && !settled; ++attempt) {
        try {
          settled.emplace(stage(i, countries[i], attempt));
        } catch (const std::exception& e) {
          last_error = e.what();
          breaker_count_failure();
        } catch (...) {
          breaker_count_failure();
        }
      }
      if (!settled) {
        breaker_count_open();
        settled.emplace(fallback(i, countries[i], last_error));
      }
      consume(i, countries[i], std::move(*settled));
    });
  }

 private:
  util::ThreadPool pool_;
};

}  // namespace gam::core
