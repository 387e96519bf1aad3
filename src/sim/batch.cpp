#include "sim/batch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "util/error.h"

namespace mobitherm::sim {

void parallel_for_index(std::size_t n, unsigned threads,
                        const std::function<void(std::size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) {
      threads = 1;
    }
  }
  const std::size_t workers =
      std::min<std::size_t>(threads, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }

  // Per-index failure slots: each is written only by the worker that
  // claimed that index and read after the join, so they need no lock.
  std::vector<std::exception_ptr> errors(n);
  std::atomic<bool> failed{false};
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    // Check before claiming: an index, once claimed, always runs, so the
    // lowest failing index is never skipped. Claims made after a failure
    // was recorded are higher than it and cannot change the outcome.
    while (!failed.load()) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
        failed.store(true);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) {
    t.join();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

BatchRunner::BatchRunner(BatchOptions options) : options_(options) {}

unsigned BatchRunner::resolved_threads() const {
  if (options_.threads != 0) {
    return options_.threads;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// One pool job per run index: build the engine, run it, summarize it. The
// records land by index, so the result is the same at any thread count.
std::vector<BatchRecord> BatchRunner::run(std::size_t runs,
                                          std::uint64_t base_seed,
                                          double duration_s,
                                          const EngineFactory& factory,
                                          MetricsOptions metrics,
                                          const std::atomic<bool>* stop)
    const {
  if (!factory) {
    throw util::ConfigError("BatchRunner: null engine factory");
  }
  if (runs == 0) {
    throw util::ConfigError("BatchRunner: runs must be positive");
  }
  std::vector<BatchRecord> records(runs);
  parallel_for_index(runs, resolved_threads(), [&](std::size_t i) {
    BatchRecord& rec = records[i];
    rec.index = i;
    rec.seed = base_seed + static_cast<std::uint64_t>(i);
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      rec.completed = false;  // cancelled before the run started
      return;
    }

    const auto start = std::chrono::steady_clock::now();
    std::unique_ptr<Engine> engine = factory(i, rec.seed);
    if (!engine) {
      throw util::ConfigError("BatchRunner: factory returned null engine");
    }
    engine->run(duration_s, stop);
    rec.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    rec.completed =
        stop == nullptr || !stop->load(std::memory_order_relaxed);
    rec.metrics = summarize_run(*engine, metrics);
    rec.report = make_report(*engine, metrics.temp_limit_c);
  });
  return records;
}

std::vector<double> BatchRunner::sweep(
    const std::function<double(std::uint64_t)>& metric, int n,
    std::uint64_t base_seed) const {
  if (!metric) {
    throw util::ConfigError("BatchRunner: null metric");
  }
  if (n <= 0) {
    throw util::ConfigError("BatchRunner: n must be positive");
  }
  std::vector<double> samples(static_cast<std::size_t>(n));
  parallel_for_index(samples.size(), resolved_threads(),
                     [&](std::size_t i) {
                       samples[i] = metric(base_seed +
                                           static_cast<std::uint64_t>(i));
                     });
  return samples;
}

}  // namespace mobitherm::sim
