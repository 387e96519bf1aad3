// Shared output helpers for the figure/table reproduction binaries, plus an
// opt-in allocation-counting harness for the microbenchmarks.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

// Define MOBITHERM_BENCH_COUNT_ALLOCS before including this header (from
// exactly one translation unit per binary) to replace the global operator
// new/delete with counting versions. The counters let microbenchmarks report
// allocations per iteration (tests/hotpath_test.cpp asserts the budgets;
// cf. Marcu et al.: the measurement harness must be cheap enough not to
// perturb what it measures).
#ifdef MOBITHERM_BENCH_COUNT_ALLOCS

#include <atomic>
#include <cstdlib>
#include <new>

namespace mobitherm::bench {

inline std::atomic<std::size_t> g_alloc_count{0};

/// Total number of operator-new calls since process start.
inline std::size_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

/// Counts allocations between construction and count().
class AllocationScope {
 public:
  AllocationScope() : start_(alloc_count()) {}
  std::size_t count() const { return alloc_count() - start_; }

 private:
  std::size_t start_;
};

}  // namespace mobitherm::bench

inline void* mobitherm_counting_alloc(std::size_t size) {
  mobitherm::bench::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

inline void* mobitherm_counting_alloc(std::size_t size,
                                      std::align_val_t align) {
  mobitherm::bench::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size ? size : 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t size) { return mobitherm_counting_alloc(size); }
void* operator new[](std::size_t size) {
  return mobitherm_counting_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return mobitherm_counting_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return mobitherm_counting_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // MOBITHERM_BENCH_COUNT_ALLOCS

namespace mobitherm::bench {

inline void header(const std::string& experiment, const std::string& what) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", experiment.c_str(), what.c_str());
  std::printf("Paper: Bhat, Gumussoy, Ogras, \"Power and Thermal Analysis of\n");
  std::printf("Commercial Mobile Platforms\", DATE 2019. Shape reproduction on\n");
  std::printf("the mobitherm simulator; absolute values are not expected to\n");
  std::printf("match the authors' hardware testbed.\n");
  std::printf("================================================================\n");
}

/// Print a (time, series...) block that regenerates a line plot.
inline void series_block(
    const std::string& title, const std::vector<std::string>& columns,
    const std::vector<std::vector<double>>& rows) {
  std::printf("\n-- %s --\n", title.c_str());
  for (std::size_t i = 0; i < columns.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ",", columns[i].c_str());
  }
  std::printf("\n");
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      std::printf("%s%.3f", i == 0 ? "" : ",", row[i]);
    }
    std::printf("\n");
  }
}

/// Print a residency histogram like Figs. 2/4/6.
inline void residency_block(const std::string& title,
                            const std::vector<double>& freqs_mhz,
                            const std::vector<double>& fraction) {
  std::printf("\n-- %s --\n", title.c_str());
  std::printf("%-12s %s\n", "freq (MHz)", "time share");
  for (std::size_t i = 0; i < freqs_mhz.size(); ++i) {
    std::printf("%-12.1f %5.1f%%  ", freqs_mhz[i], 100.0 * fraction[i]);
    const int bars = static_cast<int>(fraction[i] * 50.0 + 0.5);
    for (int b = 0; b < bars; ++b) {
      std::printf("#");
    }
    std::printf("\n");
  }
}

inline void paper_vs_measured(const std::string& metric, double paper,
                              double measured, const char* unit) {
  std::printf("%-44s paper %7.2f %-6s measured %7.2f %s\n", metric.c_str(),
              paper, unit, measured, unit);
}

}  // namespace mobitherm::bench
