// trexbench: shared types of the benchmark driver.
//
// The driver runs one workload per process (see workloads.cc for the
// three workloads and why each exists). It calls only the library's
// public API, times every call from the outside, and reports:
//
//   * end-to-end metrics (timed mode): what a caller of TReX sees;
//   * per-layer metrics (traced mode): the same work split over the
//     src/ modules, from the bench's own spans around its calls into
//     each module, from the library's work counters, and from the
//     sampling profiler;
//   * correctness: every answer is compared bit for bit against a
//     forced-ERA reference.
#ifndef TREXBENCH_BENCH_H_
#define TREXBENCH_BENCH_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace trexbench {

enum class Mode {
  kTimed,   // Setup several times, then one untraced timed window.
  kTraced,  // Untraced pass, then the same ops again with spans and the
            // profiler on; per-layer metrics.
  kObsAB,   // The untraced pass with the metrics registry alternately
            // on and off, to price the library's own instrumentation.
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  Mode mode = Mode::kTimed;
  std::string work_dir;   // Index directories live (and die) here.
  std::string span_file;  // Traced mode: where the spans are written.
  uint64_t ops = 0;       // Non-zero: run this many ops, not a time window.
  bool tamper = false;    // Corrupt one reference answer (self-test).
};

// An ordered list of named measurements. A metric that could not be
// measured is kept with the reason, so the report says why it is absent.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Missing(const std::string& name, const std::string& unit,
               const std::string& reason);

  // One "name value unit" line per metric.
  void Print(std::FILE* out) const;
  // {"name":{"value":v,"unit":"u"},...}; missing metrics are left out.
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string missing;  // Non-empty: the reason there is no value.
  };
  std::vector<Entry> entries_;
};

struct Outcome {
  uint64_t attempted = 0;  // Ops issued, plus answer re-checks.
  uint64_t failed = 0;     // Non-OK statuses, wrong answers, sheds.
  Report metrics;
};

// Runs one workload in the given mode. Returns false on an unknown
// workload name.
bool RunWorkload(const Args& args, Outcome* outcome);

// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

}  // namespace trexbench

#endif  // TREXBENCH_BENCH_H_
