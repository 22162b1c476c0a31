// trexbench: measurement helpers — latency quantiles, process clocks,
// registry deltas, on-disk sizes, answer comparison, and the bench's
// own span log for the traced run.
#ifndef TREXBENCH_MEASURE_H_
#define TREXBENCH_MEASURE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "retrieval/common.h"

namespace trexbench {

// Type-7 quantile of a sample (the estimator obs::ExactQuantile and
// numpy use); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

// Process user+system CPU seconds so far, and peak RSS in MiB.
double ProcessCpuSeconds();
double PeakRssMiB();

// Host speed. Other tenants of a shared host slow this process's
// threads for seconds to minutes at a time: on a 4-vCPU Xeon VM, the
// CPU per query of identical work moved by up to a third between runs.
// A fixed task of the bench's own, which no change to the program can
// speed up, is timed on the driving threads beside the workload; how
// much slower than kReferenceTaskMs it ran is how much the host slowed
// the run.
//
// The task sorts a fixed set of 30000 pseudo-random 64-bit keys:
// branchy, cache-resident work. Of the tasks tried on that VM (pointer
// chasing over 0.5-64 MiB, hashing, memcpy, std::map lookups, binary
// search over 4 MiB, sorting strings or 100000 keys) its run-to-run
// slowdown tracked era_base's CPU per query most closely (correlation
// 0.95 over 14 runs).
constexpr double kReferenceTaskMs = 2.35;  // Its mean on that VM.

// Runs the reference task on the calling thread and returns its thread
// CPU time in nanoseconds.
double RunReferenceTask();

// Runs the reference task at most every 100 ms of wall time per probe
// (one probe per driving thread), appending its CPU time to `samples`.
class HostSpeedProbe {
 public:
  void MaybeRun(std::vector<double>* samples);

 private:
  int64_t next_ns_ = 0;
};

// Bytes of one file (0 when absent) and of every file under a directory.
uint64_t FileBytes(const std::string& path);
uint64_t DirBytes(const std::string& dir);

// Counter and histogram-sum deltas between two registry snapshots.
uint64_t CounterDelta(const trex::obs::MetricsSnapshot& before,
                      const trex::obs::MetricsSnapshot& after,
                      const std::string& name);
uint64_t HistogramSumDelta(const trex::obs::MetricsSnapshot& before,
                           const trex::obs::MetricsSnapshot& after,
                           const std::string& name);

// Bit-for-bit answer equality: same elements in the same order with the
// same float score bits (what the cross-method tests assert).
bool SameAnswer(const std::vector<trex::ScoredElement>& a,
                const std::vector<trex::ScoredElement>& b);
// A 64-bit fingerprint of an answer, for comparing two passes op by op.
uint64_t AnswerHash(const std::vector<trex::ScoredElement>& answer);

// The bench's own trace: spans around its calls into each module, with
// name, start, end, parent and op id. One log per driving thread; spans
// stay in memory until WriteSpans at the end of the run.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // Index into the same log, -1 for a root.
  uint64_t op;
};

class SpanLog {
 public:
  int32_t Open(const char* name, uint64_t op);
  void Close(int32_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// RAII span; a null log records nothing, so one code path serves the
// untraced and the traced pass.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t op)
      : log_(log), id_(log != nullptr ? log->Open(name, op) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t id_;
};

// Per span name: the total duration and every duration. The driver's
// per-layer times all come from leaf spans, whose self time is their
// duration; the span file keeps parents for any other split.
struct SpanStats {
  int64_t total_ns = 0;
  std::vector<double> durations_ns;
};
std::map<std::string, SpanStats> AggregateSpans(
    const std::vector<const SpanLog*>& logs);

// One JSON object per span and line: thread, id, name, start_ns,
// end_ns, parent, op. Returns false when the file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

}  // namespace trexbench

#endif  // TREXBENCH_MEASURE_H_
