#include "measure.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "bench.h"
#include "common/clock.h"

namespace trexbench {

// ---------------------------------------------------------------------
// Report.

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  entries_.push_back({name, value, unit, ""});
}

void Report::Missing(const std::string& name, const std::string& unit,
                     const std::string& reason) {
  entries_.push_back({name, 0.0, unit, reason});
}

void Report::Print(std::FILE* out) const {
  for (const Entry& e : entries_) {
    if (e.missing.empty()) {
      std::fprintf(out, "  %-40s %16.6f %s\n", e.name.c_str(), e.value,
                   e.unit.c_str());
    } else {
      std::fprintf(out, "  %-40s %16s %s (%s)\n", e.name.c_str(), "n/a",
                   e.unit.c_str(), e.missing.c_str());
    }
  }
}

std::string Report::Json() const {
  std::string out = "{";
  bool first = true;
  for (const Entry& e : entries_) {
    if (!e.missing.empty()) continue;
    if (!first) out.push_back(',');
    first = false;
    char value[64];
    // %.17g keeps every digit the double carries.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    out += "\"" + e.name + "\":{\"value\":" + value + ",\"unit\":\"" +
           e.unit + "\"}";
  }
  out.push_back('}');
  return out;
}

// ---------------------------------------------------------------------
// Statistics and process clocks.

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double ProcessCpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

namespace {

int64_t ThreadCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Keeps the reference task's result alive.
std::atomic<uint64_t> reference_sink{0};

}  // namespace

double RunReferenceTask() {
  static const std::vector<uint64_t> keys = [] {
    std::vector<uint64_t> v(30000);
    uint64_t x = 1;
    for (uint64_t& k : v) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      k = x >> 11;
    }
    return v;
  }();
  const int64_t start = ThreadCpuNanos();
  std::vector<uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  reference_sink.fetch_add(sorted[sorted.size() / 2],
                           std::memory_order_relaxed);
  return static_cast<double>(ThreadCpuNanos() - start);
}

void HostSpeedProbe::MaybeRun(std::vector<double>* samples) {
  constexpr int64_t kEveryNs = 100 * 1000 * 1000;
  const int64_t now = trex::NowNanos();
  if (now < next_ns_) return;
  samples->push_back(RunReferenceTask());
  next_ns_ = now + kEveryNs;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += FileBytes(entry.path().string());
  }
  return total;
}

uint64_t CounterDelta(const trex::obs::MetricsSnapshot& before,
                      const trex::obs::MetricsSnapshot& after,
                      const std::string& name) {
  return after.counter(name) - before.counter(name);
}

uint64_t HistogramSumDelta(const trex::obs::MetricsSnapshot& before,
                           const trex::obs::MetricsSnapshot& after,
                           const std::string& name) {
  auto sum = [&](const trex::obs::MetricsSnapshot& s) -> uint64_t {
    auto it = s.histograms.find(name);
    return it == s.histograms.end() ? 0 : it->second.sum;
  };
  return sum(after) - sum(before);
}

// ---------------------------------------------------------------------
// Answers.

bool SameAnswer(const std::vector<trex::ScoredElement>& a,
                const std::vector<trex::ScoredElement>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].element == b[i].element)) return false;
    if (std::memcmp(&a[i].score, &b[i].score, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

uint64_t AnswerHash(const std::vector<trex::ScoredElement>& answer) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a.
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(answer.size());
  for (const trex::ScoredElement& e : answer) {
    uint32_t score_bits;
    std::memcpy(&score_bits, &e.score, sizeof(score_bits));
    mix(e.element.sid);
    mix(e.element.docid);
    mix(e.element.endpos);
    mix(e.element.length);
    mix(score_bits);
  }
  return h;
}

// ---------------------------------------------------------------------
// Spans.

int32_t SpanLog::Open(const char* name, uint64_t op) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, trex::NowNanos(), 0, parent, op});
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanLog::Close(int32_t id) {
  spans_[id].end_ns = trex::NowNanos();
  open_.pop_back();
}

std::map<std::string, SpanStats> AggregateSpans(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanStats> stats;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      const int64_t duration = span.end_ns - span.start_ns;
      SpanStats& st = stats[span.name];
      st.total_ns += duration;
      st.durations_ns.push_back(static_cast<double>(duration));
    }
  }
  return stats;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"thread\":%zu,\"id\":%zu,\"name\":\"%s\","
                   "\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64
                   ",\"parent\":%d,\"op\":%" PRIu64 "}\n",
                   t, i, s.name, s.start_ns, s.end_ns, s.parent, s.op);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace trexbench
