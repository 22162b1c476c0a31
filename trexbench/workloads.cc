// trexbench workloads: era_base, topk_lists and self_manage_churn.
//
// Each workload is a closed loop driven through the public API only.
// Each corpus is fixed (the generators' default seeds), so every seed
// measures the same index; the --seed sets the request stream — the
// query order, the k of each query and the churn workload's topics — so
// one seed always yields the same inputs.
#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <set>
#include <thread>

#include "bench.h"
#include "common/clock.h"
#include "common/rng.h"
#include "corpus/adversarial.h"
#include "corpus/ieee_generator.h"
#include "corpus/workload_zoo.h"
#include "measure.h"
#include "nexi/parser.h"
#include "nexi/translator.h"
#include "obs/flight_recorder.h"
#include "obs/profiler.h"
#include "obs/resource.h"
#include "retrieval/strategy.h"
#include "retrieval/strict.h"
#include "summary/alias.h"
#include "text/tokenizer.h"
#include "trex/query_executor.h"
#include "trex/trex.h"
#include "xml/reader.h"

namespace trexbench {
namespace {

using trex::AdvisorTickReport;
using trex::DocId;
using trex::DocumentGenerator;
using trex::Index;
using trex::QueryAnswer;
using trex::Result;
using trex::RetrievalMethod;
using trex::ScoredElement;
using trex::Status;
using trex::TReX;

// ---------------------------------------------------------------------
// Sizes and schedules.

// IEEE-like corpus of era_base and topk_lists, sized so a strict query
// takes milliseconds and a window serves well over 1000 queries. Each
// table's buffer pool (256 pages of 4 KiB) is smaller than the Elements
// and PostingLists tables (about 2 and 4 MB), so ERA pays page faults,
// while the RPL and ERPL tables fit theirs.
constexpr size_t kIeeeDocs = 1000;
constexpr size_t kIeeeCachePages = 256;
constexpr size_t kEraK = 10;
constexpr size_t kTopkClients = 3;
constexpr size_t kTopkKs[] = {1, 10, 100};

// self_manage_churn: a Zipf-skewed corpus, an AddDocument every
// kAddEvery queries, an advisor tick every kTickEvery queries, and a
// fresh shifting-topic stream every kTopicQueries queries.
constexpr size_t kSkewDocs = 4000;
constexpr size_t kAddEvery = 25;
constexpr size_t kTickEvery = 50;
constexpr size_t kTopicQueries = 64;
constexpr size_t kTopicPool = 16;
// The churn window is a fixed number of ops per --seconds (about what one
// second serves on a 4-vCPU VM), so a seed always ends in the same state.
constexpr double kChurnOpsPerSecond = 127.0;
// Queries a timed window serves at least, so p99 has 10 samples beyond it.
constexpr uint64_t kMinWindowQueries = 1000;
// Smaller than the lists the stream's topics want (in the advisor's
// estimated bytes: with 4 MiB it materializes 2-3 times as many lists per
// tick), so the advisor has to choose and to drop.
constexpr uint64_t kChurnBudgetBytes = 512 << 10;

// Documents parsed and tokenized by the traced run's xml/text probe.
constexpr size_t kProbeDocs = 200;

// The five IEEE queries of the paper's Table 1 (Q202, Q203, Q233, Q260,
// Q270).
const char* const kIeeeQueries[] = {
    "//article[about(., ontologies)]//sec[about(., ontologies case "
    "study)]",
    "//sec[about(., code signing verification)]",
    "//article[about(.//bdy, synthesizers) and about(.//bdy, music)]",
    "//bdy//*[about(., model checking state space explosion)]",
    "//article//sec[about(., introduction information retrieval)]",
};
constexpr size_t kNumIeeeQueries = std::size(kIeeeQueries);

// AnswerHash of the answers to the IEEE queries on the fixed IEEE corpus
// at k = kEraK: entry 2i is query i forced to ERA, entry 2i+1 query i
// under QueryStrict. era_base has no second method to compare its ERA
// and strict answers with, so they are pinned here; topk_lists checks
// the same pairs on its list-materialized index, where strict runs its
// clauses through TA/Merge. A change to an evaluator that alters an
// answer then fails the run. A mismatch prints the hash the run
// computed, which is how these were recorded.
constexpr uint64_t kIeeeGolden[2 * kNumIeeeQueries] = {
    0x3e4b5766030a0308, 0xee4c8d83262f8bc3, 0x550489ef7c53b6e7,
    0x930bd3b5e73d0aef, 0x5a1598acb8963410, 0x47fe0d7eaf8e51e3,
    0xe27676f4377ca822, 0x9189eff08f93cdd2, 0x8b246fd3153e2de3,
    0x8d0609100b543792,
};

// Evaluation methods as the report splits them; strict is its own
// evaluator (per-clause methods plus a containment join).
enum Slot { kSlotEra, kSlotTa, kSlotMerge, kSlotStrict, kSlots };
const char* const kSlotNames[kSlots] = {"era", "ta", "merge", "strict"};
const char* const kEvalSpans[kSlots] = {
    "retrieval.evaluate:era", "retrieval.evaluate:ta",
    "retrieval.evaluate:merge", "retrieval.strict"};

Slot SlotOf(RetrievalMethod method) {
  switch (method) {
    case RetrievalMethod::kTa:
      return kSlotTa;
    case RetrievalMethod::kMerge:
      return kSlotMerge;
    case RetrievalMethod::kEra:
      break;
  }
  return kSlotEra;
}

// Counts the XML bytes the builder consumed.
class CountingGenerator : public DocumentGenerator {
 public:
  explicit CountingGenerator(const DocumentGenerator& inner)
      : inner_(inner) {}
  std::string Generate(DocId docid) const override {
    std::string doc = inner_.Generate(docid);
    bytes_ += doc.size();
    return doc;
  }
  size_t num_documents() const override { return inner_.num_documents(); }
  uint64_t bytes() const { return bytes_; }

 private:
  const DocumentGenerator& inner_;
  mutable uint64_t bytes_ = 0;
};

struct QuerySpec {
  size_t id = 0;  // Index of the reference answer.
  std::string nexi;
  size_t k = kEraK;
  bool strict = false;
};

// Everything one driving thread measured in one pass.
struct Pass {
  uint64_t ops = 0;
  uint64_t queries = 0;
  uint64_t failed = 0;
  std::vector<double> query_ns;  // Caller latency of each query.
  std::vector<double> queue_ns;  // Caller latency minus trace root.
  std::vector<double> cpu_ns;    // Thread CPU of each query.
  std::vector<double> ref_ns;    // CPU of each reference task run.
  std::vector<double> add_ns, tick_ns, plan_ns, apply_ns;
  std::vector<uint64_t> hashes;  // One per op, in schedule order.
  trex::obs::ResourceUsage usage;
  uint64_t sids = 0;
  uint64_t methods[kSlots] = {};
  uint64_t adds = 0, add_bytes_written = 0, add_xml_bytes = 0;
  uint64_t lists_dropped = 0;  // Traced pass: catalog entries per add.
  uint64_t ticks = 0, tick_pages = 0, tick_materialized = 0,
           tick_dropped = 0;
};

void AddUsage(const trex::obs::ResourceUsage& u,
              trex::obs::ResourceUsage* into) {
  into->pages_fetched += u.pages_fetched;
  into->pages_faulted += u.pages_faulted;
  into->bytes_read += u.bytes_read;
  into->bytes_decoded += u.bytes_decoded;
  into->list_fragments += u.list_fragments;
  into->blocks_decoded += u.blocks_decoded;
  into->blocks_skipped += u.blocks_skipped;
  into->postings_scanned += u.postings_scanned;
  into->sorted_accesses += u.sorted_accesses;
  into->random_accesses += u.random_accesses;
  into->elements_scanned += u.elements_scanned;
  into->heap_operations += u.heap_operations;
  into->cpu_nanos += u.cpu_nanos;
}

Pass MergePasses(const std::vector<Pass>& passes) {
  Pass m;
  auto append = [](std::vector<double>* to, const std::vector<double>& v) {
    to->insert(to->end(), v.begin(), v.end());
  };
  for (const Pass& p : passes) {
    m.ops += p.ops;
    m.queries += p.queries;
    m.failed += p.failed;
    append(&m.query_ns, p.query_ns);
    append(&m.queue_ns, p.queue_ns);
    append(&m.cpu_ns, p.cpu_ns);
    append(&m.ref_ns, p.ref_ns);
    append(&m.add_ns, p.add_ns);
    append(&m.tick_ns, p.tick_ns);
    append(&m.plan_ns, p.plan_ns);
    append(&m.apply_ns, p.apply_ns);
    AddUsage(p.usage, &m.usage);
    m.sids += p.sids;
    for (int s = 0; s < kSlots; ++s) m.methods[s] += p.methods[s];
    m.adds += p.adds;
    m.add_bytes_written += p.add_bytes_written;
    m.add_xml_bytes += p.add_xml_bytes;
    m.lists_dropped += p.lists_dropped;
    m.ticks += p.ticks;
    m.tick_pages += p.tick_pages;
    m.tick_materialized += p.tick_materialized;
    m.tick_dropped += p.tick_dropped;
  }
  return m;
}

// When a client stops: at a time deadline (after at least `min_ops`
// ops, and only at a round boundary so every query of the round ran
// equally often), or after exactly `exact_ops` ops when that is set.
struct Limit {
  int64_t deadline_ns = 0;
  uint64_t min_ops = 0;
  uint64_t exact_ops = 0;

  bool Done(uint64_t i, uint64_t round) const {
    if (exact_ops != 0) return i >= exact_ops;
    return i % round == 0 && i >= min_ops && trex::NowNanos() >= deadline_ns;
  }
};

// A seeded permutation of 0..n-1.
std::vector<size_t> Shuffled(size_t n, trex::Rng* rng) {
  std::vector<size_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(v[i - 1], v[rng->Uniform(i)]);
  return v;
}

// The traced path: the bench drives one query through the layers itself,
// with a span around each call — ParseNexi, TranslateQuery (which
// matches paths against the summary), ChooseStrategy, then
// Evaluator::EvaluateWith or StrictEvaluator. The vague shaping the
// workloads use keeps every answer, so there is no shaping step. It
// takes the same snapshot lock and resource scope as TReX::Query.
Status TracedQuery(Index* index, const QuerySpec& q, SpanLog* log,
                   uint64_t op, std::vector<ScoredElement>* answer,
                   Slot* slot) {
  trex::obs::ResourceAccounting accounting;
  trex::obs::ResourceScope scope(&accounting);
  auto read_lock = index->ReaderLock();
  Result<trex::NexiQuery> parsed = Status::OK();
  {
    ScopedSpan span(log, "nexi.parse", op);
    parsed = trex::ParseNexi(q.nexi);
  }
  if (!parsed.ok()) return parsed.status();
  Result<trex::TranslatedQuery> translated = Status::OK();
  {
    ScopedSpan span(log, "nexi.translate", op);
    translated = trex::TranslateQuery(parsed.value(), index->summary(),
                                      &index->aliases(), index->tokenizer());
  }
  if (!translated.ok()) return translated.status();
  trex::RetrievalResult result;
  if (q.strict) {
    *slot = kSlotStrict;
    ScopedSpan span(log, kEvalSpans[kSlotStrict], op);
    trex::StrictEvaluator strict(index);
    TREX_RETURN_IF_ERROR(strict.Evaluate(translated.value(), q.k, &result));
  } else {
    const trex::TranslatedClause& clause = translated.value().flattened;
    trex::StrategyDecision decision;
    {
      ScopedSpan span(log, "retrieval.strategy", op);
      decision = trex::ChooseStrategy(index, clause, q.k);
    }
    *slot = SlotOf(decision.method);
    ScopedSpan span(log, kEvalSpans[*slot], op);
    trex::Evaluator evaluator(index);
    TREX_RETURN_IF_ERROR(
        evaluator.EvaluateWith(decision.method, clause, q.k, &result));
  }
  *answer = std::move(result.elements);
  return Status::OK();
}

// How a workload's untraced pass asks TReX for one answer.
using Facade = std::function<Result<QueryAnswer>(const QuerySpec&)>;

// Runs one query through `facade` (untraced) or through the layers of
// `index` (traced, when `log` is non-null) and folds what it cost into
// `pass`. Returns false, counted as a failure, on a non-OK status.
bool RunQuery(const Facade& facade, Index* index, const QuerySpec& q,
              SpanLog* log, uint64_t op, Pass* pass,
              std::vector<ScoredElement>* answer) {
  ++pass->queries;
  answer->clear();
  if (log == nullptr) {
    const int64_t start = trex::NowNanos();
    Result<QueryAnswer> r = facade(q);
    const int64_t caller_ns = trex::NowNanos() - start;
    if (!r.ok()) {
      ++pass->failed;
      return false;
    }
    const QueryAnswer& a = r.value();
    pass->query_ns.push_back(static_cast<double>(caller_ns));
    pass->queue_ns.push_back(static_cast<double>(
        caller_ns - a.trace->root()->duration_nanos));
    pass->cpu_ns.push_back(static_cast<double>(a.resources.cpu_nanos));
    AddUsage(a.resources, &pass->usage);
    pass->sids += a.translation.flattened.sids.size();
    ++pass->methods[q.strict ? kSlotStrict : SlotOf(a.method)];
    *answer = a.result.elements;
    return true;
  }
  Slot slot = kSlotEra;
  const int64_t start = trex::NowNanos();
  Status s;
  {
    ScopedSpan root(log, "query", op);
    s = TracedQuery(index, q, log, op, answer, &slot);
  }
  if (!s.ok()) {
    ++pass->failed;
    return false;
  }
  pass->query_ns.push_back(static_cast<double>(trex::NowNanos() - start));
  ++pass->methods[slot];
  return true;
}

// ---------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  explicit Workload(const Args& args) : args_(args) {}
  virtual ~Workload() = default;

  // Builds the index in `dir` and everything the window needs (the
  // reference answers included). Spans go to `log` when it is non-null.
  virtual Status Setup(const std::string& dir, SpanLog* log) = 0;
  // Closes every handle; the caller removes the directory.
  virtual void Close() = 0;
  virtual size_t clients() const { return 1; }
  // True when the window is a fixed number of ops rather than a time.
  virtual bool fixed_work() const { return false; }
  // Drives client `c` until `limit`; traced when `log` is non-null.
  virtual void RunClient(size_t c, const Limit& limit, SpanLog* log,
                         Pass* pass) = 0;
  // Checks run after the window; adds to `attempted` and pass->failed.
  // By default it counts the golden check of setup.
  virtual void FinalCheck(Pass* pass, uint64_t* attempted) {
    if (golden_mismatches_ < 0) return;
    *attempted += std::size(kIeeeGolden);
    pass->failed += static_cast<uint64_t>(golden_mismatches_);
  }
  // Answers that differed from their kIeeeGolden hash in the last setup;
  // -1 for a workload without golden answers.
  int64_t golden_mismatches() const { return golden_mismatches_; }
  // A generator over the workload's corpus, for the xml/text probe.
  virtual const DocumentGenerator& corpus() const = 0;

  const std::string& dir() const { return dir_; }
  uint64_t xml_bytes() const { return xml_bytes_; }
  virtual TReX* handle() = 0;

 protected:
  // Builds the index from `gen` with `options` under a span.
  Result<std::unique_ptr<TReX>> BuildIndex(const std::string& dir,
                                           const DocumentGenerator& gen,
                                           trex::TrexOptions options,
                                           SpanLog* log) {
    dir_ = dir;
    CountingGenerator counting(gen);
    ScopedSpan span(log, "index.build", 0);
    auto built = TReX::Build(dir, counting, std::move(options));
    if (built.ok()) {
      Status s = built.value()->index()->Flush();
      if (!s.ok()) return s;
    }
    xml_bytes_ = counting.bytes();
    return built;
  }

  // Compares `answers`, in kIeeeGolden's order, with their golden
  // hashes. --tamper corrupts one golden hash, so the check itself is
  // tested.
  void CheckGolden(const std::vector<std::vector<ScoredElement>>& answers) {
    golden_mismatches_ = 0;
    for (size_t i = 0; i < answers.size(); ++i) {
      uint64_t golden = kIeeeGolden[i];
      if (args_.tamper && i == 1) golden ^= 1;
      const uint64_t hash = AnswerHash(answers[i]);
      if (hash == golden) continue;
      ++golden_mismatches_;
      std::fprintf(stderr,
                   "trexbench: %s answer %zu (query %zu, %s) hashes to "
                   "0x%016llx, golden 0x%016llx\n",
                   args_.workload.c_str(), i, i / 2,
                   i % 2 == 0 ? "forced ERA" : "strict",
                   static_cast<unsigned long long>(hash),
                   static_cast<unsigned long long>(golden));
    }
  }

  // Compares an answer with its reference; a mismatch is a failure.
  void Check(const std::vector<ScoredElement>& answer,
             const std::vector<ScoredElement>& reference, Pass* pass) {
    if (!SameAnswer(answer, reference)) ++pass->failed;
  }

  const Args& args_;
  std::string dir_;
  uint64_t xml_bytes_ = 0;
  int64_t golden_mismatches_ = -1;
};

// The IEEE-like corpus and index options era_base and topk_lists share.
std::unique_ptr<trex::IeeeGenerator> IeeeCorpus() {
  trex::IeeeGeneratorOptions options;
  options.num_documents = kIeeeDocs;
  return std::make_unique<trex::IeeeGenerator>(options);
}

trex::TrexOptions IeeeIndexOptions() {
  trex::TrexOptions options;
  options.index.aliases = trex::IeeeAliasMap();
  options.index.cache_pages = kIeeeCachePages;
  return options;
}

// era_base — why: the paper's baseline method on its own. The five
// IEEE Table-1 queries in a seeded order, alternating Query (vague,
// strategy-selected) and QueryStrict, one client, k = 10, and no RPL or
// ERPL materialized: every query runs ERA or the strict evaluator over
// the Elements and PostingLists B+-trees. Stresses `storage` (buffer
// pool faults, B+-tree seeks) and `retrieval` ERA/strict; bypasses the
// list codec, TA, Merge, the executor and the advisor. With one client
// and no timers the work counts repeat exactly.
class EraBase : public Workload {
 public:
  using Workload::Workload;

  Status Setup(const std::string& dir, SpanLog* log) override {
    gen_ = IeeeCorpus();
    auto built = BuildIndex(dir, *gen_, IeeeIndexOptions(), log);
    if (!built.ok()) return built.status();
    trex_ = std::move(built).value();
    // Reference answers: forced ERA for the vague queries; the strict
    // evaluator for the strict ones (with no lists it runs ERA per
    // clause).
    references_.assign(2 * kNumIeeeQueries, {});
    for (size_t i = 0; i < kNumIeeeQueries; ++i) {
      auto vague = trex_->QueryWith(RetrievalMethod::kEra, kIeeeQueries[i],
                                    kEraK);
      if (!vague.ok()) return vague.status();
      references_[2 * i] = vague.value().result.elements;
      auto strict = trex_->QueryStrict(kIeeeQueries[i], kEraK);
      if (!strict.ok()) return strict.status();
      references_[2 * i + 1] = strict.value().result.elements;
    }
    CheckGolden(references_);
    if (args_.tamper && !references_[0].empty()) {
      references_[0][0].score += 1.0f;
    }
    rng_ = std::make_unique<trex::Rng>(args_.seed * 0x9e3779b97f4a7c15ULL +
                                       0xe7a);
    ops_.clear();
    return Status::OK();
  }

  void Close() override { trex_.reset(); }
  TReX* handle() override { return trex_.get(); }
  const DocumentGenerator& corpus() const override { return *gen_; }

  void RunClient(size_t /*c*/, const Limit& limit, SpanLog* log,
                 Pass* pass) override {
    const Facade facade = [this](const QuerySpec& q) {
      return q.strict ? trex_->QueryStrict(q.nexi, q.k)
                      : trex_->Query(q.nexi, q.k);
    };
    const uint64_t round = 2 * kNumIeeeQueries;
    std::vector<ScoredElement> answer;
    HostSpeedProbe probe;
    for (uint64_t i = 0; !limit.Done(i, round); ++i) {
      if (log == nullptr) probe.MaybeRun(&pass->ref_ns);
      const QuerySpec& q = OpAt(i);
      ++pass->ops;
      if (RunQuery(facade, trex_->index(), q, log, i, pass, &answer)) {
        Check(answer, references_[q.id], pass);
      }
      pass->hashes.push_back(AnswerHash(answer));
    }
  }

 private:
  // Round r: a seeded permutation of the vague queries interleaved with
  // one of the strict queries, so Query and QueryStrict alternate and
  // every (query, shaping) pair runs once per round.
  const QuerySpec& OpAt(uint64_t i) {
    while (ops_.size() <= i) {
      const std::vector<size_t> vague = Shuffled(kNumIeeeQueries, rng_.get());
      const std::vector<size_t> strict =
          Shuffled(kNumIeeeQueries, rng_.get());
      for (size_t j = 0; j < kNumIeeeQueries; ++j) {
        ops_.push_back({2 * vague[j], kIeeeQueries[vague[j]], kEraK, false});
        ops_.push_back(
            {2 * strict[j] + 1, kIeeeQueries[strict[j]], kEraK, true});
      }
    }
    return ops_[i];
  }

  std::unique_ptr<trex::IeeeGenerator> gen_;
  std::unique_ptr<TReX> trex_;
  std::vector<std::vector<ScoredElement>> references_;
  std::unique_ptr<trex::Rng> rng_;
  std::vector<QuerySpec> ops_;
};

// topk_lists — why: the paper's top-k methods. The era_base index with
// RPLs and ERPLs materialized in setup for the five queries, served by
// strategy selection through a 3-worker QueryExecutor with k drawn by
// the seed from {1, 10, 100}; 3 closed-loop clients, each with one
// request outstanding. Stresses `index` list decode and block skipping,
// `retrieval` TA/Merge and the top-k heap, and the executor and
// buffer-pool latches under concurrency; the lists fit the pool, so
// storage faults and the Elements B+-tree are nearly idle.
class TopkLists : public Workload {
 public:
  using Workload::Workload;

  size_t clients() const override { return kTopkClients; }

  Status Setup(const std::string& dir, SpanLog* log) override {
    gen_ = IeeeCorpus();
    const trex::TrexOptions options = IeeeIndexOptions();
    {
      auto built = BuildIndex(dir, *gen_, options, log);
      if (!built.ok()) return built.status();
      std::unique_ptr<TReX> writer = std::move(built).value();
      for (const char* q : kIeeeQueries) {
        ScopedSpan span(log, "retrieval.materialize", 0);
        trex::MaterializeStats stats;
        TREX_RETURN_IF_ERROR(writer->MaterializeFor(q, /*rpls=*/true,
                                                    /*erpls=*/true, &stats));
      }
      TREX_RETURN_IF_ERROR(writer->index()->Flush());
    }
    auto opened = TReX::Open(dir, options, trex::OpenMode::kReadShared);
    if (!opened.ok()) return opened.status();
    trex_ = std::move(opened).value();
    // Forced-ERA references for every (query, k); then one
    // strategy-selected pass over them as warm-up. The k = kEraK
    // references and the strict answers, whose clauses now run over the
    // lists, are checked against their golden hashes.
    references_.assign(kNumIeeeQueries * std::size(kTopkKs), {});
    std::vector<std::vector<ScoredElement>> golden_pairs;
    for (size_t i = 0; i < kNumIeeeQueries; ++i) {
      for (size_t j = 0; j < std::size(kTopkKs); ++j) {
        auto r = trex_->QueryWith(RetrievalMethod::kEra, kIeeeQueries[i],
                                  kTopkKs[j]);
        if (!r.ok()) return r.status();
        references_[i * std::size(kTopkKs) + j] = r.value().result.elements;
        if (kTopkKs[j] == kEraK) {
          golden_pairs.push_back(r.value().result.elements);
        }
        TREX_RETURN_IF_ERROR(
            trex_->Query(kIeeeQueries[i], kTopkKs[j]).status());
      }
      auto strict = trex_->QueryStrict(kIeeeQueries[i], kEraK);
      if (!strict.ok()) return strict.status();
      golden_pairs.push_back(strict.value().result.elements);
    }
    CheckGolden(golden_pairs);
    if (args_.tamper && !references_[0].empty()) {
      references_[0][0].score += 1.0f;
    }
    ops_.assign(kTopkClients, {});
    rngs_.clear();
    for (size_t c = 0; c < kTopkClients; ++c) {
      rngs_.push_back(std::make_unique<trex::Rng>(
          args_.seed * 0x9e3779b97f4a7c15ULL + 0x70b + c));
    }
    executor_ = std::make_unique<trex::QueryExecutor>(trex_.get(),
                                                      kTopkClients);
    return Status::OK();
  }

  void Close() override {
    executor_.reset();
    trex_.reset();
  }
  TReX* handle() override { return trex_.get(); }
  const DocumentGenerator& corpus() const override { return *gen_; }

  void RunClient(size_t c, const Limit& limit, SpanLog* log,
                 Pass* pass) override {
    const Facade facade = [this](const QuerySpec& q) {
      return executor_->Submit(q.nexi, q.k).get();
    };
    const uint64_t round = kNumIeeeQueries * std::size(kTopkKs);
    std::vector<ScoredElement> answer;
    HostSpeedProbe probe;
    for (uint64_t i = 0; !limit.Done(i, round); ++i) {
      if (log == nullptr) probe.MaybeRun(&pass->ref_ns);
      const QuerySpec& q = OpAt(c, i);
      ++pass->ops;
      if (RunQuery(facade, trex_->index(), q, log, i, pass, &answer)) {
        Check(answer, references_[q.id], pass);
      }
      pass->hashes.push_back(AnswerHash(answer));
    }
  }

 private:
  // Client c's round r: a seeded permutation of all (query, k) pairs.
  const QuerySpec& OpAt(size_t c, uint64_t i) {
    std::vector<QuerySpec>& ops = ops_[c];
    const size_t ks = std::size(kTopkKs);
    while (ops.size() <= i) {
      for (size_t id : Shuffled(kNumIeeeQueries * ks, rngs_[c].get())) {
        ops.push_back({id, kIeeeQueries[id / ks], kTopkKs[id % ks], false});
      }
    }
    return ops[i];
  }

  std::unique_ptr<trex::IeeeGenerator> gen_;
  std::unique_ptr<TReX> trex_;
  std::unique_ptr<trex::QueryExecutor> executor_;
  std::vector<std::vector<ScoredElement>> references_;
  std::vector<std::unique_ptr<trex::Rng>> rngs_;
  std::vector<std::vector<QuerySpec>> ops_;  // Per client.
};

// The churn schedule: queries from a ShiftingTopicStream re-drawn from
// seed + i every kTopicQueries queries, an AddDocument after every
// kAddEvery queries and a TickNow after every kTickEvery queries.
class ChurnSchedule {
 public:
  enum class Kind { kQuery, kAdd, kTick };

  explicit ChurnSchedule(uint64_t seed) : seed_(seed) { Redraw(); }

  Kind Next(trex::ZooQuery* query) {
    if (since_add_ == kAddEvery) {
      since_add_ = 0;
      return Kind::kAdd;
    }
    if (since_tick_ == kTickEvery) {
      since_tick_ = 0;
      return Kind::kTick;
    }
    *query = stream_->Next();
    ++since_add_;
    ++since_tick_;
    if (++topic_queries_ == kTopicQueries) Redraw();
    return Kind::kQuery;
  }

 private:
  void Redraw() {
    trex::ShiftingTopicOptions options;
    options.changepoint = kTopicQueries / 2;
    options.pool_per_topic = kTopicPool;
    stream_ = std::make_unique<trex::ShiftingTopicStream>(
        trex::ZipfSkewProfile(), seed_ + epoch_++, options);
    topic_queries_ = 0;
  }

  uint64_t seed_;
  uint64_t epoch_ = 0;
  std::unique_ptr<trex::ShiftingTopicStream> stream_;
  size_t topic_queries_ = 0, since_add_ = 0, since_tick_ = 0;
};

// Pulls the duration of the first span called `name` out of a trace's
// JSON (the advisor.tick tree TickNow returns); 0 when absent.
double SpanDurationNs(const std::string& json, const std::string& name) {
  const size_t at = json.find("\"name\":\"" + name + "\"");
  if (at == std::string::npos) return 0.0;
  const std::string key = "\"duration_ns\":";
  const size_t d = json.find(key, at);
  if (d == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + d + key.size(), nullptr);
}

// self_manage_churn — why: writes beside reads plus the paper's advisor.
// The zoo's skew_shift pairing (ZipfSkew corpus, shifting topics) with
// self-management on and manual ticks; one driver thread serves the
// queries, adds generator documents (which drop the affected lists)
// and ticks the advisor under a disk budget smaller than the lists the
// stream wants. A change that speeds reads by materializing more pays
// for it here in adds, ticks and bytes. Stresses `advisor`, the index
// updater, materializer and pager writes; `nexi`/`retrieval` see a
// stream of distinct queries rather than five.
class SelfManageChurn : public Workload {
 public:
  using Workload::Workload;

  bool fixed_work() const override { return true; }

  Status Setup(const std::string& dir, SpanLog* log) override {
    trex::ZipfSkewOptions gen_options;
    gen_options.num_documents = kSkewDocs;
    gen_ = std::make_unique<trex::ZipfSkewGenerator>(gen_options);
    auto built = BuildIndex(dir, *gen_, trex::TrexOptions{}, log);
    if (!built.ok()) return built.status();
    trex_ = std::move(built).value();
    TReX::SelfManagementOptions self;
    self.start_background = false;
    self.load_persisted = false;
    self.loop.manager.disk_budget_bytes = kChurnBudgetBytes;
    TREX_RETURN_IF_ERROR(trex_->EnableSelfManagement(self));
    schedule_ = std::make_unique<ChurnSchedule>(args_.seed);
    distinct_.clear();
    seen_.clear();
    return Status::OK();
  }

  void Close() override { trex_.reset(); }
  TReX* handle() override { return trex_.get(); }
  const DocumentGenerator& corpus() const override { return *gen_; }

  void RunClient(size_t /*c*/, const Limit& limit, SpanLog* log,
                 Pass* pass) override {
    static trex::obs::Counter* const pager_bytes_written =
        trex::obs::Default().GetCounter("storage.pager.bytes_written");
    const Facade facade = [this](const QuerySpec& q) {
      return trex_->Query(q.nexi, q.k);
    };
    std::vector<ScoredElement> answer;
    HostSpeedProbe probe;
    for (uint64_t i = 0; !limit.Done(i, 1); ++i) {
      if (log == nullptr) probe.MaybeRun(&pass->ref_ns);
      ++pass->ops;
      trex::ZooQuery zq;
      switch (schedule_->Next(&zq)) {
        case ChurnSchedule::Kind::kQuery: {
          QuerySpec q{0, zq.nexi, zq.k, false};
          if (seen_.insert({zq.nexi, zq.k}).second) distinct_.push_back(q);
          if (RunQuery(facade, trex_->index(), q, log, i, pass, &answer) &&
              log != nullptr) {
            // The traced path bypasses the facade, which records served
            // queries for the advisor; record them the same way.
            trex_->workload_recorder()->Record(q.nexi, q.k);
          }
          pass->hashes.push_back(AnswerHash(answer));
          break;
        }
        case ChurnSchedule::Kind::kAdd: {
          const DocId docid = trex_->index()->max_docid() + 1;
          const std::string doc = gen_->Generate(docid);
          const size_t lists_before = log != nullptr ? CatalogSize() : 0;
          const uint64_t written_before = pager_bytes_written->value();
          const int64_t start = trex::NowNanos();
          Result<DocId> added = Status::OK();
          {
            ScopedSpan span(log, "trex.add_document", i);
            added = trex_->AddDocument(doc);
          }
          pass->add_ns.push_back(
              static_cast<double>(trex::NowNanos() - start));
          ++pass->adds;
          pass->add_bytes_written +=
              pager_bytes_written->value() - written_before;
          pass->add_xml_bytes += doc.size();
          if (log != nullptr) {
            const size_t lists_after = CatalogSize();
            if (lists_before > lists_after) {
              pass->lists_dropped += lists_before - lists_after;
            }
          }
          if (!added.ok()) ++pass->failed;
          pass->hashes.push_back(added.ok() ? added.value() : ~0ULL);
          break;
        }
        case ChurnSchedule::Kind::kTick: {
          AdvisorTickReport report;
          const int64_t start = trex::NowNanos();
          Status s;
          {
            ScopedSpan span(log, "advisor.tick", i);
            s = trex_->advisor_loop()->TickNow(&report);
          }
          pass->tick_ns.push_back(
              static_cast<double>(trex::NowNanos() - start));
          ++pass->ticks;
          if (!s.ok()) ++pass->failed;
          pass->tick_pages += report.resources.pages_fetched;
          pass->tick_materialized += report.lists_materialized;
          pass->tick_dropped += report.lists_dropped;
          pass->plan_ns.push_back(SpanDurationNs(report.trace_json, "plan"));
          pass->apply_ns.push_back(
              SpanDurationNs(report.trace_json, "apply"));
          pass->hashes.push_back(report.lists_materialized * 1000003ULL +
                                 report.lists_dropped * 1009ULL +
                                 report.bytes_materialized);
          break;
        }
      }
    }
  }

  // Every distinct query of the window, re-answered on the final state
  // by strategy selection and by forced ERA; the two must agree.
  void FinalCheck(Pass* pass, uint64_t* attempted) override {
    for (size_t i = 0; i < distinct_.size(); ++i) {
      const QuerySpec& q = distinct_[i];
      ++*attempted;
      auto chosen = trex_->Query(q.nexi, q.k);
      auto era = trex_->QueryWith(RetrievalMethod::kEra, q.nexi, q.k);
      if (!chosen.ok() || !era.ok()) {
        ++pass->failed;
        continue;
      }
      std::vector<ScoredElement> reference = era.value().result.elements;
      if (args_.tamper && i == 0 && !reference.empty()) {
        reference[0].score += 1.0f;
      }
      Check(chosen.value().result.elements, reference, pass);
    }
  }

 private:
  size_t CatalogSize() {
    auto entries = trex_->index()->catalog()->List();
    return entries.ok() ? entries.value().size() : 0;
  }

  std::unique_ptr<trex::ZipfSkewGenerator> gen_;
  std::unique_ptr<TReX> trex_;
  std::unique_ptr<ChurnSchedule> schedule_;
  std::vector<QuerySpec> distinct_;
  std::set<std::pair<std::string, size_t>> seen_;
};

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "era_base") return std::make_unique<EraBase>(args);
  if (args.workload == "topk_lists") return std::make_unique<TopkLists>(args);
  if (args.workload == "self_manage_churn") {
    return std::make_unique<SelfManageChurn>(args);
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// Running passes and turning them into metrics.

// Runs every client of `w` once, each on its own thread when there are
// several; `logs` (traced pass) holds one span log per client.
std::vector<Pass> RunPass(Workload* w, const std::vector<Limit>& limits,
                          std::vector<SpanLog>* logs) {
  std::vector<Pass> passes(w->clients());
  auto client = [&](size_t c) {
    trex::obs::ProfilerThreadScope profiled("trexbench.client");
    w->RunClient(c, limits[c], logs != nullptr ? &(*logs)[c] : nullptr,
                 &passes[c]);
  };
  if (w->clients() == 1) {
    client(0);
  } else {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < w->clients(); ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();
  }
  return passes;
}

// The window of each client: `seconds` long (or the fixed-work
// equivalent), and for a time window at least `min_queries` queries over
// all clients.
std::vector<Limit> TimeLimits(const Workload& w, const Args& args,
                              double seconds, uint64_t min_queries = 0) {
  Limit limit;
  if (args.ops != 0) {
    limit.min_ops = args.ops;
    if (w.fixed_work()) limit.exact_ops = args.ops;
  } else if (w.fixed_work()) {
    limit.exact_ops = static_cast<uint64_t>(seconds * kChurnOpsPerSecond);
  } else {
    limit.deadline_ns =
        trex::NowNanos() + static_cast<int64_t>(seconds * 1e9);
    limit.min_ops = (min_queries + w.clients() - 1) / w.clients();
  }
  return std::vector<Limit>(w.clients(), limit);
}

double PerQuery(uint64_t total, uint64_t queries) {
  return queries == 0 ? 0.0
                      : static_cast<double>(total) /
                            static_cast<double>(queries);
}

std::string IndexFile(const Workload& w, const char* table) {
  return w.dir() + "/" + table + ".tbl";
}

// What a caller sees. setup_s is filled in by the caller. `cpu_s` is the
// process CPU over the window, the reference task runs included.
void AddEndToEnd(const Workload& w, const Pass& p, double wall_s,
                 double cpu_s, uint64_t attempted, Report* r) {
  const double q = static_cast<double>(p.queries);
  cpu_s -= std::accumulate(p.ref_ns.begin(), p.ref_ns.end(), 0.0) * 1e-9;
  r->Add("qps", q / wall_s, "1/s");
  r->Add("query_p50_ms", Quantile(p.query_ns, 0.50) * 1e-6, "ms");
  if (p.query_ns.size() >= 1000) {
    r->Add("query_p99_ms", Quantile(p.query_ns, 0.99) * 1e-6, "ms");
  } else {
    r->Missing("query_p99_ms", "ms",
               "fewer than 1000 queries, so fewer than 10 beyond p99");
  }
  r->Add("cpu_ms_per_query", cpu_s * 1e3 / q, "ms");
  // Per-query thread CPU as the library's resource accounting measures
  // it: unlike caller latency it does not move with host steal or with
  // executor hand-offs between threads.
  r->Add("query_cpu_p50_ms", Quantile(p.cpu_ns, 0.50) * 1e-6, "ms");
  if (p.cpu_ns.size() >= 1000) {
    r->Add("query_cpu_p99_ms", Quantile(p.cpu_ns, 0.99) * 1e-6, "ms");
  } else {
    r->Missing("query_cpu_p99_ms", "ms",
               "fewer than 1000 queries, so fewer than 10 beyond p99");
  }
  // The same three CPU figures at the reference host speed: scaled by
  // kReferenceTaskMs over the reference task's mean in this window (see
  // HostSpeedProbe). The task runs at even intervals of wall time, so
  // its mean weighs slow and fast stretches of the host as the window's
  // CPU totals do.
  const double task_ms = Mean(p.ref_ns) * 1e-6;
  r->Add("host.reference_task_ms", task_ms, "ms");
  const double speed = task_ms > 0 ? kReferenceTaskMs / task_ms : 0.0;
  r->Add("query_cpu_p50_ref_ms", Quantile(p.cpu_ns, 0.50) * 1e-6 * speed,
         "ms");
  if (p.cpu_ns.size() >= 1000) {
    r->Add("query_cpu_p99_ref_ms",
           Quantile(p.cpu_ns, 0.99) * 1e-6 * speed, "ms");
  } else {
    r->Missing("query_cpu_p99_ref_ms", "ms",
               "fewer than 1000 queries, so fewer than 10 beyond p99");
  }
  r->Add("cpu_ref_ms_per_query", cpu_s * 1e3 / q * speed, "ms");
  r->Add("error_rate",
         static_cast<double>(p.failed) / static_cast<double>(attempted),
         "ratio");
  if (p.adds > 0) {
    r->Add("add_doc_p50_ms", Quantile(p.add_ns, 0.50) * 1e-6, "ms");
  } else {
    r->Missing("add_doc_p50_ms", "ms", "the workload adds no documents");
  }
  if (p.ticks > 0) {
    r->Add("advisor_tick_ms", Quantile(p.tick_ns, 0.50) * 1e-6, "ms");
  } else {
    r->Missing("advisor_tick_ms", "ms", "the workload runs no advisor");
  }
  const double lists = static_cast<double>(FileBytes(IndexFile(w, "RPLs")) +
                                           FileBytes(IndexFile(w, "ERPLs")));
  const double base =
      static_cast<double>(FileBytes(IndexFile(w, "Elements")) +
                          FileBytes(IndexFile(w, "PostingLists")) +
                          FileBytes(IndexFile(w, "TermStats")));
  r->Add("list_bytes_ratio", lists / base, "ratio");
  r->Add("index_bytes_per_doc_byte",
         static_cast<double>(DirBytes(w.dir())) /
             static_cast<double>(w.xml_bytes() + p.add_xml_bytes),
         "ratio");
  r->Add("peak_rss_mb", PeakRssMiB(), "MiB");
  r->Add("queries", q, "count");
  if (w.golden_mismatches() >= 0) {
    r->Add("bench.golden_mismatches",
           static_cast<double>(w.golden_mismatches()), "count");
  }
}

// Work counts of the untraced pass, per query (or per add / per tick).
void AddWorkCounts(const Pass& p, const trex::obs::MetricsSnapshot& before,
                   const trex::obs::MetricsSnapshot& after,
                   uint64_t materializer_fills, Report* r) {
  const uint64_t q = p.queries;
  const trex::obs::ResourceUsage& u = p.usage;
  r->Add("summary.sids_per_query", PerQuery(p.sids, q), "count");
  for (int s = 0; s < kSlots; ++s) {
    r->Add(std::string("retrieval.method_share.") + kSlotNames[s],
           PerQuery(p.methods[s], q), "ratio");
  }
  r->Add("retrieval.elements_scanned_per_query",
         PerQuery(u.elements_scanned, q), "count");
  r->Add("retrieval.heap_ops_per_query", PerQuery(u.heap_operations, q),
         "count");
  r->Add("retrieval.sorted_accesses_per_query",
         PerQuery(u.sorted_accesses, q), "count");
  r->Add("retrieval.random_accesses_per_query",
         PerQuery(u.random_accesses, q), "count");
  r->Add("retrieval.materializer_fills",
         static_cast<double>(materializer_fills), "count");
  r->Add("retrieval.degraded_fallbacks",
         static_cast<double>(
             CounterDelta(before, after, "retrieval.degraded_fallbacks")),
         "count");
  r->Add("index.postings_scanned_per_query", PerQuery(u.postings_scanned, q),
         "count");
  r->Add("index.list_fragments_per_query", PerQuery(u.list_fragments, q),
         "count");
  r->Add("index.extent_seeks_per_query",
         PerQuery(CounterDelta(before, after, "index.elements.extent_seeks"),
                  q),
         "count");
  r->Add("index.blocks_decoded_per_query", PerQuery(u.blocks_decoded, q),
         "count");
  r->Add("index.bytes_decoded_per_query", PerQuery(u.bytes_decoded, q),
         "B");
  r->Add("index.block_skip_ratio",
         PerQuery(u.blocks_skipped, u.blocks_decoded + u.blocks_skipped),
         "ratio");
  r->Add("storage.pages_fetched_per_query", PerQuery(u.pages_fetched, q),
         "count");
  r->Add("storage.pages_faulted_per_query", PerQuery(u.pages_faulted, q),
         "count");
  r->Add("storage.bptree_seeks_per_query",
         PerQuery(CounterDelta(before, after, "storage.bptree.seeks"), q),
         "count");
  const uint64_t hits = CounterDelta(before, after, "storage.bufpool.hits");
  const uint64_t misses =
      CounterDelta(before, after, "storage.bufpool.misses");
  r->Add("storage.bufpool_hit_ratio", PerQuery(hits, hits + misses),
         "ratio");
  r->Add("storage.latch_contended_per_query",
         PerQuery(CounterDelta(before, after,
                               "storage.bufpool.latch_contended"),
                  q),
         "count");
  r->Add("storage.latch_wait_ms_per_query",
         PerQuery(HistogramSumDelta(before, after,
                                    "storage.bufpool.latch_wait_nanos"),
                  q) *
             1e-6,
         "ms");
  r->Add("storage.bytes_written_per_add",
         PerQuery(p.add_bytes_written, p.adds), "B");
  r->Add("storage.write_amp", PerQuery(p.add_bytes_written, p.add_xml_bytes),
         "ratio");
  r->Add("trex.queue_wait_ms", Mean(p.queue_ns) * 1e-6, "ms");
  r->Add("advisor.ticks", static_cast<double>(p.ticks), "count");
  r->Add("advisor.tick_pages", PerQuery(p.tick_pages, p.ticks), "count");
  r->Add("advisor.lists_materialized_per_tick",
         PerQuery(p.tick_materialized, p.ticks), "count");
  r->Add("advisor.lists_dropped_per_tick", PerQuery(p.tick_dropped, p.ticks),
         "count");
  auto drift = after.gauges.find("advisor.calibration.mean_abs_drift_pct");
  r->Add("advisor.calibration_drift_pct",
         drift == after.gauges.end() ? 0.0
                                     : static_cast<double>(drift->second),
         "%");
}

// Times of the traced pass, from the bench's spans.
void AddLayerTimes(const Pass& traced, const Pass& untraced,
                   const std::map<std::string, SpanStats>& spans,
                   Report* r) {
  auto stat = [&](const char* name) -> const SpanStats* {
    auto it = spans.find(name);
    return it == spans.end() ? nullptr : &it->second;
  };
  auto median_of = [&](const char* name, double scale, const char* metric,
                       const char* unit, const char* why_missing) {
    const SpanStats* s = stat(name);
    if (s == nullptr) {
      r->Missing(metric, unit, why_missing);
    } else {
      r->Add(metric, Quantile(s->durations_ns, 0.5) * scale, unit);
    }
  };
  median_of("nexi.parse", 1e-3, "nexi.parse_us", "us", "no queries");
  median_of("nexi.translate", 1e-3, "nexi.translate_us", "us", "no queries");
  median_of("retrieval.strategy", 1e-3, "retrieval.strategy_us", "us",
            "no strategy-selected queries");
  double eval_ns = 0.0;
  for (const char* name : kEvalSpans) {
    if (const SpanStats* s = stat(name)) eval_ns += s->total_ns;
  }
  r->Add("retrieval.evaluate_ms",
         eval_ns * 1e-6 / static_cast<double>(std::max<uint64_t>(
                              traced.queries, 1)),
         "ms");
  for (int slot = 0; slot < kSlots; ++slot) {
    const SpanStats* s = stat(kEvalSpans[slot]);
    r->Add(std::string("retrieval.time_share.") + kSlotNames[slot],
           s == nullptr || eval_ns == 0.0 ? 0.0 : s->total_ns / eval_ns,
           "ratio");
  }
  for (int slot = 0; slot < kSlots; ++slot) {
    const std::string metric =
        std::string("retrieval.") + kSlotNames[slot] + "_ms";
    median_of(kEvalSpans[slot], 1e-6, metric.c_str(), "ms",
              "the workload runs no such query");
  }
  if (const SpanStats* s = stat("retrieval.materialize")) {
    r->Add("retrieval.materialize_ms", s->total_ns * 1e-6, "ms");
  } else {
    r->Missing("retrieval.materialize_ms", "ms",
               "setup materializes nothing; ticks are timed as a whole");
  }
  if (const SpanStats* s = stat("index.build")) {
    r->Add("index.build_s", s->total_ns * 1e-9, "s");
  }
  r->Add("index.lists_dropped_per_add",
         PerQuery(traced.lists_dropped, traced.adds), "count");
  if (traced.ticks > 0) {
    r->Add("advisor.plan_ms", Quantile(traced.plan_ns, 0.5) * 1e-6, "ms");
    r->Add("advisor.apply_ms", Quantile(traced.apply_ns, 0.5) * 1e-6, "ms");
  } else {
    r->Missing("advisor.plan_ms", "ms", "the workload runs no advisor");
    r->Missing("advisor.apply_ms", "ms", "the workload runs no advisor");
  }
  median_of("xml.parse", 1e-6, "xml.parse_ms_per_doc", "ms", "no probe");
  median_of("text.tokenize", 1e-6, "text.tokenize_ms_per_doc", "ms",
            "no probe");
  const double traced_mean = Mean(traced.query_ns);
  const double untraced_mean = Mean(untraced.query_ns);
  r->Add("bench.trace_overhead_pct",
         untraced_mean == 0.0
             ? 0.0
             : (traced_mean - untraced_mean) / untraced_mean * 100.0,
         "%");
}

// The xml/text probe: parse and tokenize the first documents of the
// corpus the way the builder does, one span per document and step.
void ProbeXmlAndText(const DocumentGenerator& corpus,
                     const trex::Tokenizer& tokenizer, SpanLog* log) {
  std::vector<trex::TokenOccurrence> tokens;
  for (size_t d = 0; d < kProbeDocs && d < corpus.num_documents(); ++d) {
    const std::string doc = corpus.Generate(static_cast<DocId>(d));
    std::vector<std::pair<std::string, uint64_t>> texts;
    {
      ScopedSpan span(log, "xml.parse", d);
      trex::XmlReader reader(doc);
      trex::XmlEvent event;
      while (reader.Next(&event).ok() &&
             event.type != trex::XmlEventType::kEndDocument) {
        if (event.type == trex::XmlEventType::kText) {
          texts.emplace_back(std::move(event.text), event.offset);
        }
      }
    }
    ScopedSpan span(log, "text.tokenize", d);
    tokens.clear();
    for (const auto& [text, offset] : texts) {
      tokenizer.Tokenize(text, offset, &tokens);
    }
  }
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// Counts ops whose answers differ between the untraced and traced pass.
uint64_t CompareHashes(const std::vector<Pass>& a, const std::vector<Pass>& b) {
  uint64_t mismatches = 0;
  for (size_t c = 0; c < a.size(); ++c) {
    const size_t n = std::min(a[c].hashes.size(), b[c].hashes.size());
    mismatches += std::max(a[c].hashes.size(), b[c].hashes.size()) - n;
    for (size_t i = 0; i < n; ++i) {
      if (a[c].hashes[i] != b[c].hashes[i]) ++mismatches;
    }
  }
  return mismatches;
}

bool Fail(const char* what, const Status& s) {
  std::fprintf(stderr, "trexbench: %s: %s\n", what, s.ToString().c_str());
  return false;
}

// Timed mode: set up kSetups times (setup_s is their median, steadier
// than one setup), then one untraced window of `args.seconds`.
bool RunTimed(Workload* w, const Args& args, Outcome* out) {
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  const std::string dir = args.work_dir + "/index";
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) w->Close();
    RemoveDir(dir);
    const int64_t start = trex::NowNanos();
    Status s = w->Setup(dir, nullptr);
    if (!s.ok()) return Fail("setup", s);
    setup_s.push_back(static_cast<double>(trex::NowNanos() - start) * 1e-9);
  }
  const double cpu_before = ProcessCpuSeconds();
  const int64_t start = trex::NowNanos();
  // A slow machine gets a longer window rather than a p99 with fewer
  // than 10 samples beyond it.
  const Pass pass = MergePasses(RunPass(
      w, TimeLimits(*w, args, args.seconds, kMinWindowQueries), nullptr));
  const double wall_s = static_cast<double>(trex::NowNanos() - start) * 1e-9;
  const double cpu_s = ProcessCpuSeconds() - cpu_before;
  Pass checked = pass;
  out->attempted = pass.ops;
  w->FinalCheck(&checked, &out->attempted);
  out->failed = checked.failed;
  out->metrics.Add("setup_s", Quantile(setup_s, 0.5), "s");
  AddEndToEnd(*w, checked, wall_s, cpu_s, out->attempted, &out->metrics);
  w->Close();
  RemoveDir(dir);
  return true;
}

// Obs A/B mode: prices the library's own instrumentation. One setup,
// then the untraced pass in chunks that alternate the metrics registry
// and the flight recorder on and off together (the two switches
// TREX_OBS_DISABLED=1 flips at start-up; traces stay on either way) in
// ABBA order, so drift of the machine hits both sides alike. obs.overhead_pct is the median
// over adjacent on/off pairs of the CPU-per-query ratio.
bool RunObsAB(Workload* w, const Args& args, Outcome* out) {
  constexpr int kChunks = 12;
  const std::string dir = args.work_dir + "/index";
  RemoveDir(dir);
  Status s = w->Setup(dir, nullptr);
  if (!s.ok()) return Fail("setup", s);
  std::vector<Pass> chunks;
  std::vector<double> cpu_ms_per_query;
  for (int c = 0; c < kChunks; ++c) {
    const bool on = (c + 1) / 2 % 2 == 0;
    trex::obs::Default().set_enabled(on);
    trex::obs::FlightRecorder::Default().set_enabled(on);
    const double cpu_before = ProcessCpuSeconds();
    chunks.push_back(MergePasses(
        RunPass(w, TimeLimits(*w, args, args.seconds / 2 / kChunks),
                nullptr)));
    const Pass& chunk = chunks.back();
    const double probe_s =
        std::accumulate(chunk.ref_ns.begin(), chunk.ref_ns.end(), 0.0) * 1e-9;
    cpu_ms_per_query.push_back(
        (ProcessCpuSeconds() - cpu_before - probe_s) * 1e3 /
        static_cast<double>(chunk.queries));
  }
  trex::obs::Default().set_enabled(true);
  trex::obs::FlightRecorder::Default().set_enabled(true);
  std::vector<double> overhead_pct;
  for (int c = 0; c + 1 < kChunks; c += 2) {
    const bool first_on = (c + 1) / 2 % 2 == 0;
    const double on = cpu_ms_per_query[first_on ? c : c + 1];
    const double off = cpu_ms_per_query[first_on ? c + 1 : c];
    overhead_pct.push_back((on / off - 1.0) * 100.0);
  }
  Pass pass = MergePasses(chunks);
  out->attempted = pass.ops;
  w->FinalCheck(&pass, &out->attempted);
  out->failed = pass.failed;
  out->metrics.Add("obs.overhead_pct", Quantile(overhead_pct, 0.5), "%");
  w->Close();
  RemoveDir(dir);
  return true;
}

// Traced mode: an untraced pass on one setup, then a second setup (its
// build and materialization traced) on which the same ops run again,
// driven through the layers with spans and the sampling profiler on.
bool RunTraced(Workload* w, const Args& args, Outcome* out) {
  const std::string dir = args.work_dir + "/index";
  RemoveDir(dir);
  const trex::obs::MetricsSnapshot at_setup = trex::obs::Default().Snapshot();
  Status s = w->Setup(dir, nullptr);
  if (!s.ok()) return Fail("setup", s);
  const trex::obs::MetricsSnapshot before = trex::obs::Default().Snapshot();
  const double cpu_before = ProcessCpuSeconds();
  const int64_t start = trex::NowNanos();
  const std::vector<Pass> untraced_passes =
      RunPass(w, TimeLimits(*w, args, args.seconds / 2), nullptr);
  const double wall_s = static_cast<double>(trex::NowNanos() - start) * 1e-9;
  const double cpu_s = ProcessCpuSeconds() - cpu_before;
  const trex::obs::MetricsSnapshot after = trex::obs::Default().Snapshot();
  Pass untraced = MergePasses(untraced_passes);
  out->attempted = untraced.ops;
  w->FinalCheck(&untraced, &out->attempted);
  Report& r = out->metrics;
  AddEndToEnd(*w, untraced, wall_s, cpu_s, out->attempted, &r);
  AddWorkCounts(untraced, before, after,
                CounterDelta(at_setup, after, "retrieval.materializer.fills"),
                &r);
  w->Close();
  RemoveDir(dir);

  // The traced replay: same seed, same ops, per client.
  SpanLog setup_log;
  s = w->Setup(dir, &setup_log);
  if (!s.ok()) return Fail("traced setup", s);
  SpanLog probe_log;
  ProbeXmlAndText(w->corpus(), w->handle()->index()->tokenizer(),
                  &probe_log);
  std::vector<Limit> replay(w->clients());
  for (size_t c = 0; c < w->clients(); ++c) {
    replay[c].exact_ops = untraced_passes[c].ops;
  }
  std::vector<SpanLog> logs(w->clients());
  trex::obs::Profiler& profiler = trex::obs::Profiler::Default();
  const bool profiling = profiler.Start().ok();
  const std::vector<Pass> traced_passes = RunPass(w, replay, &logs);
  if (profiling) profiler.Stop();
  const Pass traced = MergePasses(traced_passes);
  const uint64_t mismatches = CompareHashes(untraced_passes, traced_passes);
  out->attempted += traced.ops;
  out->failed = untraced.failed + traced.failed + mismatches;
  r.Add("bench.traced_answer_mismatches", static_cast<double>(mismatches),
        "count");

  std::vector<const SpanLog*> all = {&setup_log, &probe_log};
  for (const SpanLog& log : logs) all.push_back(&log);
  AddLayerTimes(traced, untraced, AggregateSpans(all), &r);
  const trex::obs::ProfilerStats stats = profiler.stats();
  r.Add("profiler.samples", static_cast<double>(profiling ? stats.samples : 0),
        "count");
  if (!args.span_file.empty()) {
    if (!WriteSpans(args.span_file, all)) {
      std::fprintf(stderr, "trexbench: cannot write %s\n",
                   args.span_file.c_str());
    }
    if (profiling && !profiler.WriteCollapsed(args.span_file + ".collapsed")
                          .ok()) {
      std::fprintf(stderr, "trexbench: cannot write the profile\n");
    }
  }
  w->Close();
  RemoveDir(dir);
  return true;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"era_base", "topk_lists",
                                                  "self_manage_churn"};
  return kNames;
}

bool RunWorkload(const Args& args, Outcome* outcome) {
  std::unique_ptr<Workload> w = MakeWorkload(args);
  if (w == nullptr) return false;
  trex::obs::ProfilerThreadScope profiled("trexbench.main");
  switch (args.mode) {
    case Mode::kTimed:
      return RunTimed(w.get(), args, outcome);
    case Mode::kObsAB:
      return RunObsAB(w.get(), args, outcome);
    case Mode::kTraced:
      return RunTraced(w.get(), args, outcome);
  }
  return false;
}

}  // namespace trexbench
