// Wall-clock benchmark for ShamirDB: seeded, closed-loop workloads driven
// by one client thread through the public API.
//
//   perfbench --workload point_lookup|scan_aggregate|write_mix --seed N
//             --seconds S --trace 0|1 [--workdir DIR]
//
// --trace 0 times a deployment built by OutsourcedDatabase::Create and
// prints the end-to-end metrics. --trace 1 runs the same schedule twice:
// untraced as above, then on a deployment assembled from the public parts
// (Network, Provider, DataSourceClient::Create and the AttachMetrics
// wiring of OutsourcedDatabase::Create) with a timing wrapper around every
// provider endpoint and WAL, and prints the per-layer split. Spans are
// taken from outside the library, around the calls into each layer, and
// kept in memory until the run ends.
//
// Every answer is checked against a plaintext mirror of the table, outside
// the timed section. The deterministic counts (virtual clock, bytes,
// provider work, WAL) of the two --trace 1 passes must match bit for bit.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/outsourced_db.h"
#include "storage/engine.h"
#include "workload/generators.h"

namespace ssdb {
namespace perfbench {
namespace {

constexpr const char* kTable = "Employees";
constexpr size_t kWalSnapshotEvery = 256;  // StorageOptions default
constexpr size_t kLookupsPerBatch = 16;
constexpr size_t kThroughputBlocks = 40;
// Set-up is repeated at least kMinSetups times and until kMinSetupSeconds
// have been spent (at most kMaxSetups); setup_s is the median.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 9;
constexpr double kMinSetupSeconds = 3.0;
constexpr size_t kExplainCap = 20000;
constexpr double kMaxDecompositionGap = 0.05;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  int64_t start = 0;
  int64_t end = 0;
  int64_t ns() const { return end - start; }
};

/// In-memory span sink; fan-out legs on pool workers append concurrently.
class SpanLog {
 public:
  void Add(int64_t start, int64_t end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({start, end});
  }
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(spans_, {});
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times every request a provider handles ("provider.handle" spans).
class TimedEndpoint : public ProviderEndpoint {
 public:
  TimedEndpoint(std::shared_ptr<Provider> provider, SpanLog* spans)
      : provider_(std::move(provider)), spans_(spans) {}

  Result<Buffer> Handle(Slice request) override {
    const int64_t start = NowNs();
    Result<Buffer> response = provider_->Handle(request);
    spans_->Add(start, NowNs());
    return response;
  }
  std::string name() const override { return provider_->name(); }

 private:
  std::shared_ptr<Provider> provider_;
  SpanLog* spans_;
};

/// Times every WAL append, checkpoints included ("storage.log" spans).
class TimedDurableEngine : public DurableEngine {
 public:
  TimedDurableEngine(DurableEngineOptions options, SpanLog* spans)
      : DurableEngine(std::move(options)), spans_(spans) {}

  Status LogMutation(Slice request) override {
    const int64_t start = NowNs();
    Status st = DurableEngine::LogMutation(request);
    spans_->Add(start, NowNs());
    return st;
  }

 private:
  SpanLog* spans_;
};

// --- Workloads ----------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  Topology topology;
  size_t fanout_threads = 1;
  size_t rows = 0;
  bool durable = false;
  /// Sizes the fixed schedule: timed logical ops = seconds x this, so every
  /// count repeats exactly for a given seed and --seconds.
  double nominal_ops_per_s = 0;
  size_t warmup_calls = 0;
};

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"point_lookup", Topology(1, 4, 2), 1, 200000, false, 50000, 256},
      {"scan_aggregate", Topology(4, 4, 2, Partitioner::kHash), 2, 50000,
       false, 480, 60},
      {"write_mix", Topology(1, 4, 2), 1, 100000, true, 1800, 200},
  };
  return specs;
}

enum class Kind : uint8_t {
  kLookup,      // ExecuteBatch of Eq(name) queries
  kRangeFetch,  // rows with salary in [lo, hi]
  kSum,
  kAvg,
  kMedian,
  kGroupSum,  // SUM(salary) GROUP BY dept over a salary range
  kJoin,      // self equi-join on name, salary range on the left side
  kUpdate,    // SET salary = lo WHERE name
  kInsert,
  kDelete,  // WHERE name
  kRead,    // single Execute(Eq(name))
};

struct Op {
  Kind kind = Kind::kRead;
  std::vector<uint32_t> keys;  ///< Indices of initial rows whose names are used.
  int64_t lo = 0;              ///< Range start, or the new salary (kUpdate).
  int64_t hi = 0;
  uint32_t insert = 0;  ///< Index into Inputs::inserts.
};

size_t LogicalOps(const Op& op) {
  return op.kind == Kind::kLookup ? op.keys.size() : 1;
}

/// Everything the program receives, generated from the seed alone.
struct Inputs {
  std::vector<std::vector<Value>> rows;     ///< Initial table.
  std::vector<std::vector<Value>> inserts;  ///< Rows write_mix inserts.
  std::vector<Op> schedule;                 ///< Warm-up calls, then timed.
  size_t warmup = 0;
};

Inputs MakeInputs(const WorkloadSpec& w, uint64_t seed, int seconds) {
  Inputs in;
  in.rows = EmployeeGenerator(seed, Distribution::kUniform).Rows(w.rows);
  Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
  const auto key = [&] {
    return static_cast<uint32_t>(rng.Uniform(in.rows.size()));
  };
  const auto range = [&](Op* op, int64_t width) {
    op->lo = rng.UniformInt(EmployeeGenerator::kSalaryLo,
                            EmployeeGenerator::kSalaryHi - width);
    op->hi = op->lo + width;
  };
  const size_t timed = std::max<size_t>(
      1, static_cast<size_t>(std::llround(seconds * w.nominal_ops_per_s)));

  if (w.name == "point_lookup") {
    const size_t calls = (timed + kLookupsPerBatch - 1) / kLookupsPerBatch;
    for (size_t c = 0; c < w.warmup_calls + calls; ++c) {
      Op op;
      op.kind = Kind::kLookup;
      for (size_t q = 0; q < kLookupsPerBatch; ++q) op.keys.push_back(key());
      in.schedule.push_back(std::move(op));
    }
  } else {
    // Exact mix proportions per cycle; only the order within a cycle and
    // the parameters vary with the seed.
    std::vector<Kind> cycle;
    const auto add = [&](Kind k, int times) { cycle.insert(cycle.end(), times, k); };
    if (w.name == "scan_aggregate") {
      add(Kind::kRangeFetch, 4);
      add(Kind::kSum, 4);
      add(Kind::kAvg, 3);
      add(Kind::kMedian, 4);
      add(Kind::kGroupSum, 4);
      add(Kind::kJoin, 1);
    } else {
      add(Kind::kUpdate, 4);
      add(Kind::kInsert, 2);
      add(Kind::kDelete, 1);
      add(Kind::kRead, 3);
    }
    const int64_t pct = EmployeeGenerator::kSalaryHi / 100;
    while (in.schedule.size() < w.warmup_calls + timed) {
      rng.Shuffle(&cycle);
      for (Kind k : cycle) {
        Op op;
        op.kind = k;
        switch (k) {
          case Kind::kRangeFetch:
          case Kind::kMedian:
          case Kind::kJoin:
            range(&op, pct);
            break;
          case Kind::kSum:
          case Kind::kAvg:
          case Kind::kGroupSum:
            range(&op, 10 * pct);
            break;
          case Kind::kUpdate:
            op.keys = {key()};
            op.lo = rng.UniformInt(EmployeeGenerator::kSalaryLo,
                                   EmployeeGenerator::kSalaryHi);
            break;
          case Kind::kInsert:
            op.insert = static_cast<uint32_t>(in.inserts.size());
            in.inserts.emplace_back();
            break;
          default:
            op.keys = {key()};
            break;
        }
        in.schedule.push_back(std::move(op));
      }
    }
    in.schedule.resize(w.warmup_calls + timed);
    EmployeeGenerator fresh(seed ^ 0x1A5E27ULL, Distribution::kUniform);
    for (auto& row : in.inserts) row = fresh.Rows(1).front();
  }
  in.warmup = w.warmup_calls;
  return in;
}

// --- Plaintext mirror ------------------------------------------------------------

using PlainRow = std::tuple<std::string, int64_t, int64_t>;  // name, salary, dept

PlainRow ToPlain(const std::vector<Value>& row, size_t at = 0) {
  return {row[at].AsString(), row[at + 1].AsInt(), row[at + 2].AsInt()};
}

uint64_t PlainBytes(const std::string& name) { return name.size() + 16; }

/// Plaintext copy of the table, kept in step with the workload's own
/// writes. Range queries read the initial table sorted by salary, so only
/// the write-free workload issues them.
class Mirror {
 public:
  explicit Mirror(const std::vector<std::vector<Value>>& rows) {
    for (const auto& row : rows) Add(row);
    by_salary_.reserve(rows.size());
    for (const auto& row : rows) by_salary_.push_back(ToPlain(row));
    std::sort(by_salary_.begin(), by_salary_.end(),
              [](const PlainRow& a, const PlainRow& b) {
                return std::get<1>(a) < std::get<1>(b);
              });
  }

  void Add(const std::vector<Value>& row) {
    by_name_[row[0].AsString()].push_back({row[1].AsInt(), row[2].AsInt()});
  }
  std::vector<PlainRow> Named(const std::string& name) const {
    std::vector<PlainRow> out;
    auto it = by_name_.find(name);
    if (it == by_name_.end()) return out;
    for (const auto& [salary, dept] : it->second) {
      out.emplace_back(name, salary, dept);
    }
    return out;
  }
  /// Sets every `name` row's salary; returns rows changed.
  uint64_t Update(const std::string& name, int64_t salary) {
    auto it = by_name_.find(name);
    if (it == by_name_.end()) return 0;
    for (auto& cell : it->second) cell.first = salary;
    return it->second.size();
  }
  uint64_t Delete(const std::string& name) {
    auto it = by_name_.find(name);
    if (it == by_name_.end()) return 0;
    const uint64_t n = it->second.size();
    by_name_.erase(it);
    return n;
  }
  /// Rows with lo <= salary <= hi, in salary order.
  std::pair<const PlainRow*, const PlainRow*> Range(int64_t lo,
                                                     int64_t hi) const {
    const auto less = [](const PlainRow& r, int64_t v) {
      return std::get<1>(r) < v;
    };
    const auto first =
        std::lower_bound(by_salary_.begin(), by_salary_.end(), lo, less);
    const auto last =
        std::lower_bound(by_salary_.begin(), by_salary_.end(), hi + 1, less);
    return {by_salary_.data() + (first - by_salary_.begin()),
            by_salary_.data() + (last - by_salary_.begin())};
  }
  uint64_t UserBytes() const {
    uint64_t total = 0;
    for (const auto& [name, cells] : by_name_) {
      total += cells.size() * PlainBytes(name);
    }
    return total;
  }

 private:
  std::unordered_map<std::string, std::vector<std::pair<int64_t, int64_t>>>
      by_name_;
  std::vector<PlainRow> by_salary_;
};

// --- Running one call -------------------------------------------------------------

struct Outcome {
  Status status;
  std::vector<QueryResult> results;
  uint64_t affected = 0;
};

void Absorb(Result<QueryResult> r, Outcome* out) {
  if (!r.ok()) {
    if (out->status.ok()) out->status = r.status();
    out->results.emplace_back();
    return;
  }
  out->results.push_back(std::move(r).value());
}

Query RangeQuery(const Op& op) {
  return Query::Select(kTable).Where(
      Between("salary", Value::Int(op.lo), Value::Int(op.hi)));
}

Predicate NameIs(const Inputs& in, uint32_t key) {
  return Eq("name", in.rows[key][0]);
}

/// The single-table queries a read op issues (empty for writes and joins).
std::vector<Query> ReadQueries(const Inputs& in, const Op& op) {
  std::vector<Query> qs;
  switch (op.kind) {
    case Kind::kLookup:
    case Kind::kRead:
      for (uint32_t k : op.keys) {
        qs.push_back(Query::Select(kTable).Where(NameIs(in, k)));
      }
      break;
    case Kind::kRangeFetch:
      qs.push_back(RangeQuery(op));
      break;
    case Kind::kSum:
      qs.push_back(RangeQuery(op).Aggregate(AggregateOp::kSum, "salary"));
      break;
    case Kind::kAvg:
      qs.push_back(RangeQuery(op).Aggregate(AggregateOp::kAvg, "salary"));
      break;
    case Kind::kMedian:
      qs.push_back(RangeQuery(op).Aggregate(AggregateOp::kMedian, "salary"));
      break;
    case Kind::kGroupSum:
      qs.push_back(
          RangeQuery(op).Aggregate(AggregateOp::kSum, "salary").GroupBy("dept"));
      break;
    default:
      break;
  }
  return qs;
}

JoinQuery SelfJoin(const Op& op) {
  JoinQuery join;
  join.left_table = kTable;
  join.left_column = "name";
  join.right_table = kTable;
  join.right_column = "name";
  join.left_predicates = {
      Between("salary", Value::Int(op.lo), Value::Int(op.hi))};
  return join;
}

/// Issues one public API call; `span` covers exactly that call. `Api` is
/// OutsourcedDatabase (untraced) or the assembled DataSourceClient (traced);
/// both expose the same call surface.
template <typename Api>
Outcome RunOp(Api& api, const Inputs& in, const Op& op, Span* span) {
  Outcome out;
  const auto timed = [span](auto&& call) {
    span->start = NowNs();
    auto r = call();
    span->end = NowNs();
    return r;
  };
  switch (op.kind) {
    case Kind::kLookup: {
      const std::vector<Query> qs = ReadQueries(in, op);
      auto rs = timed([&] { return api.ExecuteBatch(qs); });
      for (auto& r : rs) Absorb(std::move(r), &out);
      break;
    }
    case Kind::kJoin: {
      const JoinQuery join = SelfJoin(op);
      Absorb(timed([&] { return api.Execute(join); }), &out);
      break;
    }
    case Kind::kUpdate: {
      const std::vector<Predicate> where = {NameIs(in, op.keys[0])};
      const Value salary = Value::Int(op.lo);
      auto r = timed([&] { return api.Update(kTable, where, "salary", salary); });
      if (r.ok()) out.affected = *r;
      out.status = r.status();
      break;
    }
    case Kind::kDelete: {
      const std::vector<Predicate> where = {NameIs(in, op.keys[0])};
      auto r = timed([&] { return api.Delete(kTable, where); });
      if (r.ok()) out.affected = *r;
      out.status = r.status();
      break;
    }
    case Kind::kInsert: {
      const std::vector<std::vector<Value>> rows = {in.inserts[op.insert]};
      out.status = timed([&] { return api.Insert(kTable, rows); });
      break;
    }
    default: {
      const Query q = ReadQueries(in, op).front();
      Absorb(timed([&] { return api.Execute(q); }), &out);
      break;
    }
  }
  return out;
}

// --- Answer check ---------------------------------------------------------------------

std::vector<PlainRow> Sorted(std::vector<PlainRow> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// True when `r` holds exactly `want`'s rows, in any order.
bool SameRows(const QueryResult& r, std::vector<PlainRow> want) {
  std::vector<PlainRow> got;
  for (const auto& row : r.rows) {
    if (row.size() != 3) return false;
    got.push_back(ToPlain(row));
  }
  return Sorted(std::move(got)) == Sorted(std::move(want));
}

/// Compares `out` with the mirror and applies the op's writes to it.
/// `written` accumulates the plaintext bytes the op inserted or rewrote.
bool Check(const Inputs& in, const Op& op, const Outcome& out, Mirror* mirror,
           uint64_t* written) {
  if (!out.status.ok()) {
    std::fprintf(stderr, "perfbench: op failed: %s\n",
                 out.status.ToString().c_str());
    return false;
  }
  const auto name = [&](size_t i) { return in.rows[op.keys[i]][0].AsString(); };
  switch (op.kind) {
    case Kind::kLookup:
    case Kind::kRead:
      if (out.results.size() != op.keys.size()) return false;
      for (size_t i = 0; i < op.keys.size(); ++i) {
        if (!SameRows(out.results[i], mirror->Named(name(i)))) return false;
      }
      return true;
    case Kind::kUpdate: {
      const std::string n = name(0);
      const uint64_t changed = mirror->Update(n, op.lo);
      *written += changed * PlainBytes(n);
      return out.affected == changed;
    }
    case Kind::kDelete:
      return out.affected == mirror->Delete(name(0));
    case Kind::kInsert: {
      const auto& row = in.inserts[op.insert];
      mirror->Add(row);
      *written += PlainBytes(row[0].AsString());
      return true;
    }
    default:
      break;
  }
  // Range-based reads (scan_aggregate, which writes nothing).
  const auto [first, last] = mirror->Range(op.lo, op.hi);
  const QueryResult& r = out.results.front();
  const uint64_t count = static_cast<uint64_t>(last - first);
  int64_t sum = 0;
  for (const PlainRow* p = first; p != last; ++p) sum += std::get<1>(*p);
  switch (op.kind) {
    case Kind::kRangeFetch:
      return SameRows(r, {first, last});
    case Kind::kSum:
      return r.aggregate_int == sum && r.count == count;
    case Kind::kAvg: {
      const double want = count ? static_cast<double>(sum) / count : 0.0;
      return r.count == count &&
             std::fabs(r.aggregate_double - want) <=
                 1e-9 * std::max(1.0, std::fabs(want));
    }
    case Kind::kMedian:  // lower median
      return count > 0 &&
             r.aggregate_int == std::get<1>(*(first + (count - 1) / 2));
    case Kind::kGroupSum: {
      std::map<int64_t, std::pair<int64_t, uint64_t>> want, got;
      for (const PlainRow* p = first; p != last; ++p) {
        auto& g = want[std::get<2>(*p)];
        g.first += std::get<1>(*p);
        ++g.second;
      }
      for (const GroupResult& g : r.groups) {
        got[g.key.AsInt()] = {g.sum, g.count};
      }
      return got == want && r.groups.size() == want.size();
    }
    case Kind::kJoin: {
      if (r.join_left_columns != 3) return false;
      std::vector<std::pair<PlainRow, PlainRow>> want, got;
      for (const PlainRow* p = first; p != last; ++p) {
        for (const PlainRow& right : mirror->Named(std::get<0>(*p))) {
          want.emplace_back(*p, right);
        }
      }
      for (const auto& row : r.rows) {
        if (row.size() != 6) return false;
        got.emplace_back(ToPlain(row, 0), ToPlain(row, 3));
      }
      std::sort(want.begin(), want.end());
      std::sort(got.begin(), got.end());
      return got == want;
    }
    default:
      return false;
  }
}

// --- Deployments ------------------------------------------------------------------------

/// Registry counters whose deltas must repeat bit for bit for a seed.
constexpr std::array<const char*, 14> kCounterNames = {
    "ssdb_net_calls_total",
    "ssdb_net_failures_total",
    "ssdb_net_bytes_sent_total",
    "ssdb_net_bytes_received_total",
    "ssdb_net_batch_envelopes_total",
    "ssdb_net_batch_ops_total",
    "ssdb_client_rows_reconstructed_total",
    "ssdb_provider_requests_total",
    "ssdb_provider_rows_examined_total",
    "ssdb_provider_rows_returned_total",
    "ssdb_provider_index_lookups_total",
    "ssdb_wal_appends_total",
    "ssdb_wal_bytes_total",
    "ssdb_wal_checkpoints_total",
};

struct Counts {
  uint64_t sim_us = 0;
  std::array<uint64_t, kCounterNames.size()> counters{};

  uint64_t operator[](std::string_view name) const {
    for (size_t i = 0; i < kCounterNames.size(); ++i) {
      if (name == kCounterNames[i]) return counters[i];
    }
    std::fprintf(stderr, "perfbench: unknown counter %.*s\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  bool operator==(const Counts&) const = default;
};

/// One deployment of a workload's shape: built by OutsourcedDatabase::Create
/// (untraced), or assembled from the public parts with timing wrappers
/// (traced). `net`, `client` and `providers` point into whichever owns them.
struct Deployment {
  std::unique_ptr<OutsourcedDatabase> db;
  std::unique_ptr<Network> network;
  std::vector<std::shared_ptr<Provider>> owned_providers;
  std::unique_ptr<DataSourceClient> owned_client;
  Network* net = nullptr;
  DataSourceClient* client = nullptr;
  std::vector<Provider*> providers;

  Counts ReadCounts() const {
    Counts c;
    c.sim_us = net->clock().now_us();
    for (size_t i = 0; i < kCounterNames.size(); ++i) {
      c.counters[i] = client->metrics()->CounterTotal(kCounterNames[i]);
    }
    return c;
  }
};

Counts Delta(const Counts& after, const Counts& before) {
  Counts d;
  d.sim_us = after.sim_us - before.sim_us;
  for (size_t i = 0; i < d.counters.size(); ++i) {
    d.counters[i] = after.counters[i] - before.counters[i];
  }
  return d;
}

template <typename Fn>
auto WithApi(Deployment& d, Fn&& fn) {
  return d.db ? fn(*d.db) : fn(*d.client);
}

OutsourcedDbOptions Options(const WorkloadSpec& w, const std::string& dir) {
  OutsourcedDbOptions o;
  o.topology = w.topology;
  o.client.topology = w.topology;
  o.fanout_threads = w.fanout_threads;
  if (w.durable) {
    o.storage.backend = StorageOptions::Backend::kDurable;
    o.storage.dir = dir;
    o.storage.wal_snapshot_every = kWalSnapshotEvery;
  }
  return o;
}

/// Provider names as OutsourcedDatabase::Create assigns them.
std::string ProviderName(const Topology& t, size_t i) {
  return t.shards <= 1 ? "DAS" + std::to_string(i + 1)
                       : "S" + std::to_string(i / t.providers_per_shard + 1) +
                             "-DAS" +
                             std::to_string(i % t.providers_per_shard + 1);
}

Result<std::unique_ptr<Deployment>> BuildUntraced(const WorkloadSpec& w,
                                                  const std::string& dir) {
  auto d = std::make_unique<Deployment>();
  SSDB_ASSIGN_OR_RETURN(d->db, OutsourcedDatabase::Create(Options(w, dir)));
  d->net = &d->db->network();
  d->client = &d->db->client();
  for (size_t i = 0; i < d->db->n(); ++i) {
    d->providers.push_back(&d->db->provider(i));
  }
  return d;
}

/// The same deployment OutsourcedDatabase::Create builds, assembled by hand
/// so that each provider and WAL can be wrapped in a timer.
Result<std::unique_ptr<Deployment>> BuildTraced(const WorkloadSpec& w,
                                                const std::string& dir,
                                                SpanLog* handle_spans,
                                                SpanLog* log_spans) {
  const OutsourcedDbOptions o = Options(w, dir);
  const Topology& topo = w.topology;
  auto d = std::make_unique<Deployment>();
  d->network = std::make_unique<Network>(o.network, /*failure_seed=*/0xFA11,
                                         o.fanout_threads);
  std::vector<size_t> indices;
  for (size_t i = 0; i < topo.total_providers(); ++i) {
    const std::string name = ProviderName(topo, i);
    std::unique_ptr<StorageEngine> engine;
    if (w.durable) {
      DurableEngineOptions eng;
      eng.dir = dir + "/" + name;
      eng.snapshot_every = kWalSnapshotEvery;
      engine = std::make_unique<TimedDurableEngine>(std::move(eng), log_spans);
    }
    auto p = std::make_shared<Provider>(name, std::move(engine));
    SSDB_RETURN_IF_ERROR(p->OpenStorage());
    indices.push_back(d->network->AddProvider(
        std::make_shared<TimedEndpoint>(p, handle_spans)));
    d->providers.push_back(p.get());
    d->owned_providers.push_back(std::move(p));
  }
  SSDB_ASSIGN_OR_RETURN(
      d->owned_client,
      DataSourceClient::Create(d->network.get(), indices, o.client));
  MetricsRegistry* registry = d->owned_client->metrics();
  d->network->AttachMetrics(registry);
  if (topo.shards > 1) {
    std::vector<size_t> shard_of(indices.size());
    for (size_t i = 0; i < indices.size(); ++i) {
      shard_of[indices[i]] = i / topo.providers_per_shard;
    }
    d->network->AttachShardMetrics(registry, shard_of);
  }
  for (size_t i = 0; i < indices.size(); ++i) {
    d->providers[i]->AttachMetrics(registry, std::to_string(indices[i]));
    if (w.durable) {
      d->providers[i]->AttachDurabilityMetrics(registry,
                                               std::to_string(indices[i]));
    }
  }
  d->net = d->network.get();
  d->client = d->owned_client.get();
  return d;
}

Status Load(Deployment& d, const Inputs& in) {
  return WithApi(d, [&](auto& api) -> Status {
    SSDB_RETURN_IF_ERROR(
        api.CreateTable(EmployeeGenerator::EmployeesSchema(kTable)));
    return api.BulkLoad(kTable, in.rows);
  });
}

// --- Timed pass ---------------------------------------------------------------------------

struct Pass {
  std::vector<Span> calls;          ///< Timed calls, in schedule order.
  std::vector<uint32_t> call_ops;   ///< Logical ops per timed call.
  uint64_t ops = 0;                 ///< Timed logical ops.
  uint64_t attempted = 0;           ///< Logical ops, warm-up included.
  uint64_t failed = 0;              ///< Failed or wrong, warm-up included.
  int64_t loop_ns = 0;              ///< Timed loop wall, harness excluded.
  Counts counts;                    ///< Deterministic deltas, timed calls.
  uint64_t written_user_bytes = 0;  ///< Plaintext the timed writes wrote.
  uint64_t stored_bytes = 0;        ///< Sum of provider snapshot sizes.
  uint64_t user_bytes = 0;          ///< Plaintext bytes of the live rows.
};

Pass RunPass(Deployment& d, const Inputs& in,
             const std::vector<SpanLog*>& logs) {
  Pass pass;
  Mirror mirror(in.rows);
  const auto check = [&](size_t i, const Outcome& out, uint64_t* written) {
    if (Check(in, in.schedule[i], out, &mirror, written)) return;
    if (++pass.failed <= 5) {
      std::fprintf(stderr, "perfbench: wrong answer at op %zu (kind %d)\n", i,
                   static_cast<int>(in.schedule[i].kind));
    }
  };
  uint64_t warmup_written = 0;
  for (size_t i = 0; i < in.warmup; ++i) {
    const Op& op = in.schedule[i];
    Span span;
    const Outcome out =
        WithApi(d, [&](auto& api) { return RunOp(api, in, op, &span); });
    check(i, out, &warmup_written);
    pass.attempted += LogicalOps(op);
  }
  for (SpanLog* log : logs) log->Take();  // drop set-up and warm-up spans

  const Counts before = d.ReadCounts();
  int64_t harness_ns = 0;  // building requests, checking answers
  const int64_t loop_start = NowNs();
  for (size_t i = in.warmup; i < in.schedule.size(); ++i) {
    const Op& op = in.schedule[i];
    const int64_t begin = NowNs();
    Span span;
    {
      const Outcome out =
          WithApi(d, [&](auto& api) { return RunOp(api, in, op, &span); });
      check(i, out, &pass.written_user_bytes);
    }
    harness_ns += (span.start - begin) + (NowNs() - span.end);
    pass.calls.push_back(span);
    pass.call_ops.push_back(static_cast<uint32_t>(LogicalOps(op)));
    pass.ops += LogicalOps(op);
  }
  pass.loop_ns = NowNs() - loop_start - harness_ns;
  pass.counts = Delta(d.ReadCounts(), before);
  pass.attempted += pass.ops;

  for (Provider* p : d.providers) {
    Buffer snapshot;
    p->SaveSnapshot(&snapshot);
    pass.stored_bytes += snapshot.size();
  }
  pass.user_bytes = mirror.UserBytes();
  return pass;
}

// --- Statistics ---------------------------------------------------------------------------

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Nearest-rank quantile of `ns` samples, in microseconds.
double QuantileUs(std::vector<int64_t> ns, double q) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(ns.size())));
  rank = std::clamp<size_t>(rank, 1, ns.size());
  return static_cast<double>(ns[rank - 1]) / 1e3;
}

std::vector<int64_t> Durations(const std::vector<Span>& spans) {
  std::vector<int64_t> out;
  out.reserve(spans.size());
  for (const Span& s : spans) out.push_back(s.ns());
  return out;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Throughput as the median over equal blocks of consecutive calls, each
/// block's logical ops divided by the wall time of its calls.
double OpsPerSecond(const Pass& pass) {
  const size_t n = pass.calls.size();
  const size_t blocks = std::min(kThroughputBlocks, n);
  std::vector<double> rates;
  for (size_t b = 0; b < blocks; ++b) {
    double ops = 0;
    double ns = 0;
    for (size_t i = b * n / blocks; i < (b + 1) * n / blocks; ++i) {
      ops += pass.call_ops[i];
      ns += static_cast<double>(pass.calls[i].ns());
    }
    rates.push_back(Ratio(ops * 1e9, ns));
  }
  return Median(std::move(rates));
}

struct Split {
  double critical_ns = 0;  ///< Union of handle spans inside the op spans.
  double busy_ns = 0;      ///< Sum of handle spans over all threads.
  double outside_ns = 0;   ///< Handle time that falls in no op span.
};

/// Splits the op spans into provider-covered and client-only time.
Split Decompose(const std::vector<Span>& ops, std::vector<Span> handles) {
  std::sort(handles.begin(), handles.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  Split split;
  double inside_ns = 0;
  for (const Span& h : handles) split.busy_ns += static_cast<double>(h.ns());
  size_t h = 0;
  for (const Span& op : ops) {
    while (h < handles.size() && handles[h].end <= op.start) ++h;
    int64_t cur_start = 0;
    int64_t cur_end = 0;
    bool open = false;
    for (; h < handles.size() && handles[h].start < op.end; ++h) {
      const int64_t s = std::max(handles[h].start, op.start);
      const int64_t e = std::min(handles[h].end, op.end);
      if (e <= s) continue;
      inside_ns += static_cast<double>(e - s);
      if (open && s <= cur_end) {
        cur_end = std::max(cur_end, e);
        continue;
      }
      if (open) split.critical_ns += static_cast<double>(cur_end - cur_start);
      cur_start = s;
      cur_end = e;
      open = true;
    }
    if (open) split.critical_ns += static_cast<double>(cur_end - cur_start);
  }
  split.outside_ns = split.busy_ns - inside_ns;
  return split;
}

// --- Output -------------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void PrintCounts(const char* label, const Pass& pass) {
  std::fprintf(stderr, "perfbench: %s counts: sim_us=%llu stored_bytes=%llu",
               label, static_cast<unsigned long long>(pass.counts.sim_us),
               static_cast<unsigned long long>(pass.stored_bytes));
  for (size_t i = 0; i < kCounterNames.size(); ++i) {
    std::fprintf(stderr, " %s=%llu", kCounterNames[i],
                 static_cast<unsigned long long>(pass.counts.counters[i]));
  }
  std::fprintf(stderr, "\n");
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Modes --------------------------------------------------------------------------------

/// A scratch directory for one durable deployment, removed on scope exit.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

int Fail(const Status& st) {
  std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
  return 1;
}

int RunEndToEnd(const WorkloadSpec& w, const Inputs& in,
                const std::string& workdir) {
  std::vector<double> setup_s;
  std::unique_ptr<ScratchDir> dir;
  std::unique_ptr<Deployment> d;
  double setup_total = 0;
  for (size_t r = 0; r < kMaxSetups &&
                     (r < kMinSetups || setup_total < kMinSetupSeconds);
       ++r) {
    d.reset();  // one deployment in memory at a time
    dir = std::make_unique<ScratchDir>(workdir + "/setup" + std::to_string(r));
    const int64_t start = NowNs();
    auto built = BuildUntraced(w, dir->path());
    if (!built.ok()) return Fail(built.status());
    d = std::move(built).value();
    if (Status st = Load(*d, in); !st.ok()) return Fail(st);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    setup_total += setup_s.back();
  }
  const Pass pass = RunPass(*d, in, {});
  PrintCounts("untraced", pass);
  const double ops = static_cast<double>(pass.ops);
  const Counts& c = pass.counts;
  const std::vector<int64_t> lat = Durations(pass.calls);
  PrintResult(
      pass.failed == 0, pass.attempted, pass.failed,
      {
          {"setup_s", Median(setup_s), "s"},
          {"ops_per_s", OpsPerSecond(pass), "1/s"},
          {"latency_p50_us", QuantileUs(lat, 0.50), "us"},
          {"latency_p99_us", QuantileUs(lat, 0.99), "us"},
          {"sim_us_per_op", Ratio(c.sim_us, ops), "us"},
          {"wire_bytes_per_op",
           Ratio(c["ssdb_net_bytes_sent_total"] +
                     c["ssdb_net_bytes_received_total"],
                 ops),
           "B"},
          {"stored_bytes_per_user_byte",
           Ratio(pass.stored_bytes, pass.user_bytes), "B/B"},
          {"peak_rss_mb", PeakRssMb(), "MB"},
      });
  return 0;
}

/// Mean wall time of Explain() over the timed schedule's queries.
double ExplainUsPerQuery(Deployment& d, const Inputs& in) {
  int64_t ns = 0;
  size_t n = 0;
  for (size_t i = in.warmup; i < in.schedule.size() && n < kExplainCap; ++i) {
    const Op& op = in.schedule[i];
    std::vector<Query> qs = ReadQueries(in, op);
    if (op.kind == Kind::kUpdate || op.kind == Kind::kDelete) {
      qs.push_back(Query::Select(kTable).Where(NameIs(in, op.keys[0])));
    }
    const auto time_one = [&](const auto& q) {
      const int64_t start = NowNs();
      WithApi(d, [&](auto& api) { return api.Explain(q); });
      ns += NowNs() - start;
      ++n;
    };
    if (op.kind == Kind::kJoin) time_one(SelfJoin(op));
    for (const Query& q : qs) time_one(q);
  }
  return Ratio(static_cast<double>(ns) / 1e3, static_cast<double>(n));
}

int RunTraced(const WorkloadSpec& w, const Inputs& in,
              const std::string& workdir) {
  Pass untraced;
  {
    ScratchDir dir(workdir + "/untraced");
    auto d = BuildUntraced(w, dir.path());
    if (!d.ok()) return Fail(d.status());
    if (Status st = Load(**d, in); !st.ok()) return Fail(st);
    untraced = RunPass(**d, in, {});
  }
  SpanLog handle_spans;
  SpanLog log_spans;
  ScratchDir dir(workdir + "/traced");
  auto built = BuildTraced(w, dir.path(), &handle_spans, &log_spans);
  if (!built.ok()) return Fail(built.status());
  Deployment& d = **built;
  if (Status st = Load(d, in); !st.ok()) return Fail(st);
  const Pass traced = RunPass(d, in, {&handle_spans, &log_spans});
  const std::vector<Span> handles = handle_spans.Take();
  const std::vector<Span> logs = log_spans.Take();
  const double explain_us = ExplainUsPerQuery(d, in);

  PrintCounts("untraced", untraced);
  PrintCounts("traced", traced);
  if (!(traced.counts == untraced.counts) ||
      traced.stored_bytes != untraced.stored_bytes) {
    std::fprintf(stderr,
                 "perfbench: determinism guard failed: the traced and "
                 "untraced passes of one seed disagree\n");
    return 1;
  }

  double op_ns = 0;
  for (const Span& s : traced.calls) op_ns += static_cast<double>(s.ns());
  const Split split = Decompose(traced.calls, handles);
  const double self_ns = op_ns - split.critical_ns;
  // What the parts miss: loop wall outside every op span, and provider
  // work that ran outside every op span.
  const double loop_ns = static_cast<double>(traced.loop_ns);
  const double gap = Ratio(loop_ns - op_ns + split.outside_ns, loop_ns);
  if (std::fabs(gap) > kMaxDecompositionGap) {
    std::fprintf(stderr,
                 "perfbench: decomposition check failed: %.4f of the op wall "
                 "is outside client self + provider critical\n",
                 gap);
    return 1;
  }
  double log_ns = 0;
  for (const Span& s : logs) log_ns += static_cast<double>(s.ns());

  const double ops = static_cast<double>(traced.ops);
  const Counts& c = traced.counts;
  const auto per_op = [&](double v) { return Ratio(v, ops); };
  const double examined = c["ssdb_provider_rows_examined_total"];
  const double returned = c["ssdb_provider_rows_returned_total"];
  PrintResult(
      traced.failed == 0 && untraced.failed == 0,
      traced.attempted + untraced.attempted, traced.failed + untraced.failed,
      {
          {"client.self_us_per_op", per_op(self_ns / 1e3), "us"},
          {"client.self_share", Ratio(self_ns, op_ns), "share"},
          {"client.rows_reconstructed_per_op",
           per_op(c["ssdb_client_rows_reconstructed_total"]), "count"},
          {"plan.explain_us_per_query", explain_us, "us"},
          {"net.calls_per_op", per_op(c["ssdb_net_calls_total"]), "count"},
          {"net.bytes_sent_per_op", per_op(c["ssdb_net_bytes_sent_total"]),
           "B"},
          {"net.bytes_received_per_op",
           per_op(c["ssdb_net_bytes_received_total"]), "B"},
          {"net.batch_ops_per_envelope",
           Ratio(c["ssdb_net_batch_ops_total"],
                 c["ssdb_net_batch_envelopes_total"]),
           "count"},
          {"net.failures", static_cast<double>(c["ssdb_net_failures_total"]),
           "count"},
          {"provider.busy_us_per_op", per_op(split.busy_ns / 1e3), "us"},
          {"provider.critical_us_per_op", per_op(split.critical_ns / 1e3),
           "us"},
          {"provider.handle_p50_us", QuantileUs(Durations(handles), 0.50),
           "us"},
          {"provider.handle_p99_us", QuantileUs(Durations(handles), 0.99),
           "us"},
          {"provider.calls_per_op",
           per_op(c["ssdb_provider_requests_total"]), "count"},
          {"provider.rows_examined_per_op", per_op(examined), "count"},
          {"provider.rows_returned_per_op", per_op(returned), "count"},
          {"provider.index_lookups_per_op",
           per_op(c["ssdb_provider_index_lookups_total"]), "count"},
          {"provider.examined_per_returned", Ratio(examined, returned),
           "ratio"},
          {"storage.log_us_per_op", per_op(log_ns / 1e3), "us"},
          {"storage.log_p99_us", QuantileUs(Durations(logs), 0.99), "us"},
          {"storage.checkpoints_per_1k_ops",
           per_op(1e3 * c["ssdb_wal_checkpoints_total"]), "count"},
          {"storage.wal_bytes_per_user_byte",
           Ratio(c["ssdb_wal_bytes_total"], traced.written_user_bytes),
           "B/B"},
          {"trace.overhead",
           1.0 - Ratio(OpsPerSecond(traced), OpsPerSecond(untraced)),
           "share"},
          {"trace.unattributed_share", gap, "share"},
      });
  return 0;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args = {{"--workdir", "."}};
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : Workloads()) {
    if (args.count("--workload") && args["--workload"] == w.name) spec = &w;
  }
  if (spec == nullptr || !args.count("--seed") || !args.count("--seconds") ||
      !args.count("--trace")) {
    std::fprintf(stderr,
                 "usage: perfbench --workload point_lookup|scan_aggregate|"
                 "write_mix --seed N --seconds S --trace 0|1 [--workdir DIR]\n");
    return 2;
  }
  const uint64_t seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  const int seconds = std::max(1, std::atoi(args["--seconds"].c_str()));
  const Inputs in = MakeInputs(*spec, seed, seconds);
  return args["--trace"] == "1" ? RunTraced(*spec, in, args["--workdir"])
                                : RunEndToEnd(*spec, in, args["--workdir"]);
}

}  // namespace
}  // namespace perfbench
}  // namespace ssdb

int main(int argc, char** argv) { return ssdb::perfbench::Main(argc, argv); }
