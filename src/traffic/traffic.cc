#include "traffic/traffic.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <queue>
#include <sstream>
#include <unordered_set>

#include "common/hash.h"
#include "obs/metrics.h"
#include "workload/generators.h"

namespace ssdb {
namespace {

// Per-tenant sub-streams under the tenant's forked seed. The DATA stream
// seeds the EmployeeGenerator whose rows Setup bulk loads AND whose
// regenerated name sequence is the tenant's point-read / update key pool,
// so scheduled keys always refer to loaded rows. The OP stream drives the
// arrival process and the operation dice; the INSERT stream feeds fresh
// rows for kInsert so inserts never consume the key-pool generator.
constexpr uint64_t kDataStream = 1;
constexpr uint64_t kOpStream = 2;
constexpr uint64_t kInsertStream = 3;

constexpr uint64_t kFnvPrime = 1099511628211ULL;

/// The tenant's Fork stream id: FNV-1a of its NAME, so the stream follows
/// the tenant across spec-vector positions.
uint64_t TenantStreamKey(const std::string& name) {
  return Fnv1a64(Slice(name));
}

/// Continues an FNV-1a fold over `data` from state `h`.
uint64_t FoldFnv(uint64_t h, const std::string& data) {
  for (unsigned char c : data) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

/// Next inter-arrival gap in virtual microseconds (always >= 1 so
/// arrivals are strictly ordered within a tenant).
uint64_t NextArrivalGapUs(Rng* rng, ArrivalProcess process, double qps) {
  const double mean_us = 1e6 / qps;
  const double u = rng->NextDouble();  // [0, 1)
  double gap_us = 0.0;
  switch (process) {
    case ArrivalProcess::kPoisson:
      gap_us = -std::log(1.0 - u) * mean_us;  // 1-u in (0, 1]
      break;
    case ArrivalProcess::kUniform:
      gap_us = u * 2.0 * mean_us;  // same mean, bounded tail
      break;
  }
  if (gap_us < 1.0) return 1;
  return static_cast<uint64_t>(gap_us);
}

/// Deterministic text form of one answer, folded into the per-tenant
/// fingerprints (rows arrive in deterministic row-id order, groups in
/// first-appearance order, so the string is run-invariant).
std::string DescribeAnswer(const QueryResult& r) {
  std::ostringstream out;
  for (const auto& row : r.rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) out << ',';
      out << row[i].ToString();
    }
    out << ';';
  }
  out << "|agg=" << r.aggregate_int << ",count=" << r.count;
  for (const GroupResult& g : r.groups) {
    out << "|g=" << g.key.ToString() << ":sum=" << g.sum << ",n=" << g.count;
  }
  return out.str();
}

/// The Query of a point read, range scan or aggregate request against
/// `table` (the same query whether it runs alone or in a batched wave).
Query ReadQuery(const TrafficRequest& req, const std::string& table) {
  Query q = Query::Select(table);
  switch (req.op) {
    case TrafficOp::kPointRead:
      q.Where(Eq("name", Value::Str(req.key)));
      break;
    case TrafficOp::kRangeScan:
      q.Where(Between("salary", Value::Int(req.a), Value::Int(req.b)));
      break;
    case TrafficOp::kAggregate:
      switch (req.b) {
        case 0:
          q.Where(Eq("dept", Value::Int(req.a)))
              .Aggregate(AggregateOp::kSum, "salary");
          break;
        case 1:
          q.Where(Eq("dept", Value::Int(req.a)))
              .Aggregate(AggregateOp::kCount);
          break;
        default:
          q.Aggregate(AggregateOp::kSum, "salary").GroupBy("dept");
          break;
      }
      break;
    default:
      break;  // unreachable: only reads build a read query
  }
  return q;
}

/// Token bucket charged in virtual time; tokens refill from the arrival
/// timeline only, so admission is a pure function of the arrival sequence.
struct TokenBucket {
  bool enabled = false;
  double tokens = 0.0;
  double burst = 0.0;
  double refill_per_us = 0.0;
  uint64_t last_us = 0;

  bool Admit(uint64_t arrival_us) {
    if (!enabled) return true;
    tokens = std::min(
        burst, tokens + static_cast<double>(arrival_us - last_us) * refill_per_us);
    last_us = arrival_us;
    if (tokens < 1.0) return false;
    tokens -= 1.0;
    return true;
  }
};

using MinHeap =
    std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<uint64_t>>;

/// Per-tenant metric handles; Run resets exactly these so each report
/// covers its own window without clobbering unrelated series.
struct TenantSeries {
  MetricCounter* offered;
  MetricCounter* completed;
  MetricCounter* failed;
  MetricCounter* admitted;
  MetricCounter* rejected_queue;
  MetricCounter* rejected_quota;
  MetricHistogram* latency;
  MetricHistogram* queue_delay;
  MetricHistogram* service;

  static TenantSeries For(MetricsRegistry* reg, const std::string& tenant) {
    const MetricLabels t = {{"tenant", tenant}};
    TenantSeries s;
    s.offered = reg->GetCounter("ssdb_traffic_offered_total", t);
    s.completed = reg->GetCounter("ssdb_traffic_completed_total", t);
    s.failed = reg->GetCounter("ssdb_traffic_failed_total", t);
    s.admitted = reg->GetCounter("ssdb_admission_admitted_total", t);
    s.rejected_queue = reg->GetCounter(
        "ssdb_admission_rejected_total",
        {{"tenant", tenant}, {"reason", "queue_depth"}});
    s.rejected_quota = reg->GetCounter(
        "ssdb_admission_rejected_total", {{"tenant", tenant}, {"reason", "quota"}});
    s.latency = reg->GetHistogram("ssdb_traffic_latency_us", t);
    s.queue_delay = reg->GetHistogram("ssdb_traffic_queue_delay_us", t);
    s.service = reg->GetHistogram("ssdb_traffic_service_us", t);
    return s;
  }

  void Reset() {
    offered->Reset();
    completed->Reset();
    failed->Reset();
    admitted->Reset();
    rejected_queue->Reset();
    rejected_quota->Reset();
    latency->Reset();
    queue_delay->Reset();
    service->Reset();
  }
};

/// Handles on the client-charged `ssdb_meter_*{tenant}` series. Run
/// resets them at entry (each report meters its own window) and reads
/// mutation meter samples as deltas around the barrier call — mutations
/// carry no QueryTrace, and they run alone, so the delta is theirs.
struct MeterSeries {
  MetricCounter* requests;
  MetricCounter* bytes_sent;
  MetricCounter* bytes_received;
  MetricCounter* rounds;
  MetricCounter* clock_us;

  static MeterSeries For(MetricsRegistry* reg, const std::string& tenant) {
    const MetricLabels t = {{"tenant", tenant}};
    MeterSeries m;
    m.requests = reg->GetCounter("ssdb_meter_requests_total", t);
    m.bytes_sent = reg->GetCounter("ssdb_meter_bytes_sent_total", t);
    m.bytes_received = reg->GetCounter("ssdb_meter_bytes_received_total", t);
    m.rounds = reg->GetCounter("ssdb_meter_rounds_total", t);
    m.clock_us = reg->GetCounter("ssdb_meter_clock_us_total", t);
    return m;
  }

  void Reset() {
    requests->Reset();
    bytes_sent->Reset();
    bytes_received->Reset();
    rounds->Reset();
    clock_us->Reset();
  }

  MeterSample Read() const {
    MeterSample m;
    m.requests = requests->value();
    m.bytes_sent = bytes_sent->value();
    m.bytes_received = bytes_received->value();
    m.rounds = rounds->value();
    m.clock_us = clock_us->value();
    return m;
  }
};

MeterSample Minus(const MeterSample& after, const MeterSample& before) {
  MeterSample d;
  d.requests = after.requests - before.requests;
  d.bytes_sent = after.bytes_sent - before.bytes_sent;
  d.bytes_received = after.bytes_received - before.bytes_received;
  d.rounds = after.rounds - before.rounds;
  d.clock_us = after.clock_us - before.clock_us;
  return d;
}

/// A read's meter sample, straight from its QueryTrace — the exact
/// figures the client charged to the tenant's meter series, so monitor
/// window sums reconcile with the registry by construction.
MeterSample MeterFromTrace(const QueryTrace& trace) {
  MeterSample m;
  m.requests = 1;
  m.bytes_sent = trace.total_bytes_sent();
  m.bytes_received = trace.total_bytes_received();
  m.rounds = trace.total_round_trips();
  m.clock_us = trace.total_clock_us();
  return m;
}

void AppendTenantJson(std::ostringstream* out, const TenantTraffic& t) {
  *out << "{\"tenant\": \"" << t.tenant << "\", \"offered\": " << t.offered
       << ", \"admitted\": " << t.admitted << ", \"completed\": " << t.completed
       << ", \"failed\": " << t.failed
       << ", \"rejected_queue\": " << t.rejected_queue
       << ", \"rejected_quota\": " << t.rejected_quota
       << ", \"p50_us\": " << t.p50_us << ", \"p99_us\": " << t.p99_us
       << ", \"p999_us\": " << t.p999_us
       << ", \"queue_delay_p99_us\": " << t.queue_delay_p99_us
       << ", \"service_p50_us\": " << t.service_p50_us
       << ", \"latency_sum_us\": " << t.latency_sum_us
       << ", \"answers_fingerprint\": \"" << t.answers_fingerprint << "\"}";
}

}  // namespace

std::vector<TrafficRequest> BuildTrafficSchedule(
    const std::vector<TenantSpec>& tenants, uint64_t seed) {
  std::vector<TrafficRequest> schedule;
  const Rng root(seed);
  for (size_t t = 0; t < tenants.size(); ++t) {
    const TenantSpec& spec = tenants[t];
    const Rng tenant_root(root.ForkSeed(TenantStreamKey(spec.name)));

    // Regenerate the preloaded name sequence: same seed as Setup's
    // generator, so these are exactly the loaded keys.
    EmployeeGenerator pool_gen(tenant_root.ForkSeed(kDataStream),
                               Distribution::kUniform);
    std::vector<std::string> keys;
    keys.reserve(spec.rows);
    for (size_t i = 0; i < spec.rows; ++i) keys.push_back(pool_gen.Next().name);

    EmployeeGenerator insert_gen(tenant_root.ForkSeed(kInsertStream),
                                 Distribution::kUniform);
    Rng op_rng = tenant_root.Fork(kOpStream);

    const double qps = spec.arrival_qps > 0 ? spec.arrival_qps : 1.0;
    double mix_total = spec.mix.total();
    uint64_t arrival_us = 0;
    for (size_t seq = 0; seq < spec.requests; ++seq) {
      arrival_us += NextArrivalGapUs(&op_rng, spec.arrivals, qps);

      TrafficRequest req;
      req.tenant = static_cast<uint32_t>(t);
      req.seq = static_cast<uint32_t>(seq);
      req.arrival_us = arrival_us;

      // Fixed draw order (dice, then op-specific draws) keeps the stream
      // a pure function of the tenant seed.
      double dice =
          mix_total > 0 ? op_rng.NextDouble() * mix_total : 0.0;
      if (mix_total <= 0 || (dice -= spec.mix.point_read) < 0) {
        req.op = TrafficOp::kPointRead;
        req.key = keys.empty() ? insert_gen.Next().name
                               : keys[op_rng.Uniform(keys.size())];
      } else if ((dice -= spec.mix.range_scan) < 0) {
        req.op = TrafficOp::kRangeScan;
        req.a = op_rng.UniformInt(EmployeeGenerator::kSalaryLo,
                                  EmployeeGenerator::kSalaryHi - 2000);
        req.b = req.a + 2000;
      } else if ((dice -= spec.mix.aggregate) < 0) {
        req.op = TrafficOp::kAggregate;
        req.a = op_rng.UniformInt(0, EmployeeGenerator::kMaxDept);
        req.b = static_cast<int64_t>(op_rng.Uniform(3));  // variant
      } else if ((dice -= spec.mix.update) < 0) {
        req.op = TrafficOp::kUpdate;
        req.key = keys.empty() ? insert_gen.Next().name
                               : keys[op_rng.Uniform(keys.size())];
        req.a = op_rng.UniformInt(EmployeeGenerator::kSalaryLo,
                                  EmployeeGenerator::kSalaryHi);
      } else if ((dice -= spec.mix.insert) < 0) {
        req.op = TrafficOp::kInsert;
        EmployeeRow row = insert_gen.Next();
        req.key = std::move(row.name);
        req.a = row.salary;
        req.b = row.dept;
      } else {
        req.op = TrafficOp::kJoin;
        req.a = op_rng.UniformInt(EmployeeGenerator::kSalaryLo,
                                  EmployeeGenerator::kSalaryHi - 5000);
        req.b = req.a + 5000;
      }
      schedule.push_back(std::move(req));
    }
  }
  // Merge the per-tenant streams; the (tenant, seq) tiebreak makes the
  // global order total and spec-order stable at equal arrival times.
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const TrafficRequest& a, const TrafficRequest& b) {
                     if (a.arrival_us != b.arrival_us)
                       return a.arrival_us < b.arrival_us;
                     if (a.tenant != b.tenant) return a.tenant < b.tenant;
                     return a.seq < b.seq;
                   });
  return schedule;
}

std::string TrafficReport::ExportJson() const {
  std::ostringstream out;
  out << "{\n  \"last_arrival_us\": " << last_arrival_us
      << ",\n  \"drained_us\": " << drained_us << ",\n  \"global\": ";
  AppendTenantJson(&out, global);
  out << ",\n  \"tenants\": [\n";
  for (size_t i = 0; i < tenants.size(); ++i) {
    out << "    ";
    AppendTenantJson(&out, tenants[i]);
    if (i + 1 < tenants.size()) out << ",";
    out << "\n";
  }
  out << "  ]";
  if (monitored) out << ",\n  \"monitor\": " << monitor.ExportJson();
  out << "\n}\n";
  return out.str();
}

TrafficHarness::TrafficHarness(OutsourcedDatabase* db,
                               std::vector<TenantSpec> tenants,
                               TrafficOptions options)
    : db_(db), tenants_(std::move(tenants)), options_(std::move(options)) {}

Status TrafficHarness::Setup() {
  if (db_ == nullptr) return Status::InvalidArgument("null database");
  if (tenants_.empty()) return Status::InvalidArgument("no tenants");
  std::unordered_set<std::string> seen;
  for (const TenantSpec& spec : tenants_) {
    if (spec.name.empty()) return Status::InvalidArgument("empty tenant name");
    if (!seen.insert(spec.name).second) {
      return Status::InvalidArgument("duplicate tenant name: " + spec.name);
    }
  }
  const Rng root(options_.seed);
  for (const TenantSpec& spec : tenants_) {
    const Rng tenant_root(root.ForkSeed(TenantStreamKey(spec.name)));
    SSDB_RETURN_IF_ERROR(
        db_->CreateTable(EmployeeGenerator::EmployeesSchema(spec.name)));
    if (spec.rows == 0) continue;
    EmployeeGenerator gen(tenant_root.ForkSeed(kDataStream),
                          Distribution::kUniform);
    SSDB_RETURN_IF_ERROR(db_->BulkLoad(spec.name, gen.Rows(spec.rows)));
  }
  setup_done_ = true;
  return Status::OK();
}

Result<TrafficReport> TrafficHarness::Run() {
  if (!setup_done_) {
    return Status::InvalidArgument("TrafficHarness::Setup must run first");
  }
  const std::vector<TrafficRequest> schedule =
      BuildTrafficSchedule(tenants_, options_.seed);

  MetricsRegistry* reg = &db_->metrics();
  std::vector<TenantSeries> series;
  series.reserve(tenants_.size());
  for (const TenantSpec& spec : tenants_) {
    series.push_back(TenantSeries::For(reg, spec.name));
    series.back().Reset();
  }
  TenantSeries global_series = TenantSeries::For(reg, "_all");
  global_series.Reset();

  // Meter series are charged by the client (every request below carries a
  // RequestContext); reset them so Σ monitor windows == registry totals.
  std::vector<MeterSeries> meters;
  meters.reserve(tenants_.size());
  for (const TenantSpec& spec : tenants_) {
    meters.push_back(MeterSeries::For(reg, spec.name));
    meters.back().Reset();
  }
  MeterSeries global_meter = MeterSeries::For(reg, "_all");
  global_meter.Reset();

  // The monitor baselines its registry-delta inputs (breaker opens, WAL
  // truncations) at construction, so it must exist BEFORE execution:
  // faults injected during the run are then window-attributed deltas.
  const bool monitored = options_.monitor;
  Monitor monitor(reg, options_.monitor_options);
  std::vector<MeterSample> samples;
  std::vector<QueryTrace> traces;
  if (monitored) {
    samples.resize(schedule.size());
    traces.resize(schedule.size());
    reg->GetCounter("ssdb_monitor_windows_total")->Reset();
    reg->GetCounter("ssdb_monitor_windows_dropped_total")->Reset();
    reg->GetCounter("ssdb_monitor_slow_queries_total")->Reset();
    for (const AlertRule& rule : options_.monitor_options.rules) {
      reg->GetCounter("ssdb_alerts_fired_total", {{"rule", rule.name}})->Reset();
      reg->GetCounter("ssdb_alerts_resolved_total", {{"rule", rule.name}})
          ->Reset();
    }
    for (const TenantSpec& spec : tenants_) {
      reg->GetCounter("ssdb_meter_cost_microcredits_total",
                      {{"tenant", spec.name}})
          ->Reset();
    }
    reg->GetCounter("ssdb_meter_cost_microcredits_total", {{"tenant", "_all"}})
        ->Reset();
  }

  // Depth admission must observe every earlier completion before ruling
  // on an arrival, so any depth limit (or the fault-drill hook, which is
  // promised request-at-a-time order) forces the sequential path.
  bool any_depth_limit = false;
  std::vector<TokenBucket> buckets(tenants_.size());
  for (size_t t = 0; t < tenants_.size(); ++t) {
    const TenantSpec& spec = tenants_[t];
    if (spec.max_queue_depth > 0) any_depth_limit = true;
    if (spec.quota_qps > 0) {
      buckets[t].enabled = true;
      buckets[t].refill_per_us = spec.quota_qps / 1e6;
      buckets[t].burst = spec.quota_burst > 0
                             ? spec.quota_burst
                             : std::max(1.0, 0.05 * spec.quota_qps);
      buckets[t].tokens = buckets[t].burst;
    }
  }
  const bool batching = options_.exec_batch && !options_.before_request &&
                        !any_depth_limit && options_.exec_batch_max > 1;

  TrafficReport report;
  report.requests.resize(schedule.size());
  std::vector<std::string> answers(schedule.size());
  if (!schedule.empty()) report.last_arrival_us = schedule.back().arrival_us;

  // FIFO queue station: earliest-free times of the modelled servers.
  MinHeap servers;
  for (size_t i = 0; i < std::max<size_t>(1, options_.service_workers); ++i) {
    servers.push(0);
  }
  std::vector<MinHeap> outstanding(tenants_.size());  // admitted completions

  // Executes schedule[i] (admitted) and fills service + answer.
  // Reads and joins are charged their exact per-query virtual-clock total
  // (QueryTrace reconciles with the deployment clock); mutations carry no
  // trace, so they are charged the clock delta they cause — they run as
  // barriers, so the delta is theirs alone.
  size_t admitted_index = 0;
  auto execute_one = [&](size_t i) {
    const TrafficRequest& req = schedule[i];
    const TenantSpec& spec = tenants_[req.tenant];
    RequestOutcome& out = report.requests[i];
    if (options_.before_request) options_.before_request(admitted_index);
    ++admitted_index;
    const RequestContext ctx{spec.name};
    // Captures a completed read's meter sample and trace for the monitor.
    auto record_read = [&](QueryResult&& qr) {
      out.service_us = qr.trace.total_clock_us();
      answers[i] = DescribeAnswer(qr);
      if (monitored) {
        samples[i] = MeterFromTrace(qr.trace);
        traces[i] = std::move(qr.trace);
      }
    };
    switch (req.op) {
      case TrafficOp::kPointRead:
      case TrafficOp::kRangeScan:
      case TrafficOp::kAggregate: {
        auto r = db_->Execute(ReadQuery(req, spec.name), ctx);
        if (!r.ok()) {
          out.status = r.status();
          return;
        }
        record_read(std::move(r.value()));
        return;
      }
      case TrafficOp::kUpdate: {
        const uint64_t t0 = db_->simulated_time_us();
        const MeterSample m0 =
            monitored ? meters[req.tenant].Read() : MeterSample();
        auto r = db_->Update(spec.name, {Eq("name", Value::Str(req.key))},
                             "salary", Value::Int(req.a), ctx);
        if (!r.ok()) {
          out.status = r.status();
          return;
        }
        out.service_us = db_->simulated_time_us() - t0;
        if (monitored) samples[i] = Minus(meters[req.tenant].Read(), m0);
        answers[i] = "|updated=" + std::to_string(r.value());
        return;
      }
      case TrafficOp::kInsert: {
        const uint64_t t0 = db_->simulated_time_us();
        const MeterSample m0 =
            monitored ? meters[req.tenant].Read() : MeterSample();
        Status s = db_->Insert(
            spec.name, {{Value::Str(req.key), Value::Int(req.a),
                         Value::Int(req.b)}},
            ctx);
        if (!s.ok()) {
          out.status = s;
          return;
        }
        out.service_us = db_->simulated_time_us() - t0;
        if (monitored) samples[i] = Minus(meters[req.tenant].Read(), m0);
        answers[i] = "|insert=1";
        return;
      }
      case TrafficOp::kJoin: {
        JoinQuery join;
        join.left_table = spec.name;
        join.left_column = "name";
        join.right_table = spec.name;
        join.right_column = "name";
        join.left_predicates = {
            Between("salary", Value::Int(req.a), Value::Int(req.b))};
        auto r = db_->Execute(join, ctx);
        if (!r.ok()) {
          out.status = r.status();
          return;
        }
        record_read(std::move(r.value()));
        return;
      }
    }
  };

  // Advances the queue model for admitted request i; requires arrival
  // order. A completion at exactly the arrival instant frees its server
  // (and its depth slot) for this arrival.
  auto queue_step = [&](size_t i) {
    const TrafficRequest& req = schedule[i];
    RequestOutcome& out = report.requests[i];
    const uint64_t start = std::max(req.arrival_us, servers.top());
    servers.pop();
    const uint64_t completion = start + out.service_us;
    servers.push(completion);
    out.queue_delay_us = start - req.arrival_us;
    out.latency_us = completion - req.arrival_us;
    outstanding[req.tenant].push(completion);
    if (completion > report.drained_us) report.drained_us = completion;
  };

  // Admission for schedule[i]: depth first (is there room in the
  // tenant's queue?), then quota (does the contract allow it?); a
  // depth-rejected arrival consumes no token. kQueue/kQuota mark the
  // rejection reason for the accounting pass.
  enum class Admit { kOk, kQueue, kQuota };
  std::vector<Admit> verdict(schedule.size(), Admit::kOk);
  auto admit = [&](size_t i) -> Admit {
    const TrafficRequest& req = schedule[i];
    const TenantSpec& spec = tenants_[req.tenant];
    if (spec.max_queue_depth > 0) {
      MinHeap& heap = outstanding[req.tenant];
      while (!heap.empty() && heap.top() <= req.arrival_us) heap.pop();
      if (heap.size() >= spec.max_queue_depth) return Admit::kQueue;
    }
    if (!buckets[req.tenant].Admit(req.arrival_us)) return Admit::kQuota;
    return Admit::kOk;
  };
  auto reject = [&](size_t i, Admit why) {
    verdict[i] = why;
    const TenantSpec& spec = tenants_[schedule[i].tenant];
    report.requests[i].status = Status::ResourceExhausted(
        "tenant " + spec.name +
        (why == Admit::kQueue ? ": queue depth limit" : ": quota exhausted"));
  };

  if (!batching) {
    // Sequential: admission, execution and the queue model advance in
    // lock-step per arrival, so depth admission sees exact occupancy.
    for (size_t i = 0; i < schedule.size(); ++i) {
      const Admit a = admit(i);
      if (a != Admit::kOk) {
        reject(i, a);
        continue;
      }
      execute_one(i);
      if (report.requests[i].status.ok()) queue_step(i);
    }
  } else {
    // Batched: quota admission is a pure function of the arrival
    // sequence, so it is decided up front; runs of consecutive admitted
    // read queries then coalesce into ExecuteBatch waves with mutations
    // and joins as barriers. Execution order equals arrival order either
    // way, so answers and counts match the sequential path exactly;
    // service charges are smaller because a wave's share fetches
    // amortize envelope rounds across its queries.
    std::vector<bool> is_admitted(schedule.size(), false);
    for (size_t i = 0; i < schedule.size(); ++i) {
      const Admit a = admit(i);
      if (a == Admit::kOk) {
        is_admitted[i] = true;
      } else {
        reject(i, a);
      }
    }
    std::vector<size_t> wave;  // indices of pending read queries
    auto flush_wave = [&]() {
      if (wave.empty()) return;
      std::vector<Query> queries;
      queries.reserve(wave.size());
      for (size_t i : wave) {
        const TrafficRequest& req = schedule[i];
        queries.push_back(ReadQuery(req, tenants_[req.tenant].name));
      }
      std::vector<RequestContext> ctxs;
      ctxs.reserve(wave.size());
      for (size_t i : wave) ctxs.push_back({tenants_[schedule[i].tenant].name});
      std::vector<Result<QueryResult>> results =
          db_->ExecuteBatch(queries, ctxs);
      for (size_t slot = 0; slot < wave.size(); ++slot) {
        const size_t i = wave[slot];
        RequestOutcome& out = report.requests[i];
        if (!results[slot].ok()) {
          out.status = results[slot].status();
          continue;
        }
        out.service_us = results[slot].value().trace.total_clock_us();
        answers[i] = DescribeAnswer(results[slot].value());
        if (monitored) {
          samples[i] = MeterFromTrace(results[slot].value().trace);
          traces[i] = std::move(results[slot].value().trace);
        }
      }
      admitted_index += wave.size();
      wave.clear();
    };
    for (size_t i = 0; i < schedule.size(); ++i) {
      if (!is_admitted[i]) continue;
      const TrafficOp op = schedule[i].op;
      const bool batchable = op == TrafficOp::kPointRead ||
                             op == TrafficOp::kRangeScan ||
                             op == TrafficOp::kAggregate;
      if (batchable) {
        wave.push_back(i);
        if (wave.size() >= options_.exec_batch_max) flush_wave();
      } else {
        flush_wave();  // write barrier: drain reads first
        execute_one(i);
      }
    }
    flush_wave();
    // The queue model replays admitted requests in arrival order using
    // the collected service times.
    for (size_t i = 0; i < schedule.size(); ++i) {
      if (is_admitted[i] && report.requests[i].status.ok()) queue_step(i);
    }
  }

  // Accounting pass, in arrival order so the fingerprint chain is the
  // deterministic arrival-order fold.
  report.tenants.resize(tenants_.size());
  for (size_t t = 0; t < tenants_.size(); ++t) {
    report.tenants[t].tenant = tenants_[t].name;
  }
  report.global.tenant = "_all";
  for (size_t i = 0; i < schedule.size(); ++i) {
    const TrafficRequest& req = schedule[i];
    RequestOutcome& out = report.requests[i];
    out.tenant = req.tenant;
    out.arrival_us = req.arrival_us;
    TenantTraffic& tt = report.tenants[req.tenant];
    TenantSeries& ts = series[req.tenant];

    if (monitored) {
      // The monitor ingests arrival order — the one order shared by both
      // execution modes — so its windows are batching- and
      // fanout-invariant.
      RequestObservation obs;
      obs.tenant = tenants_[req.tenant].name;
      obs.seq = req.seq;
      obs.arrival_us = req.arrival_us;
      if (out.status.IsResourceExhausted()) {
        obs.cls = RequestClass::kRejected;
      } else if (!out.status.ok()) {
        obs.cls = RequestClass::kFailed;
      } else {
        obs.cls = RequestClass::kCompleted;
        obs.latency_us = out.latency_us;
        obs.queue_delay_us = out.queue_delay_us;
        obs.service_us = out.service_us;
        obs.meter = samples[i];
        obs.trace = &traces[i];
      }
      monitor.Observe(obs);
    }

    ++tt.offered;
    ++report.global.offered;
    ts.offered->Inc();
    global_series.offered->Inc();

    if (out.status.IsResourceExhausted()) {
      if (verdict[i] == Admit::kQuota) {
        ++tt.rejected_quota;
        ++report.global.rejected_quota;
        ts.rejected_quota->Inc();
        global_series.rejected_quota->Inc();
      } else {
        ++tt.rejected_queue;
        ++report.global.rejected_queue;
        ts.rejected_queue->Inc();
        global_series.rejected_queue->Inc();
      }
      continue;
    }

    ++tt.admitted;
    ++report.global.admitted;
    ts.admitted->Inc();
    global_series.admitted->Inc();

    if (!out.status.ok()) {
      // Execution failure: no service charge, but the error is part of
      // the drill fingerprint (a drill must reproduce failures too).
      ++tt.failed;
      ++report.global.failed;
      ts.failed->Inc();
      global_series.failed->Inc();
      const std::string mark = "|failed=" + out.status.ToString();
      tt.answers_fingerprint = FoldFnv(tt.answers_fingerprint, mark);
      report.global.answers_fingerprint =
          FoldFnv(report.global.answers_fingerprint, mark);
      continue;
    }

    ++tt.completed;
    ++report.global.completed;
    tt.latency_sum_us += out.latency_us;
    report.global.latency_sum_us += out.latency_us;
    ts.completed->Inc();
    global_series.completed->Inc();
    ts.latency->Observe(out.latency_us);
    ts.queue_delay->Observe(out.queue_delay_us);
    ts.service->Observe(out.service_us);
    global_series.latency->Observe(out.latency_us);
    global_series.queue_delay->Observe(out.queue_delay_us);
    global_series.service->Observe(out.service_us);
    tt.answers_fingerprint = FoldFnv(tt.answers_fingerprint, answers[i]);
    report.global.answers_fingerprint =
        FoldFnv(report.global.answers_fingerprint, answers[i]);
  }

  // Percentiles read back from the histograms (the exported series and
  // the report agree by construction).
  auto fill_quantiles = [](TenantTraffic* tt, const TenantSeries& ts) {
    tt->p50_us = ts.latency->ValueAtQuantile(0.50);
    tt->p99_us = ts.latency->ValueAtQuantile(0.99);
    tt->p999_us = ts.latency->ValueAtQuantile(0.999);
    tt->queue_delay_p99_us = ts.queue_delay->ValueAtQuantile(0.99);
    tt->service_p50_us = ts.service->ValueAtQuantile(0.50);
  };
  for (size_t t = 0; t < tenants_.size(); ++t) {
    fill_quantiles(&report.tenants[t], series[t]);
  }
  fill_quantiles(&report.global, global_series);

  if (monitored) {
    monitor.Finish(std::max(report.drained_us, report.last_arrival_us));
    report.monitored = true;
    report.monitor = monitor.Report();
  }
  return report;
}

}  // namespace ssdb
