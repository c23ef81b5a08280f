// Monitor suite (separate executable, CTest label "traffic").
//
// Covers the continuous monitor end to end: unit semantics first
// (windowing, ring eviction, alert fire/resolve state machine, top-K
// slow-query ranking, empty-window quantiles), then the harness wiring:
// monitored traffic runs whose windowed series, billing, alerts and slow
// logs are bit-identical across fanout thread counts and same-seed runs
// (including a kill/restart drill over durable storage), and meter
// reconciliation — Σ tenants == "_all" == the registry's client-charged
// `ssdb_meter_*` totals == the wire's ChannelStats for the run.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/outsourced_db.h"
#include "obs/monitor.h"
#include "traffic/traffic.h"
#include "workload/generators.h"

namespace ssdb {
namespace {

// ---------------------------------------------------------------------------
// Unit level: a Monitor driven by hand (null registry — delta inputs read
// zero and no self-series are charged).

RequestObservation Obs(const std::string& tenant, uint32_t seq,
                       uint64_t arrival_us, uint64_t latency_us = 10,
                       uint64_t service_us = 10) {
  RequestObservation obs;
  obs.tenant = tenant;
  obs.seq = seq;
  obs.arrival_us = arrival_us;
  obs.cls = RequestClass::kCompleted;
  obs.latency_us = latency_us;
  obs.queue_delay_us = latency_us - service_us;
  obs.service_us = service_us;
  obs.meter.requests = 1;
  obs.meter.bytes_sent = 100;
  obs.meter.bytes_received = 200;
  obs.meter.rounds = 1;
  obs.meter.clock_us = service_us;
  return obs;
}

TEST(MonitorUnit, WindowsCloseOnBoundariesAndFinishClosesPartial) {
  MonitorOptions options;
  options.window_us = 1000;
  Monitor monitor(nullptr, options);
  monitor.Observe(Obs("a", 0, 10));
  monitor.Observe(Obs("a", 1, 990));
  monitor.Observe(Obs("a", 2, 1000));  // first arrival of window 1
  monitor.Finish(2500);                // closes window 1 and partial [2000,2500)

  const MonitorReport r = monitor.Report();
  ASSERT_EQ(r.windows.size(), 3u);
  EXPECT_EQ(r.windows_total, 3u);
  EXPECT_EQ(r.windows[0].start_us, 0u);
  EXPECT_EQ(r.windows[0].end_us, 1000u);
  EXPECT_EQ(r.windows[0].completed, 2u);
  EXPECT_EQ(r.windows[1].completed, 1u);
  // The partial final window carries the Finish time as its end.
  EXPECT_EQ(r.windows[2].start_us, 2000u);
  EXPECT_EQ(r.windows[2].end_us, 2500u);
  EXPECT_EQ(r.windows[2].completed, 0u);
  // Billing saw every request regardless of window shape.
  EXPECT_EQ(r.total.meter.requests, 3u);
  EXPECT_EQ(r.total.meter.bytes_sent, 300u);
}

TEST(MonitorUnit, RingEvictsOldestWindowsButBillingIsUnaffected) {
  MonitorOptions options;
  options.window_us = 100;
  options.ring_capacity = 2;
  Monitor monitor(nullptr, options);
  for (uint32_t i = 0; i < 5; ++i) {
    monitor.Observe(Obs("a", i, i * 100 + 1));  // one request per window
  }
  monitor.Finish(500);
  const MonitorReport r = monitor.Report();
  EXPECT_EQ(r.windows_total, 5u);
  EXPECT_EQ(r.windows_dropped, 3u);
  ASSERT_EQ(r.windows.size(), 2u);
  EXPECT_EQ(r.windows.front().index, 3u);  // oldest surviving window
  EXPECT_EQ(r.windows.back().index, 4u);
  EXPECT_EQ(r.total.meter.requests, 5u);  // eviction never un-bills
  ASSERT_EQ(r.billing.size(), 1u);
  EXPECT_EQ(r.billing[0].meter.requests, 5u);
}

TEST(MonitorUnit, CostModelIsLinearInMeterFigures) {
  CostModel cost;  // defaults: a=1000, b=2, c=1
  EXPECT_EQ(cost.Cost(0, 0, 0), 0u);
  EXPECT_EQ(cost.Cost(1, 0, 0), 1000u);
  EXPECT_EQ(cost.Cost(2, 300, 50), 2 * 1000u + 2 * 300u + 50u);
}

TEST(MonitorUnit, AlertFiresAfterConsecutiveBreachesAndResolves) {
  MonitorOptions options;
  options.window_us = 100;
  options.rules = {{"p99_burn", AlertInput::kLatencyP99Us, /*threshold=*/50,
                    /*for_windows=*/2}};
  Monitor monitor(nullptr, options);
  // Window 0: breach #1 (latency 200 > 50) — no event yet.
  monitor.Observe(Obs("a", 0, 10, /*latency_us=*/200, /*service_us=*/200));
  // Window 1: breach #2 — fires at this window's close.
  monitor.Observe(Obs("a", 1, 110, /*latency_us=*/200, /*service_us=*/200));
  // Window 2: back under the SLO — resolves.
  monitor.Observe(Obs("a", 2, 210, /*latency_us=*/1, /*service_us=*/1));
  monitor.Finish(400);

  const MonitorReport r = monitor.Report();
  ASSERT_EQ(r.alerts.size(), 2u);
  EXPECT_EQ(r.alerts[0].rule, "p99_burn");
  EXPECT_TRUE(r.alerts[0].firing);
  EXPECT_EQ(r.alerts[0].window_end_us, 200u);  // close of window 1
  EXPECT_GT(r.alerts[0].value, 50u);
  EXPECT_FALSE(r.alerts[1].firing);
  EXPECT_EQ(r.alerts[1].window_end_us, 300u);  // close of window 2
}

TEST(MonitorUnit, EmptyGapWindowsCloseAndResolveAlerts) {
  MonitorOptions options;
  options.window_us = 100;
  options.rules = {{"p99_burn", AlertInput::kLatencyP99Us, 50, 1}};
  Monitor monitor(nullptr, options);
  monitor.Observe(Obs("a", 0, 10, 200, 200));  // fires at window 0 close
  // Quiet period: the next arrival is four windows later; the empty gap
  // windows must close (and the first of them resolves the alert).
  monitor.Observe(Obs("a", 1, 410, 1, 1));
  monitor.Finish(500);

  const MonitorReport r = monitor.Report();
  EXPECT_EQ(r.windows_total, 5u);
  ASSERT_EQ(r.alerts.size(), 2u);
  EXPECT_TRUE(r.alerts[0].firing);
  EXPECT_EQ(r.alerts[0].window_end_us, 100u);
  EXPECT_FALSE(r.alerts[1].firing);
  EXPECT_EQ(r.alerts[1].window_end_us, 200u);  // first empty gap window
}

TEST(MonitorUnit, RejectedRatioRuleUsesPermilleOfOffered) {
  MonitorOptions options;
  options.window_us = 1000;
  options.rules = {
      {"reject_ratio", AlertInput::kRejectedRatioPermille, 100, 1}};
  Monitor monitor(nullptr, options);
  for (uint32_t i = 0; i < 8; ++i) monitor.Observe(Obs("a", i, 10 + i));
  RequestObservation rejected;
  rejected.tenant = "a";
  rejected.seq = 8;
  rejected.arrival_us = 20;
  rejected.cls = RequestClass::kRejected;
  monitor.Observe(rejected);
  monitor.Observe(rejected);  // 2 of 10 = 200 permille > 100
  monitor.Finish(1000);
  const MonitorReport r = monitor.Report();
  ASSERT_EQ(r.alerts.size(), 1u);
  EXPECT_TRUE(r.alerts[0].firing);
  EXPECT_EQ(r.alerts[0].value, 200u);
}

TEST(MonitorUnit, SlowLogKeepsTopKByServiceWithDeterministicTies) {
  MonitorOptions options;
  options.window_us = 1000;
  options.slow_k = 2;
  Monitor monitor(nullptr, options);
  monitor.Observe(Obs("a", 0, 1, 30, 30));
  monitor.Observe(Obs("a", 1, 2, 50, 50));
  monitor.Observe(Obs("b", 0, 3, 50, 50));  // ties lose to earlier arrival
  monitor.Observe(Obs("a", 2, 4, 40, 40));
  monitor.Observe(Obs("a", 3, 5, 10, 10));
  monitor.Finish(1000);
  const MonitorReport r = monitor.Report();
  ASSERT_EQ(r.windows.size(), 1u);
  const std::vector<SlowQuery>& slow = r.windows[0].slow;
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].tenant, "a");
  EXPECT_EQ(slow[0].seq, 1u);
  EXPECT_EQ(slow[0].service_us, 50u);
  EXPECT_EQ(slow[1].tenant, "b");
  EXPECT_EQ(slow[1].seq, 0u);
}

TEST(MonitorUnit, EmptyWindowQuantilesAreZero) {
  MonitorOptions options;
  options.window_us = 100;
  Monitor monitor(nullptr, options);
  RequestObservation rejected;
  rejected.tenant = "a";
  rejected.arrival_us = 10;
  rejected.cls = RequestClass::kRejected;
  monitor.Observe(rejected);  // offered but no completions
  monitor.Finish(100);
  const MonitorReport r = monitor.Report();
  ASSERT_EQ(r.windows.size(), 1u);
  EXPECT_EQ(r.windows[0].offered, 1u);
  EXPECT_EQ(r.windows[0].completed, 0u);
  EXPECT_EQ(r.windows[0].latency_p50_us, 0u);
  EXPECT_EQ(r.windows[0].latency_p99_us, 0u);
  EXPECT_EQ(r.windows[0].queue_delay_p99_us, 0u);
}

// ---------------------------------------------------------------------------
// Harness level: monitored traffic runs against a real deployment.

std::unique_ptr<OutsourcedDatabase> MakeDb(size_t fanout_threads = 1) {
  OutsourcedDbOptions options;
  options.topology = Topology(/*m=*/1, /*n_per=*/4, /*k=*/2);
  options.fanout_threads = fanout_threads;
  auto db = OutsourcedDatabase::Create(std::move(options));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

std::vector<TenantSpec> TwoTenants(double qps = 40.0) {
  std::vector<TenantSpec> tenants(2);
  tenants[0].name = "alpha";
  tenants[0].rows = 32;
  tenants[0].requests = 30;
  tenants[0].arrival_qps = qps;
  tenants[1].name = "beta";
  tenants[1].rows = 24;
  tenants[1].requests = 30;
  tenants[1].arrival_qps = qps;
  return tenants;
}

TrafficOptions MonitoredOptions() {
  TrafficOptions options;
  options.monitor = true;
  options.monitor_options.window_us = 200000;  // 200ms windows
  options.monitor_options.slow_k = 3;
  options.monitor_options.rules = DefaultAlertRules(/*p99_slo_us=*/500000);
  return options;
}

Result<TrafficReport> RunOnce(OutsourcedDatabase* db,
                              std::vector<TenantSpec> tenants,
                              TrafficOptions options) {
  TrafficHarness harness(db, std::move(tenants), options);
  Status setup = harness.Setup();
  if (!setup.ok()) return setup;
  return harness.Run();
}

TEST(MonitorDeterminism, ExportBitIdenticalAcrossFanoutThreadCounts) {
  std::string first;
  for (size_t threads : {1, 4, 8}) {
    auto db = MakeDb(threads);
    auto report = RunOnce(db.get(), TwoTenants(), MonitoredOptions());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(report.value().monitored);
    EXPECT_GT(report.value().monitor.windows_total, 0u);
    const std::string json = report.value().ExportJson();
    EXPECT_NE(json.find("\"monitor\""), std::string::npos);
    if (first.empty()) {
      first = json;
    } else {
      EXPECT_EQ(json, first) << "fanout_threads=" << threads;
    }
  }
}

TEST(MonitorDeterminism, ExportBitIdenticalAcrossSameSeedRuns) {
  auto db1 = MakeDb();
  auto db2 = MakeDb();
  auto r1 = RunOnce(db1.get(), TwoTenants(), MonitoredOptions());
  auto r2 = RunOnce(db2.get(), TwoTenants(), MonitoredOptions());
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1.value().ExportJson(), r2.value().ExportJson());
  EXPECT_EQ(r1.value().monitor.ExportJson(), r2.value().monitor.ExportJson());
}

TEST(MonitorDeterminism, KillRestartDrillMonitorIsReproducible) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ssdb_monitor_drill").string();
  std::filesystem::remove_all(dir);
  auto make_durable = [&](const std::string& sub) {
    OutsourcedDbOptions options;
    options.topology = Topology(/*m=*/1, /*n_per=*/4, /*k=*/2);
    options.fanout_threads = 1;
    options.storage.backend = StorageOptions::Backend::kDurable;
    options.storage.dir = dir + "/" + sub;
    auto db = OutsourcedDatabase::Create(std::move(options));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).value();
  };

  // Same kill/restart schedule twice: the monitored export — windows,
  // metered bytes, billing, alerts, slow log — must reproduce exactly.
  std::string first;
  for (const std::string sub : {"run1", "run2"}) {
    auto db = make_durable(sub);
    OutsourcedDatabase* raw = db.get();
    TrafficOptions options = MonitoredOptions();
    options.exec_batch = false;
    options.before_request = [raw](size_t index) {
      if (index == 20) {
        raw->faults().Kill(1);
      } else if (index == 40) {
        Status restarted = raw->faults().Restart(1);
        EXPECT_TRUE(restarted.ok()) << restarted.ToString();
      }
    };
    auto report = RunOnce(raw, TwoTenants(), options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report.value().global.failed, 0u);
    ASSERT_TRUE(report.value().monitored);
    const std::string json = report.value().ExportJson();
    if (first.empty()) {
      first = json;
    } else {
      EXPECT_EQ(json, first);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(MonitorReconciliation, MeterMatchesRegistryWindowsAndWire) {
  auto db = MakeDb();
  TrafficHarness harness(db.get(), TwoTenants(), [] {
    TrafficOptions options = MonitoredOptions();
    options.exec_batch = false;  // reads charge their own envelope rounds
    return options;
  }());
  ASSERT_TRUE(harness.Setup().ok());
  // Split Setup traffic from Run traffic on the wire.
  const ChannelStats before = db->network_stats();
  auto report = harness.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const TrafficReport& r = report.value();
  ASSERT_TRUE(r.monitored);
  ASSERT_EQ(r.global.failed, 0u);

  // Billing: Σ tenants == "_all" total, figure by figure.
  MeterSample tenant_sum;
  for (const TenantMeter& t : r.monitor.billing) tenant_sum += t.meter;
  EXPECT_EQ(tenant_sum.requests, r.monitor.total.meter.requests);
  EXPECT_EQ(tenant_sum.bytes_sent, r.monitor.total.meter.bytes_sent);
  EXPECT_EQ(tenant_sum.bytes_received, r.monitor.total.meter.bytes_received);
  EXPECT_EQ(tenant_sum.rounds, r.monitor.total.meter.rounds);
  EXPECT_EQ(tenant_sum.clock_us, r.monitor.total.meter.clock_us);

  // Σ windows == billing total (Finish closed the last partial window,
  // so no meter sample is stranded in an open window).
  MeterSample window_sum;
  uint64_t window_offered = 0;
  for (const MonitorWindow& w : r.monitor.windows) {
    window_sum += w.meter;
    window_offered += w.offered;
  }
  ASSERT_EQ(r.monitor.windows_dropped, 0u);
  EXPECT_EQ(window_sum.requests, r.monitor.total.meter.requests);
  EXPECT_EQ(window_sum.bytes_sent, r.monitor.total.meter.bytes_sent);
  EXPECT_EQ(window_offered, r.global.offered);

  // The monitor bills exactly the completed requests (rejections and
  // failures are never charged).
  EXPECT_EQ(r.monitor.total.meter.requests, r.global.completed);

  // Registry: the client-charged `ssdb_meter_*` series agree with the
  // monitor, per stratum — "_all" equals the billed total, per-tenant
  // series sum to it, and the unfiltered CounterTotal is exactly double.
  MetricsRegistry& reg = db->metrics();
  EXPECT_EQ(reg.CounterTotal("ssdb_meter_requests_total", "tenant", "_all"),
            r.monitor.total.meter.requests);
  EXPECT_EQ(reg.CounterTotal("ssdb_meter_bytes_sent_total", "tenant", "_all"),
            r.monitor.total.meter.bytes_sent);
  EXPECT_EQ(
      reg.CounterTotal("ssdb_meter_bytes_received_total", "tenant", "_all"),
      r.monitor.total.meter.bytes_received);
  EXPECT_EQ(reg.CounterTotal("ssdb_meter_clock_us_total", "tenant", "_all"),
            r.monitor.total.meter.clock_us);
  uint64_t per_tenant = 0;
  for (const TenantMeter& t : r.monitor.billing) {
    per_tenant += reg.CounterValue("ssdb_meter_bytes_sent_total",
                                   {{"tenant", t.tenant}});
  }
  EXPECT_EQ(per_tenant, r.monitor.total.meter.bytes_sent);
  EXPECT_EQ(reg.CounterTotal("ssdb_meter_requests_total"),
            2 * r.monitor.total.meter.requests);

  // The wire: a fault-free sequential run's metered bytes are exactly
  // the network's ChannelStats delta — nothing crosses unbilled.
  const ChannelStats after = db->network_stats();
  EXPECT_EQ(r.monitor.total.meter.bytes_sent,
            after.bytes_sent - before.bytes_sent);
  EXPECT_EQ(r.monitor.total.meter.bytes_received,
            after.bytes_received - before.bytes_received);

  // Cost: self-series match the report, and the model is applied to the
  // billed totals exactly.
  const CostModel& cost = MonitoredOptions().monitor_options.cost;
  uint64_t billed_cost = 0;
  for (const TenantMeter& t : r.monitor.billing) {
    billed_cost += t.cost_microcredits;
    EXPECT_EQ(t.cost_microcredits,
              reg.CounterValue("ssdb_meter_cost_microcredits_total",
                               {{"tenant", t.tenant}}));
  }
  EXPECT_EQ(billed_cost, r.monitor.total.cost_microcredits);
  EXPECT_EQ(r.monitor.total.cost_microcredits,
            cost.Cost(r.monitor.total.meter.requests,
                      r.monitor.total.meter.bytes(),
                      r.monitor.total.meter.clock_us));
}

TEST(MonitorAlerts, QuotaOverloadFiresRejectRatioRule) {
  auto db = MakeDb();
  std::vector<TenantSpec> tenants = TwoTenants(/*qps=*/200.0);
  tenants[0].quota_qps = 20.0;  // alpha sheds most of its offered load
  tenants[0].quota_burst = 1.0;
  auto report = RunOnce(db.get(), tenants, MonitoredOptions());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const TrafficReport& r = report.value();
  ASSERT_GT(r.tenants[0].rejected_quota, 0u);
  bool fired = false;
  for (const AlertEvent& e : r.monitor.alerts) {
    if (e.rule == "admission_reject_ratio" && e.firing) fired = true;
  }
  EXPECT_TRUE(fired);
  EXPECT_GE(db->metrics().CounterValue("ssdb_alerts_fired_total",
                                       {{"rule", "admission_reject_ratio"}}),
            1u);
}

// ---------------------------------------------------------------------------
// Direct metered mutations: the rounds charge counts write rounds only.

uint64_t MeterValue(OutsourcedDatabase& db, const std::string& series) {
  return db.metrics().CounterValue(series, {{"tenant", "acme"}});
}

TEST(MonitorMetering, EagerWritesBillOneWriteRoundEach) {
  auto db = MakeDb();
  ASSERT_TRUE(db->CreateTable(EmployeeGenerator::EmployeesSchema()).ok());
  EmployeeGenerator gen(5, Distribution::kUniform);
  const std::vector<std::vector<Value>> rows = gen.Rows(8);
  const RequestContext ctx{"acme"};

  ASSERT_TRUE(db->Insert("Employees", rows, ctx).ok());
  EXPECT_EQ(MeterValue(*db, "ssdb_meter_rounds_total"), 1u);

  // The update reads its rows through a quorum round before the reshare
  // round; the read legs are billed in bytes and clock but not in rounds.
  const uint64_t calls_before = db->network_stats().calls;
  auto updated = db->Update("Employees", {Eq("name", rows[0][0])}, "salary",
                            Value::Int(12345), ctx);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_GE(*updated, 1u);
  EXPECT_GT(db->network_stats().calls - calls_before, db->n());
  EXPECT_EQ(MeterValue(*db, "ssdb_meter_rounds_total"), 2u);

  auto deleted = db->Delete("Employees", {Eq("name", rows[1][0])}, ctx);
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_GE(*deleted, 1u);
  EXPECT_EQ(MeterValue(*db, "ssdb_meter_rounds_total"), 3u);
  EXPECT_EQ(MeterValue(*db, "ssdb_meter_requests_total"), 3u);
}

TEST(MonitorMetering, WriteThatSendsNothingBillsNoRound) {
  OutsourcedDbOptions options;
  options.topology = Topology(/*m=*/2, /*n_per=*/2, /*k=*/2);
  options.fanout_threads = 1;
  auto db = std::move(OutsourcedDatabase::Create(std::move(options))).value();
  ASSERT_TRUE(db->CreateTable(EmployeeGenerator::EmployeesSchema()).ok());

  // With shard groups an empty insert has no owning group to write to.
  const uint64_t calls_before = db->network_stats().calls;
  ASSERT_TRUE(db->Insert("Employees", {}, RequestContext{"acme"}).ok());
  EXPECT_EQ(db->network_stats().calls, calls_before);
  EXPECT_EQ(MeterValue(*db, "ssdb_meter_requests_total"), 1u);
  EXPECT_EQ(MeterValue(*db, "ssdb_meter_rounds_total"), 0u);
  EXPECT_EQ(MeterValue(*db, "ssdb_meter_bytes_sent_total"), 0u);
}

}  // namespace
}  // namespace ssdb
