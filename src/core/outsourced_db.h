// OutsourcedDatabase — the library's top-level public API.
//
// One object assembles the full deployment of the paper: n simulated
// Database Service Providers behind a cost-modelled network, plus the
// trusted data source client holding the keys. Most applications only
// need this header:
//
//   OutsourcedDbOptions options;
//   options.topology = Topology(/*m=*/1, /*n_per=*/3, /*k=*/2);
//   auto db = OutsourcedDatabase::Create(options).value();
//   db->CreateTable(...);
//   db->Insert("Employees", rows);
//
//   // One Execute family covers built queries, joins and SQL text:
//   auto result = db->Execute(
//       Query::Select("Employees")
//           .Where(Between("salary", Value::Int(10000), Value::Int(40000))));
//   auto by_sql = db->Execute("SELECT name FROM Employees WHERE salary = 20");
//   auto joined = db->Execute(JoinQuery{...});  // rows = left ++ right
//
//   // Independent queries can share the fan-out worker pool:
//   auto batch = db->ExecuteBatch({q1, q2, q3});
//
//   // Fault injection for the availability experiments:
//   db->faults().Down(1);
//   db->faults().HealAll();
//
// See examples/quickstart.cc for the full Figure 1 walk-through.

#ifndef SSDB_CORE_OUTSOURCED_DB_H_
#define SSDB_CORE_OUTSOURCED_DB_H_

#include <memory>
#include <string>
#include <vector>

#include "client/client.h"
#include "client/query.h"
#include "client/sql.h"
#include "net/fault_controller.h"
#include "net/network.h"
#include "provider/provider.h"

namespace ssdb {

/// Provider-side storage configuration (storage/engine.h).
struct StorageOptions {
  enum class Backend {
    kMemory,   ///< RAM only (the seed system); nothing survives a kill.
    kDurable,  ///< Per-provider WAL + snapshots under `dir`; providers
               ///< survive faults().Kill + Restart with state intact.
  };
  Backend backend = Backend::kMemory;
  /// Root directory for durable provider state; each provider gets the
  /// subdirectory `dir/<provider name>` (created on open). Required for
  /// kDurable.
  std::string dir;
  /// Checkpoint cadence: snapshot the full state and truncate the WAL
  /// after this many logged mutations (0 = never; WAL grows unbounded).
  size_t wal_snapshot_every = 256;
};

/// Options assembling a full deployment.
struct OutsourcedDbOptions {
  /// Deployment shape: shard groups, providers per group, threshold and
  /// partitioner (core/topology.h). Zero-valued fields inherit the
  /// deprecated flat aliases (`n` below, `client.k`), yielding the seed
  /// system's 1-shard topology:
  ///
  ///   options.topology = Topology(/*m=*/4, /*n_per=*/4, /*k=*/2,
  ///                               Partitioner::kRange);
  ///
  /// builds 16 providers in 4 range-partitioned shard groups.
  Topology topology;
  /// Deprecated alias for the provider count: with a default `topology`
  /// this is the seed system's flat n; with `topology.shards > 1` and
  /// `topology.providers_per_shard == 0` it is split into `shards` equal
  /// groups. Ignored when `topology.providers_per_shard != 0`.
  size_t n = 4;
  /// Network latency/bandwidth model for every client<->provider link.
  NetworkCostModel network;
  /// Data source configuration (threshold k, keys, update mode, ...).
  ClientOptions client;
  /// Worker threads for the provider fan-out pool (0 = one per hardware
  /// thread). 1 reproduces the serial execution order exactly.
  size_t fanout_threads = 0;
  /// Provider storage backend. The default MemoryEngine deployment is
  /// byte-identical to the seed system (results, wire bytes, virtual
  /// clock, telemetry exports); kDurable adds WAL + snapshot recovery and
  /// the `ssdb_wal_*` / `ssdb_recovery_*` telemetry series.
  StorageOptions storage;
};

/// \brief A complete simulated deployment: n providers + network + client.
class OutsourcedDatabase {
 public:
  static Result<std::unique_ptr<OutsourcedDatabase>> Create(
      OutsourcedDbOptions options);

  // --- Data management (delegates to the data source client) -----------

  Status CreateTable(TableSchema schema) {
    return client_->CreateTable(std::move(schema));
  }
  /// A non-empty `ctx.tenant` meters the call: on success its bytes,
  /// write rounds and clock delta are charged to the tenant's
  /// `ssdb_meter_*` series. Update and Delete meter the same way (an
  /// update's read phase is billed in bytes and clock, not rounds).
  Status Insert(const std::string& table,
                const std::vector<std::vector<Value>>& rows,
                const RequestContext& ctx = {}) {
    return client_->Insert(table, rows, ctx);
  }
  /// Initial outsourcing: ships the rows in batched envelope rounds (one
  /// round trip per ClientOptions::batch_max_ops-row chunk) instead of
  /// per-call inserts; bypasses the lazy write log.
  Status BulkLoad(const std::string& table,
                  const std::vector<std::vector<Value>>& rows) {
    return client_->BulkLoad(table, rows);
  }
  // --- Queries: the unified Execute family ------------------------------

  /// Executes a built single-table query. A non-empty `ctx.tenant`
  /// stamps the result's QueryTrace and bills the query to the tenant's
  /// `ssdb_meter_*` series (see docs/PROTOCOL.md, "Continuous monitoring
  /// & metering").
  Result<QueryResult> Execute(const Query& query,
                              const RequestContext& ctx = {}) {
    return client_->Execute(query, ctx);
  }
  /// Executes a same-domain equi-join; each result row is left ++ right
  /// values, split at QueryResult::join_left_columns.
  Result<QueryResult> Execute(const JoinQuery& join,
                              const RequestContext& ctx = {}) {
    return client_->Execute(join, ctx);
  }
  /// Parses and runs one SQL statement (SELECT / UPDATE / DELETE — see
  /// client/sql.h for the grammar). UPDATE/DELETE report the affected row
  /// count through QueryResult::count.
  Result<QueryResult> Execute(const std::string& sql,
                              const RequestContext& ctx = {}) {
    return client_->Execute(sql, ctx);
  }
  /// Runs independent queries concurrently on the fan-out worker pool;
  /// slot i corresponds to queries[i]. `ctxs` (empty, or one per query)
  /// meters each slot under its own tenant.
  std::vector<Result<QueryResult>> ExecuteBatch(
      const std::vector<Query>& queries,
      const std::vector<RequestContext>& ctxs = {}) {
    return client_->ExecuteBatch(queries, ctxs);
  }
  /// Runs independent equi-joins; compatible share fetches coalesce into
  /// one batch envelope per provider.
  std::vector<Result<QueryResult>> ExecuteBatch(
      const std::vector<JoinQuery>& joins) {
    return client_->ExecuteBatch(joins);
  }

  /// Renders a query's execution plan without running it. The text is
  /// generated from the same QueryPlan the executor walks; the per-query
  /// QueryTrace on QueryResult::trace records what actually ran.
  Result<std::string> Explain(const Query& query) {
    return client_->Explain(query);
  }
  Result<std::string> Explain(const JoinQuery& join) {
    return client_->Explain(join);
  }
  Result<uint64_t> Update(const std::string& table,
                          const std::vector<Predicate>& where,
                          const std::string& set_column, const Value& value,
                          const RequestContext& ctx = {}) {
    return client_->Update(table, where, set_column, value, ctx);
  }
  Result<uint64_t> Delete(const std::string& table,
                          const std::vector<Predicate>& where,
                          const RequestContext& ctx = {}) {
    return client_->Delete(table, where, ctx);
  }
  Status Flush() { return client_->Flush(); }
  Status RefreshTable(const std::string& table) {
    return client_->RefreshTable(table);
  }

  Status PublishPublicTable(const std::string& name,
                            std::vector<ColumnSpec> columns,
                            const std::vector<std::vector<Value>>& rows) {
    return client_->PublishPublicTable(name, std::move(columns), rows);
  }
  Status SubscribePublicColumn(const std::string& name,
                               const std::string& column) {
    return client_->SubscribePublicColumn(name, column);
  }
  Result<QueryResult> QueryPublic(const std::string& name,
                                  const Predicate& predicate) {
    return client_->QueryPublic(name, predicate);
  }

  // --- Simulation controls ----------------------------------------------

  /// Structured fault injection (E8 fault tolerance): db.faults().Down(i),
  /// .Drop(i, p), .Corrupt(i), .Slow(i, f), .Flaky(i, p), .Heal(i),
  /// .HealAll(), or RAII ScopedFault. HealAll also resets the resilience
  /// scoreboard, so healed faults do not echo as open breakers.
  ///
  /// Kill/restart (the durable-provider chaos drill): db.faults().Kill(i)
  /// drops provider i's RAM state and takes its link down; writes issued
  /// while it is dead succeed on the survivors and queue client-side.
  /// db.faults().Restart(i) recovers it from durable storage (snapshot +
  /// WAL replay), ships the queued writes, and resets its scoreboard
  /// entry so it rejoins quorums as a fresh peer. With the default
  /// MemoryEngine backend a restart recovers only the queued writes —
  /// use StorageOptions::Backend::kDurable for full recovery.
  FaultController& faults() { return faults_; }

  /// The client's provider health scoreboard (resilience layer).
  ProviderScoreboard& scoreboard() { return *client_->scoreboard(); }

  // --- Introspection ------------------------------------------------------

  /// Total provider count across all shard groups.
  size_t n() const { return options_.n; }
  size_t k() const { return options_.client.k; }
  /// The resolved deployment shape (fields never zero after Create).
  const Topology& topology() const { return client_->topology(); }
  size_t shards() const { return client_->shards(); }
  size_t providers_per_shard() const { return client_->providers_per_shard(); }
  /// Aggregated channel stats of shard group `shard`'s links; returns
  /// InvalidArgument when `shard >= shards()`.
  Result<ChannelStats> shard_stats(size_t shard) const;
  DataSourceClient& client() { return *client_; }
  Network& network() { return *network_; }
  Provider& provider(size_t i) { return *providers_[i]; }
  ClientStats client_stats() const { return client_->stats(); }
  ChannelStats network_stats() const { return network_->TotalStats(); }
  /// Simulated wall-clock time spent on the wire so far (microseconds).
  uint64_t simulated_time_us() { return network_->clock().now_us(); }

  // --- Telemetry ----------------------------------------------------------

  /// The deployment's metrics registry: every layer (network links,
  /// providers, resilience, plan executor, client) charges its ssdb_*
  /// series here. Export with ExportPrometheus() / ExportJson().
  MetricsRegistry& metrics() { return *client_->metrics(); }
  const MetricsRegistry& metrics() const { return *client_->metrics(); }
  /// The span tracer (disabled by default): db.tracer().Enable(true),
  /// run queries, then ExportChromeTrace() for chrome://tracing/Perfetto.
  Tracer& tracer() { return *client_->tracer(); }

  /// Resets client, network and provider statistics, the metrics
  /// registry and recorded spans in one call. The virtual clock keeps
  /// running: registry/stats reconciliation holds for deltas from any
  /// common reset point.
  void ResetAllStats();

 private:
  OutsourcedDatabase(OutsourcedDbOptions options,
                     std::unique_ptr<Network> network,
                     std::vector<std::shared_ptr<Provider>> providers,
                     std::unique_ptr<DataSourceClient> client)
      : options_(std::move(options)),
        network_(std::move(network)),
        providers_(std::move(providers)),
        client_(std::move(client)),
        faults_(network_.get()) {
    faults_.AttachScoreboard(client_->scoreboard());
    // Kill/restart lifecycle: Kill crashes the engine (RAM state gone)
    // and opens the client-side outage so missed writes queue; Restart
    // recovers from durable storage, then replays the queue. Provider i's
    // network index is i (AddProvider assigns sequentially at Create).
    faults_.AttachLifecycle(
        [this](size_t i) {
          providers_[i]->Crash();
          client_->BeginProviderOutage(i);
        },
        [this](size_t i) {
          SSDB_RETURN_IF_ERROR(providers_[i]->Restart());
          return client_->ResyncProvider(i);
        });
  }

  OutsourcedDbOptions options_;
  std::unique_ptr<Network> network_;
  std::vector<std::shared_ptr<Provider>> providers_;
  std::unique_ptr<DataSourceClient> client_;
  FaultController faults_;
};

}  // namespace ssdb

#endif  // SSDB_CORE_OUTSOURCED_DB_H_
