// The data source D: the trusted client that owns the keys.
//
// DataSourceClient is the only component that ever sees plaintext. It
//   * turns rows into share rows (random + deterministic + order-preserving
//     representations per codec/schema.h) and distributes them to the n
//     providers,
//   * rewrites queries into per-provider share-space requests (§V.A),
//   * reconstructs results from any k provider responses (Lagrange), with
//     consistency checks, integrity tags, and single-corrupt-provider
//     recovery when n is large enough,
//   * runs updates eagerly (read-reconstruct-reshare, §V.C) or lazily
//     (client-side batched log, the paper's "lazy update" future-work
//     direction),
//   * manages private x public mash-ups (§V.D) by subscribing to public
//     columns and attaching private share indexes at the providers.

#ifndef SSDB_CLIENT_CLIENT_H_
#define SSDB_CLIENT_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "client/query.h"
#include "codec/schema.h"
#include "common/rng.h"
#include "core/topology.h"
#include "crypto/prf.h"
#include "net/network.h"
#include "plan/host.h"
#include "provider/protocol.h"
#include "sss/order_preserving.h"
#include "sss/shamir.h"

namespace ssdb {

/// Configuration of a data source.
struct ClientOptions {
  /// Deployment shape: shard groups, providers per group, threshold and
  /// partitioner (core/topology.h). Zero-valued fields derive from the
  /// provider list and the deprecated `k` alias below, yielding the
  /// seed system's 1-shard topology.
  Topology topology;
  /// Deprecated alias for `topology.threshold`: reconstruction threshold
  /// k (1 <= k <= providers_per_shard). Range-capable columns
  /// additionally require k >= 2. Ignored when topology.threshold != 0.
  size_t k = 2;
  /// Master secret; all PRF keys and the secret points X derive from it.
  std::string master_key = "ssdb-demo-master-key";
  /// Seed for the (non-secret-critical) randomness of fresh shares.
  uint64_t rng_seed = 0x5EED;
  /// Coefficient construction for order-preserving shares (Section IV
  /// paper slots vs. hardened recursive mode; see sss/order_preserving.h).
  OpSlotMode op_mode = OpSlotMode::kPaperSlots;
  /// Buffer writes client-side and flush in batches (§V.C lazy updates).
  bool lazy_updates = false;
  /// Auto-flush the lazy log at this many buffered operations. Zero is
  /// rejected at Create with lazy_updates on: it would disable the
  /// auto-flush guard entirely and let the log grow without bound.
  size_t lazy_flush_threshold = 64;
  /// Max sub-operations coalesced into one batch envelope per provider
  /// (net/batch.h): lazy-log flushes, BulkLoad chunks, DisjunctUnion
  /// branches, ExecuteBatch point fetches and join share fetches. Values
  /// below 2 disable request coalescing and reproduce the per-op wire
  /// traffic byte-for-byte.
  size_t batch_max_ops = 128;
  /// Verify per-row integrity tags on reads.
  bool verify_tags = true;
  /// Resilient RPC configuration (deadlines, backoff retries, hedged
  /// reads, circuit breaker — see net/resilience.h). The default is fully
  /// disabled: results, provider byte streams and virtual-clock totals
  /// are then identical to a client without the resilience layer.
  ResiliencePolicy resilience;
};

/// Client-side operation counters: a point-in-time snapshot read back
/// from the metrics registry's `ssdb_client_*` series (the registry is
/// the single source of truth; concurrent batch queries bump its atomic
/// counters racelessly and this struct is just the materialized view).
struct ClientStats {
  uint64_t queries = 0;
  uint64_t rows_reconstructed = 0;
  uint64_t corruption_retries = 0;
  uint64_t lazy_flushes = 0;
  // Aggregated from the per-query QueryTrace of every executed plan.
  uint64_t traced_bytes_sent = 0;
  uint64_t traced_bytes_received = 0;
  uint64_t traced_clock_us = 0;
  uint64_t provider_legs = 0;
  uint64_t plan_nodes_executed = 0;
  // Resilience counters (zero while ClientOptions::resilience is
  // disabled), aggregated from the same traces.
  uint64_t attempts = 0;           ///< Backoff-retry legs.
  uint64_t hedged_legs = 0;        ///< Hedge legs launched.
  uint64_t deadline_exceeded = 0;  ///< Legs past their deadline.
  uint64_t breaker_skips = 0;      ///< Breaker admission denials.
};

/// \brief The data source / query front-end.
///
/// Query execution is delegated to the plan layer: every Execute overload
/// builds a QueryPlan through Planner and walks it with Executor; the
/// client implements PlanHost, keeping keys, PRFs and the sharing context
/// private while the plan layer sees only shares and reconstructed
/// plaintext.
class DataSourceClient : private PlanHost {
 public:
  /// Creates a client over `providers` (indexes into `network`). The
  /// sharing context (n = |providers|, k, secret X) is derived from the
  /// master key.
  static Result<std::unique_ptr<DataSourceClient>> Create(
      Network* network, std::vector<size_t> providers, ClientOptions options);

  // --- Schema & data ---------------------------------------------------

  /// Registers a table and creates it at every provider.
  Status CreateTable(TableSchema schema);

  /// Inserts plaintext rows (shared and distributed; lazy mode buffers).
  /// A non-empty `ctx.tenant` meters the call: on success its network
  /// bytes, write rounds and virtual-clock delta are charged to the
  /// tenant's `ssdb_meter_*` series (plus the `_all` stratum). Mutations
  /// run serialized (write barriers in the harness, sequential shells),
  /// so the deltas are exactly this call's. Update and Delete meter the
  /// same way.
  Status Insert(const std::string& table,
                const std::vector<std::vector<Value>>& rows,
                const RequestContext& ctx = {});

  /// Initial outsourcing path: shares and ships `rows` in one batched
  /// envelope round per `batch_max_ops`-row chunk, bypassing the lazy
  /// write log even in lazy mode. Equivalent to Insert row-for-row but
  /// pays one network round trip per envelope instead of one per call.
  Status BulkLoad(const std::string& table,
                  const std::vector<std::vector<Value>>& rows);

  // --- Queries ----------------------------------------------------------
  //
  // The unified Execute family: every way of asking a question goes
  // through one overloaded entry point returning QueryResult.

  /// Executes a single-table query (exact match / range / aggregates).
  /// A non-empty `ctx.tenant` is stamped on the result's QueryTrace and,
  /// on success, the query's requests/bytes/rounds/clock are charged to
  /// the tenant's `ssdb_meter_*` series (plus the `_all` stratum).
  Result<QueryResult> Execute(const Query& query,
                              const RequestContext& ctx = {});

  /// Executes a same-domain equi-join (§V.A Join). Each result row is the
  /// left row's values followed by the right row's;
  /// QueryResult::join_left_columns gives the split point. Cross-domain
  /// joins return NotSupported, as in the paper.
  Result<QueryResult> Execute(const JoinQuery& join,
                              const RequestContext& ctx = {});

  /// Parses and runs one SQL statement (SELECT / UPDATE / DELETE — see
  /// client/sql.h for the grammar). UPDATE/DELETE report the affected row
  /// count through QueryResult::count.
  Result<QueryResult> Execute(const std::string& sql,
                              const RequestContext& ctx = {});

  /// Runs independent queries concurrently on the network's worker pool;
  /// slot i of the result corresponds to queries[i]. The virtual clock
  /// still advances by every query's slowest leg (batching buys wall-clock
  /// time, not modelled time). Flushes the lazy write log up front.
  /// `ctxs` (empty, or one per query) attributes each slot's metering to
  /// its own tenant — a fused wave may mix tenants.
  std::vector<Result<QueryResult>> ExecuteBatch(
      const std::vector<Query>& queries,
      const std::vector<RequestContext>& ctxs = {});

  /// Runs independent equi-joins; compatible join share fetches are
  /// coalesced into one batch envelope per provider (batch_max_ops < 2
  /// falls back to per-join execution).
  std::vector<Result<QueryResult>> ExecuteBatch(
      const std::vector<JoinQuery>& joins);

  /// Renders the execution plan of a query — which share representation
  /// answers each predicate, the provider-side action, and the quorum —
  /// without contacting any provider. The text is generated from the same
  /// QueryPlan the executor runs, so EXPLAIN and execution cannot drift.
  Result<std::string> Explain(const Query& query);

  /// Renders the execution plan of an equi-join.
  Result<std::string> Explain(const JoinQuery& join);

  // --- Updates (§V.C) ----------------------------------------------------

  /// UPDATE table SET set_column = value WHERE predicates.
  /// Returns the number of rows updated. Metered like Insert: the read
  /// phase's bytes and clock are part of the charge, but meter rounds
  /// count the write rounds only.
  Result<uint64_t> Update(const std::string& table,
                          const std::vector<Predicate>& where,
                          const std::string& set_column, const Value& value,
                          const RequestContext& ctx = {});

  /// DELETE FROM table WHERE predicates. Returns rows deleted. Metered
  /// like Update.
  Result<uint64_t> Delete(const std::string& table,
                          const std::vector<Predicate>& where,
                          const RequestContext& ctx = {});

  /// Flushes the lazy write log (no-op when empty / eager mode): per
  /// table, one insert, update and delete message per provider, all
  /// shipped in one SendWrites call.
  Status Flush();
  size_t pending_lazy_ops() const override { return lazy_log_.size(); }

  /// Proactively re-randomizes every stored random share of `table` by
  /// adding fresh shares of zero (§VI(b)): secrets are unchanged, but
  /// shares captured before the refresh become useless to an adversary
  /// gathering k of them over time. Requires all n providers reachable
  /// (a partially applied refresh would desynchronize the sharing).
  Status RefreshTable(const std::string& table);

  // --- Private x public mash-up (§V.D) -----------------------------------

  /// Publishes a plaintext table to every provider (acting as the public
  /// data owner for the simulation).
  Status PublishPublicTable(const std::string& name,
                            std::vector<ColumnSpec> columns,
                            const std::vector<std::vector<Value>>& rows);

  /// Downloads one public column once and attaches a private share index
  /// at every provider; afterwards QueryPublic filters without revealing
  /// per-query interests.
  Status SubscribePublicColumn(const std::string& name,
                               const std::string& column);

  /// Filters a public table through the private share index.
  Result<QueryResult> QueryPublic(const std::string& name,
                                  const Predicate& predicate);

  // --- Kill/restart recovery (storage/engine.h, net/fault_controller.h) ---

  /// Opens a client-side outage for network provider `network_index`
  /// (called by the FaultController kill hook): from now on every
  /// mutating request targeted at it is queued verbatim instead of sent,
  /// while reads keep failing over to spare shares as with kDown. The
  /// queue preserves send order, so catch-up replay applies the missed
  /// writes exactly as the survivors saw them.
  void BeginProviderOutage(size_t network_index);

  /// Closes the outage and ships the queued writes to the restarted
  /// provider as batch envelopes of at most batch_max_ops sub-ops (a lone
  /// op travels unwrapped), validating every sub-response. Never reshares
  /// rows — resharing for one provider would break the polynomial
  /// consistency of existing shares across the group; the queue holds the
  /// exact bytes the provider would have received live. No-op when no
  /// outage is open.
  Status ResyncProvider(size_t network_index);

  /// True while an outage is open for `network_index`.
  bool provider_out(size_t network_index) const;

  /// Mutating requests currently queued for `network_index`.
  size_t pending_resync_ops(size_t network_index) const;

  // --- Introspection ------------------------------------------------------

  size_t n() const { return providers_.size(); }
  size_t k() const { return options_.k; }
  /// The resolved deployment shape (fields never zero after Create).
  const Topology& topology() const { return topology_; }
  size_t shards() const { return topology_.shards; }
  size_t providers_per_shard() const { return topology_.providers_per_shard; }
  /// Snapshot of the client-side counters, read from the registry.
  ClientStats stats() const;
  /// The deployment's metrics registry, owned by this client; the
  /// network, providers and scoreboard are attached to it at Create time
  /// (OutsourcedDatabase::Create) so all layers share one namespace.
  MetricsRegistry* metrics() override { return &metrics_; }
  const MetricsRegistry* metrics() const { return &metrics_; }
  /// The span tracer (disabled by default; Tracer::Enable opts in).
  Tracer* tracer() override { return &tracer_; }
  Network* network() override { return network_; }
  const ResiliencePolicy& resilience() const override {
    return options_.resilience;
  }
  /// The provider health scoreboard (EWMA latency, breaker state).
  ProviderScoreboard* scoreboard() override { return &scoreboard_; }
  /// Schema of a registered table.
  Result<const TableSchema*> GetSchema(const std::string& table) const;

 private:
  struct TableInfo {
    uint32_t id = 0;
    TableSchema schema;
    std::vector<ProviderColumnLayout> layout;
    uint64_t next_row_id = 1;
  };
  struct PublicInfo {
    uint32_t id = 0;
    std::vector<ColumnSpec> columns;
    std::vector<bool> subscribed;
    uint64_t num_rows = 0;
  };
  struct LazyOp {
    enum class Kind { kInsert, kUpdate, kDelete } kind;
    std::string table;
    uint64_t row_id = 0;
    std::vector<Value> row;  // kInsert / kUpdate
    size_t shard = 0;        ///< Owning shard group, fixed at append time.
  };

  DataSourceClient(Network* network, std::vector<size_t> providers,
                   ClientOptions options, SharingContext ctx,
                   std::vector<uint32_t> op_xs);

  // Share construction.
  Result<OrderPreservingScheme*> GetOpScheme(const ColumnSpec& column);
  /// Builds the providers_per_shard share rows of `row` for its owning
  /// shard group (position p in the result goes to the group's p-th
  /// provider). Share bytes depend only on the position, never the shard.
  Result<std::vector<StoredRow>> BuildShareRows(TableInfo* info,
                                                uint64_t row_id,
                                                const std::vector<Value>& row);
  uint64_t RowTag(uint32_t table_id, uint64_t row_id,
                  const std::vector<int64_t>& codes) const;
  /// The shard group owning `row` (partition key = first schema column).
  Result<size_t> ShardOfRow(const TableInfo& info,
                            const std::vector<Value>& row);

  /// The one write transport (reads go through Executor::CallQuorum):
  /// sends `ops[i]`, in order, to network provider `group[i]`. Round r
  /// carries each provider's r-th chunk of at most batch_max_ops ops as
  /// one batch envelope, all providers in one parallel fan-out; a lone op
  /// travels unwrapped and providers with nothing left sit the round out.
  /// A killed provider's mutating ops queue for ResyncProvider instead
  /// (its non-mutating ops still travel and fail Unavailable). Fails on
  /// the first transport, envelope or sub-response error.
  Status SendWrites(const std::vector<size_t>& group,
                    const std::vector<std::vector<Buffer>>& ops);
  /// Runs the mutation `fn`; for a non-empty `ctx.tenant` a successful
  /// call is charged its network bytes, write rounds and clock delta.
  template <typename Fn>
  auto Metered(const RequestContext& ctx, Fn fn);
  /// The body of both ExecuteBatch overloads (`ctxs` empty or one per
  /// query).
  template <typename Q>
  std::vector<Result<QueryResult>> RunBatch(
      const std::vector<Q>& queries, const std::vector<RequestContext>& ctxs);

  // Reconstruction.
  Result<Value> ReconstructColumn(const ColumnSpec& column,
                                  const std::vector<IndexedShare>& shares,
                                  int64_t* code_out) const;
  /// Maps a reconstructed field element into the column's value domain
  /// (shared tail of ReconstructColumn and the batched row path).
  Result<Value> DecodeColumnValue(const ColumnSpec& column, Fp61 w,
                                  int64_t* code_out) const;

  // --- PlanHost (the plan layer's view of this client) -------------------
  Result<PlanTable> ResolveTable(const std::string& name) override;
  size_t num_providers() const override {
    return topology_.providers_per_shard;
  }
  size_t threshold_k() const override { return options_.k; }
  size_t num_shards() const override { return topology_.shards; }
  Partitioner partitioner() const override { return topology_.partitioner; }
  OpSlotMode op_mode() const override { return options_.op_mode; }
  size_t batch_max_ops() const override { return options_.batch_max_ops; }
  const std::vector<size_t>& provider_indices() const override {
    return providers_;
  }
  const std::vector<size_t>& shard_provider_indices(
      size_t shard) const override {
    return shard_providers_[shard];
  }
  /// Query rewriting (§V.A): plaintext predicate -> provider i's share
  /// space.
  Result<SharePredicate> RewriteForProvider(const TableSchema& schema,
                                            const Predicate& pred,
                                            size_t provider,
                                            bool* always_empty) override;
  Result<Fp61> ReconstructField(
      const std::vector<IndexedShare>& shares) override;
  Result<Value> ReconstructColumnValue(const ColumnSpec& column,
                                       const std::vector<IndexedShare>& shares,
                                       int64_t* code_out) override;
  /// Reconstructs one row. `columns` names the (possibly projected)
  /// schema columns the stored cells correspond to; tags are verified only
  /// for unprojected reads (`full_row`).
  Result<std::vector<Value>> ReconstructStoredRow(
      const PlanTable& table, const std::vector<const ColumnSpec*>& columns,
      bool full_row,
      const std::vector<std::pair<size_t, const StoredRow*>>& provider_rows)
      override;
  Status ApplyLazyOverlay(const PlanTable& table, const Query& query,
                          QueryResult* result) override;
  void OnRowsReconstructed(uint64_t rows) override;
  void OnCorruptionRetry() override;
  void OnTraceFinalized(const QueryTrace& trace) override;

  /// Charges one metered request to `tenant`'s `ssdb_meter_*` series and
  /// the `tenant="_all"` aggregate stratum. No-op for empty tenants.
  void ChargeMeter(const std::string& tenant, uint64_t requests,
                   uint64_t bytes_sent, uint64_t bytes_received,
                   uint64_t rounds, uint64_t clock_us);

  // Lazy log.
  Status AppendLazy(LazyOp op);
  Result<bool> MatchesPlain(const TableSchema& schema,
                            const std::vector<Value>& row,
                            const std::vector<Predicate>& preds) const;

  Network* network_;
  std::vector<size_t> providers_;
  ClientOptions options_;
  /// Resolved topology (all fields concrete; shards * providers_per_shard
  /// == providers_.size()).
  Topology topology_;
  /// providers_ sliced into shard groups: shard_providers_[s][p] is the
  /// network index of group s's p-th provider (= share evaluation point p).
  std::vector<std::vector<size_t>> shard_providers_;
  SharingContext ctx_;
  std::vector<uint32_t> op_xs_;
  Rng rng_;
  Prf prf_det_;
  Prf prf_tag_;
  Prf prf_op_master_;

  uint32_t next_table_id_ = 1;
  std::map<std::string, TableInfo> tables_;
  std::map<std::string, PublicInfo> public_tables_;
  /// Guards lazy creation of op_schemes_ entries: concurrent batch queries
  /// rewriting range predicates may race to instantiate a domain's scheme.
  mutable std::mutex op_mu_;
  std::map<uint64_t, std::unique_ptr<OrderPreservingScheme>> op_schemes_;
  std::vector<LazyOp> lazy_log_;
  ProviderScoreboard scoreboard_;

  /// Guards out_providers_/pending_resync_ (read on every write fan-out;
  /// kill/restart drills may overlap a running workload).
  mutable std::mutex outage_mu_;
  /// Network indices with an open outage.
  std::set<size_t> out_providers_;
  /// Per-provider queue of missed mutating requests, in send order.
  std::map<size_t, std::vector<Buffer>> pending_resync_;

  /// Write rounds issued so far (one per SendWrites fan-out round).
  /// Metered mutations read its delta as their `rounds` charge.
  std::atomic<uint64_t> fanout_rounds_{0};

  // Telemetry. The registry/tracer live here (one per deployment); the
  // `ssdb_client_*` handles are cached at construction — the former
  // ClientStats atomics, now registry series.
  MetricsRegistry metrics_;
  Tracer tracer_;
  struct ClientMetrics {
    MetricCounter* queries;
    MetricCounter* rows_reconstructed;
    MetricCounter* corruption_retries;
    MetricCounter* lazy_flushes;
    MetricCounter* traced_bytes_sent;
    MetricCounter* traced_bytes_received;
    MetricCounter* traced_clock_us;
    MetricCounter* provider_legs;
    MetricCounter* plan_nodes_executed;
    MetricCounter* retry_legs;
    MetricCounter* hedged_legs;
    MetricCounter* deadline_exceeded;
    MetricCounter* breaker_skips;
  };
  ClientMetrics cm_;
};

}  // namespace ssdb

#endif  // SSDB_CLIENT_CLIENT_H_
