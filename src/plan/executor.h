// The Executor: walks a QueryPlan, issuing Network::CallManyDistinct
// fan-outs and Lagrange reconstruction through the PlanHost hooks.
//
// Execution is a faithful re-organization of the client's former
// monolithic query paths: the same per-provider rewrites, the same
// quorum fan-out with sequential replacement of failed legs, the same
// majority grouping and corruption-retry policy — so results, provider
// byte streams and virtual-clock totals are identical to the
// pre-plan-layer code. What is new is the QueryTrace: every plan node
// records the provider legs it issued, exact bytes up/down, the
// virtual-clock time charged, and row/share counters.

#ifndef SSDB_PLAN_EXECUTOR_H_
#define SSDB_PLAN_EXECUTOR_H_

#include <map>
#include <vector>

#include "plan/host.h"
#include "plan/plan.h"
#include "plan/trace.h"

namespace ssdb {

class Executor {
 public:
  explicit Executor(PlanHost* host) : host_(host) {}

  /// Tenant attribution stamped on every trace this executor finalizes
  /// (QueryTrace::tenant); empty = unattributed. The metering layer in
  /// the client reads it from OnTraceFinalized.
  void set_tenant(std::string tenant) { tenant_ = std::move(tenant); }

  /// Executes the plan; on success the QueryResult carries the trace.
  Result<QueryResult> Execute(const QueryPlan& plan);

  /// Executes many independent plans, coalescing compatible fan-outs into
  /// batch envelopes (net/batch.h): single-pipeline plans and join plans
  /// with matching quorum settings share one round trip per chunk of
  /// `PlanHost::batch_max_ops()` plans. Plans the fused path cannot carry
  /// (unions, lone chunks) and plans whose fused leg fails (partial-batch
  /// corruption, quorum loss) re-run individually through Execute's full
  /// retry ladder. Slot i holds plan i's result. `tenants[i]` is stamped
  /// on plan i's finalized trace (empty vector = the set_tenant stamp for
  /// every slot; otherwise sizes must match); a wave mixing tenants still
  /// fuses.
  std::vector<Result<QueryResult>> ExecuteBatch(
      const std::vector<const QueryPlan*>& plans,
      const std::vector<std::string>& tenants = {});

  /// One provider's successful response; `provider` is the client-local
  /// leg index (the share evaluation point index).
  struct ProviderResponse {
    size_t provider;
    std::vector<uint8_t> bytes;
  };

  /// Quorum fan-out shared with the client's management paths
  /// (RefreshTable): parallel fan-out to the first `desired` providers,
  /// then sequential replacement of failed legs; succeeds once at least
  /// `minimum` responses arrived (`minimum` = 0 means `desired`). When
  /// `trace` is non-null every leg and the clock advance are recorded.
  /// Every leg runs through the resilience layer (net/resilience.h):
  /// `policy` adds deadlines, backoff retries, hedged reads and breaker
  /// admission; the default policy reproduces the classic two-phase
  /// fan-out byte-for-byte. `order` overrides the contact order
  /// (planner's scoreboard ranking; empty = identity). When `registry`
  /// is non-null, retry/hedge legs and breaker skips are charged to the
  /// `ssdb_resilience_*` series, mirroring the trace's leg flags.
  static Result<std::vector<ProviderResponse>> CallQuorum(
      Network* network, const std::vector<size_t>& providers,
      const std::vector<Buffer>& requests, size_t desired, size_t minimum,
      PlanNodeTrace* trace, const ResiliencePolicy& policy = ResiliencePolicy(),
      ProviderScoreboard* board = nullptr,
      const std::vector<size_t>& order = {},
      MetricsRegistry* registry = nullptr);

 private:
  /// Scatter-gather over the plan's routed shard groups: one parallel
  /// fan-out round across every group (clock advanced once, by the
  /// globally slowest leg — charged to the ShardMerge root) when the
  /// resilience policy is disabled, else sequential per-group rounds
  /// through the full resilient path. Partial results merge client-side
  /// per plan.scatter_action.
  Result<QueryResult> RunScatter(const QueryPlan& plan, QueryTrace* trace);
  /// The client-side merge half of RunScatter; `parts[i]` is pipeline
  /// i's decoded result.
  Result<QueryResult> MergeScatter(const QueryPlan& plan,
                                   std::vector<QueryResult>* parts,
                                   QueryTrace* trace);
  /// Providers a pipeline fans out to: its shard group's list in a
  /// sharded plan, the flat provider list otherwise.
  const std::vector<size_t>& PipeProviders(const PipelinePlan& pipe) const;
  /// Stamps the pipeline's shard on its trace records (sharded plans
  /// only; 1-shard traces stay identical to the seed system).
  void StampShard(const PipelinePlan& pipe, QueryTrace* trace);
  Result<QueryResult> RunUnion(const QueryPlan& plan, QueryTrace* trace);
  /// Fused union: all active disjunct branches travel in one batch
  /// envelope per provider. Returns NotSupported when the plan cannot be
  /// fused (fewer than two active branches, mismatched branch quorums) or
  /// when an envelope round fails outright — the caller then falls back
  /// to the classic per-branch path.
  Result<QueryResult> RunUnionBatched(const QueryPlan& plan,
                                      QueryTrace* trace);
  /// One fused envelope round, shared by ExecuteBatch and
  /// RunUnionBatched: provider p's envelope carries `(*items[i])[p]` for
  /// every item i, all envelopes go out in one CallQuorum (legs and clock
  /// recorded on `trace`), and slot i of the result holds item i's
  /// sub-responses. A provider whose envelope does not parse is dropped
  /// for the whole round.
  Result<std::vector<std::vector<ProviderResponse>>> CallEnvelopes(
      const std::vector<size_t>& providers,
      const std::vector<const std::vector<Buffer>*>& items, size_t desired,
      size_t minimum, const std::vector<size_t>& order, PlanNodeTrace* trace);
  Result<QueryResult> RunPipelineWithRetry(const PipelinePlan& pipe,
                                           QueryTrace* trace);
  Result<QueryResult> RunPipeline(const PipelinePlan& pipe, size_t quorum,
                                  QueryTrace* trace);
  /// Builds the per-provider share-space requests; returns true when the
  /// predicates provably match nothing (no communication needed).
  Result<bool> BuildPipelineRequests(const PipelinePlan& pipe,
                                     std::vector<Buffer>* requests);
  /// The zero-communication result of a provably-empty pipeline: marks
  /// the pipeline's nodes executed with zero legs.
  Result<QueryResult> EmptyPipeline(const PipelinePlan& pipe,
                                    QueryTrace* trace);
  /// Response half of RunPipeline: majority-groups the (complete, header
  /// included) per-provider responses and evaluates the action.
  Result<QueryResult> DecodePipeline(
      const PipelinePlan& pipe,
      const std::vector<ProviderResponse>& responses, QueryTrace* trace);
  Result<QueryResult> RunFetch(const PipelinePlan& pipe,
                               const std::vector<ProviderResponse>& responses,
                               QueryTrace* trace);
  Result<QueryResult> RunJoin(const QueryPlan& plan, QueryTrace* trace);
  Result<bool> BuildJoinRequests(const QueryPlan& plan,
                                 std::vector<Buffer>* requests);
  Result<QueryResult> DecodeJoin(const QueryPlan& plan,
                                 const std::vector<ProviderResponse>& responses,
                                 QueryTrace* trace);
  Status ApplyOverlay(const PipelinePlan& pipe, QueryResult* result,
                      QueryTrace* trace);

  /// The trace record of `node` (skeleton built in Execute).
  PlanNodeTrace* Rec(const PlanNode* node, QueryTrace* trace);

  /// Charges the finished trace to the registry: per-kind query counter
  /// and clock histogram, per-node clock/row counters.
  void EmitQueryMetrics(const char* kind, const QueryTrace& trace);
  /// Lays out node/leg spans under `query_span` from the finished trace
  /// (pre-order depth-stack reproduces the plan tree's parentage).
  void EmitNodeSpans(const QueryTrace& trace, uint64_t query_span,
                     uint64_t query_start_us, Tracer* tracer);

  PlanHost* host_;
  std::map<const PlanNode*, size_t> record_index_;
  /// Stamped on finalized traces (set_tenant / per-plan batch tenants).
  std::string tenant_;
};

}  // namespace ssdb

#endif  // SSDB_PLAN_EXECUTOR_H_
