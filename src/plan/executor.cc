#include "plan/executor.h"

#include <algorithm>
#include <optional>
#include <tuple>
#include <unordered_map>

#include "common/hash.h"
#include "net/batch.h"

namespace ssdb {

namespace {

/// Signature of a response payload, used to majority-group providers that
/// agree on a result set.
uint64_t PayloadSignature(const std::vector<uint8_t>& bytes) {
  return Fnv1a64(Slice(bytes));
}

void RecordLeg(PlanNodeTrace* trace, size_t provider, uint64_t bytes_sent,
               uint64_t bytes_received, uint64_t round_trip_us, bool ok) {
  if (trace == nullptr) return;
  PlanLegTrace leg;
  leg.provider = static_cast<uint32_t>(provider);
  leg.bytes_sent = bytes_sent;
  leg.bytes_received = bytes_received;
  leg.round_trip_us = round_trip_us;
  leg.ok = ok;
  trace->legs.push_back(leg);
  trace->bytes_sent += bytes_sent;
  trace->bytes_received += bytes_received;
}

void BuildSkeleton(const PlanNode* node, int depth, QueryTrace* trace,
                   std::map<const PlanNode*, size_t>* index) {
  if (node == nullptr) return;
  PlanNodeTrace rec;
  rec.name = PlanNodeKindName(node->kind);
  rec.label = node->label;
  rec.depth = depth;
  (*index)[node] = trace->nodes.size();
  trace->nodes.push_back(std::move(rec));
  for (const auto& child : node->children) {
    BuildSkeleton(child.get(), depth + 1, trace, index);
  }
}

}  // namespace

PlanNodeTrace* Executor::Rec(const PlanNode* node, QueryTrace* trace) {
  if (node == nullptr) return nullptr;
  auto it = record_index_.find(node);
  if (it == record_index_.end()) return nullptr;
  return &trace->nodes[it->second];
}

const std::vector<size_t>& Executor::PipeProviders(
    const PipelinePlan& pipe) const {
  return pipe.sharded ? host_->shard_provider_indices(pipe.shard)
                      : host_->provider_indices();
}

void Executor::StampShard(const PipelinePlan& pipe, QueryTrace* trace) {
  if (!pipe.sharded) return;
  const int shard = static_cast<int>(pipe.shard);
  for (const PlanNode* node :
       {pipe.scan, pipe.reconstruct, pipe.aggregate, pipe.overlay}) {
    if (PlanNodeTrace* rec = Rec(node, trace)) rec->shard = shard;
  }
}

Result<std::vector<Executor::ProviderResponse>> Executor::CallQuorum(
    Network* network, const std::vector<size_t>& providers,
    const std::vector<Buffer>& requests, size_t desired, size_t minimum,
    PlanNodeTrace* trace, const ResiliencePolicy& policy,
    ProviderScoreboard* board, const std::vector<size_t>& order,
    MetricsRegistry* registry) {
  const uint64_t start_us = network->clock().now_us();
  QuorumResult q = RunResilientQuorum(network, providers, requests, desired,
                                      minimum, order, policy, board);
  if (trace != nullptr) {
    if (trace->round_trips == 0) trace->clock_start_us = start_us;
    trace->round_trips += q.fanout_rounds;
    trace->clock_us += q.clock_advance_us;
    trace->hedged += q.hedges;
    trace->breaker_skips += q.breaker_skips;
    for (const ResilientLeg& leg : q.legs) {
      RecordLeg(trace, leg.provider, leg.bytes_sent, leg.bytes_received,
                leg.round_trip_us, leg.ok);
      PlanLegTrace& rec = trace->legs.back();
      rec.attempt = leg.attempt;
      rec.hedge = leg.hedge;
      rec.deadline_exceeded = leg.deadline_exceeded;
      if (leg.attempt > 1) trace->attempts++;
      if (leg.deadline_exceeded) trace->deadline_exceeded++;
    }
  }
  if (registry != nullptr) {
    for (const ResilientLeg& leg : q.legs) {
      const MetricLabels by_provider = {
          {"provider", std::to_string(leg.provider)}};
      if (leg.attempt > 1) {
        registry->GetCounter("ssdb_resilience_retry_legs_total", by_provider)
            ->Inc();
      }
      if (leg.hedge) {
        registry->GetCounter("ssdb_resilience_hedge_legs_total", by_provider)
            ->Inc();
      }
    }
    if (q.breaker_skips) {
      // Skipped providers never became legs, so the trace cannot name
      // them; the counter is therefore unlabelled.
      registry->GetCounter("ssdb_resilience_breaker_skips_total")
          ->Inc(q.breaker_skips);
    }
  }
  if (!q.status.ok()) return q.status;
  std::vector<ProviderResponse> ok;
  ok.reserve(q.responses.size());
  for (QuorumResult::Response& r : q.responses) {
    ok.push_back(ProviderResponse{r.slot, std::move(r.bytes)});
  }
  return ok;
}

namespace {

/// Query taxonomy for the `{kind}` metric label and the query span name.
const char* QueryKindName(const QueryPlan& plan) {
  if (plan.is_join) return "join";
  if (plan.is_union) return "union";
  // A scattered MEDIAN runs per-shard fetch pipelines; the logical kind
  // is still the scatter action.
  switch (plan.is_scatter ? plan.scatter_action
                          : plan.pipelines.front().action) {
    case QueryAction::kFetchRows: return "fetch";
    case QueryAction::kFetchRowIds: return "fetch_ids";
    case QueryAction::kCount: return "count";
    case QueryAction::kPartialSum: return "sum";
    case QueryAction::kArgMin: return "argmin";
    case QueryAction::kArgMax: return "argmax";
    case QueryAction::kMedian: return "median";
    case QueryAction::kGroupedSum: return "grouped_sum";
  }
  return "unknown";
}

}  // namespace

Result<QueryResult> Executor::Execute(const QueryPlan& plan) {
  QueryTrace trace;
  record_index_.clear();
  BuildSkeleton(plan.root.get(), 0, &trace, &record_index_);

  // The query span brackets live execution on this thread (breaker
  // events fired mid-query attach to it); node/leg spans are laid out
  // post-hoc from the finished trace, whose clock figures are exact.
  const char* kind = QueryKindName(plan);
  Tracer* tracer = host_->tracer();
  uint64_t query_span = 0;
  uint64_t query_start_us = 0;
  if (tracer != nullptr && tracer->enabled()) {
    query_start_us = host_->network()->clock().now_us();
    query_span = tracer->StartSpan(std::string("query:") + kind, "query",
                                   query_start_us);
  }

  Result<QueryResult> result =
      plan.is_join      ? RunJoin(plan, &trace)
      : plan.is_scatter ? RunScatter(plan, &trace)
      : plan.is_union   ? RunUnion(plan, &trace)
                        : RunPipelineWithRetry(plan.pipelines.front(), &trace);

  if (query_span != 0) {
    EmitNodeSpans(trace, query_span, query_start_us, tracer);
    tracer->EndSpan(query_span, host_->network()->clock().now_us());
  }
  if (result.ok()) {
    trace.tenant = tenant_;
    host_->OnTraceFinalized(trace);
    EmitQueryMetrics(kind, trace);
    result->trace = std::move(trace);
  }
  return result;
}

void Executor::EmitQueryMetrics(const char* kind, const QueryTrace& trace) {
  MetricsRegistry* registry = host_->metrics();
  if (registry == nullptr) return;
  const MetricLabels by_kind = {{"kind", kind}};
  registry->GetCounter("ssdb_query_total", by_kind)->Inc();
  registry->GetHistogram("ssdb_query_clock_us", by_kind)
      ->Observe(trace.total_clock_us());
  for (const PlanNodeTrace& node : trace.nodes) {
    if (!node.executed) continue;
    const MetricLabels by_node = {{"node", node.name}};
    registry->GetCounter("ssdb_plan_node_clock_us_total", by_node)
        ->Inc(node.clock_us);
    registry->GetCounter("ssdb_plan_node_rows_scanned_total", by_node)
        ->Inc(node.rows_scanned);
  }
}

void Executor::EmitNodeSpans(const QueryTrace& trace, uint64_t query_span,
                             uint64_t query_start_us, Tracer* tracer) {
  // Pre-order + depth reproduces the plan tree: the innermost ancestor
  // on the depth stack is the parent. A node that never contacted a
  // provider inherits its parent's start time (it did no clocked work).
  struct Frame {
    int depth;
    uint64_t span;
    uint64_t ts;
  };
  std::vector<Frame> stack;
  for (const PlanNodeTrace& node : trace.nodes) {
    while (!stack.empty() && stack.back().depth >= node.depth) {
      stack.pop_back();
    }
    const uint64_t parent = stack.empty() ? query_span : stack.back().span;
    const uint64_t parent_ts =
        stack.empty() ? query_start_us : stack.back().ts;
    const uint64_t ts =
        node.clock_start_us != 0 ? node.clock_start_us : parent_ts;
    const uint64_t span = tracer->AddSpan(
        "node:" + node.name, "node", ts, node.clock_us, parent,
        {{"label", node.label},
         {"executed", node.executed ? "1" : "0"},
         {"rows_scanned", std::to_string(node.rows_scanned)},
         {"rows_reconstructed", std::to_string(node.rows_reconstructed)},
         {"shares_used", std::to_string(node.shares_used)}});
    for (const PlanLegTrace& leg : node.legs) {
      // Legs are placed at the node's start with their modelled round
      // trip as duration: in the cost model every leg of a fan-out round
      // departs when the round does.
      tracer->AddSpan(
          "leg:p" + std::to_string(leg.provider), "leg", ts,
          leg.round_trip_us, span,
          {{"provider", std::to_string(leg.provider)},
           {"ok", leg.ok ? "1" : "0"},
           {"attempt", std::to_string(leg.attempt)},
           {"hedge", leg.hedge ? "1" : "0"},
           {"deadline_exceeded", leg.deadline_exceeded ? "1" : "0"},
           {"bytes_sent", std::to_string(leg.bytes_sent)},
           {"bytes_received", std::to_string(leg.bytes_received)}});
    }
    stack.push_back(Frame{node.depth, span, ts});
  }
}

Result<std::vector<std::vector<Executor::ProviderResponse>>>
Executor::CallEnvelopes(const std::vector<size_t>& providers,
                        const std::vector<const std::vector<Buffer>*>& items,
                        size_t desired, size_t minimum,
                        const std::vector<size_t>& order,
                        PlanNodeTrace* trace) {
  // The resilience layer treats each envelope as a single call (deadline,
  // retries, hedging and the scoreboard all charge one request).
  const size_t span = items.size();
  std::vector<Buffer> envelopes(providers.size());
  for (size_t p = 0; p < providers.size(); ++p) {
    std::vector<Slice> ops;
    ops.reserve(span);
    for (const std::vector<Buffer>* item : items) {
      ops.push_back((*item)[p].AsSlice());
    }
    EncodeBatchRequest(ops, &envelopes[p]);
    ChargeBatchEnvelope(host_->metrics(), span);
  }
  SSDB_ASSIGN_OR_RETURN(
      std::vector<ProviderResponse> responses,
      CallQuorum(host_->network(), providers, envelopes, desired, minimum,
                 trace, host_->resilience(), host_->scoreboard(), order,
                 host_->metrics()));

  // A provider whose envelope does not parse is dropped for the whole
  // round: its sub-responses are untrustworthy.
  std::vector<std::vector<ProviderResponse>> per_item(span);
  for (const ProviderResponse& r : responses) {
    Decoder dec(Slice(r.bytes));
    if (!DecodeResponseHeader(&dec).ok()) continue;
    std::vector<Slice> subs;
    if (!DecodeBatchResponsePayload(&dec, &subs).ok()) continue;
    if (subs.size() != span) continue;
    for (size_t i = 0; i < span; ++i) {
      per_item[i].push_back(ProviderResponse{
          r.provider, std::vector<uint8_t>(subs[i].data(),
                                           subs[i].data() + subs[i].size())});
    }
  }
  return per_item;
}

std::vector<Result<QueryResult>> Executor::ExecuteBatch(
    const std::vector<const QueryPlan*>& plans,
    const std::vector<std::string>& tenants) {
  // Per-slot attribution; falls back to the executor-wide set_tenant
  // stamp when the caller passed no per-plan tenants.
  auto tenant_of = [&](size_t slot) -> const std::string& {
    return slot < tenants.size() ? tenants[slot] : tenant_;
  };
  std::vector<std::optional<Result<QueryResult>>> slots(plans.size());
  const size_t batch_max = host_->batch_max_ops();
  Tracer* tracer = host_->tracer();

  // Plans the envelope cannot carry — unions (they batch internally),
  // provably-empty fan-outs, lone chunk remainders — and every fused leg
  // that fails run individually at the end, where Execute may freely
  // rebuild the node->trace index.
  std::vector<size_t> individual;
  std::vector<QueryTrace> traces(plans.size());
  record_index_.clear();

  struct Item {
    size_t slot;
    std::vector<Buffer> requests;  // per provider
  };
  // Only identical fan-outs can share an envelope: group by (join?,
  // shard group, desired, minimum, contact order).
  std::map<std::tuple<bool, size_t, size_t, size_t, std::vector<size_t>>,
           std::vector<Item>>
      groups;
  for (size_t i = 0; i < plans.size(); ++i) {
    const QueryPlan& plan = *plans[i];
    // Scatter plans and multi-shard joins fan out to several shard
    // groups at once; they run individually where Execute owns the
    // cross-group orchestration.
    if (batch_max < 2 || plan.is_union || plan.is_scatter ||
        (plan.is_join && plan.shards > 1)) {
      individual.push_back(i);
      continue;
    }
    BuildSkeleton(plan.root.get(), 0, &traces[i], &record_index_);
    std::vector<Buffer> requests;
    Result<bool> always_empty =
        plan.is_join
            ? BuildJoinRequests(plan, &requests)
            : BuildPipelineRequests(plan.pipelines.front(), &requests);
    if (!always_empty.ok() || *always_empty) {
      individual.push_back(i);  // zero communication or an error: run plain
      continue;
    }
    const size_t desired = plan.is_join
                               ? plan.join.quorum_desired
                               : plan.pipelines.front().quorum_desired;
    const size_t minimum = plan.is_join ? plan.join.quorum_min
                                        : plan.pipelines.front().quorum_min;
    const std::vector<size_t>& order =
        plan.is_join ? plan.join.quorum_order
                     : plan.pipelines.front().quorum_order;
    const size_t shard =
        plan.is_join ? 0 : plan.pipelines.front().shard;
    groups[{plan.is_join, shard, desired, minimum, order}].push_back(
        Item{i, std::move(requests)});
  }

  const auto fanout_node = [](const QueryPlan& p) -> const PlanNode* {
    return p.is_join ? p.join.join : p.pipelines.front().scan;
  };
  for (auto& [key, items] : groups) {
    const std::vector<size_t>& providers =
        host_->shard_provider_indices(std::get<1>(key));
    const size_t desired = std::get<2>(key);
    const size_t minimum = std::get<3>(key);
    const std::vector<size_t>& order = std::get<4>(key);
    for (size_t begin = 0; begin < items.size(); begin += batch_max) {
      const size_t end = std::min(items.size(), begin + batch_max);
      const size_t span = end - begin;
      if (span == 1) {
        individual.push_back(items[begin].slot);
        continue;
      }

      std::vector<const std::vector<Buffer>*> chunk;
      chunk.reserve(span);
      for (size_t j = begin; j < end; ++j) chunk.push_back(&items[j].requests);
      // Legs and clock are recorded once, on the first plan's fan-out
      // node: the envelope's bytes belong to exactly one trace so the
      // per-provider totals still reconcile with ChannelStats.
      const size_t lead_slot = items[begin].slot;
      PlanNodeTrace* lead_rec =
          Rec(fanout_node(*plans[lead_slot]), &traces[lead_slot]);
      const uint64_t start_us = host_->network()->clock().now_us();
      Result<std::vector<std::vector<ProviderResponse>>> per_item =
          CallEnvelopes(providers, chunk, desired, minimum, order, lead_rec);
      if (!per_item.ok()) {
        for (size_t j = begin; j < end; ++j) {
          individual.push_back(items[j].slot);
        }
        continue;
      }

      for (size_t j = 0; j < span; ++j) {
        const size_t slot = items[begin + j].slot;
        const QueryPlan& plan = *plans[slot];
        QueryTrace* trace = &traces[slot];
        if (PlanNodeTrace* rec = Rec(fanout_node(plan), trace)) {
          rec->executed = true;
        }
        if (!plan.is_join) StampShard(plan.pipelines.front(), trace);
        const std::vector<ProviderResponse>& responses = (*per_item)[j];
        Result<QueryResult> part =
            plan.is_join
                ? DecodeJoin(plan, responses, trace)
                : DecodePipeline(plan.pipelines.front(), responses, trace);
        if (part.ok() && !plan.is_join) {
          const Status st =
              ApplyOverlay(plan.pipelines.front(), &part.value(), trace);
          if (!st.ok()) part = st;
        }
        if (!part.ok()) {
          const Status& st = part.status();
          if (st.IsNotFound() || st.IsNotSupported() ||
              st.IsInvalidArgument()) {
            // The query's own fault; re-running cannot change the answer.
            slots[slot] = std::move(part);
          } else {
            // Partial-batch failure (corruption, quorum loss): this plan
            // alone re-runs through Execute's full retry ladder.
            individual.push_back(slot);
          }
          continue;
        }
        const char* kind = QueryKindName(plan);
        if (tracer != nullptr && tracer->enabled()) {
          const uint64_t span_id =
              tracer->StartSpan(std::string("query:") + kind, "query",
                                start_us);
          EmitNodeSpans(*trace, span_id, start_us, tracer);
          tracer->EndSpan(span_id, host_->network()->clock().now_us());
        }
        trace->tenant = tenant_of(slot);
        host_->OnTraceFinalized(*trace);
        EmitQueryMetrics(kind, *trace);
        part->trace = std::move(*trace);
        slots[slot] = std::move(part);
      }
    }
  }

  std::sort(individual.begin(), individual.end());
  const std::string saved_tenant = tenant_;
  for (size_t slot : individual) {
    tenant_ = tenant_of(slot);
    slots[slot] = Execute(*plans[slot]);
  }
  tenant_ = saved_tenant;
  std::vector<Result<QueryResult>> out;
  out.reserve(plans.size());
  for (auto& s : slots) {
    if (s.has_value()) {
      out.push_back(std::move(*s));
    } else {
      out.push_back(Status::Internal("client: batch plan not executed"));
    }
  }
  return out;
}

Result<QueryResult> Executor::RunUnion(const QueryPlan& plan,
                                       QueryTrace* trace) {
  // One sub-query per disjunct (conjuncts are applied to each); results
  // are unioned by row id, first branch winning on duplicates. With
  // coalescing enabled the branches share one envelope round trip per
  // provider instead of one fan-out each.
  if (host_->batch_max_ops() >= 2 && plan.pipelines.size() >= 2) {
    Result<QueryResult> fused = RunUnionBatched(plan, trace);
    if (fused.ok() || !fused.status().IsNotSupported()) return fused;
    // NotSupported = the plan cannot travel as one envelope (or the
    // envelope round failed outright): classic per-branch path below.
  }
  std::map<uint64_t, std::vector<Value>> merged;
  for (const PipelinePlan& pipe : plan.pipelines) {
    SSDB_ASSIGN_OR_RETURN(QueryResult part, RunPipelineWithRetry(pipe, trace));
    for (size_t i = 0; i < part.rows.size(); ++i) {
      merged.emplace(part.row_ids[i], std::move(part.rows[i]));
    }
  }
  QueryResult out;
  for (auto& [id, row] : merged) {
    out.row_ids.push_back(id);
    out.rows.push_back(std::move(row));
  }
  out.count = out.rows.size();
  if (PlanNodeTrace* rec = Rec(plan.root.get(), trace)) {
    rec->executed = true;
    rec->rows_reconstructed = out.rows.size();
  }
  return out;
}

Result<QueryResult> Executor::RunUnionBatched(const QueryPlan& plan,
                                              QueryTrace* trace) {
  const size_t batch_max = host_->batch_max_ops();

  // Build every branch's per-provider requests up front; provably-empty
  // branches complete with zero communication and contribute no rows.
  std::vector<const PipelinePlan*> active;
  std::vector<std::vector<Buffer>> branch_requests;
  for (const PipelinePlan& pipe : plan.pipelines) {
    std::vector<Buffer> reqs;
    SSDB_ASSIGN_OR_RETURN(bool branch_empty,
                          BuildPipelineRequests(pipe, &reqs));
    if (branch_empty) {
      SSDB_RETURN_IF_ERROR(EmptyPipeline(pipe, trace).status());
      continue;
    }
    active.push_back(&pipe);
    branch_requests.push_back(std::move(reqs));
  }
  if (active.size() < 2) {
    return Status::NotSupported("batch: too few active union branches");
  }
  const PipelinePlan* lead = active.front();
  for (const PipelinePlan* pipe : active) {
    if (pipe->quorum_desired != lead->quorum_desired ||
        pipe->quorum_min != lead->quorum_min ||
        pipe->quorum_order != lead->quorum_order) {
      return Status::NotSupported("batch: union branch quorums differ");
    }
    // A batch envelope travels to exactly one shard group's providers;
    // branches routed to different groups fall back to per-branch
    // fan-outs.
    if (pipe->shard != lead->shard) {
      return Status::NotSupported("batch: union branches span shard groups");
    }
  }
  const std::vector<size_t>& providers = PipeProviders(*lead);

  PlanNodeTrace* root_rec = Rec(plan.root.get(), trace);
  std::map<uint64_t, std::vector<Value>> merged;
  for (size_t begin = 0; begin < active.size(); begin += batch_max) {
    const size_t end = std::min(active.size(), begin + batch_max);
    const size_t span = end - begin;
    if (span == 1) {
      // A lone trailing branch gains nothing from an envelope.
      SSDB_ASSIGN_OR_RETURN(QueryResult part,
                            RunPipelineWithRetry(*active[begin], trace));
      for (size_t i = 0; i < part.rows.size(); ++i) {
        merged.emplace(part.row_ids[i], std::move(part.rows[i]));
      }
      continue;
    }

    std::vector<const std::vector<Buffer>*> chunk;
    chunk.reserve(span);
    for (size_t b = begin; b < end; ++b) chunk.push_back(&branch_requests[b]);
    Result<std::vector<std::vector<ProviderResponse>>> per_branch =
        CallEnvelopes(providers, chunk, lead->quorum_desired,
                      lead->quorum_min, lead->quorum_order, root_rec);
    if (!per_branch.ok()) {
      // Envelope round lost: let the caller fall back to the classic
      // per-branch path with its own retry ladder.
      return Status::NotSupported("batch: union envelope round failed");
    }

    for (size_t b = 0; b < span; ++b) {
      const PipelinePlan& pipe = *active[begin + b];
      StampShard(pipe, trace);
      if (PlanNodeTrace* rec = Rec(pipe.scan, trace)) rec->executed = true;
      Result<QueryResult> part =
          DecodePipeline(pipe, (*per_branch)[b], trace);
      // Partial-batch failures retry at sub-batch granularity: only the
      // affected branch re-runs, individually, at the widest quorum —
      // mirroring RunPipelineWithRetry's ladder.
      if (!part.ok() && part.status().IsUnavailable() &&
          host_->resilience().enabled() &&
          pipe.quorum_desired < host_->num_providers()) {
        host_->metrics()->GetCounter("ssdb_plan_replans_total")->Inc();
        part = RunPipeline(pipe, host_->num_providers(), trace);
      }
      if (!part.ok() && part.status().IsCorruption() &&
          host_->threshold_k() < host_->num_providers()) {
        host_->OnCorruptionRetry();
        part = RunPipeline(pipe, host_->num_providers(), trace);
      }
      if (!part.ok()) return part.status();
      SSDB_RETURN_IF_ERROR(ApplyOverlay(pipe, &part.value(), trace));
      for (size_t i = 0; i < part->rows.size(); ++i) {
        merged.emplace(part->row_ids[i], std::move(part->rows[i]));
      }
    }
  }

  QueryResult out;
  for (auto& [id, row] : merged) {
    out.row_ids.push_back(id);
    out.rows.push_back(std::move(row));
  }
  out.count = out.rows.size();
  if (root_rec != nullptr) {
    root_rec->executed = true;
    root_rec->rows_reconstructed = out.rows.size();
  }
  return out;
}

Status Executor::ApplyOverlay(const PipelinePlan& pipe, QueryResult* result,
                              QueryTrace* trace) {
  // The host no-ops when the log is empty or the query aggregates, so
  // this mirrors the former unconditional ApplyLazyToResult call even
  // when the planner emitted no overlay node.
  SSDB_RETURN_IF_ERROR(
      host_->ApplyLazyOverlay(pipe.table, pipe.query, result));
  if (PlanNodeTrace* rec = Rec(pipe.overlay, trace)) {
    rec->executed = true;
    rec->rows_reconstructed = result->rows.size();
  }
  return Status::OK();
}

Result<QueryResult> Executor::RunPipelineWithRetry(const PipelinePlan& pipe,
                                                   QueryTrace* trace) {
  Result<QueryResult> first = RunPipeline(pipe, pipe.quorum_desired, trace);
  if (!first.ok() && first.status().IsUnavailable() &&
      host_->resilience().enabled() &&
      pipe.quorum_desired < host_->num_providers()) {
    // Graceful degradation: too few providers answered the preferred
    // quorum (breaker skips, flapping links). Re-plan once with the
    // widest quorum — the breaker still gates every contact.
    host_->metrics()->GetCounter("ssdb_plan_replans_total")->Inc();
    first = RunPipeline(pipe, host_->num_providers(), trace);
  }
  if (first.ok() || !first.status().IsCorruption() ||
      host_->threshold_k() == host_->num_providers()) {
    if (first.ok()) {
      SSDB_RETURN_IF_ERROR(ApplyOverlay(pipe, &first.value(), trace));
    }
    return first;
  }
  // A corrupt or inconsistent quorum: retry once against every provider,
  // letting the consistency checks localize the bad one.
  host_->OnCorruptionRetry();
  Result<QueryResult> retry =
      RunPipeline(pipe, host_->num_providers(), trace);
  if (retry.ok()) {
    SSDB_RETURN_IF_ERROR(ApplyOverlay(pipe, &retry.value(), trace));
  }
  return retry;
}

Result<bool> Executor::BuildPipelineRequests(const PipelinePlan& pipe,
                                             std::vector<Buffer>* requests) {
  // One request per share evaluation point; the rewrites depend only on
  // the point, so the same vector serves any shard group.
  const size_t num_providers = host_->num_providers();
  const TableSchema& schema = *pipe.table.schema;

  // Rewrite per provider (§V.A).
  requests->clear();
  requests->resize(num_providers);
  bool always_empty = false;
  for (size_t p = 0; p < num_providers; ++p) {
    QueryRequest q;
    q.table_id = pipe.table.id;
    q.action = pipe.action;
    q.target_column = pipe.target_column;
    q.group_column = pipe.group_column;
    q.projection = pipe.projection;
    for (const Predicate& pred : pipe.query.predicates()) {
      SSDB_ASSIGN_OR_RETURN(
          SharePredicate sp,
          host_->RewriteForProvider(schema, pred, p, &always_empty));
      if (always_empty) break;
      q.predicates.push_back(sp);
    }
    if (always_empty) break;
    EncodeQuery(q, &(*requests)[p]);
  }
  return always_empty;
}

Result<QueryResult> Executor::EmptyPipeline(const PipelinePlan& pipe,
                                            QueryTrace* trace) {
  // Provably no matches; zero communication. A median over nothing has no
  // defined value, so it reports the empty set instead of a silent zero.
  if (pipe.action == QueryAction::kMedian) {
    return Status::NotFound("client: MEDIAN over an empty result set");
  }
  // The whole pipeline still "ran" (trivially) for trace purposes.
  StampShard(pipe, trace);
  if (PlanNodeTrace* rec = Rec(pipe.scan, trace)) rec->executed = true;
  if (PlanNodeTrace* rec = Rec(pipe.aggregate, trace)) rec->executed = true;
  if (PlanNodeTrace* rec = Rec(pipe.reconstruct, trace)) rec->executed = true;
  return QueryResult();
}

Result<QueryResult> Executor::RunPipeline(const PipelinePlan& pipe,
                                          size_t quorum, QueryTrace* trace) {
  const std::vector<size_t>& providers = PipeProviders(pipe);
  StampShard(pipe, trace);
  PlanNodeTrace* scan_rec = Rec(pipe.scan, trace);

  std::vector<Buffer> requests;
  SSDB_ASSIGN_OR_RETURN(bool always_empty,
                        BuildPipelineRequests(pipe, &requests));
  if (always_empty) return EmptyPipeline(pipe, trace);

  SSDB_ASSIGN_OR_RETURN(
      std::vector<ProviderResponse> responses,
      CallQuorum(host_->network(), providers, requests, quorum,
                 pipe.quorum_min, scan_rec, host_->resilience(),
                 host_->scoreboard(), pipe.quorum_order, host_->metrics()));
  if (scan_rec != nullptr) scan_rec->executed = true;
  return DecodePipeline(pipe, responses, trace);
}

Result<QueryResult> Executor::DecodePipeline(
    const PipelinePlan& pipe, const std::vector<ProviderResponse>& responses,
    QueryTrace* trace) {
  const TableSchema& schema = *pipe.table.schema;
  PlanNodeTrace* agg_rec = Rec(pipe.aggregate, trace);

  switch (pipe.action) {
    case QueryAction::kCount: {
      // Majority-group identical payloads to tolerate corrupt responses.
      std::unordered_map<uint64_t, std::vector<size_t>> groups;
      for (size_t i = 0; i < responses.size(); ++i) {
        groups[PayloadSignature(responses[i].bytes)].push_back(i);
      }
      std::vector<size_t> best;
      for (auto& [sig, members] : groups) {
        if (members.size() > best.size()) best = members;
      }
      // Require a strict majority (or unanimity) of the responses; a
      // split vote means someone is corrupt and triggers the wider retry.
      if (best.size() != responses.size() &&
          best.size() * 2 <= responses.size()) {
        return Status::Corruption("client: providers disagree on the count");
      }
      const auto& r = responses[best.front()];
      Decoder dec(Slice(r.bytes));
      SSDB_RETURN_IF_ERROR(DecodeResponseHeader(&dec));
      QueryResult out;
      SSDB_RETURN_IF_ERROR(DecodeCountResponse(&dec, &out.count));
      out.aggregate_int = static_cast<int64_t>(out.count);
      if (agg_rec != nullptr) {
        agg_rec->executed = true;
        agg_rec->shares_used = best.size();
      }
      return out;
    }
    case QueryAction::kPartialSum: {
      // Sum shares legitimately differ per provider; only counts must
      // agree.
      std::vector<IndexedShare> sum_shares;
      std::vector<uint64_t> counts;
      for (const auto& r : responses) {
        Decoder dec(Slice(r.bytes));
        Status st = DecodeResponseHeader(&dec);
        if (!st.ok()) continue;
        PartialAggregate agg;
        if (!DecodeAggResponse(&dec, &agg).ok()) continue;
        sum_shares.push_back(
            IndexedShare{r.provider, Fp61::FromCanonical(agg.sum_share)});
        counts.push_back(agg.count);
      }
      if (sum_shares.size() < host_->threshold_k()) {
        return Status::Unavailable("client: too few aggregate responses");
      }
      // Majority count.
      std::sort(counts.begin(), counts.end());
      const uint64_t count = counts[counts.size() / 2];
      SSDB_ASSIGN_OR_RETURN(Fp61 sum_w, host_->ReconstructField(sum_shares));
      const ColumnSpec& col = schema.columns[pipe.target_column];
      SSDB_ASSIGN_OR_RETURN(OpDomain dom, col.CodeDomain());
      QueryResult out;
      out.count = count;
      out.aggregate_int = static_cast<int64_t>(sum_w.value()) +
                          static_cast<int64_t>(count) * dom.lo;
      out.aggregate_double = count == 0
                                 ? 0.0
                                 : static_cast<double>(out.aggregate_int) /
                                       static_cast<double>(count);
      if (agg_rec != nullptr) {
        agg_rec->executed = true;
        agg_rec->shares_used = sum_shares.size();
        agg_rec->rows_reconstructed = 1;
      }
      return out;
    }
    case QueryAction::kGroupedSum: {
      // Zip the per-provider group lists (ordered by representative row
      // id at every provider) and reconstruct key + sum per group.
      struct ParsedGroups {
        size_t provider;
        std::vector<GroupPartial> groups;
      };
      std::vector<ParsedGroups> parsed;
      for (const auto& r : responses) {
        Decoder dec(Slice(r.bytes));
        Status st = DecodeResponseHeader(&dec);
        if (!st.ok()) {
          if (st.IsNotSupported() || st.IsInvalidArgument()) return st;
          continue;
        }
        ParsedGroups p;
        p.provider = r.provider;
        if (!DecodeGroupedAggResponse(&dec, &p.groups).ok()) continue;
        parsed.push_back(std::move(p));
      }
      if (parsed.size() < host_->threshold_k()) {
        return Status::Unavailable("client: too few grouped responses");
      }
      const size_t num_groups = parsed.front().groups.size();
      for (const auto& p : parsed) {
        if (p.groups.size() != num_groups) {
          return Status::Corruption(
              "client: providers disagree on the group count");
        }
      }
      const ColumnSpec& key_col = schema.columns[pipe.group_column];
      const ColumnSpec& sum_col = schema.columns[pipe.target_column];
      SSDB_ASSIGN_OR_RETURN(OpDomain sum_dom, sum_col.CodeDomain());
      QueryResult out;
      for (size_t g = 0; g < num_groups; ++g) {
        std::vector<IndexedShare> key_shares, sum_shares;
        uint64_t count = parsed.front().groups[g].count;
        for (const auto& p : parsed) {
          const GroupPartial& gp = p.groups[g];
          if (gp.rep_row_id != parsed.front().groups[g].rep_row_id ||
              gp.count != count) {
            return Status::Corruption(
                "client: providers disagree on a group's membership");
          }
          key_shares.push_back(
              IndexedShare{p.provider, Fp61::FromCanonical(gp.key_share)});
          sum_shares.push_back(
              IndexedShare{p.provider, Fp61::FromCanonical(gp.sum_share)});
        }
        GroupResult group;
        group.rep_row_id = parsed.front().groups[g].rep_row_id;
        SSDB_ASSIGN_OR_RETURN(
            group.key,
            host_->ReconstructColumnValue(key_col, key_shares, nullptr));
        SSDB_ASSIGN_OR_RETURN(Fp61 sum_w, host_->ReconstructField(sum_shares));
        group.count = count;
        group.sum = static_cast<int64_t>(sum_w.value()) +
                    static_cast<int64_t>(count) * sum_dom.lo;
        group.average = count == 0 ? 0.0
                                   : static_cast<double>(group.sum) /
                                         static_cast<double>(count);
        out.count += count;
        out.groups.push_back(std::move(group));
      }
      if (agg_rec != nullptr) {
        agg_rec->executed = true;
        agg_rec->shares_used = parsed.size();
        agg_rec->rows_reconstructed = num_groups;
      }
      return out;
    }
    case QueryAction::kFetchRows:
    case QueryAction::kArgMin:
    case QueryAction::kArgMax:
    case QueryAction::kMedian: {
      SSDB_ASSIGN_OR_RETURN(QueryResult out,
                            RunFetch(pipe, responses, trace));
      if (pipe.action == QueryAction::kMedian && out.rows.empty()) {
        // No matching rows: the median is undefined, and silently
        // returning aggregate 0 would be indistinguishable from a real
        // median of zero.
        return Status::NotFound("client: MEDIAN over an empty result set");
      }
      if (pipe.action != QueryAction::kFetchRows && !out.rows.empty()) {
        // With projection the aggregate column may sit at a new position;
        // find it in the result columns.
        size_t pos = pipe.result_columns.size();
        for (size_t c = 0; c < pipe.result_columns.size(); ++c) {
          if (pipe.result_columns[c] ==
              &schema.columns[pipe.target_column]) {
            pos = c;
          }
        }
        if (pos < pipe.result_columns.size()) {
          SSDB_ASSIGN_OR_RETURN(
              int64_t code,
              pipe.result_columns[pos]->EncodeToCode(out.rows.front()[pos]));
          out.aggregate_int = code;
          out.aggregate_double = static_cast<double>(code);
        }
      }
      out.count = out.rows.size();
      if (agg_rec != nullptr) agg_rec->executed = true;
      return out;
    }
    case QueryAction::kFetchRowIds:
      break;
  }
  return Status::Internal("client: unhandled action");
}

Result<QueryResult> Executor::RunFetch(
    const PipelinePlan& pipe, const std::vector<ProviderResponse>& responses,
    QueryTrace* trace) {
  PlanNodeTrace* scan_rec = Rec(pipe.scan, trace);
  PlanNodeTrace* rec_rec = Rec(pipe.reconstruct, trace);
  // Decode rows per provider; majority-group by the row id sequence.
  struct Parsed {
    size_t provider;
    std::vector<StoredRow> rows;
  };
  std::vector<Parsed> parsed;
  for (const auto& r : responses) {
    Decoder dec(Slice(r.bytes));
    Status st = DecodeResponseHeader(&dec);
    if (!st.ok()) {
      if (st.IsNotSupported() || st.IsInvalidArgument() || st.IsNotFound()) {
        return st;  // a semantic error is the query's fault, not noise
      }
      continue;
    }
    Parsed p;
    p.provider = r.provider;
    if (!DecodeRowsResponse(&dec, pipe.response_layout, &p.rows).ok()) {
      continue;
    }
    if (scan_rec != nullptr) scan_rec->rows_scanned += p.rows.size();
    parsed.push_back(std::move(p));
  }

  std::unordered_map<uint64_t, std::vector<size_t>> groups;
  for (size_t i = 0; i < parsed.size(); ++i) {
    uint64_t sig = kFnv1a64Init;
    for (const StoredRow& row : parsed[i].rows) {
      sig = Fnv1a64FoldU64(sig, row.row_id);
    }
    groups[sig].push_back(i);
  }
  std::vector<size_t> best;
  for (auto& [sig, members] : groups) {
    if (members.size() > best.size()) best = members;
  }
  if (best.size() < host_->threshold_k()) {
    return Status::Corruption(
        "client: providers disagree on the matching row set");
  }

  const std::vector<StoredRow>& reference = parsed[best.front()].rows;
  QueryResult out;
  std::vector<std::pair<size_t, const StoredRow*>> per_provider;
  per_provider.reserve(best.size());
  for (size_t row_idx = 0; row_idx < reference.size(); ++row_idx) {
    per_provider.clear();
    for (size_t member : best) {
      per_provider.emplace_back(parsed[member].provider,
                                &parsed[member].rows[row_idx]);
    }
    SSDB_ASSIGN_OR_RETURN(
        std::vector<Value> row,
        host_->ReconstructStoredRow(pipe.table, pipe.result_columns,
                                    pipe.full_row, per_provider));
    host_->OnRowsReconstructed(1);
    out.row_ids.push_back(reference[row_idx].row_id);
    out.rows.push_back(std::move(row));
  }
  out.count = out.rows.size();
  if (rec_rec != nullptr) {
    rec_rec->executed = true;
    rec_rec->shares_used = best.size();
    rec_rec->rows_reconstructed += out.rows.size();
  }
  return out;
}

Result<bool> Executor::BuildJoinRequests(const QueryPlan& plan,
                                         std::vector<Buffer>* requests) {
  const JoinPlanSpec& spec = plan.join;
  const size_t num_providers = host_->num_providers();
  requests->clear();
  requests->resize(num_providers);
  bool always_empty = false;
  for (size_t p = 0; p < num_providers; ++p) {
    JoinRequest jr;
    jr.left_table = spec.left.id;
    jr.left_column = spec.left_column;
    jr.right_table = spec.right.id;
    jr.right_column = spec.right_column;
    for (const Predicate& pred : spec.query.left_predicates) {
      SSDB_ASSIGN_OR_RETURN(
          SharePredicate sp,
          host_->RewriteForProvider(*spec.left.schema, pred, p,
                                    &always_empty));
      if (always_empty) break;
      jr.left_predicates.push_back(sp);
    }
    for (const Predicate& pred : spec.query.right_predicates) {
      if (always_empty) break;
      SSDB_ASSIGN_OR_RETURN(
          SharePredicate sp,
          host_->RewriteForProvider(*spec.right.schema, pred, p,
                                    &always_empty));
      if (always_empty) break;
      jr.right_predicates.push_back(sp);
    }
    if (always_empty) break;
    EncodeJoin(jr, &(*requests)[p]);
  }
  return always_empty;
}

Result<QueryResult> Executor::RunJoin(const QueryPlan& plan,
                                      QueryTrace* trace) {
  const JoinPlanSpec& spec = plan.join;
  const size_t num_providers = host_->num_providers();
  PlanNodeTrace* join_rec = Rec(spec.join, trace);

  std::vector<Buffer> requests;
  SSDB_ASSIGN_OR_RETURN(bool always_empty,
                        BuildJoinRequests(plan, &requests));
  if (always_empty) {
    QueryResult empty;
    empty.join_left_columns =
        static_cast<uint32_t>(spec.left.schema->columns.size());
    if (join_rec != nullptr) join_rec->executed = true;
    if (PlanNodeTrace* rec = Rec(spec.reconstruct, trace)) {
      rec->executed = true;
    }
    return empty;
  }

  // One quorum round per shard group (matching join keys co-locate: both
  // sides partition on the key attribute); the per-group pair sets
  // concatenate in group order. With one shard this is the seed system's
  // single round against the flat provider list.
  std::vector<size_t> shard_list = plan.routed_shards;
  if (shard_list.empty()) shard_list.push_back(0);
  QueryResult total;
  total.join_left_columns =
      static_cast<uint32_t>(spec.left.schema->columns.size());
  for (size_t shard : shard_list) {
    const std::vector<size_t>& providers =
        plan.shards > 1 ? host_->shard_provider_indices(shard)
                        : host_->provider_indices();
    Result<std::vector<ProviderResponse>> responses_r =
        CallQuorum(host_->network(), providers, requests, spec.quorum_desired,
                   spec.quorum_min, join_rec, host_->resilience(),
                   host_->scoreboard(), spec.quorum_order, host_->metrics());
    if (!responses_r.ok() && responses_r.status().IsUnavailable() &&
        host_->resilience().enabled() &&
        spec.quorum_desired < num_providers) {
      // Graceful degradation, as in RunPipelineWithRetry: one wider round.
      host_->metrics()->GetCounter("ssdb_plan_replans_total")->Inc();
      responses_r =
          CallQuorum(host_->network(), providers, requests, num_providers,
                     spec.quorum_min, join_rec, host_->resilience(),
                     host_->scoreboard(), spec.quorum_order, host_->metrics());
    }
    if (!responses_r.ok()) return responses_r.status();
    if (join_rec != nullptr) join_rec->executed = true;
    SSDB_ASSIGN_OR_RETURN(QueryResult part,
                          DecodeJoin(plan, *responses_r, trace));
    if (plan.shards <= 1) return part;
    total.rows.insert(total.rows.end(),
                      std::make_move_iterator(part.rows.begin()),
                      std::make_move_iterator(part.rows.end()));
  }
  total.count = total.rows.size();
  return total;
}

Result<QueryResult> Executor::DecodeJoin(
    const QueryPlan& plan, const std::vector<ProviderResponse>& responses,
    QueryTrace* trace) {
  const JoinPlanSpec& spec = plan.join;
  PlanNodeTrace* join_rec = Rec(spec.join, trace);
  PlanNodeTrace* rec_rec = Rec(spec.reconstruct, trace);

  QueryResult empty;
  empty.join_left_columns =
      static_cast<uint32_t>(spec.left.schema->columns.size());

  struct Parsed {
    size_t provider;
    std::vector<JoinedRowPair> pairs;
  };
  std::vector<Parsed> parsed;
  for (const auto& r : responses) {
    Decoder dec(Slice(r.bytes));
    Status st = DecodeResponseHeader(&dec);
    if (!st.ok()) {
      if (st.IsNotSupported() || st.IsInvalidArgument()) return st;
      continue;
    }
    Parsed p;
    p.provider = r.provider;
    if (!DecodeJoinResponse(&dec, *spec.left.layout, *spec.right.layout,
                            &p.pairs)
             .ok()) {
      continue;
    }
    if (join_rec != nullptr) join_rec->rows_scanned += p.pairs.size();
    parsed.push_back(std::move(p));
  }
  std::unordered_map<uint64_t, std::vector<size_t>> groups;
  for (size_t i = 0; i < parsed.size(); ++i) {
    uint64_t sig = kFnv1a64Init;
    for (const auto& pr : parsed[i].pairs) {
      sig = Fnv1a64FoldU64(sig, pr.left.row_id);
      sig = Fnv1a64FoldU64(sig, pr.right.row_id);
    }
    groups[sig].push_back(i);
  }
  std::vector<size_t> best;
  for (auto& [sig, members] : groups) {
    if (members.size() > best.size()) best = members;
  }
  if (best.size() < host_->threshold_k()) {
    return Status::Corruption("client: providers disagree on the join result");
  }

  std::vector<const ColumnSpec*> lcols, rcols;
  for (const ColumnSpec& c : spec.left.schema->columns) lcols.push_back(&c);
  for (const ColumnSpec& c : spec.right.schema->columns) rcols.push_back(&c);

  const auto& reference = parsed[best.front()].pairs;
  QueryResult out = std::move(empty);
  std::vector<std::pair<size_t, const StoredRow*>> lrows, rrows;
  lrows.reserve(best.size());
  rrows.reserve(best.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    lrows.clear();
    rrows.clear();
    for (size_t member : best) {
      lrows.emplace_back(parsed[member].provider,
                         &parsed[member].pairs[i].left);
      rrows.emplace_back(parsed[member].provider,
                         &parsed[member].pairs[i].right);
    }
    SSDB_ASSIGN_OR_RETURN(
        std::vector<Value> row,
        host_->ReconstructStoredRow(spec.left, lcols, /*full_row=*/true,
                                    lrows));
    SSDB_ASSIGN_OR_RETURN(
        std::vector<Value> rvals,
        host_->ReconstructStoredRow(spec.right, rcols, /*full_row=*/true,
                                    rrows));
    host_->OnRowsReconstructed(2);
    row.insert(row.end(), std::make_move_iterator(rvals.begin()),
               std::make_move_iterator(rvals.end()));
    out.rows.push_back(std::move(row));
  }
  out.count = out.rows.size();
  if (rec_rec != nullptr) {
    rec_rec->executed = true;
    rec_rec->shares_used = best.size();
    rec_rec->rows_reconstructed += 2 * out.rows.size();
  }
  return out;
}

Result<QueryResult> Executor::RunScatter(const QueryPlan& plan,
                                         QueryTrace* trace) {
  PlanNodeTrace* root_rec = Rec(plan.root.get(), trace);
  const size_t n_per = host_->num_providers();

  // Every per-shard pipeline carries the same query, so one per-position
  // request vector serves all routed shard groups.
  const PipelinePlan& proto = plan.pipelines.front();
  std::vector<Buffer> requests;
  SSDB_ASSIGN_OR_RETURN(bool always_empty,
                        BuildPipelineRequests(proto, &requests));

  std::vector<Result<QueryResult>> parts;
  parts.reserve(plan.pipelines.size());
  if (always_empty) {
    for (const PipelinePlan& pipe : plan.pipelines) {
      parts.push_back(EmptyPipeline(pipe, trace));
    }
  } else if (!host_->resilience().enabled()) {
    // One parallel fan-out round across every routed shard group: the
    // clock advances once, by the globally slowest leg, charged to the
    // ShardMerge root; sequential replacement legs charge their own
    // shard's scan node, so node clock totals still sum to the
    // VirtualClock delta.
    std::vector<ScatterShardSpec> specs;
    specs.reserve(plan.pipelines.size());
    for (const PipelinePlan& pipe : plan.pipelines) {
      specs.push_back(
          ScatterShardSpec{&host_->shard_provider_indices(pipe.shard),
                           pipe.quorum_desired, pipe.quorum_min});
    }
    const uint64_t start_us = host_->network()->clock().now_us();
    ScatterQuorumResult sq = RunScatterQuorum(host_->network(), specs,
                                              requests, host_->scoreboard());
    if (root_rec != nullptr) {
      if (root_rec->round_trips == 0) root_rec->clock_start_us = start_us;
      root_rec->round_trips += 1;
      root_rec->clock_us += sq.fanout_clock_us;
    }
    for (size_t i = 0; i < plan.pipelines.size(); ++i) {
      const PipelinePlan& pipe = plan.pipelines[i];
      StampShard(pipe, trace);
      QuorumResult& q = sq.shards[i];
      if (PlanNodeTrace* scan_rec = Rec(pipe.scan, trace)) {
        if (scan_rec->round_trips == 0) scan_rec->clock_start_us = start_us;
        scan_rec->round_trips += q.fanout_rounds;
        scan_rec->clock_us += q.clock_advance_us;
        for (const ResilientLeg& leg : q.legs) {
          RecordLeg(scan_rec, leg.provider, leg.bytes_sent,
                    leg.bytes_received, leg.round_trip_us, leg.ok);
        }
        scan_rec->executed = true;
      }
      if (!q.status.ok()) {
        parts.push_back(q.status);
        continue;
      }
      std::vector<ProviderResponse> responses;
      responses.reserve(q.responses.size());
      for (QuorumResult::Response& r : q.responses) {
        responses.push_back(ProviderResponse{r.slot, std::move(r.bytes)});
      }
      parts.push_back(DecodePipeline(pipe, responses, trace));
    }
  } else {
    // Resilience knobs on: sequential per-group rounds through the full
    // resilient quorum path (retries, deadlines, hedging, breaker).
    for (const PipelinePlan& pipe : plan.pipelines) {
      parts.push_back(RunPipeline(pipe, pipe.quorum_desired, trace));
    }
  }

  // Per-shard retry ladder, mirroring RunPipelineWithRetry.
  std::vector<QueryResult> results;
  results.reserve(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    const PipelinePlan& pipe = plan.pipelines[i];
    Result<QueryResult>& part = parts[i];
    if (!part.ok() && part.status().IsUnavailable() &&
        host_->resilience().enabled() && pipe.quorum_desired < n_per) {
      host_->metrics()->GetCounter("ssdb_plan_replans_total")->Inc();
      part = RunPipeline(pipe, n_per, trace);
    }
    if (!part.ok() && part.status().IsCorruption() &&
        host_->threshold_k() < n_per) {
      host_->OnCorruptionRetry();
      part = RunPipeline(pipe, n_per, trace);
    }
    if (!part.ok()) return part.status();
    if (plan.scatter_action == QueryAction::kFetchRows) {
      // Row results overlay the pending write log per shard, like union
      // branches; the row-id merge dedups. (Aggregates flushed the log
      // at submit time, and their overlay is a no-op anyway.)
      SSDB_RETURN_IF_ERROR(ApplyOverlay(pipe, &part.value(), trace));
    }
    results.push_back(std::move(*part));
  }
  return MergeScatter(plan, &results, trace);
}

Result<QueryResult> Executor::MergeScatter(const QueryPlan& plan,
                                           std::vector<QueryResult>* parts,
                                           QueryTrace* trace) {
  const PipelinePlan& proto = plan.pipelines.front();
  const TableSchema& schema = *proto.table.schema;
  PlanNodeTrace* root_rec = Rec(plan.root.get(), trace);
  QueryResult out;
  switch (plan.scatter_action) {
    case QueryAction::kFetchRows: {
      // Shard groups hold disjoint row-id sets; the ordered merge makes
      // the result independent of group order.
      std::map<uint64_t, std::vector<Value>> merged;
      for (QueryResult& part : *parts) {
        for (size_t i = 0; i < part.rows.size(); ++i) {
          merged.emplace(part.row_ids[i], std::move(part.rows[i]));
        }
      }
      for (auto& [id, row] : merged) {
        out.row_ids.push_back(id);
        out.rows.push_back(std::move(row));
      }
      out.count = out.rows.size();
      break;
    }
    case QueryAction::kCount: {
      for (const QueryResult& part : *parts) out.count += part.count;
      out.aggregate_int = static_cast<int64_t>(out.count);
      break;
    }
    case QueryAction::kPartialSum: {
      for (const QueryResult& part : *parts) {
        out.aggregate_int += part.aggregate_int;
        out.count += part.count;
      }
      out.aggregate_double = out.count == 0
                                 ? 0.0
                                 : static_cast<double>(out.aggregate_int) /
                                       static_cast<double>(out.count);
      break;
    }
    case QueryAction::kArgMin:
    case QueryAction::kArgMax: {
      // Each part carries its group's extreme rows with the extreme code
      // in aggregate_int; groups with no matching rows have no extreme.
      // Ties across groups merge by row id.
      bool have = false;
      int64_t best = 0;
      for (const QueryResult& part : *parts) {
        if (part.rows.empty()) continue;
        if (!have || (plan.scatter_action == QueryAction::kArgMin
                          ? part.aggregate_int < best
                          : part.aggregate_int > best)) {
          best = part.aggregate_int;
          have = true;
        }
      }
      if (have) {
        std::map<uint64_t, std::vector<Value>> merged;
        for (QueryResult& part : *parts) {
          if (part.rows.empty() || part.aggregate_int != best) continue;
          for (size_t i = 0; i < part.rows.size(); ++i) {
            merged.emplace(part.row_ids[i], std::move(part.rows[i]));
          }
        }
        for (auto& [id, row] : merged) {
          out.row_ids.push_back(id);
          out.rows.push_back(std::move(row));
        }
        if (!plan.scatter_strip_appended) {
          out.aggregate_int = best;
          out.aggregate_double = static_cast<double>(best);
        }
      }
      out.count = out.rows.size();
      break;
    }
    case QueryAction::kMedian: {
      // The per-shard pipelines fetched every matching row; the global
      // (lower) median is picked client-side by (code, row id), exactly
      // the provider's (op share, row id) order.
      size_t pos = proto.result_columns.size();
      for (size_t c = 0; c < proto.result_columns.size(); ++c) {
        if (proto.result_columns[c] ==
            &schema.columns[plan.scatter_target_column]) {
          pos = c;
        }
      }
      if (pos >= proto.result_columns.size()) {
        return Status::Internal(
            "client: scattered MEDIAN lost its target column");
      }
      struct Cand {
        int64_t code;
        uint64_t row_id;
        size_t part;
        size_t idx;
      };
      std::vector<Cand> cands;
      for (size_t p = 0; p < parts->size(); ++p) {
        QueryResult& part = (*parts)[p];
        for (size_t i = 0; i < part.rows.size(); ++i) {
          SSDB_ASSIGN_OR_RETURN(
              int64_t code,
              proto.result_columns[pos]->EncodeToCode(part.rows[i][pos]));
          cands.push_back(Cand{code, part.row_ids[i], p, i});
        }
      }
      if (cands.empty()) {
        return Status::NotFound("client: MEDIAN over an empty result set");
      }
      std::sort(cands.begin(), cands.end(),
                [](const Cand& a, const Cand& b) {
                  return a.code != b.code ? a.code < b.code
                                          : a.row_id < b.row_id;
                });
      const Cand& pick = cands[(cands.size() - 1) / 2];
      out.row_ids.push_back(pick.row_id);
      out.rows.push_back(std::move((*parts)[pick.part].rows[pick.idx]));
      out.count = 1;
      if (!plan.scatter_strip_appended) {
        out.aggregate_int = pick.code;
        out.aggregate_double = static_cast<double>(pick.code);
      }
      break;
    }
    case QueryAction::kGroupedSum: {
      // Merge groups by key code; order by the smallest representative
      // row id, matching the provider-side first-appearance order.
      const ColumnSpec& key_col = schema.columns[proto.group_column];
      std::map<int64_t, GroupResult> by_code;
      for (QueryResult& part : *parts) {
        for (GroupResult& group : part.groups) {
          SSDB_ASSIGN_OR_RETURN(int64_t code,
                                key_col.EncodeToCode(group.key));
          auto it = by_code.find(code);
          if (it == by_code.end()) {
            by_code.emplace(code, std::move(group));
          } else {
            GroupResult& merged = it->second;
            merged.sum += group.sum;
            merged.count += group.count;
            merged.rep_row_id =
                std::min(merged.rep_row_id, group.rep_row_id);
          }
        }
      }
      std::vector<GroupResult> groups;
      groups.reserve(by_code.size());
      for (auto& [code, group] : by_code) {
        group.average = group.count == 0
                            ? 0.0
                            : static_cast<double>(group.sum) /
                                  static_cast<double>(group.count);
        out.count += group.count;
        groups.push_back(std::move(group));
      }
      std::sort(groups.begin(), groups.end(),
                [](const GroupResult& a, const GroupResult& b) {
                  return a.rep_row_id < b.rep_row_id;
                });
      out.groups = std::move(groups);
      break;
    }
    case QueryAction::kFetchRowIds:
      return Status::Internal("client: unhandled scatter action");
  }
  if (plan.scatter_strip_appended) {
    // The aggregate target column was appended to the projection solely
    // for the client-side pick; the caller never asked for it.
    for (std::vector<Value>& row : out.rows) row.pop_back();
  }
  if (root_rec != nullptr) {
    root_rec->executed = true;
    root_rec->rows_reconstructed =
        out.groups.empty() ? out.rows.size() : out.groups.size();
  }
  return out;
}

}  // namespace ssdb
