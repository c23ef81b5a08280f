#include "client/client.h"

#include <algorithm>
#include <mutex>

#include "client/sql.h"
#include "field/poly.h"
#include "plan/executor.h"
#include "plan/planner.h"

namespace ssdb {

namespace {

/// Tries to reconstruct from all shares; on inconsistency, retries with
/// each single provider excluded (recovers from one corrupt provider when
/// the remaining shares still self-validate, i.e. >= k+1 of them).
Result<Fp61> RobustFieldReconstruct(const SharingContext& ctx,
                                    const std::vector<IndexedShare>& shares) {
  Result<Fp61> direct = ctx.Reconstruct(shares);
  if (direct.ok() || !direct.status().IsCorruption()) return direct;
  if (shares.size() < ctx.k() + 2) return direct;  // cannot localize
  for (size_t excluded = 0; excluded < shares.size(); ++excluded) {
    std::vector<IndexedShare> subset;
    subset.reserve(shares.size() - 1);
    for (size_t i = 0; i < shares.size(); ++i) {
      if (i != excluded) subset.push_back(shares[i]);
    }
    Result<Fp61> retry = ctx.Reconstruct(subset);
    if (retry.ok()) return retry;
  }
  return direct;
}

}  // namespace

DataSourceClient::DataSourceClient(Network* network,
                                   std::vector<size_t> providers,
                                   ClientOptions options, SharingContext ctx,
                                   std::vector<uint32_t> op_xs)
    : network_(network),
      providers_(std::move(providers)),
      options_(std::move(options)),
      topology_(options_.topology),
      ctx_(std::move(ctx)),
      op_xs_(std::move(op_xs)),
      rng_(options_.rng_seed),
      prf_det_(Prf::Derive(Slice(options_.master_key), Slice("det"))),
      prf_tag_(Prf::Derive(Slice(options_.master_key), Slice("tag"))),
      prf_op_master_(Prf::Derive(Slice(options_.master_key), Slice("op"))) {
  // Register the ssdb_client_* series once and cache the handles: these
  // replaced the ClientStats atomics, so hot-path bumps stay lock-free.
  cm_.queries = metrics_.GetCounter("ssdb_client_queries_total");
  cm_.rows_reconstructed =
      metrics_.GetCounter("ssdb_client_rows_reconstructed_total");
  cm_.corruption_retries =
      metrics_.GetCounter("ssdb_client_corruption_retries_total");
  cm_.lazy_flushes = metrics_.GetCounter("ssdb_client_lazy_flushes_total");
  cm_.traced_bytes_sent =
      metrics_.GetCounter("ssdb_client_traced_bytes_sent_total");
  cm_.traced_bytes_received =
      metrics_.GetCounter("ssdb_client_traced_bytes_received_total");
  cm_.traced_clock_us =
      metrics_.GetCounter("ssdb_client_traced_clock_us_total");
  cm_.provider_legs = metrics_.GetCounter("ssdb_client_provider_legs_total");
  cm_.plan_nodes_executed =
      metrics_.GetCounter("ssdb_client_plan_nodes_executed_total");
  cm_.retry_legs = metrics_.GetCounter("ssdb_client_retry_legs_total");
  cm_.hedged_legs = metrics_.GetCounter("ssdb_client_hedged_legs_total");
  cm_.deadline_exceeded =
      metrics_.GetCounter("ssdb_client_deadline_exceeded_total");
  cm_.breaker_skips = metrics_.GetCounter("ssdb_client_breaker_skips_total");
  scoreboard_.AttachTelemetry(&metrics_, &tracer_);
  // Slice the flat provider list into shard groups: group s owns
  // providers_[s*n_per .. (s+1)*n_per), and position p within a group is
  // share evaluation point p.
  shard_providers_.resize(topology_.shards);
  for (size_t s = 0; s < topology_.shards; ++s) {
    const size_t n_per = topology_.providers_per_shard;
    shard_providers_[s].assign(
        providers_.begin() + static_cast<long>(s * n_per),
        providers_.begin() + static_cast<long>((s + 1) * n_per));
  }
}

ClientStats DataSourceClient::stats() const {
  ClientStats s;
  s.queries = cm_.queries->value();
  s.rows_reconstructed = cm_.rows_reconstructed->value();
  s.corruption_retries = cm_.corruption_retries->value();
  s.lazy_flushes = cm_.lazy_flushes->value();
  s.traced_bytes_sent = cm_.traced_bytes_sent->value();
  s.traced_bytes_received = cm_.traced_bytes_received->value();
  s.traced_clock_us = cm_.traced_clock_us->value();
  s.provider_legs = cm_.provider_legs->value();
  s.plan_nodes_executed = cm_.plan_nodes_executed->value();
  s.attempts = cm_.retry_legs->value();
  s.hedged_legs = cm_.hedged_legs->value();
  s.deadline_exceeded = cm_.deadline_exceeded->value();
  s.breaker_skips = cm_.breaker_skips->value();
  return s;
}

Result<std::unique_ptr<DataSourceClient>> DataSourceClient::Create(
    Network* network, std::vector<size_t> providers, ClientOptions options) {
  const size_t n = providers.size();
  if (network == nullptr) {
    return Status::InvalidArgument("client: null network");
  }
  if (n == 0 ||
      (options.topology.threshold == 0 &&
       (options.k == 0 || options.k > n))) {
    return Status::InvalidArgument("client: require 1 <= k <= n, n > 0");
  }
  if (options.topology.shards <= 1 && n > 255) {
    return Status::InvalidArgument(
        "client: at most 255 providers (order-preserving x points)");
  }
  for (size_t p : providers) {
    if (p >= network->num_providers()) {
      return Status::InvalidArgument("client: provider index out of range");
    }
  }
  if (options.lazy_updates && options.lazy_flush_threshold == 0) {
    return Status::InvalidArgument(
        "client: lazy_flush_threshold must be >= 1 with lazy updates "
        "(a zero threshold would never auto-flush the write log)");
  }

  // Resolve the deployment topology: explicit Topology fields win; zeros
  // inherit the deprecated flat aliases, yielding the seed 1-shard shape.
  Topology topo = options.topology;
  if (topo.shards == 0) topo.shards = 1;
  if (topo.providers_per_shard == 0) {
    if (n % topo.shards != 0) {
      return Status::InvalidArgument(
          "client: provider count does not divide into topology.shards "
          "equal groups");
    }
    topo.providers_per_shard = n / topo.shards;
  }
  if (topo.threshold == 0) topo.threshold = options.k;
  if (topo.total_providers() != n) {
    return Status::InvalidArgument(
        "client: topology requires shards * providers_per_shard == "
        "provider count");
  }
  SSDB_RETURN_IF_ERROR(ValidateTopology(topo));
  options.topology = topo;
  options.k = topo.threshold;  // deprecated alias stays in sync
  const size_t n_per = topo.providers_per_shard;

  // Secret evaluation points X for the field sharing, derived from the
  // master key (the "secret information X, known only to the data
  // source" of §III). One set of per-position points serves every shard
  // group: a row's share at group position p is evaluated at X[p]
  // regardless of which group stores it.
  const Prf xprf = Prf::Derive(Slice(options.master_key), Slice("X"));
  std::vector<Fp61> xs;
  uint64_t tweak = 0;
  while (xs.size() < n_per) {
    const Fp61 cand =
        Fp61::FromCanonical(xprf.EvalUniform(xs.size(), tweak++,
                                             Fp61::kP - 1) +
                            1);
    if (std::find(xs.begin(), xs.end(), cand) == xs.end()) xs.push_back(cand);
  }
  SSDB_ASSIGN_OR_RETURN(SharingContext ctx,
                        SharingContext::Create(n_per, options.k,
                                               std::move(xs)));

  // Small distinct evaluation points for the order-preserving polynomials.
  std::vector<uint32_t> pool(OrderPreservingScheme::kMaxX);
  for (uint32_t i = 0; i < pool.size(); ++i) pool[i] = i + 1;
  Rng xrng(xprf.Eval64(0xFEED, 0));
  xrng.Shuffle(&pool);
  std::vector<uint32_t> op_xs(pool.begin(),
                              pool.begin() + static_cast<long>(n_per));

  return std::unique_ptr<DataSourceClient>(
      new DataSourceClient(network, std::move(providers), std::move(options),
                           std::move(ctx), std::move(op_xs)));
}

// --- Share construction ------------------------------------------------------

Result<OrderPreservingScheme*> DataSourceClient::GetOpScheme(
    const ColumnSpec& column) {
  const uint64_t tag = column.DomainTag();
  std::lock_guard<std::mutex> lock(op_mu_);
  auto it = op_schemes_.find(tag);
  if (it != op_schemes_.end()) return it->second.get();

  if (options_.k < 2) {
    return Status::InvalidArgument(
        "client: order-preserving shares need k >= 2");
  }
  SSDB_ASSIGN_OR_RETURN(OpDomain domain, column.CodeDomain());
  const int degree = static_cast<int>(std::min<size_t>(options_.k - 1, 3));
  const Prf dom_prf(prf_op_master_.Eval64(tag, 1),
                    prf_op_master_.Eval64(tag, 2));
  SSDB_ASSIGN_OR_RETURN(
      OrderPreservingScheme scheme,
      OrderPreservingScheme::Create(dom_prf, domain, degree, op_xs_,
                                    options_.op_mode));
  auto owned = std::make_unique<OrderPreservingScheme>(std::move(scheme));
  OrderPreservingScheme* raw = owned.get();
  op_schemes_.emplace(tag, std::move(owned));
  return raw;
}

uint64_t DataSourceClient::RowTag(uint32_t table_id, uint64_t row_id,
                                  const std::vector<int64_t>& codes) const {
  Buffer buf;
  buf.PutU32(table_id);
  buf.PutU64(row_id);
  for (int64_t c : codes) buf.PutI64(c);
  return prf_tag_.EvalBytes(buf.AsSlice());
}

Result<size_t> DataSourceClient::ShardOfRow(const TableInfo& info,
                                            const std::vector<Value>& row) {
  if (topology_.shards <= 1) return static_cast<size_t>(0);
  const ColumnSpec& key = info.schema.columns[0];
  SSDB_ASSIGN_OR_RETURN(int64_t code, key.EncodeToCode(row[0]));
  SSDB_ASSIGN_OR_RETURN(OpDomain dom, key.CodeDomain());
  return ShardForCode(topology_.partitioner, topology_.shards, code, dom);
}

Result<std::vector<StoredRow>> DataSourceClient::BuildShareRows(
    TableInfo* info, uint64_t row_id, const std::vector<Value>& row) {
  const TableSchema& schema = info->schema;
  SSDB_RETURN_IF_ERROR(schema.ValidateRow(row));

  const size_t num_providers = topology_.providers_per_shard;
  std::vector<StoredRow> out(num_providers);
  for (size_t p = 0; p < num_providers; ++p) {
    out[p].row_id = row_id;
    out[p].cells.resize(schema.columns.size());
  }

  std::vector<int64_t> codes(schema.columns.size());
  for (size_t c = 0; c < schema.columns.size(); ++c) {
    const ColumnSpec& col = schema.columns[c];
    SSDB_ASSIGN_OR_RETURN(int64_t code, col.EncodeToCode(row[c]));
    codes[c] = code;
    SSDB_ASSIGN_OR_RETURN(OpDomain dom, col.CodeDomain());
    const uint64_t w =
        static_cast<uint64_t>(code) - static_cast<uint64_t>(dom.lo);
    const Fp61 secret = Fp61::FromU64(w);

    const std::vector<Fp61> random_shares = ctx_.Split(secret, &rng_);
    for (size_t p = 0; p < num_providers; ++p) {
      out[p].cells[c].secret = random_shares[p].value();
    }
    if (col.exact_match()) {
      const std::vector<Fp61> det =
          ctx_.SplitDeterministic(prf_det_, col.DomainTag(), secret);
      for (size_t p = 0; p < num_providers; ++p) {
        out[p].cells[c].det = det[p].value();
      }
    }
    if (col.range()) {
      SSDB_ASSIGN_OR_RETURN(OrderPreservingScheme * scheme, GetOpScheme(col));
      SSDB_ASSIGN_OR_RETURN(std::vector<u128> op, scheme->ShareAll(code));
      for (size_t p = 0; p < num_providers; ++p) {
        out[p].cells[c].op = op[p];
      }
    }
  }

  const uint64_t tag = RowTag(info->id, row_id, codes);
  for (size_t p = 0; p < num_providers; ++p) out[p].tag = tag;
  return out;
}

// --- Transport ----------------------------------------------------------------

namespace {
/// True when `request` is a mutating wire message (type byte inspection).
bool IsMutatingRequest(const Buffer& request) {
  Slice bytes = request.AsSlice();
  return !bytes.empty() && IsMutatingMessage(static_cast<MsgType>(bytes[0]));
}

/// The ops of a write round that sends `msg` once to each of `n`
/// providers.
std::vector<std::vector<Buffer>> OneEach(const Buffer& msg, size_t n) {
  return std::vector<std::vector<Buffer>>(n, std::vector<Buffer>{msg});
}

/// Moves one row's share rows (position p = group provider p) into the
/// per-provider lists of its owning shard group.
void AddShareRows(size_t shard, std::vector<StoredRow> shares,
                  std::vector<std::vector<StoredRow>>* per_provider) {
  const size_t n_per = shares.size();
  for (size_t p = 0; p < n_per; ++p) {
    (*per_provider)[shard * n_per + p].push_back(std::move(shares[p]));
  }
}

using EncodeRowsFn = void (*)(uint32_t,
                              const std::vector<ProviderColumnLayout>&,
                              const std::vector<StoredRow>&, Buffer*);

/// Appends one `encode` message per provider to `ops`, where `rows[g]`
/// are provider g's share rows. With shard groups a provider without
/// rows gets no message; in a 1-shard deployment every provider gets one.
void AppendRowOps(EncodeRowsFn encode, uint32_t table_id,
                  const std::vector<ProviderColumnLayout>& layout,
                  const std::vector<std::vector<StoredRow>>& rows,
                  bool sharded, std::vector<std::vector<Buffer>>* ops) {
  for (size_t g = 0; g < rows.size(); ++g) {
    if (sharded && rows[g].empty()) continue;
    Buffer msg;
    encode(table_id, layout, rows[g], &msg);
    (*ops)[g].push_back(std::move(msg));
  }
}

/// Appends a DeleteRows message for shard group s's ids to each of its
/// `n_per` providers; groups without ids get none.
void AppendDeleteOps(uint32_t table_id,
                     const std::vector<std::vector<uint64_t>>& shard_ids,
                     size_t n_per, std::vector<std::vector<Buffer>>* ops) {
  for (size_t s = 0; s < shard_ids.size(); ++s) {
    if (shard_ids[s].empty()) continue;
    Buffer msg;
    EncodeDeleteRows(table_id, shard_ids[s], &msg);
    for (size_t p = 0; p < n_per; ++p) (*ops)[s * n_per + p].push_back(msg);
  }
}
}  // namespace

Status DataSourceClient::SendWrites(
    const std::vector<size_t>& group,
    const std::vector<std::vector<Buffer>>& ops) {
  // Killed providers absorb their mutating ops into the resync queue as
  // individual messages, never envelopes, so catch-up replay can re-chunk
  // them by batch_max_ops and the exact bytes replay at Restart. Their
  // non-mutating ops still travel and fail Unavailable, as with kDown.
  std::vector<std::vector<Slice>> live(group.size());
  size_t total = 0;
  {
    std::lock_guard<std::mutex> lock(outage_mu_);
    for (size_t i = 0; i < group.size(); ++i) {
      const bool out = out_providers_.count(group[i]) != 0;
      for (const Buffer& op : ops[i]) {
        if (out && IsMutatingRequest(op)) {
          pending_resync_[group[i]].push_back(op);
        } else {
          live[i].push_back(op.AsSlice());
        }
      }
      total = std::max(total, live[i].size());
    }
  }

  const size_t max_ops = std::max<size_t>(options_.batch_max_ops, 1);
  for (size_t begin = 0; begin < total; begin += max_ops) {
    // Round r covers ops [begin, begin+max_ops) of each provider's own
    // list; providers with nothing left sit the round out.
    std::vector<size_t> round;
    std::vector<Buffer> requests;
    std::vector<size_t> spans;
    for (size_t i = 0; i < group.size(); ++i) {
      if (begin >= live[i].size()) continue;
      const size_t end = std::min(live[i].size(), begin + max_ops);
      const size_t span = end - begin;
      Buffer req;
      if (span == 1) {
        // A lone op travels unwrapped: identical bytes to a plain call.
        req.Append(live[i][begin]);
      } else {
        EncodeBatchRequest(
            std::vector<Slice>(live[i].begin() + static_cast<long>(begin),
                               live[i].begin() + static_cast<long>(end)),
            &req);
        ChargeBatchEnvelope(&metrics_, span);
      }
      round.push_back(group[i]);
      requests.push_back(std::move(req));
      spans.push_back(span);
    }
    fanout_rounds_.fetch_add(1, std::memory_order_relaxed);
    Network::FanOutResult fan = network_->CallManyDistinct(round, requests);
    for (size_t i = 0; i < fan.responses.size(); ++i) {
      if (!fan.responses[i].ok()) return fan.responses[i].status();
      Decoder dec(Slice(*fan.responses[i]));
      SSDB_RETURN_IF_ERROR(DecodeResponseHeader(&dec));
      if (spans[i] == 1) continue;
      std::vector<Slice> subs;
      SSDB_RETURN_IF_ERROR(DecodeBatchResponsePayload(&dec, &subs));
      if (subs.size() != spans[i]) {
        return Status::Corruption("client: batch response arity mismatch");
      }
      for (const Slice& sub : subs) {
        Decoder sub_dec(sub);
        SSDB_RETURN_IF_ERROR(DecodeResponseHeader(&sub_dec));
      }
    }
  }
  return Status::OK();
}

template <typename Fn>
auto DataSourceClient::Metered(const RequestContext& ctx, Fn fn) {
  if (ctx.tenant.empty()) return fn();
  const ChannelStats before = network_->TotalStats();
  const uint64_t clock_before = network_->clock().now_us();
  const uint64_t rounds_before = fanout_rounds_.load(std::memory_order_relaxed);
  auto result = fn();
  if (result.ok()) {
    const ChannelStats after = network_->TotalStats();
    ChargeMeter(ctx.tenant, 1, after.bytes_sent - before.bytes_sent,
                after.bytes_received - before.bytes_received,
                fanout_rounds_.load(std::memory_order_relaxed) - rounds_before,
                network_->clock().now_us() - clock_before);
  }
  return result;
}

// --- Kill/restart recovery ------------------------------------------------------

void DataSourceClient::BeginProviderOutage(size_t network_index) {
  std::lock_guard<std::mutex> lock(outage_mu_);
  out_providers_.insert(network_index);
  pending_resync_[network_index];  // ensure the queue exists (may be empty)
}

bool DataSourceClient::provider_out(size_t network_index) const {
  std::lock_guard<std::mutex> lock(outage_mu_);
  return out_providers_.count(network_index) != 0;
}

size_t DataSourceClient::pending_resync_ops(size_t network_index) const {
  std::lock_guard<std::mutex> lock(outage_mu_);
  auto it = pending_resync_.find(network_index);
  return it == pending_resync_.end() ? 0 : it->second.size();
}

Status DataSourceClient::ResyncProvider(size_t network_index) {
  std::vector<std::vector<Buffer>> queued(1);  // the one provider's ops
  {
    std::lock_guard<std::mutex> lock(outage_mu_);
    if (out_providers_.erase(network_index) == 0) return Status::OK();
    auto it = pending_resync_.find(network_index);
    if (it != pending_resync_.end()) {
      queued[0] = std::move(it->second);
      pending_resync_.erase(it);
    }
  }

  const uint64_t start_us = network_->clock().now_us();
  // Ship the missed writes in their original order, re-chunked into batch
  // envelopes exactly like a bulk load.
  SSDB_RETURN_IF_ERROR(SendWrites({network_index}, queued));
  const size_t ops = queued[0].size();
  if (ops != 0) {
    metrics_
        .GetCounter("ssdb_recovery_resync_ops_total",
                    {{"provider", std::to_string(network_index)}})
        ->Inc(ops);
  }
  tracer_.AddSpan("resync provider " + std::to_string(network_index),
                  "recovery", start_us, network_->clock().now_us() - start_us,
                  0, {{"ops", std::to_string(ops)}});
  return Status::OK();
}

// --- Schema & data -------------------------------------------------------------

Status DataSourceClient::CreateTable(TableSchema schema) {
  // Qualify default domain names with the table name: two tables may both
  // have a "salary" column with different domains, and they must not
  // collide in the per-domain sharing schemes. Cross-table joins require
  // an explicitly shared domain_name (the paper's per-domain polynomials).
  for (ColumnSpec& col : schema.columns) {
    if (col.domain_name.empty()) {
      col.domain_name = schema.table_name + "." + col.name;
    }
  }
  SSDB_RETURN_IF_ERROR(schema.Validate());
  if (tables_.count(schema.table_name) != 0) {
    return Status::AlreadyExists("client: table '" + schema.table_name +
                                 "' already registered");
  }
  for (const ColumnSpec& col : schema.columns) {
    if (col.range() && options_.k < 2) {
      return Status::InvalidArgument(
          "client: range column '" + col.name + "' requires k >= 2");
    }
    // Columns sharing a domain across tables must agree on the domain.
    SSDB_ASSIGN_OR_RETURN(OpDomain dom, col.CodeDomain());
    for (const auto& [other_name, other] : tables_) {
      for (const ColumnSpec& existing : other.schema.columns) {
        if (existing.DomainTag() != col.DomainTag()) continue;
        SSDB_ASSIGN_OR_RETURN(OpDomain other_dom, existing.CodeDomain());
        if (other_dom.lo != dom.lo || other_dom.hi != dom.hi) {
          return Status::InvalidArgument(
              "client: column '" + col.name + "' shares domain '" +
              col.domain_name + "' with '" + other_name + "." +
              existing.name + "' but declares a different code domain");
        }
      }
    }
  }

  TableInfo info;
  info.id = next_table_id_++;
  info.layout = ProviderLayout(schema);
  info.schema = std::move(schema);

  Buffer req;
  EncodeCreateTable(info.id, info.layout, &req);
  SSDB_RETURN_IF_ERROR(SendWrites(providers_, OneEach(req, providers_.size())));
  const std::string name = info.schema.table_name;
  tables_.emplace(name, std::move(info));
  return Status::OK();
}

Result<const TableSchema*> DataSourceClient::GetSchema(
    const std::string& table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("client: unknown table '" + table + "'");
  }
  return &it->second.schema;
}

Status DataSourceClient::Insert(const std::string& table,
                                const std::vector<std::vector<Value>>& rows,
                                const RequestContext& ctx) {
  return Metered(ctx, [&]() -> Status {
    auto it = tables_.find(table);
    if (it == tables_.end()) {
      return Status::NotFound("client: unknown table '" + table + "'");
    }
    TableInfo& info = it->second;

    if (options_.lazy_updates) {
      for (const auto& row : rows) {
        SSDB_RETURN_IF_ERROR(info.schema.ValidateRow(row));
        LazyOp op;
        op.kind = LazyOp::Kind::kInsert;
        op.table = table;
        op.row_id = info.next_row_id++;
        op.row = row;
        SSDB_ASSIGN_OR_RETURN(op.shard, ShardOfRow(info, row));
        SSDB_RETURN_IF_ERROR(AppendLazy(std::move(op)));
      }
      return Status::OK();
    }

    // Eager: one insert message per provider; a row's shares go only to
    // its owning shard group, all groups in one write round.
    std::vector<std::vector<StoredRow>> per_provider(providers_.size());
    for (const auto& row : rows) {
      const uint64_t row_id = info.next_row_id++;
      SSDB_ASSIGN_OR_RETURN(size_t shard, ShardOfRow(info, row));
      SSDB_ASSIGN_OR_RETURN(std::vector<StoredRow> shares,
                            BuildShareRows(&info, row_id, row));
      AddShareRows(shard, std::move(shares), &per_provider);
    }
    std::vector<std::vector<Buffer>> ops(providers_.size());
    AppendRowOps(EncodeInsertRows, info.id, info.layout, per_provider,
                 topology_.shards > 1, &ops);
    return SendWrites(providers_, ops);
  });
}

Status DataSourceClient::BulkLoad(
    const std::string& table, const std::vector<std::vector<Value>>& rows) {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("client: unknown table '" + table + "'");
  }
  TableInfo& info = it->second;
  if (rows.empty()) return Status::OK();

  // Shard assignment first (row ids run in input order), then each
  // group's run is cut into kInsertRows chunks of at most batch_max_ops
  // rows; SendWrites ships round r of every shard group in one parallel
  // envelope round. Sharing is CPU-bound client side.
  const size_t chunk_rows = std::max<size_t>(options_.batch_max_ops, 1);
  const size_t n_per = topology_.providers_per_shard;
  std::vector<std::vector<std::pair<uint64_t, size_t>>> shard_rows(
      topology_.shards);  // (row id, input index) per owning group
  for (size_t r = 0; r < rows.size(); ++r) {
    SSDB_RETURN_IF_ERROR(info.schema.ValidateRow(rows[r]));
    const uint64_t row_id = info.next_row_id++;
    SSDB_ASSIGN_OR_RETURN(size_t shard, ShardOfRow(info, rows[r]));
    shard_rows[shard].emplace_back(row_id, r);
  }
  std::vector<std::vector<Buffer>> per_provider_ops(providers_.size());
  for (size_t s = 0; s < topology_.shards; ++s) {
    const auto& assigned = shard_rows[s];
    for (size_t begin = 0; begin < assigned.size(); begin += chunk_rows) {
      const size_t end = std::min(assigned.size(), begin + chunk_rows);
      std::vector<std::vector<StoredRow>> per_pos(n_per);
      for (size_t i = begin; i < end; ++i) {
        SSDB_ASSIGN_OR_RETURN(
            std::vector<StoredRow> shares,
            BuildShareRows(&info, assigned[i].first, rows[assigned[i].second]));
        for (size_t p = 0; p < n_per; ++p) {
          per_pos[p].push_back(std::move(shares[p]));
        }
      }
      for (size_t p = 0; p < n_per; ++p) {
        Buffer msg;
        EncodeInsertRows(info.id, info.layout, per_pos[p], &msg);
        per_provider_ops[s * n_per + p].push_back(std::move(msg));
      }
    }
  }
  return SendWrites(providers_, per_provider_ops);
}

// --- Query rewriting (§V.A) -----------------------------------------------------

Result<SharePredicate> DataSourceClient::RewriteForProvider(
    const TableSchema& schema, const Predicate& pred, size_t provider,
    bool* always_empty) {
  SSDB_ASSIGN_OR_RETURN(size_t col_idx, schema.ColumnIndex(pred.column));
  const ColumnSpec& col = schema.columns[col_idx];
  SharePredicate out;
  out.column = static_cast<uint32_t>(col_idx);

  switch (pred.kind) {
    case Predicate::Kind::kEq: {
      if (!col.exact_match()) {
        return Status::NotSupported("client: column '" + col.name +
                                    "' was not declared kCapExactMatch");
      }
      auto code = col.EncodeToCode(pred.eq);
      if (code.status().IsOutOfRange()) {
        *always_empty = true;  // a value outside the domain matches nothing
        return out;
      }
      SSDB_RETURN_IF_ERROR(code.status());
      SSDB_ASSIGN_OR_RETURN(OpDomain dom, col.CodeDomain());
      const uint64_t w = static_cast<uint64_t>(*code) -
                         static_cast<uint64_t>(dom.lo);
      out.kind = PredicateKind::kExactDet;
      out.det_share = ctx_.DeterministicShareFor(prf_det_, col.DomainTag(),
                                                 Fp61::FromU64(w), provider)
                          .value();
      return out;
    }
    case Predicate::Kind::kBetween: {
      if (!col.range()) {
        return Status::NotSupported("client: column '" + col.name +
                                    "' was not declared kCapRange");
      }
      SSDB_ASSIGN_OR_RETURN(OpDomain dom, col.CodeDomain());
      int64_t lo_code = 0, hi_code = 0;
      if (col.type == ValueType::kInt64) {
        if (!pred.lo.is_int() || !pred.hi.is_int()) {
          return Status::InvalidArgument(
              "client: BETWEEN bounds must match the column type");
        }
        lo_code = std::max(pred.lo.AsInt(), dom.lo);
        hi_code = std::min(pred.hi.AsInt(), dom.hi);
      } else {
        if (!pred.lo.is_string() || !pred.hi.is_string()) {
          return Status::InvalidArgument(
              "client: BETWEEN bounds must match the column type");
        }
        SSDB_ASSIGN_OR_RETURN(String27 codec,
                              String27::Create(col.string_width));
        bool lex_empty = false;
        SSDB_ASSIGN_OR_RETURN(
            OpDomain lex, codec.LexRange(pred.lo.AsString(),
                                         pred.hi.AsString(), &lex_empty));
        if (lex_empty) {  // reversed range matches nothing, not an error
          *always_empty = true;
          return out;
        }
        lo_code = lex.lo;
        hi_code = lex.hi;
      }
      if (lo_code > hi_code) {
        *always_empty = true;
        return out;
      }
      SSDB_ASSIGN_OR_RETURN(OrderPreservingScheme * scheme, GetOpScheme(col));
      out.kind = PredicateKind::kRangeOp;
      SSDB_ASSIGN_OR_RETURN(out.op_lo, scheme->Share(lo_code, provider));
      SSDB_ASSIGN_OR_RETURN(out.op_hi, scheme->Share(hi_code, provider));
      return out;
    }
    case Predicate::Kind::kPrefix: {
      if (col.type != ValueType::kString) {
        return Status::InvalidArgument(
            "client: prefix predicate needs a string column");
      }
      if (!col.range()) {
        return Status::NotSupported("client: column '" + col.name +
                                    "' was not declared kCapRange");
      }
      SSDB_ASSIGN_OR_RETURN(String27 codec, String27::Create(col.string_width));
      SSDB_ASSIGN_OR_RETURN(OpDomain range, codec.PrefixRange(pred.prefix));
      SSDB_ASSIGN_OR_RETURN(OrderPreservingScheme * scheme, GetOpScheme(col));
      out.kind = PredicateKind::kRangeOp;
      SSDB_ASSIGN_OR_RETURN(out.op_lo, scheme->Share(range.lo, provider));
      SSDB_ASSIGN_OR_RETURN(out.op_hi, scheme->Share(range.hi, provider));
      return out;
    }
  }
  return Status::Internal("client: unhandled predicate kind");
}

// --- Reconstruction -------------------------------------------------------------

Result<Value> DataSourceClient::ReconstructColumn(
    const ColumnSpec& column, const std::vector<IndexedShare>& shares,
    int64_t* code_out) const {
  SSDB_ASSIGN_OR_RETURN(Fp61 w, RobustFieldReconstruct(ctx_, shares));
  return DecodeColumnValue(column, w, code_out);
}

Result<Value> DataSourceClient::DecodeColumnValue(const ColumnSpec& column,
                                                  Fp61 w,
                                                  int64_t* code_out) const {
  SSDB_ASSIGN_OR_RETURN(OpDomain dom, column.CodeDomain());
  if (static_cast<u128>(w.value()) >= dom.size()) {
    return Status::Corruption("client: reconstructed offset outside domain");
  }
  const int64_t code = dom.lo + static_cast<int64_t>(w.value());
  if (code_out != nullptr) *code_out = code;
  return column.DecodeFromCode(code);
}

Result<std::vector<Value>> DataSourceClient::ReconstructStoredRow(
    const PlanTable& table, const std::vector<const ColumnSpec*>& columns,
    bool full_row,
    const std::vector<std::pair<size_t, const StoredRow*>>& provider_rows) {
  std::vector<Value> row(columns.size());
  std::vector<int64_t> codes(columns.size());
  // The provider subset is fixed for the whole row, so the Lagrange basis
  // is resolved once here and every column reconstructs through it with a
  // k-term dot product. GetBasis fails with exactly the statuses the
  // per-column Reconstruct would have produced (too few shares, bad or
  // duplicate provider) — never Corruption, so no robust-retry path is
  // bypassed by returning it directly.
  std::vector<size_t> providers(provider_rows.size());
  for (size_t i = 0; i < provider_rows.size(); ++i) {
    providers[i] = provider_rows[i].first;
  }
  SSDB_ASSIGN_OR_RETURN(SharingContext::BasisRef basis,
                        ctx_.GetBasis(providers));
  std::vector<Fp61> ys(provider_rows.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    for (size_t i = 0; i < provider_rows.size(); ++i) {
      ys[i] = Fp61::FromCanonical(provider_rows[i].second->cells[c].secret);
    }
    Result<Fp61> w = ctx_.ReconstructWithBasis(basis, ys);
    if (w.ok()) {
      SSDB_ASSIGN_OR_RETURN(row[c],
                            DecodeColumnValue(*columns[c], *w, &codes[c]));
    } else {
      // Inconsistent shares: drop to the robust per-column path, which
      // retries with each provider excluded before reporting Corruption.
      std::vector<IndexedShare> shares;
      shares.reserve(provider_rows.size());
      for (const auto& [p, srow] : provider_rows) {
        shares.push_back(
            IndexedShare{p, Fp61::FromCanonical(srow->cells[c].secret)});
      }
      SSDB_ASSIGN_OR_RETURN(row[c],
                            ReconstructColumn(*columns[c], shares, &codes[c]));
    }
  }
  // Tags cover every column, so they can only be checked on full rows.
  if (options_.verify_tags && full_row) {
    const uint64_t expect =
        RowTag(table.id, provider_rows.front().second->row_id, codes);
    size_t matches = 0;
    for (const auto& [p, srow] : provider_rows) {
      if (srow->tag == expect) ++matches;
    }
    if (matches * 2 <= provider_rows.size()) {
      return Status::Corruption("client: row integrity tag mismatch");
    }
  }
  return row;
}

// --- PlanHost hooks ------------------------------------------------------------

Result<PlanTable> DataSourceClient::ResolveTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("client: unknown table '" + name + "'");
  }
  PlanTable out;
  out.name = name;
  out.id = it->second.id;
  out.schema = &it->second.schema;
  out.layout = &it->second.layout;
  return out;
}

Result<Fp61> DataSourceClient::ReconstructField(
    const std::vector<IndexedShare>& shares) {
  return RobustFieldReconstruct(ctx_, shares);
}

Result<Value> DataSourceClient::ReconstructColumnValue(
    const ColumnSpec& column, const std::vector<IndexedShare>& shares,
    int64_t* code_out) {
  return ReconstructColumn(column, shares, code_out);
}

void DataSourceClient::OnRowsReconstructed(uint64_t rows) {
  cm_.rows_reconstructed->Inc(rows);
}

void DataSourceClient::OnCorruptionRetry() { cm_.corruption_retries->Inc(); }

void DataSourceClient::OnTraceFinalized(const QueryTrace& trace) {
  cm_.traced_bytes_sent->Inc(trace.total_bytes_sent());
  cm_.traced_bytes_received->Inc(trace.total_bytes_received());
  cm_.traced_clock_us->Inc(trace.total_clock_us());
  cm_.provider_legs->Inc(trace.total_provider_legs());
  uint64_t executed = 0;
  for (const PlanNodeTrace& node : trace.nodes) {
    if (node.executed) ++executed;
  }
  cm_.plan_nodes_executed->Inc(executed);
  cm_.retry_legs->Inc(trace.total_attempts());
  cm_.hedged_legs->Inc(trace.total_hedged());
  cm_.deadline_exceeded->Inc(trace.total_deadline_exceeded());
  cm_.breaker_skips->Inc(trace.total_breaker_skips());
  // Traces finalize only on success, so the meter bills exactly the
  // requests a tenant got answers for.
  ChargeMeter(trace.tenant, 1, trace.total_bytes_sent(),
              trace.total_bytes_received(), trace.total_round_trips(),
              trace.total_clock_us());
}

void DataSourceClient::ChargeMeter(const std::string& tenant,
                                   uint64_t requests, uint64_t bytes_sent,
                                   uint64_t bytes_received, uint64_t rounds,
                                   uint64_t clock_us) {
  if (tenant.empty()) return;
  // Per-tenant stratum plus the "_all" aggregate: Σ tenants == "_all"
  // holds by construction (same figures, same call site). GetCounter
  // takes the registration mutex, but the charge is per REQUEST (not per
  // leg) and tenant sets are small — cold-map lookups, warm handles.
  for (const std::string& t : {tenant, std::string("_all")}) {
    const MetricLabels labels = {{"tenant", t}};
    metrics_.GetCounter("ssdb_meter_requests_total", labels)->Inc(requests);
    metrics_.GetCounter("ssdb_meter_bytes_sent_total", labels)->Inc(bytes_sent);
    metrics_.GetCounter("ssdb_meter_bytes_received_total", labels)
        ->Inc(bytes_received);
    metrics_.GetCounter("ssdb_meter_rounds_total", labels)->Inc(rounds);
    metrics_.GetCounter("ssdb_meter_clock_us_total", labels)->Inc(clock_us);
  }
}

// --- Query execution -------------------------------------------------------------

Result<QueryResult> DataSourceClient::Execute(const Query& query,
                                              const RequestContext& ctx) {
  cm_.queries->Inc();
  // Aggregates cannot be merged with a pending client-side log; flush first.
  if (!lazy_log_.empty() && query.aggregate() != AggregateOp::kNone) {
    SSDB_RETURN_IF_ERROR(Flush());
  }
  Planner planner(this);
  SSDB_ASSIGN_OR_RETURN(QueryPlan plan, planner.Plan(query));
  Executor executor(this);
  executor.set_tenant(ctx.tenant);
  return executor.Execute(plan);
}

Result<std::string> DataSourceClient::Explain(const Query& query) {
  Planner planner(this);
  SSDB_ASSIGN_OR_RETURN(QueryPlan plan, planner.Plan(query));
  return plan.Render();
}

Result<std::string> DataSourceClient::Explain(const JoinQuery& join) {
  Planner planner(this);
  SSDB_ASSIGN_OR_RETURN(QueryPlan plan, planner.Plan(join));
  return plan.Render();
}

// --- Join -----------------------------------------------------------------------

Result<QueryResult> DataSourceClient::Execute(const JoinQuery& join,
                                              const RequestContext& ctx) {
  cm_.queries->Inc();
  if (!lazy_log_.empty()) SSDB_RETURN_IF_ERROR(Flush());
  Planner planner(this);
  SSDB_ASSIGN_OR_RETURN(QueryPlan plan, planner.Plan(join));
  Executor executor(this);
  executor.set_tenant(ctx.tenant);
  return executor.Execute(plan);
}

Result<QueryResult> DataSourceClient::Execute(const std::string& sql,
                                              const RequestContext& ctx) {
  SSDB_ASSIGN_OR_RETURN(SqlCommand cmd, ParseSql(sql));
  switch (cmd.kind) {
    case SqlCommand::Kind::kSelect:
      return Execute(cmd.query, ctx);
    case SqlCommand::Kind::kUpdate: {
      SSDB_ASSIGN_OR_RETURN(
          uint64_t updated,
          Update(cmd.table, cmd.where, cmd.set_column, cmd.set_value, ctx));
      QueryResult out;
      out.count = updated;
      out.aggregate_int = static_cast<int64_t>(updated);
      return out;
    }
    case SqlCommand::Kind::kDelete: {
      SSDB_ASSIGN_OR_RETURN(uint64_t deleted,
                            Delete(cmd.table, cmd.where, ctx));
      QueryResult out;
      out.count = deleted;
      out.aggregate_int = static_cast<int64_t>(deleted);
      return out;
    }
  }
  return Status::Internal("unhandled SQL command kind");
}

std::vector<Result<QueryResult>> DataSourceClient::ExecuteBatch(
    const std::vector<Query>& queries,
    const std::vector<RequestContext>& ctxs) {
  return RunBatch(queries, ctxs);
}

std::vector<Result<QueryResult>> DataSourceClient::ExecuteBatch(
    const std::vector<JoinQuery>& joins) {
  return RunBatch(joins, {});
}

template <typename Q>
std::vector<Result<QueryResult>> DataSourceClient::RunBatch(
    const std::vector<Q>& queries, const std::vector<RequestContext>& ctxs) {
  std::vector<Result<QueryResult>> out(
      queries.size(),
      Result<QueryResult>(Status::Internal("batch query not run")));
  if (queries.empty()) return out;
  if (!ctxs.empty() && ctxs.size() != queries.size()) {
    for (auto& slot : out) {
      slot = Status::InvalidArgument("client: batch context arity mismatch");
    }
    return out;
  }

  // Flush the lazy write log up front: per-query flushes would otherwise
  // race each other, and a batch of reads over a settled log is exactly
  // the §V.C "batch then read" pattern anyway.
  if (!lazy_log_.empty()) {
    const Status st = Flush();
    if (!st.ok()) {
      for (auto& slot : out) slot = st;
      return out;
    }
  }

  if (options_.batch_max_ops < 2) {
    // Each query runs its own quorum fan-out; the pool's caller-
    // participating ParallelFor makes the nesting (batch -> per-query
    // legs) deadlock-free.
    network_->pool().ParallelFor(queries.size(), [&](size_t i) {
      out[i] = Execute(queries[i], ctxs.empty() ? RequestContext() : ctxs[i]);
    });
    return out;
  }

  // Coalescing path: plan every query up front, then let the executor
  // fuse compatible point fan-outs and join share fetches into batch
  // envelopes (one round trip per chunk of batch_max_ops queries per
  // provider).
  Planner planner(this);
  std::vector<QueryPlan> plans;
  plans.reserve(queries.size());
  std::vector<size_t> plan_slots;
  for (size_t i = 0; i < queries.size(); ++i) {
    cm_.queries->Inc();
    Result<QueryPlan> plan = planner.Plan(queries[i]);
    if (!plan.ok()) {
      out[i] = plan.status();
      continue;
    }
    plans.push_back(std::move(*plan));
    plan_slots.push_back(i);
  }
  std::vector<const QueryPlan*> plan_ptrs;
  plan_ptrs.reserve(plans.size());
  for (const QueryPlan& p : plans) plan_ptrs.push_back(&p);
  std::vector<std::string> tenants;
  if (!ctxs.empty()) {
    tenants.reserve(plan_slots.size());
    for (size_t slot : plan_slots) tenants.push_back(ctxs[slot].tenant);
  }
  Executor executor(this);
  std::vector<Result<QueryResult>> results =
      executor.ExecuteBatch(plan_ptrs, tenants);
  for (size_t j = 0; j < results.size(); ++j) {
    out[plan_slots[j]] = std::move(results[j]);
  }
  return out;
}

// --- Updates (§V.C) ---------------------------------------------------------------

Result<uint64_t> DataSourceClient::Update(const std::string& table,
                                          const std::vector<Predicate>& where,
                                          const std::string& set_column,
                                          const Value& value,
                                          const RequestContext& ctx) {
  return Metered(ctx, [&]() -> Result<uint64_t> {
    auto it = tables_.find(table);
    if (it == tables_.end()) {
      return Status::NotFound("client: unknown table '" + table + "'");
    }
    TableInfo& info = it->second;
    SSDB_ASSIGN_OR_RETURN(size_t set_idx,
                          info.schema.ColumnIndex(set_column));
    SSDB_ASSIGN_OR_RETURN(int64_t check,
                          info.schema.columns[set_idx].EncodeToCode(value));
    (void)check;

    // Read-reconstruct phase (merged with any pending client-side ops).
    Query q = Query::Select(table);
    for (const Predicate& p : where) q.Where(p);
    SSDB_ASSIGN_OR_RETURN(QueryResult matched, Execute(q));

    uint64_t updated = 0;
    std::vector<std::vector<StoredRow>> per_provider(providers_.size());
    for (size_t i = 0; i < matched.rows.size(); ++i) {
      std::vector<Value> new_row = matched.rows[i];
      new_row[set_idx] = value;
      // A row is reshared on its owning shard group; updates that would
      // move the partition key across groups are rejected.
      SSDB_ASSIGN_OR_RETURN(size_t shard, ShardOfRow(info, matched.rows[i]));
      SSDB_ASSIGN_OR_RETURN(size_t new_shard, ShardOfRow(info, new_row));
      if (new_shard != shard) {
        return Status::NotSupported(
            "client: UPDATE would move the partition key to another shard "
            "group; DELETE and re-INSERT instead");
      }
      ++updated;
      if (!options_.lazy_updates) {
        // Eager reshare: fresh polynomials for every updated row (§V.C).
        SSDB_ASSIGN_OR_RETURN(
            std::vector<StoredRow> shares,
            BuildShareRows(&info, matched.row_ids[i], new_row));
        AddShareRows(shard, std::move(shares), &per_provider);
        continue;
      }
      // Coalesce with a pending op on the same row if present.
      bool coalesced = false;
      for (LazyOp& op : lazy_log_) {
        if (op.table == table && op.row_id == matched.row_ids[i] &&
            op.kind != LazyOp::Kind::kDelete) {
          op.row = new_row;
          coalesced = true;
          break;
        }
      }
      if (!coalesced) {
        LazyOp op;
        op.kind = LazyOp::Kind::kUpdate;
        op.table = table;
        op.row_id = matched.row_ids[i];
        op.row = std::move(new_row);
        op.shard = shard;
        SSDB_RETURN_IF_ERROR(AppendLazy(std::move(op)));
      }
    }
    if (options_.lazy_updates || updated == 0) return updated;
    std::vector<std::vector<Buffer>> ops(providers_.size());
    AppendRowOps(EncodeUpdateRows, info.id, info.layout, per_provider,
                 topology_.shards > 1, &ops);
    SSDB_RETURN_IF_ERROR(SendWrites(providers_, ops));
    return updated;
  });
}

Result<uint64_t> DataSourceClient::Delete(const std::string& table,
                                          const std::vector<Predicate>& where,
                                          const RequestContext& ctx) {
  return Metered(ctx, [&]() -> Result<uint64_t> {
    auto it = tables_.find(table);
    if (it == tables_.end()) {
      return Status::NotFound("client: unknown table '" + table + "'");
    }
    TableInfo& info = it->second;

    Query q = Query::Select(table);
    for (const Predicate& p : where) q.Where(p);
    SSDB_ASSIGN_OR_RETURN(QueryResult matched, Execute(q));
    const uint64_t deleted = matched.row_ids.size();

    // Sharded deletes tell each group only about the row ids it stores (a
    // provider rejects deletes of ids it never held).
    std::vector<std::vector<uint64_t>> shard_ids(topology_.shards);
    for (size_t i = 0; i < matched.row_ids.size(); ++i) {
      const uint64_t id = matched.row_ids[i];
      SSDB_ASSIGN_OR_RETURN(size_t shard, ShardOfRow(info, matched.rows[i]));
      if (!options_.lazy_updates) {
        shard_ids[shard].push_back(id);
        continue;
      }
      // A pending insert/update of this row is simply dropped.
      bool was_pending_insert = false;
      for (auto op_it = lazy_log_.begin(); op_it != lazy_log_.end();) {
        if (op_it->table == table && op_it->row_id == id) {
          was_pending_insert = (op_it->kind == LazyOp::Kind::kInsert);
          op_it = lazy_log_.erase(op_it);
        } else {
          ++op_it;
        }
      }
      if (!was_pending_insert) {
        LazyOp op;
        op.kind = LazyOp::Kind::kDelete;
        op.table = table;
        op.row_id = id;
        op.shard = shard;
        SSDB_RETURN_IF_ERROR(AppendLazy(std::move(op)));
      }
    }
    if (options_.lazy_updates) return deleted;
    std::vector<std::vector<Buffer>> ops(providers_.size());
    AppendDeleteOps(info.id, shard_ids, topology_.providers_per_shard, &ops);
    SSDB_RETURN_IF_ERROR(SendWrites(providers_, ops));
    return deleted;
  });
}

Status DataSourceClient::AppendLazy(LazyOp op) {
  lazy_log_.push_back(std::move(op));
  if (lazy_log_.size() >= options_.lazy_flush_threshold) {
    return Flush();
  }
  return Status::OK();
}

Status DataSourceClient::Flush() {
  if (lazy_log_.empty()) return Status::OK();
  cm_.lazy_flushes->Inc();

  // Coalesce per (table, row_id), preserving op order. A row's shard is
  // fixed at append time and survives coalescing (cross-shard partition
  // key moves are rejected at Update).
  struct Final {
    LazyOp::Kind kind;
    std::vector<Value> row;
    size_t shard = 0;
  };
  std::map<std::pair<std::string, uint64_t>, Final> final_ops;
  for (const LazyOp& op : lazy_log_) {
    auto key = std::make_pair(op.table, op.row_id);
    auto fit = final_ops.find(key);
    if (fit == final_ops.end()) {
      final_ops.emplace(key, Final{op.kind, op.row, op.shard});
      continue;
    }
    switch (op.kind) {
      case LazyOp::Kind::kInsert:
        fit->second = Final{LazyOp::Kind::kInsert, op.row, op.shard};
        break;
      case LazyOp::Kind::kUpdate:
        // insert+update stays an insert with the newer payload.
        fit->second.row = op.row;
        break;
      case LazyOp::Kind::kDelete:
        fit->second = Final{LazyOp::Kind::kDelete, {}, fit->second.shard};
        break;
    }
  }

  // Each provider's ops are, per table, one insert, one update and one
  // delete message (kinds without rows are left out), and the whole log
  // ships in SendWrites rounds of batch_max_ops ops per provider.
  auto any_rows = [](const std::vector<std::vector<StoredRow>>& v) {
    for (const auto& rows : v) {
      if (!rows.empty()) return true;
    }
    return false;
  };
  const bool sharded = topology_.shards > 1;
  std::vector<std::vector<Buffer>> flush_ops(providers_.size());
  for (auto& [table_name, info] : tables_) {
    std::vector<std::vector<StoredRow>> inserts(providers_.size());
    std::vector<std::vector<StoredRow>> updates(providers_.size());
    std::vector<std::vector<uint64_t>> deletes(topology_.shards);
    for (auto& [key, final_op] : final_ops) {
      if (key.first != table_name) continue;
      if (final_op.kind == LazyOp::Kind::kDelete) {
        deletes[final_op.shard].push_back(key.second);
        continue;
      }
      SSDB_ASSIGN_OR_RETURN(std::vector<StoredRow> shares,
                            BuildShareRows(&info, key.second, final_op.row));
      AddShareRows(final_op.shard, std::move(shares),
                   final_op.kind == LazyOp::Kind::kInsert ? &inserts
                                                          : &updates);
    }
    if (any_rows(inserts)) {
      AppendRowOps(EncodeInsertRows, info.id, info.layout, inserts, sharded,
                   &flush_ops);
    }
    if (any_rows(updates)) {
      AppendRowOps(EncodeUpdateRows, info.id, info.layout, updates, sharded,
                   &flush_ops);
    }
    AppendDeleteOps(info.id, deletes, topology_.providers_per_shard,
                    &flush_ops);
  }
  SSDB_RETURN_IF_ERROR(SendWrites(providers_, flush_ops));
  lazy_log_.clear();
  return Status::OK();
}

Status DataSourceClient::RefreshTable(const std::string& table) {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("client: unknown table '" + table + "'");
  }
  TableInfo& info = it->second;
  SSDB_RETURN_IF_ERROR(Flush());

  // Probe every provider first: a refresh applied by only a subset of the
  // providers would desynchronize the sharing (some shares on the new
  // polynomial, some on the old), so abort early if anyone is unreachable.
  // This narrows, but does not close, the partial-failure window — a
  // crash mid-refresh still requires re-running the refresh to completion
  // before reads that mix refreshed and stale providers reconstruct.
  Buffer probe;
  EncodeTableStats(info.id, &probe);
  SSDB_RETURN_IF_ERROR(
      SendWrites(providers_, OneEach(probe, providers_.size())));

  // Fetch each shard group's row id set from that group's read quorum,
  // then ship fresh zero-shares per (row, column). Every provider of a
  // group must apply its deltas or the group's sharing desynchronizes,
  // so within a group this is the seed's n-of-n refresh.
  const size_t n_per = topology_.providers_per_shard;
  QueryRequest idq;
  idq.table_id = info.id;
  idq.action = QueryAction::kFetchRowIds;
  Buffer id_request;
  EncodeQuery(idq, &id_request);
  std::vector<std::vector<RefreshDelta>> per_provider(providers_.size());
  for (size_t s = 0; s < topology_.shards; ++s) {
    const std::vector<Buffer> requests(n_per, id_request);
    SSDB_ASSIGN_OR_RETURN(
        std::vector<Executor::ProviderResponse> responses,
        Executor::CallQuorum(network_, shard_providers_[s], requests,
                             options_.k, /*minimum=*/0, /*trace=*/nullptr,
                             options_.resilience, &scoreboard_,
                             /*order=*/{}, &metrics_));
    std::vector<uint64_t> row_ids;
    Status last = Status::Unavailable("client: no usable id response");
    for (const auto& r : responses) {
      Decoder dec(Slice(r.bytes));
      last = DecodeResponseHeader(&dec);
      if (!last.ok()) continue;
      last = DecodeRowIdsResponse(&dec, &row_ids);
      if (last.ok()) break;
    }
    SSDB_RETURN_IF_ERROR(last);

    for (uint64_t row_id : row_ids) {
      for (size_t p = 0; p < n_per; ++p) {
        per_provider[s * n_per + p].push_back(RefreshDelta{row_id, {}});
        per_provider[s * n_per + p].back().column_deltas.resize(
            info.schema.columns.size());
      }
      for (size_t c = 0; c < info.schema.columns.size(); ++c) {
        const std::vector<Fp61> zeros = ctx_.ZeroShares(&rng_);
        for (size_t p = 0; p < n_per; ++p) {
          per_provider[s * n_per + p].back().column_deltas[c] =
              zeros[p].value();
        }
      }
    }
  }
  std::vector<std::vector<Buffer>> ops(providers_.size(),
                                       std::vector<Buffer>(1));
  for (size_t g = 0; g < providers_.size(); ++g) {
    EncodeRefreshRows(info.id, per_provider[g], &ops[g][0]);
  }
  return SendWrites(providers_, ops);
}

Result<bool> DataSourceClient::MatchesPlain(
    const TableSchema& schema, const std::vector<Value>& row,
    const std::vector<Predicate>& preds) const {
  for (const Predicate& pred : preds) {
    SSDB_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(pred.column));
    const ColumnSpec& col = schema.columns[idx];
    SSDB_ASSIGN_OR_RETURN(int64_t code, col.EncodeToCode(row[idx]));
    switch (pred.kind) {
      case Predicate::Kind::kEq: {
        auto target = col.EncodeToCode(pred.eq);
        if (!target.ok()) return false;
        if (code != *target) return false;
        break;
      }
      case Predicate::Kind::kBetween: {
        int64_t lo, hi;
        if (col.type == ValueType::kInt64) {
          lo = pred.lo.AsInt();
          hi = pred.hi.AsInt();
        } else {
          SSDB_ASSIGN_OR_RETURN(String27 codec,
                                String27::Create(col.string_width));
          bool lex_empty = false;
          SSDB_ASSIGN_OR_RETURN(
              OpDomain lex,
              codec.LexRange(pred.lo.AsString(), pred.hi.AsString(),
                             &lex_empty));
          if (lex_empty) return false;  // reversed range matches nothing
          lo = lex.lo;
          hi = lex.hi;
        }
        if (code < lo || code > hi) return false;
        break;
      }
      case Predicate::Kind::kPrefix: {
        SSDB_ASSIGN_OR_RETURN(String27 codec,
                              String27::Create(col.string_width));
        SSDB_ASSIGN_OR_RETURN(OpDomain range, codec.PrefixRange(pred.prefix));
        if (code < range.lo || code > range.hi) return false;
        break;
      }
    }
  }
  return true;
}

Status DataSourceClient::ApplyLazyOverlay(const PlanTable& table,
                                          const Query& query,
                                          QueryResult* result) {
  if (lazy_log_.empty() || query.aggregate() != AggregateOp::kNone) {
    return Status::OK();
  }
  // Last pending op per row id for this table.
  std::map<uint64_t, const LazyOp*> pending;
  for (const LazyOp& op : lazy_log_) {
    if (op.table == table.schema->table_name) pending[op.row_id] = &op;
  }
  if (pending.empty()) return Status::OK();

  QueryResult merged;
  for (size_t i = 0; i < result->rows.size(); ++i) {
    auto pit = pending.find(result->row_ids[i]);
    if (pit == pending.end()) {
      merged.row_ids.push_back(result->row_ids[i]);
      merged.rows.push_back(std::move(result->rows[i]));
      continue;
    }
    // Row has a pending op; it is re-evaluated below from the log.
  }
  for (auto& [row_id, op] : pending) {
    if (op->kind == LazyOp::Kind::kDelete) continue;
    SSDB_ASSIGN_OR_RETURN(
        bool matches,
        MatchesPlain(*table.schema, op->row, query.predicates()));
    if (matches) {
      merged.row_ids.push_back(row_id);
      merged.rows.push_back(op->row);
    }
  }
  merged.count = merged.rows.size();
  *result = std::move(merged);
  return Status::OK();
}

// --- Public data mash-up (§V.D) -----------------------------------------------------

Status DataSourceClient::PublishPublicTable(
    const std::string& name, std::vector<ColumnSpec> columns,
    const std::vector<std::vector<Value>>& rows) {
  if (public_tables_.count(name) != 0) {
    return Status::AlreadyExists("client: public table '" + name +
                                 "' already exists");
  }
  if (columns.empty()) {
    return Status::InvalidArgument("client: public table needs columns");
  }
  for (const auto& row : rows) {
    if (row.size() != columns.size()) {
      return Status::InvalidArgument("client: public row arity mismatch");
    }
  }
  PublicInfo info;
  info.id = next_table_id_++;
  info.columns = std::move(columns);
  for (ColumnSpec& col : info.columns) {
    if (col.domain_name.empty()) {
      col.domain_name = name + "." + col.name;
    }
  }
  info.subscribed.assign(info.columns.size(), false);
  info.num_rows = rows.size();

  Buffer create;
  EncodeCreatePublicTable(info.id,
                          static_cast<uint32_t>(info.columns.size()), &create);
  SSDB_RETURN_IF_ERROR(
      SendWrites(providers_, OneEach(create, providers_.size())));
  Buffer insert;
  EncodeInsertPublicRows(info.id, rows, &insert);
  SSDB_RETURN_IF_ERROR(
      SendWrites(providers_, OneEach(insert, providers_.size())));
  public_tables_.emplace(name, std::move(info));
  return Status::OK();
}

Status DataSourceClient::SubscribePublicColumn(const std::string& name,
                                               const std::string& column) {
  auto it = public_tables_.find(name);
  if (it == public_tables_.end()) {
    return Status::NotFound("client: unknown public table '" + name + "'");
  }
  PublicInfo& info = it->second;
  size_t col_idx = info.columns.size();
  for (size_t i = 0; i < info.columns.size(); ++i) {
    if (info.columns[i].name == column) col_idx = i;
  }
  if (col_idx == info.columns.size()) {
    return Status::NotFound("client: unknown public column '" + column + "'");
  }
  const ColumnSpec& spec = info.columns[col_idx];

  // One-time download of the (public) column from any single provider.
  Buffer fetch;
  EncodeFetchPublicColumn(info.id, static_cast<uint32_t>(col_idx), &fetch);
  std::vector<std::vector<Value>> rows;
  std::vector<uint64_t> row_ids;
  Status last = Status::Unavailable("client: no provider reachable");
  for (size_t p = 0; p < providers_.size(); ++p) {
    auto r = network_->Call(providers_[p], fetch.AsSlice());
    if (!r.ok()) {
      last = r.status();
      continue;
    }
    Decoder dec{Slice(*r)};
    last = DecodeResponseHeader(&dec);
    if (!last.ok()) continue;
    last = DecodePublicRowsResponse(&dec, &rows, &row_ids);
    if (last.ok()) break;
  }
  SSDB_RETURN_IF_ERROR(last);

  // Build the private share index under this column's domain keys and
  // attach it to every provider.
  SSDB_ASSIGN_OR_RETURN(OpDomain dom, spec.CodeDomain());
  SSDB_ASSIGN_OR_RETURN(OrderPreservingScheme * scheme, GetOpScheme(spec));
  // Public tables replicate to every provider; a provider's index uses
  // its within-group evaluation position (p mod providers_per_shard).
  const size_t n_per = topology_.providers_per_shard;
  std::vector<std::vector<ShareIndexEntry>> entries(providers_.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    SSDB_ASSIGN_OR_RETURN(int64_t code, spec.EncodeToCode(rows[i][0]));
    const uint64_t w =
        static_cast<uint64_t>(code) - static_cast<uint64_t>(dom.lo);
    for (size_t p = 0; p < providers_.size(); ++p) {
      ShareIndexEntry e;
      e.row_id = row_ids[i];
      e.det_share = ctx_.DeterministicShareFor(prf_det_, spec.DomainTag(),
                                               Fp61::FromU64(w), p % n_per)
                        .value();
      SSDB_ASSIGN_OR_RETURN(e.op_share, scheme->Share(code, p % n_per));
      entries[p].push_back(e);
    }
  }
  std::vector<std::vector<Buffer>> ops(providers_.size(),
                                       std::vector<Buffer>(1));
  for (size_t p = 0; p < providers_.size(); ++p) {
    EncodeAttachShareIndex(info.id, static_cast<uint32_t>(col_idx),
                           entries[p], &ops[p][0]);
  }
  SSDB_RETURN_IF_ERROR(SendWrites(providers_, ops));
  info.subscribed[col_idx] = true;
  return Status::OK();
}

Result<QueryResult> DataSourceClient::QueryPublic(const std::string& name,
                                                  const Predicate& predicate) {
  cm_.queries->Inc();
  auto it = public_tables_.find(name);
  if (it == public_tables_.end()) {
    return Status::NotFound("client: unknown public table '" + name + "'");
  }
  PublicInfo& info = it->second;
  size_t col_idx = info.columns.size();
  for (size_t i = 0; i < info.columns.size(); ++i) {
    if (info.columns[i].name == predicate.column) col_idx = i;
  }
  if (col_idx == info.columns.size()) {
    return Status::NotFound("client: unknown public column '" +
                            predicate.column + "'");
  }
  if (!info.subscribed[col_idx]) {
    return Status::NotSupported(
        "client: subscribe to the public column before querying it");
  }

  // Reuse the private rewriting machinery via a synthetic schema view.
  TableSchema view;
  view.table_name = name;
  view.columns = info.columns;
  bool always_empty = false;

  Status last = Status::Unavailable("client: no provider reachable");
  const size_t n_per = topology_.providers_per_shard;
  for (size_t p = 0; p < providers_.size(); ++p) {
    SSDB_ASSIGN_OR_RETURN(
        SharePredicate sp,
        RewriteForProvider(view, predicate, p % n_per, &always_empty));
    if (always_empty) return QueryResult();
    Buffer req;
    EncodePublicFilter(info.id, static_cast<uint32_t>(col_idx), sp, &req);
    auto r = network_->Call(providers_[p], req.AsSlice());
    if (!r.ok()) {
      last = r.status();
      continue;
    }
    Decoder dec{Slice(*r)};
    last = DecodeResponseHeader(&dec);
    if (!last.ok()) continue;
    std::vector<std::vector<Value>> rows;
    std::vector<uint64_t> row_ids;
    last = DecodePublicRowsResponse(&dec, &rows, &row_ids);
    if (!last.ok()) continue;
    QueryResult out;
    out.rows = std::move(rows);
    out.row_ids = std::move(row_ids);
    out.count = out.rows.size();
    return out;
  }
  return last;
}

}  // namespace ssdb
