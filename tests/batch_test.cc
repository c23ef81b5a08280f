// Batch envelope tests: wire framing, provider semantics, end-to-end
// equivalence between batched and per-op request streams, exact
// trace/ChannelStats reconciliation under batching, thread-count
// determinism, fault interaction, and the net_batch_* telemetry.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/outsourced_db.h"
#include "net/batch.h"
#include "provider/protocol.h"
#include "provider/provider.h"
#include "workload/generators.h"

namespace ssdb {
namespace {

std::unique_ptr<OutsourcedDatabase> MakeDb(size_t n, size_t k, size_t rows,
                                           size_t batch_max_ops,
                                           size_t fanout_threads = 0,
                                           bool lazy = false) {
  OutsourcedDbOptions options;
  options.topology = Topology(/*m=*/1, /*n_per=*/n, /*k=*/k);
  options.client.batch_max_ops = batch_max_ops;
  options.fanout_threads = fanout_threads;
  options.client.lazy_updates = lazy;
  if (lazy) options.client.lazy_flush_threshold = 1000000;  // manual Flush only
  auto db = std::move(OutsourcedDatabase::Create(options)).value();
  EXPECT_TRUE(db->CreateTable(EmployeeGenerator::EmployeesSchema()).ok());
  if (rows > 0) {
    EmployeeGenerator gen(77, Distribution::kUniform);
    EXPECT_TRUE(db->Insert("Employees", gen.Rows(rows)).ok());
    EXPECT_TRUE(db->Flush().ok());
  }
  return db;
}

std::string Fingerprint(const Result<QueryResult>& r) {
  if (!r.ok()) return "ERR:" + r.status().ToString();
  std::string out;
  for (const auto& row : r->rows) {
    for (const Value& v : row) {
      out += v.ToString();
      out += ',';
    }
    out += ';';
  }
  out += "#" + std::to_string(r->count);
  out += "/" + std::to_string(r->aggregate_int);
  for (const auto& g : r->groups) {
    out += "|" + g.key.ToString() + ":" + std::to_string(g.sum) + "." +
           std::to_string(g.count);
  }
  return out;
}

std::vector<Query> PointReadWorkload() {
  std::vector<Query> queries;
  for (int dept = 0; dept < 12; ++dept) {
    queries.push_back(
        Query::Select("Employees").Where(Eq("dept", Value::Int(dept))));
  }
  return queries;
}

// --- Envelope framing -------------------------------------------------------

TEST(BatchCodec, RequestRoundTrip) {
  Buffer op1, op2, op3;
  op1.PutU8(1);
  op1.PutU32(7);
  op2.PutU8(14);
  op3.PutU8(2);
  op3.PutLengthPrefixed(Slice("payload"));

  Buffer envelope;
  EncodeBatchRequest(std::vector<Buffer>{op1, op2, op3}, &envelope);

  Decoder dec(envelope.AsSlice());
  uint8_t tag = 0;
  ASSERT_TRUE(dec.GetU8(&tag).ok());
  EXPECT_EQ(tag, kBatchMsgTag);
  std::vector<Slice> ops;
  ASSERT_TRUE(DecodeBatchRequestPayload(&dec, &ops).ok());
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].size(), op1.size());
  EXPECT_EQ(ops[1].size(), op2.size());
  EXPECT_EQ(ops[2].size(), op3.size());
  EXPECT_EQ(0, memcmp(ops[2].data(), op3.data(), op3.size()));
  EXPECT_TRUE(dec.done());
}

TEST(BatchCodec, ResponseRoundTripAllowsEmpty) {
  Buffer r1, r2;
  EncodeOkHeader(&r1);
  EncodeErrorResponse(Status::NotFound("gone"), &r2);
  Buffer payload;
  EncodeBatchResponsePayload({r1, r2}, &payload);
  Decoder dec(payload.AsSlice());
  std::vector<Slice> responses;
  ASSERT_TRUE(DecodeBatchResponsePayload(&dec, &responses).ok());
  ASSERT_EQ(responses.size(), 2u);
  Decoder sub0(responses[0]);
  EXPECT_TRUE(DecodeResponseHeader(&sub0).ok());
  Decoder sub1(responses[1]);
  EXPECT_TRUE(DecodeResponseHeader(&sub1).IsNotFound());

  // Zero responses stay decodable (a quorum answer can be all-error).
  Buffer none;
  EncodeBatchResponsePayload({}, &none);
  Decoder dec2(none.AsSlice());
  ASSERT_TRUE(DecodeBatchResponsePayload(&dec2, &responses).ok());
  EXPECT_TRUE(responses.empty());
}

TEST(BatchCodec, FuzzReencodeByteIdentical) {
  // Decode returns slice views into the envelope (no copies); re-encoding
  // those views must reproduce the envelope byte for byte, including the
  // reserve-exact size computation.
  Rng rng(0xBA7C);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Buffer> ops(1 + rng.Uniform(8));
    for (Buffer& op : ops) {
      const size_t len = rng.Uniform(400);
      for (size_t i = 0; i < len; ++i) {
        op.PutU8(static_cast<uint8_t>(rng.Next()));
      }
    }
    Buffer envelope;
    EncodeBatchRequest(ops, &envelope);

    Decoder dec(envelope.AsSlice());
    uint8_t tag = 0;
    ASSERT_TRUE(dec.GetU8(&tag).ok());
    std::vector<Slice> views;
    ASSERT_TRUE(DecodeBatchRequestPayload(&dec, &views).ok());
    EXPECT_TRUE(dec.done());

    Buffer reencoded;
    EncodeBatchRequest(views, &reencoded);
    ASSERT_EQ(reencoded.size(), envelope.size());
    EXPECT_EQ(0,
              memcmp(reencoded.data(), envelope.data(), envelope.size()))
        << "trial " << trial;

    // Same for the response payload framing.
    Buffer payload;
    EncodeBatchResponsePayload(ops, &payload);
    Decoder pdec(payload.AsSlice());
    std::vector<Slice> responses;
    ASSERT_TRUE(DecodeBatchResponsePayload(&pdec, &responses).ok());
    ASSERT_EQ(responses.size(), ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      ASSERT_EQ(responses[i].size(), ops[i].size());
      EXPECT_EQ(0, memcmp(responses[i].data(), ops[i].data(), ops[i].size()));
    }
  }
}

TEST(BatchCodec, RejectsMalformedEnvelopes) {
  // Empty request envelope is meaningless.
  Buffer empty;
  empty.PutVarint(0);
  Decoder dec(empty.AsSlice());
  std::vector<Slice> ops;
  EXPECT_TRUE(DecodeBatchRequestPayload(&dec, &ops).IsInvalidArgument());

  // An absurd op count must fail the decode bound, not attempt a huge
  // reserve.
  Buffer bomb;
  bomb.PutVarint(kMaxBatchOps + 1);
  Decoder dec2(bomb.AsSlice());
  EXPECT_TRUE(DecodeBatchRequestPayload(&dec2, &ops).IsCorruption());

  // Truncated sub-op.
  Buffer truncated;
  truncated.PutVarint(1);
  truncated.PutVarint(100);  // claims 100 bytes, provides none
  Decoder dec3(truncated.AsSlice());
  EXPECT_FALSE(DecodeBatchRequestPayload(&dec3, &ops).ok());
}

// --- Provider semantics -----------------------------------------------------

TEST(BatchProvider, MixedOpsExecuteUnderOneRequest) {
  Provider p("t");
  const std::vector<ProviderColumnLayout> layout = {{true, true}};
  StoredRow row;
  row.row_id = 1;
  row.cells.resize(1);
  row.cells[0].det = 10;
  row.cells[0].op = 100;
  row.cells[0].secret = 42;

  Buffer create, insert, stats_known, stats_unknown, nested;
  EncodeCreateTable(7, layout, &create);
  EncodeInsertRows(7, layout, {row}, &insert);
  EncodeTableStats(7, &stats_known);
  EncodeTableStats(99, &stats_unknown);  // unknown table -> embedded error
  EncodeBatchRequest(std::vector<Buffer>{stats_known}, &nested);  // nested

  Buffer envelope;
  EncodeBatchRequest(
      std::vector<Buffer>{create, insert, stats_known, stats_unknown, nested},
      &envelope);

  auto r = p.Handle(envelope.AsSlice());
  ASSERT_TRUE(r.ok());
  // The whole envelope is ONE provider request.
  EXPECT_EQ(p.stats().requests.load(), 1u);

  Decoder dec(r->AsSlice());
  ASSERT_TRUE(DecodeResponseHeader(&dec).ok());
  std::vector<Slice> responses;
  ASSERT_TRUE(DecodeBatchResponsePayload(&dec, &responses).ok());
  ASSERT_EQ(responses.size(), 5u);

  // Sub-ops executed in order: create, insert and the first stats call
  // succeeded; the unknown table and the nested envelope travel as
  // embedded error responses without masking their siblings.
  Decoder s0(responses[0]), s1(responses[1]), s2(responses[2]);
  EXPECT_TRUE(DecodeResponseHeader(&s0).ok());
  EXPECT_TRUE(DecodeResponseHeader(&s1).ok());
  EXPECT_TRUE(DecodeResponseHeader(&s2).ok());
  Decoder s3(responses[3]);
  EXPECT_TRUE(DecodeResponseHeader(&s3).IsNotFound());
  Decoder s4(responses[4]);
  EXPECT_TRUE(DecodeResponseHeader(&s4).IsInvalidArgument());
}

TEST(BatchProvider, EmptyEnvelopeIsAnInBandError) {
  Provider p("t");
  Buffer envelope;
  envelope.PutU8(kBatchMsgTag);
  envelope.PutVarint(0);
  auto r = p.Handle(envelope.AsSlice());
  ASSERT_TRUE(r.ok());  // errors travel in-band, never as transport failures
  Decoder dec(r->AsSlice());
  EXPECT_FALSE(DecodeResponseHeader(&dec).ok());
}

// --- End-to-end equivalence -------------------------------------------------

TEST(BatchEquivalence, BulkLoadMatchesInsertAndSlashesCalls) {
  EmployeeGenerator gen(9, Distribution::kUniform);
  const auto rows = gen.Rows(60);

  auto reference = MakeDb(3, 2, 0, /*batch_max_ops=*/128);
  ASSERT_TRUE(reference->Insert("Employees", rows).ok());

  auto bulk = MakeDb(3, 2, 0, /*batch_max_ops=*/128);
  const uint64_t bulk_calls_before = bulk->network_stats().calls;
  ASSERT_TRUE(bulk->BulkLoad("Employees", rows).ok());
  const uint64_t bulk_calls = bulk->network_stats().calls - bulk_calls_before;

  auto per_row = MakeDb(3, 2, 0, /*batch_max_ops=*/128);
  const uint64_t per_row_before = per_row->network_stats().calls;
  for (const auto& row : rows) {
    ASSERT_TRUE(per_row->Insert("Employees", {row}).ok());
  }
  const uint64_t per_row_calls =
      per_row->network_stats().calls - per_row_before;

  // Identical stored data: a full scan returns the same rows in the same
  // order on all three deployments.
  const Query all = Query::Select("Employees");
  const std::string want = Fingerprint(reference->Execute(all));
  EXPECT_EQ(Fingerprint(bulk->Execute(all)), want);
  EXPECT_EQ(Fingerprint(per_row->Execute(all)), want);

  // 60 rows in one chunk: n envelope calls versus 60*n insert calls.
  EXPECT_GE(per_row_calls, 3 * bulk_calls)
      << "bulk=" << bulk_calls << " per_row=" << per_row_calls;
}

TEST(BatchEquivalence, BatchedPointReadsMatchPerOpWireTraffic) {
  auto batched = MakeDb(4, 2, 200, /*batch_max_ops=*/128);
  auto unbatched = MakeDb(4, 2, 200, /*batch_max_ops=*/1);
  const auto queries = PointReadWorkload();

  const uint64_t batched_before = batched->network_stats().calls;
  auto batched_results = batched->ExecuteBatch(queries);
  const uint64_t batched_calls =
      batched->network_stats().calls - batched_before;

  const uint64_t unbatched_before = unbatched->network_stats().calls;
  auto unbatched_results = unbatched->ExecuteBatch(queries);
  const uint64_t unbatched_calls =
      unbatched->network_stats().calls - unbatched_before;

  ASSERT_EQ(batched_results.size(), queries.size());
  ASSERT_EQ(unbatched_results.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batched_results[i].ok())
        << i << ": " << batched_results[i].status().ToString();
    EXPECT_EQ(Fingerprint(batched_results[i]), Fingerprint(unbatched_results[i]))
        << "slot " << i;
  }

  // 12 compatible point reads fuse into one envelope per contacted
  // provider: >= 3x fewer network calls than the per-op stream.
  EXPECT_GE(unbatched_calls, 3 * batched_calls)
      << "batched=" << batched_calls << " unbatched=" << unbatched_calls;

  // The fused run charged the envelope telemetry.
  EXPECT_GT(
      batched->metrics().GetCounter("ssdb_net_batch_envelopes_total")->value(),
      0u);
  EXPECT_EQ(
      unbatched->metrics().GetCounter("ssdb_net_batch_envelopes_total")->value(),
      0u);
}

TEST(BatchEquivalence, UnionBranchesShareOneRound) {
  auto batched = MakeDb(4, 2, 200, /*batch_max_ops=*/128);
  auto unbatched = MakeDb(4, 2, 200, /*batch_max_ops=*/1);
  const Query disj = Query::Select("Employees")
                         .WhereAny({Eq("dept", Value::Int(1)),
                                    Eq("dept", Value::Int(2)),
                                    Eq("dept", Value::Int(3))});

  const uint64_t batched_before = batched->network_stats().calls;
  auto b = batched->Execute(disj);
  const uint64_t batched_calls = batched->network_stats().calls - batched_before;

  const uint64_t unbatched_before = unbatched->network_stats().calls;
  auto u = unbatched->Execute(disj);
  const uint64_t unbatched_calls =
      unbatched->network_stats().calls - unbatched_before;

  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  EXPECT_EQ(Fingerprint(b), Fingerprint(u));
  // Three branches fused into one envelope round: 3x fewer calls.
  EXPECT_GE(unbatched_calls, 3 * batched_calls)
      << "batched=" << batched_calls << " unbatched=" << unbatched_calls;
}

TEST(BatchEquivalence, LazyFlushCoalescesPerProvider) {
  auto run = [](size_t batch_max_ops) {
    // 20 rows flushed to the providers, then a mixed pending log: 10 new
    // inserts plus a salary update that rewrites every stored row.
    auto db = MakeDb(3, 2, 20, batch_max_ops, /*fanout_threads=*/0,
                     /*lazy=*/true);
    EmployeeGenerator gen(11, Distribution::kUniform);
    EXPECT_TRUE(db->Insert("Employees", gen.Rows(10)).ok());
    EXPECT_TRUE(
        db->Update("Employees",
                   {Between("salary", Value::Int(0), Value::Int(200000))},
                   "salary", Value::Int(12345))
            .ok());
    const uint64_t before = db->network_stats().calls;
    EXPECT_TRUE(db->Flush().ok());
    const uint64_t flush_calls = db->network_stats().calls - before;
    const std::string rows = Fingerprint(db->Execute(Query::Select("Employees")));
    return std::make_pair(flush_calls, rows);
  };

  const std::pair<uint64_t, std::string> coalesced = run(128);
  const std::pair<uint64_t, std::string> per_op = run(1);
  EXPECT_EQ(coalesced.second, per_op.second);
  // The flush shipped the inserts and updates in ONE envelope per
  // provider instead of one round per op kind.
  EXPECT_GE(per_op.first, 2 * coalesced.first)
      << "coalesced=" << coalesced.first << " per_op=" << per_op.first;
}

TEST(BatchEquivalence, ShardedFlushAdvancesAllGroupsInOneRound) {
  // m=2 range-partitioned on eid: low eids live in group 0, high ones in
  // group 1. The pending log holds an update in group 0; a metered insert
  // into group 1 fills it to the flush threshold, so that insert's meter
  // bills exactly the flush.
  struct Flush {
    uint64_t rounds = 0;
    uint64_t clock_us = 0;
    std::vector<uint64_t> bytes_sent;  // per provider
  };
  auto run = [](size_t batch_max_ops) {
    OutsourcedDbOptions options;
    options.topology = Topology(/*m=*/2, /*n_per=*/3, /*k=*/2,
                                Partitioner::kRange);
    options.fanout_threads = 1;
    options.client.batch_max_ops = batch_max_ops;
    options.client.lazy_updates = true;
    options.client.lazy_flush_threshold = 2;
    auto db = std::move(OutsourcedDatabase::Create(options)).value();
    TableSchema schema;
    schema.table_name = "Staff";
    schema.columns = {IntColumn("eid", 0, 100000),
                      IntColumn("salary", 0, 200000)};
    EXPECT_TRUE(db->CreateTable(schema).ok());
    EXPECT_TRUE(db->Insert("Staff", {{Value::Int(10), Value::Int(500)},
                                     {Value::Int(90000), Value::Int(600)}})
                    .ok());
    EXPECT_TRUE(db->Update("Staff", {Eq("eid", Value::Int(10))}, "salary",
                           Value::Int(700))
                    .ok());
    EXPECT_EQ(db->client().pending_lazy_ops(), 1u);

    std::vector<uint64_t> sent_before(db->n());
    for (size_t i = 0; i < db->n(); ++i) {
      sent_before[i] = db->network().stats(i).bytes_sent;
    }
    EXPECT_TRUE(db->Insert("Staff", {{Value::Int(95000), Value::Int(800)}},
                           RequestContext{"acme"})
                    .ok());
    EXPECT_EQ(db->client().pending_lazy_ops(), 0u);
    Flush out;
    MetricsRegistry& reg = db->metrics();
    const MetricLabels acme = {{"tenant", "acme"}};
    out.rounds = reg.CounterValue("ssdb_meter_rounds_total", acme);
    out.clock_us = reg.CounterValue("ssdb_meter_clock_us_total", acme);
    for (size_t i = 0; i < db->n(); ++i) {
      out.bytes_sent.push_back(db->network().stats(i).bytes_sent -
                               sent_before[i]);
    }
    return out;
  };

  const Flush per_op = run(1);
  const Flush coalesced = run(128);
  // One message per provider: group 0 gets the update and group 1 the
  // insert in the same round, at every batch_max_ops.
  EXPECT_EQ(per_op.rounds, 1u);
  EXPECT_EQ(per_op.clock_us, 40006u);
  EXPECT_EQ(per_op.bytes_sent, std::vector<uint64_t>(6, 86));
  EXPECT_EQ(coalesced.rounds, per_op.rounds);
  EXPECT_EQ(coalesced.clock_us, per_op.clock_us);
  EXPECT_EQ(coalesced.bytes_sent, per_op.bytes_sent);
}

TEST(BatchEquivalence, BatchedJoinsMatchSerialExecution) {
  auto setup = [](size_t batch_max_ops) {
    OutsourcedDbOptions options;
    options.topology = Topology(/*m=*/1, /*n_per=*/4, /*k=*/2);
    options.client.batch_max_ops = batch_max_ops;
    auto db = std::move(OutsourcedDatabase::Create(options)).value();
    TableSchema employees;
    employees.table_name = "Emp";
    employees.columns = {
        IntColumn("eid", 0, 100000, kCapExactMatch | kCapRange, "eid_domain"),
        StringColumn("name", 8),
    };
    TableSchema managers;
    managers.table_name = "Mgr";
    managers.columns = {
        IntColumn("eid", 0, 100000, kCapExactMatch | kCapRange, "eid_domain"),
        IntColumn("boss", 0, 100000, kCapExactMatch | kCapRange, "eid_domain"),
    };
    EXPECT_TRUE(db->CreateTable(employees).ok());
    EXPECT_TRUE(db->CreateTable(managers).ok());
    EXPECT_TRUE(db->Insert("Emp", {{Value::Int(1), Value::Str("JOHN")},
                                   {Value::Int(2), Value::Str("ALICE")},
                                   {Value::Int(3), Value::Str("BOB")}})
                    .ok());
    EXPECT_TRUE(db->Insert("Mgr", {{Value::Int(1), Value::Int(3)},
                                   {Value::Int(3), Value::Int(3)},
                                   {Value::Int(2), Value::Int(1)}})
                    .ok());
    return db;
  };

  JoinQuery jq;
  jq.left_table = "Emp";
  jq.left_column = "eid";
  jq.right_table = "Mgr";
  jq.right_column = "eid";
  const std::vector<JoinQuery> joins = {jq, jq, jq, jq};

  auto batched = setup(128);
  auto unbatched = setup(1);

  const uint64_t batched_before = batched->network_stats().calls;
  auto b = batched->ExecuteBatch(joins);
  const uint64_t batched_calls = batched->network_stats().calls - batched_before;

  const uint64_t unbatched_before = unbatched->network_stats().calls;
  auto u = unbatched->ExecuteBatch(joins);
  const uint64_t unbatched_calls =
      unbatched->network_stats().calls - unbatched_before;

  ASSERT_EQ(b.size(), joins.size());
  for (size_t i = 0; i < joins.size(); ++i) {
    ASSERT_TRUE(b[i].ok()) << b[i].status().ToString();
    EXPECT_EQ(Fingerprint(b[i]), Fingerprint(u[i])) << "slot " << i;
    EXPECT_EQ(b[i]->rows.size(), 3u);
  }
  // Four identical share fetches ride one envelope per provider.
  EXPECT_GE(unbatched_calls, 3 * batched_calls)
      << "batched=" << batched_calls << " unbatched=" << unbatched_calls;
}

// --- Accounting reconciliation ----------------------------------------------

TEST(BatchAccounting, UnionTraceReconcilesWithChannelStats) {
  auto db = MakeDb(4, 2, 300, /*batch_max_ops=*/128);
  const Query disj = Query::Select("Employees")
                         .WhereAny({Eq("dept", Value::Int(1)),
                                    Eq("dept", Value::Int(2)),
                                    Eq("dept", Value::Int(3))});

  std::vector<ChannelStats> before;
  for (size_t i = 0; i < db->n(); ++i) before.push_back(db->network().stats(i));
  const uint64_t clock_before = db->simulated_time_us();
  const uint64_t envelopes_before =
      db->metrics().GetCounter("ssdb_net_batch_envelopes_total")->value();

  auto r = db->Execute(disj);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // Batching must actually have engaged for this to pin anything.
  EXPECT_GT(db->metrics().GetCounter("ssdb_net_batch_envelopes_total")->value(),
            envelopes_before);

  // The envelope's bytes and clock land on the trace exactly, per leg.
  EXPECT_EQ(r->trace.total_clock_us(), db->simulated_time_us() - clock_before);
  const auto per_provider = r->trace.PerProviderBytes();
  for (size_t i = 0; i < db->n(); ++i) {
    const ChannelStats& after = db->network().stats(i);
    auto it = per_provider.find(static_cast<uint32_t>(i));
    const uint64_t traced_sent =
        it == per_provider.end() ? 0 : it->second.first;
    const uint64_t traced_received =
        it == per_provider.end() ? 0 : it->second.second;
    EXPECT_EQ(traced_sent, after.bytes_sent - before[i].bytes_sent)
        << "provider " << i << "\n"
        << r->trace.ToString();
    EXPECT_EQ(traced_received, after.bytes_received - before[i].bytes_received)
        << "provider " << i << "\n"
        << r->trace.ToString();
  }
}

TEST(BatchAccounting, FusedBatchTracesReconcileInAggregate) {
  auto db = MakeDb(4, 2, 300, /*batch_max_ops=*/128);
  const auto queries = PointReadWorkload();

  std::vector<ChannelStats> before;
  for (size_t i = 0; i < db->n(); ++i) before.push_back(db->network().stats(i));
  const uint64_t clock_before = db->simulated_time_us();

  auto results = db->ExecuteBatch(queries);
  ASSERT_EQ(results.size(), queries.size());

  // Envelope legs are recorded once (on the fused chunk's lead trace), so
  // summing every slot's per-provider bytes reproduces the channel deltas
  // exactly — nothing double-counted, nothing dropped.
  std::map<uint32_t, std::pair<uint64_t, uint64_t>> summed;
  uint64_t clock_sum = 0;
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    clock_sum += r->trace.total_clock_us();
    for (const auto& [provider, bytes] : r->trace.PerProviderBytes()) {
      summed[provider].first += bytes.first;
      summed[provider].second += bytes.second;
    }
  }
  for (size_t i = 0; i < db->n(); ++i) {
    const ChannelStats& after = db->network().stats(i);
    EXPECT_EQ(summed[static_cast<uint32_t>(i)].first,
              after.bytes_sent - before[i].bytes_sent)
        << "provider " << i;
    EXPECT_EQ(summed[static_cast<uint32_t>(i)].second,
              after.bytes_received - before[i].bytes_received)
        << "provider " << i;
  }
  EXPECT_EQ(clock_sum, db->simulated_time_us() - clock_before);

  // Telemetry: every envelope charged, with the op totals to match.
  const uint64_t envelopes =
      db->metrics().GetCounter("ssdb_net_batch_envelopes_total")->value();
  const uint64_t ops =
      db->metrics().GetCounter("ssdb_net_batch_ops_total")->value();
  EXPECT_GT(envelopes, 0u);
  EXPECT_GE(ops, 2 * envelopes);  // every envelope carries >= 2 ops
}

// --- Determinism ------------------------------------------------------------

TEST(BatchDeterminism, ExportsIdenticalAcrossFanoutThreadCounts) {
  std::vector<std::string> exports;
  std::vector<std::string> fingerprints;
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    auto db = MakeDb(4, 2, 200, /*batch_max_ops=*/128, threads);
    std::string fp;
    for (const auto& r : db->ExecuteBatch(PointReadWorkload())) {
      fp += Fingerprint(r);
      fp += '\n';
    }
    fp += Fingerprint(db->Execute(
        Query::Select("Employees")
            .WhereAny({Eq("dept", Value::Int(1)), Eq("dept", Value::Int(2))})));
    fp += "@" + std::to_string(db->simulated_time_us());
    fingerprints.push_back(std::move(fp));
    exports.push_back(db->metrics().ExportJson());
  }
  EXPECT_EQ(fingerprints[1], fingerprints[0]);
  EXPECT_EQ(fingerprints[2], fingerprints[0]);
  EXPECT_EQ(exports[1], exports[0]);
  EXPECT_EQ(exports[2], exports[0]);
}

// --- Faults -----------------------------------------------------------------

TEST(BatchResilience, PartialBatchFailureRetriesPerPlan) {
  auto reference = MakeDb(5, 2, 150, /*batch_max_ops=*/128);
  std::vector<std::string> want;
  for (const auto& r : reference->ExecuteBatch(PointReadWorkload())) {
    want.push_back(Fingerprint(r));
  }

  auto faulted = MakeDb(5, 2, 150, /*batch_max_ops=*/128);
  faulted->faults().Down(0);
  faulted->faults().Corrupt(2);
  auto got = faulted->ExecuteBatch(PointReadWorkload());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].ok()) << i << ": " << got[i].status().ToString();
    EXPECT_EQ(Fingerprint(got[i]), want[i]) << "slot " << i;
  }

  // The fused union path survives the same faults (falling back to the
  // classic per-branch ladder where it must).
  const Query disj = Query::Select("Employees")
                         .WhereAny({Eq("dept", Value::Int(1)),
                                    Eq("dept", Value::Int(2))});
  auto u_ref = reference->Execute(disj);
  auto u_faulted = faulted->Execute(disj);
  ASSERT_TRUE(u_faulted.ok()) << u_faulted.status().ToString();
  EXPECT_EQ(Fingerprint(u_faulted), Fingerprint(u_ref));
}

}  // namespace
}  // namespace ssdb
