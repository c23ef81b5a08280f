// Durability suite (separate executable, CTest label "persistence").
//
// Exercises the StorageEngine layer end to end: WAL append + redo
// replay, periodic checkpoints, torn-tail truncation on reopen, the
// kill/restart chaos drill (a provider dies mid-workload, restarts from
// disk, replays snapshot + WAL, catches up missed writes via batched
// resync envelopes, and rejoins quorums), and cold restarts of a whole
// deployment over an existing storage directory. The headline drill
// asserts bit-identical answers and state fingerprints against a
// fault-free run, across fanout_threads {1, 4, 8}.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/outsourced_db.h"
#include "storage/engine.h"

namespace ssdb {
namespace {

constexpr size_t kProviders = 4;
constexpr size_t kThreshold = 2;

/// A fresh per-test storage root under the build's temp dir.
std::string MakeStorageDir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("ssdb_persist_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

TableSchema EmployeesSchema() {
  TableSchema schema;
  schema.table_name = "Employees";
  schema.columns = {
      IntColumn("eid", 0, 100000, kCapExactMatch | kCapRange),
      StringColumn("name", 8),
      IntColumn("salary", 0, 200000),
  };
  return schema;
}

std::vector<std::vector<Value>> EmployeeRows(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Value>> rows;
  for (size_t i = 0; i < count; ++i) {
    std::string name;
    for (int c = 0; c < 5; ++c) {
      name += static_cast<char>('A' + rng.Uniform(26));
    }
    rows.push_back({Value::Int(static_cast<int64_t>(i)), Value::Str(name),
                    Value::Int(rng.UniformInt(1000, 199000))});
  }
  return rows;
}

std::unique_ptr<OutsourcedDatabase> MakeDurableDb(const std::string& dir,
                                                  size_t fanout_threads = 1,
                                                  size_t snapshot_every = 256) {
  OutsourcedDbOptions options;
  options.topology = Topology(/*m=*/1, /*n_per=*/kProviders, kThreshold);
  options.fanout_threads = fanout_threads;
  options.storage.backend = StorageOptions::Backend::kDurable;
  options.storage.dir = dir;
  options.storage.wal_snapshot_every = snapshot_every;
  auto db = OutsourcedDatabase::Create(std::move(options));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

DurableEngine& EngineOf(OutsourcedDatabase& db, size_t i) {
  auto* engine = dynamic_cast<DurableEngine*>(&db.provider(i).engine());
  EXPECT_NE(engine, nullptr);
  return *engine;
}

std::string Describe(const QueryResult& r) {
  std::string out;
  std::vector<std::string> rows;
  for (const auto& row : r.rows) {
    std::string s;
    for (const Value& v : row) s += v.ToString() + ",";
    rows.push_back(std::move(s));
  }
  std::sort(rows.begin(), rows.end());
  for (const auto& s : rows) out += s + ";";
  out += "|count=" + std::to_string(r.count) +
         " agg=" + std::to_string(r.aggregate_int);
  return out;
}

// --- Engine basics -----------------------------------------------------------

TEST(DurableBackend, RequiresAStorageDirectory) {
  OutsourcedDbOptions options;
  options.storage.backend = StorageOptions::Backend::kDurable;
  auto db = OutsourcedDatabase::Create(std::move(options));
  EXPECT_TRUE(db.status().IsInvalidArgument()) << db.status().ToString();
}

TEST(DurableBackend, StateSurvivesKillAndRestart) {
  const std::string dir = MakeStorageDir("kill_restart_basic");
  auto db = MakeDurableDb(dir);
  ASSERT_TRUE(db->CreateTable(EmployeesSchema()).ok());
  ASSERT_TRUE(db->BulkLoad("Employees", EmployeeRows(40, 1)).ok());

  const Query probe = Query::Select("Employees").Where(
      Between("salary", Value::Int(0), Value::Int(200000)));
  auto before = db->Execute(probe);
  ASSERT_TRUE(before.ok());
  const size_t rows_before = db->provider(0).num_rows();
  ASSERT_GT(rows_before, 0u);

  db->faults().Kill(0);
  EXPECT_EQ(db->faults().mode(0), FailureMode::kKill);
  EXPECT_EQ(db->provider(0).num_rows(), 0u) << "kill did not drop RAM state";
  // Reads keep working off the surviving quorum while 0 is dead.
  auto during = db->Execute(probe);
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  EXPECT_EQ(Describe(*during), Describe(*before));

  ASSERT_TRUE(db->faults().Restart(0).ok());
  EXPECT_EQ(db->faults().mode(0), FailureMode::kHealthy);
  EXPECT_EQ(db->provider(0).num_rows(), rows_before)
      << "restart did not recover the WAL'd rows";
  EXPECT_GT(EngineOf(*db, 0).replayed_records(), 0u);
  auto after = db->Execute(probe);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(Describe(*after), Describe(*before));
}

TEST(DurableBackend, WritesDuringOutageReachTheProviderAtRestart) {
  const std::string dir = MakeStorageDir("outage_writes");
  auto db = MakeDurableDb(dir);
  ASSERT_TRUE(db->CreateTable(EmployeesSchema()).ok());
  ASSERT_TRUE(db->BulkLoad("Employees", EmployeeRows(20, 2)).ok());

  db->faults().Kill(1);
  // Writes succeed on the survivors while provider 1 queues client-side.
  std::vector<std::vector<Value>> extra = {
      {Value::Int(1000), Value::Str("ZELDA"), Value::Int(123456)},
      {Value::Int(1001), Value::Str("YANN"), Value::Int(65432)},
  };
  ASSERT_TRUE(db->Insert("Employees", extra).ok());
  ASSERT_TRUE(
      db->Execute("UPDATE Employees SET salary = 777 WHERE eid = 1000").ok());
  EXPECT_GT(db->client().pending_resync_ops(1), 0u);
  EXPECT_EQ(db->provider(1).num_rows(), 0u);

  ASSERT_TRUE(db->faults().Restart(1).ok());
  EXPECT_EQ(db->client().pending_resync_ops(1), 0u);
  // All providers of the group host the same row ids again.
  EXPECT_EQ(db->provider(1).num_rows(), db->provider(0).num_rows());
  auto r = db->Execute(
      Query::Select("Employees").Where(Eq("eid", Value::Int(1000))));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][2].ToString(), Value::Int(777).ToString());
  // The catch-up shipped through the recovery series.
  EXPECT_GT(db->metrics()
                .GetCounter("ssdb_recovery_resync_ops_total",
                            {{"provider", "1"}})
                ->value(),
            0u);
}

TEST(DurableBackend, RefreshDuringOutageFailsWithoutQueueing) {
  const std::string dir = MakeStorageDir("outage_refresh");
  auto db = MakeDurableDb(dir);
  ASSERT_TRUE(db->CreateTable(EmployeesSchema()).ok());
  ASSERT_TRUE(db->BulkLoad("Employees", EmployeeRows(12, 8)).ok());

  db->faults().Kill(2);
  ASSERT_TRUE(db->Insert("Employees", {{Value::Int(500), Value::Str("QUINN"),
                                        Value::Int(4242)}})
                  .ok());
  const size_t queued = db->client().pending_resync_ops(2);
  EXPECT_EQ(queued, 1u);
  // A refresh needs every provider: its probe is not a mutation, so it
  // travels to the dead provider and fails there instead of queueing.
  EXPECT_TRUE(db->RefreshTable("Employees").IsUnavailable());
  EXPECT_EQ(db->client().pending_resync_ops(2), queued);

  ASSERT_TRUE(db->faults().Restart(2).ok());
  EXPECT_EQ(db->client().pending_resync_ops(2), 0u);
  ASSERT_TRUE(db->RefreshTable("Employees").ok());
  auto r = db->Execute(
      Query::Select("Employees").Where(Eq("eid", Value::Int(500))));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][2].ToString(), Value::Int(4242).ToString());
}

TEST(DurableBackend, ColdRestartRecoversBitIdenticalProviderState) {
  const std::string dir = MakeStorageDir("cold_restart");
  std::vector<std::string> snapshots(kProviders);
  {
    auto db = MakeDurableDb(dir);
    ASSERT_TRUE(db->CreateTable(EmployeesSchema()).ok());
    ASSERT_TRUE(db->BulkLoad("Employees", EmployeeRows(25, 3)).ok());
    for (size_t i = 0; i < kProviders; ++i) {
      Buffer snap;
      db->provider(i).SaveSnapshot(&snap);
      snapshots[i] = std::string(
          reinterpret_cast<const char*>(snap.AsSlice().data()),
          snap.AsSlice().size());
    }
  }  // deployment torn down; WAL + snapshot files remain on disk
  {
    // A brand-new deployment over the same directory: every provider
    // recovers its exact pre-teardown state from snapshot + WAL replay.
    // (The client-side catalog is per-deployment and out of scope here —
    // provider state is what the durability contract covers.)
    auto db = MakeDurableDb(dir);
    for (size_t i = 0; i < kProviders; ++i) {
      EXPECT_EQ(db->provider(i).num_tables(), 1u);
      EXPECT_EQ(db->provider(i).num_rows(), 25u);
      Buffer snap;
      db->provider(i).SaveSnapshot(&snap);
      const std::string recovered(
          reinterpret_cast<const char*>(snap.AsSlice().data()),
          snap.AsSlice().size());
      EXPECT_EQ(recovered, snapshots[i])
          << "provider " << i << " state drifted across the cold restart";
    }
  }
}

TEST(DurableBackend, CheckpointSnapshotsAndTruncatesTheWal) {
  const std::string dir = MakeStorageDir("checkpoint");
  auto db = MakeDurableDb(dir, /*fanout_threads=*/1, /*snapshot_every=*/4);
  ASSERT_TRUE(db->CreateTable(EmployeesSchema()).ok());
  const auto rows = EmployeeRows(12, 4);
  for (const auto& row : rows) {
    ASSERT_TRUE(db->Insert("Employees", {row}).ok());
  }
  DurableEngine& engine = EngineOf(*db, 0);
  EXPECT_GT(engine.checkpoints(), 0u);
  EXPECT_LT(engine.wal_records(), 1u + rows.size());
  EXPECT_TRUE(std::filesystem::exists(engine.snapshot_path()));

  // Recovery = snapshot + WAL suffix: kill/restart reproduces all rows.
  const size_t rows_before = db->provider(0).num_rows();
  db->faults().Kill(0);
  ASSERT_TRUE(db->faults().Restart(0).ok());
  EXPECT_EQ(db->provider(0).num_rows(), rows_before);
  EXPECT_EQ(db->metrics()
                .GetCounter("ssdb_wal_checkpoints_total", {{"provider", "0"}})
                ->value(),
            engine.checkpoints());
}

TEST(DurableBackend, TornWalTailIsTruncatedOnReopen) {
  const std::string dir = MakeStorageDir("torn_tail");
  // No periodic checkpoints: every mutation stays in the WAL.
  auto db = MakeDurableDb(dir, /*fanout_threads=*/1, /*snapshot_every=*/0);
  ASSERT_TRUE(db->CreateTable(EmployeesSchema()).ok());
  ASSERT_TRUE(db->BulkLoad("Employees", EmployeeRows(10, 5)).ok());
  const size_t rows_before = db->provider(2).num_rows();
  DurableEngine& engine = EngineOf(*db, 2);
  const uint64_t intact_records = engine.wal_records();

  // Simulate a crash mid-append: a torn, garbage tail after the last
  // intact record.
  db->faults().Kill(2);
  {
    FILE* f = std::fopen(engine.wal_path().c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint8_t garbage[] = {0x17, 0xDE, 0xAD, 0xBE};
    ASSERT_EQ(std::fwrite(garbage, 1, sizeof(garbage), f), sizeof(garbage));
    std::fclose(f);
  }
  ASSERT_TRUE(db->faults().Restart(2).ok());
  EXPECT_EQ(engine.truncated_bytes(), 4u);
  EXPECT_EQ(engine.replayed_records(), intact_records);
  EXPECT_EQ(db->provider(2).num_rows(), rows_before)
      << "torn tail corrupted the intact prefix";
  EXPECT_EQ(db->metrics()
                .GetCounter("ssdb_recovery_truncated_bytes_total",
                            {{"provider", "2"}})
                ->value(),
            4u);

  // A second reopen sees a clean log: nothing further to truncate.
  db->faults().Kill(2);
  ASSERT_TRUE(db->faults().Restart(2).ok());
  EXPECT_EQ(engine.truncated_bytes(), 0u);
  EXPECT_EQ(db->provider(2).num_rows(), rows_before);
}

TEST(MemoryBackend, RestartRecoversOnlyWritesMissedDuringTheOutage) {
  // The documented MemoryEngine kill semantics: nothing is durable, so a
  // restarted provider holds exactly the writes it missed during the
  // outage (the client-side catch-up queue) and nothing else. (The seed
  // deployment is unchanged unless Kill is used.)
  OutsourcedDbOptions options;
  options.topology = Topology(1, kProviders, kThreshold);
  options.fanout_threads = 1;
  auto db_r = OutsourcedDatabase::Create(std::move(options));
  ASSERT_TRUE(db_r.ok());
  auto& db = *db_r.value();

  // Killed before any schema exists: the whole workload lands in the
  // catch-up queue, so the restart rebuilds everything via resync.
  db.faults().Kill(3);
  ASSERT_TRUE(db.CreateTable(EmployeesSchema()).ok());
  ASSERT_TRUE(db.BulkLoad("Employees", EmployeeRows(10, 6)).ok());
  EXPECT_EQ(db.provider(3).num_rows(), 0u);
  EXPECT_GT(db.client().pending_resync_ops(3), 0u);
  ASSERT_TRUE(db.faults().Restart(3).ok());
  EXPECT_EQ(db.provider(3).num_rows(), 10u);
  EXPECT_EQ(db.provider(3).num_tables(), 1u);

  // A second kill with no writes during the outage loses the state for
  // good: nothing durable, nothing queued.
  db.faults().Kill(3);
  ASSERT_TRUE(db.faults().Restart(3).ok());
  EXPECT_EQ(db.provider(3).num_rows(), 0u);
  EXPECT_EQ(db.provider(0).num_rows(), 10u);
  // Reads still answer from the surviving quorum.
  auto r = db.Execute(Query::Select("Employees"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 10u);
}

// --- The kill/restart chaos drill -------------------------------------------

struct DrillRun {
  std::vector<std::string> answers;  ///< Per-step query serialization.
  std::string state;                 ///< Final full-scan + provider rows.
};

/// A mixed read/write workload; when `kill` is set, provider `victim` is
/// killed a third of the way in and restarted two thirds in, so writes
/// land before death, during the outage, and after recovery.
DrillRun RunDrill(const std::string& dir, bool kill, size_t fanout_threads) {
  DrillRun run;
  const size_t victim = 1;
  auto db = MakeDurableDb(dir, fanout_threads, /*snapshot_every=*/8);
  EXPECT_TRUE(db->CreateTable(EmployeesSchema()).ok());
  EXPECT_TRUE(db->BulkLoad("Employees", EmployeeRows(60, 7)).ok());

  Rng rng(0xD127);
  constexpr int kSteps = 30;
  for (int step = 0; step < kSteps; ++step) {
    if (kill && step == kSteps / 3) db->faults().Kill(victim);
    if (kill && step == 2 * kSteps / 3) {
      EXPECT_TRUE(db->faults().Restart(victim).ok());
    }
    const int64_t a = rng.UniformInt(0, 180000);
    const int64_t b = a + rng.UniformInt(2000, 50000);
    const int64_t eid = rng.UniformInt(0, 70);
    switch (step % 5) {
      case 0: {  // insert
        auto st = db->Insert(
            "Employees",
            {{Value::Int(2000 + step), Value::Str("NEW"), Value::Int(a)}});
        EXPECT_TRUE(st.ok()) << st.ToString();
        run.answers.push_back("insert:" + std::to_string(step));
        break;
      }
      case 1: {  // update through SQL
        auto r = db->Execute("UPDATE Employees SET salary = " +
                             std::to_string(a % 199999) + " WHERE eid = " +
                             std::to_string(eid));
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        run.answers.push_back("update:" + std::to_string(r.ok() ? r->count
                                                                : ~0ull));
        break;
      }
      case 2: {  // range scan
        auto r = db->Execute(Query::Select("Employees").Where(
            Between("salary", Value::Int(a), Value::Int(b))));
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        run.answers.push_back(r.ok() ? Describe(*r) : "ERR");
        break;
      }
      case 3: {  // aggregate
        auto r = db->Execute(Query::Select("Employees")
                                 .Where(Between("salary", Value::Int(a),
                                                Value::Int(b)))
                                 .Aggregate(AggregateOp::kSum, "salary"));
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        run.answers.push_back(r.ok() ? Describe(*r) : "ERR");
        break;
      }
      default: {  // delete a row that may or may not exist
        auto r = db->Execute("DELETE FROM Employees WHERE eid = " +
                             std::to_string(1000 + step));
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        run.answers.push_back("delete:" + std::to_string(r.ok() ? r->count
                                                                : ~0ull));
        break;
      }
    }
  }

  // Final state fingerprint: full scan + per-provider row counts (the
  // restarted provider must be indistinguishable from the survivors).
  auto full = db->Execute(Query::Select("Employees"));
  EXPECT_TRUE(full.ok()) << full.status().ToString();
  run.state = full.ok() ? Describe(*full) : "ERR";
  for (size_t i = 0; i < kProviders; ++i) {
    run.state += "|p" + std::to_string(i) + "=" +
                 std::to_string(db->provider(i).num_rows());
  }
  if (kill) {
    EXPECT_EQ(db->client().pending_resync_ops(victim), 0u);
    EXPECT_GT(db->metrics()
                  .GetCounter("ssdb_recovery_restarts_total",
                              {{"provider", std::to_string(victim)}})
                  ->value(),
              0u);
  }
  return run;
}

TEST(KillRestartChaos, DrillMatchesFaultFreeRunAcrossFanoutThreads) {
  const DrillRun baseline =
      RunDrill(MakeStorageDir("drill_baseline"), /*kill=*/false, 1);
  ASSERT_FALSE(baseline.answers.empty());

  for (size_t fanout : {1u, 4u, 8u}) {
    SCOPED_TRACE("fanout=" + std::to_string(fanout));
    const DrillRun chaos = RunDrill(
        MakeStorageDir("drill_kill_f" + std::to_string(fanout)), /*kill=*/true,
        fanout);
    // Every answer — before, during and after the outage — matches the
    // fault-free run: reads reconstruct from the surviving quorum, and
    // the recovered provider returns bit-identical shares.
    ASSERT_EQ(chaos.answers.size(), baseline.answers.size());
    for (size_t i = 0; i < baseline.answers.size(); ++i) {
      EXPECT_EQ(chaos.answers[i], baseline.answers[i]) << "step " << i;
    }
    EXPECT_EQ(chaos.state, baseline.state);
  }
}

}  // namespace
}  // namespace ssdb
