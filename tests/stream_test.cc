// Unit tests of the streaming subsystem: the bounded backpressure queue
// (including cross-thread behavior, exercised under tsan), the
// StreamIngestor's watermark/closing/resume semantics, the per-item cleaner
// entry point it uses, the IncrementalMaintainer's promote/demote logic,
// and the metrics::ScopedEpoch isolation helper the stream tests rely on
// for asserting absolute counter values.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "flowcube/dump.h"
#include "gen/path_generator.h"
#include "path/path.h"
#include "rfid/cleaner.h"
#include "rfid/reader_simulator.h"
#include "stream/bounded_queue.h"
#include "stream/incremental_maintainer.h"
#include "stream/stream_ingestor.h"

namespace flowcube {
namespace {

// --- BoundedQueue -----------------------------------------------------------

TEST(BoundedQueueTest, PushPopOrdering) {
  BoundedQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(99)) << "queue at capacity must refuse TryPush";
  for (int i = 0; i < 4; ++i) {
    auto v = q.TryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(BoundedQueueTest, CloseDrainsThenEnds) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  q.Close();
  EXPECT_FALSE(q.Push(3)) << "push after close must fail";
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value()) << "closed and drained";
  q.Close();  // idempotent
}

TEST(BoundedQueueTest, BackpressureAcrossThreads) {
  // Small capacity forces the producer to block; every element must arrive
  // exactly once and in order.
  BoundedQueue<int> q(2);
  constexpr int kItems = 2000;
  std::thread producer([&q] {
    for (int i = 0; i < kItems; ++i) ASSERT_TRUE(q.Push(i));
    q.Close();
  });
  int expected = 0;
  while (auto v = q.Pop()) {
    EXPECT_EQ(*v, expected);
    expected++;
  }
  producer.join();
  EXPECT_EQ(expected, kItems);
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(2);
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    EXPECT_FALSE(q.Pop().has_value());
    popped = true;
  });
  // Give the consumer a chance to block, then close.
  while (q.size() != 0) {
  }
  q.Close();
  consumer.join();
  EXPECT_TRUE(popped);
}

// --- ScopedEpoch ------------------------------------------------------------

TEST(ScopedEpochTest, CountersAreIsolatedAndFoldedBack) {
  MetricRegistry& reg = MetricRegistry::Global();
  Counter& c = reg.counter("test.epoch.counter");
  c.Add(7);
  const uint64_t outside = c.value();
  {
    ScopedEpoch epoch;
    EXPECT_EQ(c.value(), 0u) << "epoch must zero pre-existing counters";
    c.Add(5);
    EXPECT_EQ(c.value(), 5u);
  }
  EXPECT_EQ(c.value(), outside + 5) << "scope activity folds into the total";
}

TEST(ScopedEpochTest, GaugesKeepLatestWriter) {
  MetricRegistry& reg = MetricRegistry::Global();
  Gauge& touched = reg.gauge("test.epoch.gauge_touched");
  Gauge& untouched = reg.gauge("test.epoch.gauge_untouched");
  touched.Set(11);
  untouched.Set(22);
  {
    ScopedEpoch epoch;
    EXPECT_EQ(touched.value(), 0);
    EXPECT_EQ(untouched.value(), 0);
    touched.Set(33);
  }
  EXPECT_EQ(touched.value(), 33) << "a gauge set inside the scope wins";
  EXPECT_EQ(untouched.value(), 22) << "an untouched gauge is restored";
}

TEST(ScopedEpochTest, HistogramsFoldBack) {
  MetricRegistry& reg = MetricRegistry::Global();
  Histogram& h = reg.histogram("test.epoch.histogram");
  h.Record(1.0);
  h.Record(3.0);
  {
    ScopedEpoch epoch;
    EXPECT_EQ(h.snapshot().count, 0u);
    h.Record(100.0);
    EXPECT_EQ(h.snapshot().count, 1u);
    EXPECT_EQ(h.snapshot().min, 100.0);
  }
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
  EXPECT_EQ(s.sum, 104.0);
}

TEST(ScopedEpochTest, EpochsNest) {
  MetricRegistry& reg = MetricRegistry::Global();
  Counter& c = reg.counter("test.epoch.nested");
  c.Add(1);
  const uint64_t outside = c.value();
  {
    ScopedEpoch outer;
    c.Add(10);
    {
      ScopedEpoch inner;
      EXPECT_EQ(c.value(), 0u);
      c.Add(100);
    }
    EXPECT_EQ(c.value(), 110u);
  }
  EXPECT_EQ(c.value(), outside + 110);
}

TEST(ScopedEpochTest, InstrumentsBornInsideTheScopeSurvive) {
  std::string name = "test.epoch.born_inside." +
                     std::to_string(::testing::UnitTest::GetInstance()
                                        ->random_seed());
  {
    ScopedEpoch epoch;
    MetricRegistry::Global().counter(name).Add(4);
  }
  EXPECT_EQ(MetricRegistry::Global().counter(name).value(), 4u);
}

// --- ReadingCleaner::CleanItem ---------------------------------------------

TEST(CleanItemTest, MatchesBatchCleanPerItem) {
  GeneratorConfig cfg;
  cfg.num_dimensions = 2;
  cfg.seed = 77;
  PathGenerator gen(cfg);
  const PathDatabase db = gen.Generate(30);
  const int64_t kBin = 3600;
  const std::vector<Itinerary> truth =
      PathGenerator::ToItineraries(db, kBin);
  ReaderSimulator simulator(ReaderSimulatorOptions{}, /*seed=*/5);
  const std::vector<RawReading> stream = simulator.Simulate(truth);

  const ReadingCleaner cleaner(CleanerOptions{});
  const std::vector<Itinerary> batch = cleaner.Clean(stream);
  ASSERT_EQ(batch.size(), truth.size());

  for (const Itinerary& expected : batch) {
    std::vector<RawReading> mine;
    for (const RawReading& r : stream) {
      if (r.epc == expected.epc) mine.push_back(r);
    }
    const Itinerary single = cleaner.CleanItem(expected.epc, std::move(mine));
    EXPECT_EQ(single.epc, expected.epc);
    EXPECT_EQ(single.stays, expected.stays);
  }
}

// --- StreamIngestor ---------------------------------------------------------

struct CollectedDelta {
  uint64_t sequence;
  std::vector<PathRecord> records;
};

std::vector<CollectedDelta> DrainAll(StreamIngestor& ingestor) {
  std::vector<CollectedDelta> out;
  while (auto delta = ingestor.Pop()) {
    out.push_back({delta->batch_sequence, std::move(delta->records)});
  }
  return out;
}

std::string RecordsToString(const PathSchema& schema,
                            const std::vector<CollectedDelta>& deltas) {
  std::string out;
  for (const CollectedDelta& d : deltas) {
    out += "batch " + std::to_string(d.sequence) + "\n";
    for (const PathRecord& rec : d.records) {
      out += RecordToString(schema, rec) + "\n";
    }
  }
  return out;
}

class StreamIngestorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig cfg;
    cfg.num_dimensions = 2;
    cfg.seed = 4242;
    PathGenerator gen(cfg);
    db_ = std::make_unique<PathDatabase>(gen.Generate(40));
    truth_ = PathGenerator::ToItineraries(*db_, kBin);
    ReaderSimulator simulator(ReaderSimulatorOptions{}, /*seed=*/9);
    stream_ = simulator.Simulate(truth_);
  }

  StreamIngestorOptions Options() const {
    StreamIngestorOptions options;
    options.bin_seconds = kBin;
    options.close_after_seconds = 4 * kBin;
    return options;
  }

  void RegisterAll(StreamIngestor& ingestor) const {
    for (size_t i = 0; i < db_->size(); ++i) {
      const EpcId epc = static_cast<EpcId>(i + 1);
      ASSERT_TRUE(
          ingestor.RegisterItem(epc, db_->record(i).dims).ok());
    }
  }

  // Splits the time-sorted stream into `num_batches` contiguous batches.
  std::vector<std::vector<RawReading>> Batches(size_t num_batches) const {
    std::vector<std::vector<RawReading>> batches(num_batches);
    const size_t per = (stream_.size() + num_batches - 1) / num_batches;
    for (size_t i = 0; i < stream_.size(); ++i) {
      batches[std::min(i / per, num_batches - 1)].push_back(stream_[i]);
    }
    return batches;
  }

  static constexpr int64_t kBin = 3600;
  std::unique_ptr<PathDatabase> db_;
  std::vector<Itinerary> truth_;
  std::vector<RawReading> stream_;
};

TEST_F(StreamIngestorTest, EmitsEveryRegisteredItemExactlyOnce) {
  StreamIngestor ingestor(db_->schema_ptr(), Options());
  RegisterAll(ingestor);
  for (auto& batch : Batches(8)) {
    ASSERT_TRUE(ingestor.Push(std::move(batch)).ok());
  }
  ingestor.Close();
  const std::vector<CollectedDelta> deltas = DrainAll(ingestor);

  size_t total = 0;
  for (const CollectedDelta& d : deltas) total += d.records.size();
  EXPECT_EQ(total, db_->size());
}

TEST_F(StreamIngestorTest, DeltaStreamIsDeterministic) {
  const auto run = [&] {
    StreamIngestor ingestor(db_->schema_ptr(), Options());
    RegisterAll(ingestor);
    for (auto& batch : Batches(8)) {
      EXPECT_TRUE(ingestor.Push(std::move(batch)).ok());
    }
    ingestor.Close();
    return RecordsToString(db_->schema(), DrainAll(ingestor));
  };
  EXPECT_EQ(run(), run());
}

TEST_F(StreamIngestorTest, WatermarkClosesSilentItemsBeforeClose) {
  StreamIngestor ingestor(db_->schema_ptr(), Options());
  RegisterAll(ingestor);
  const auto batches = Batches(8);
  for (size_t i = 0; i + 1 < batches.size(); ++i) {
    auto copy = batches[i];
    ASSERT_TRUE(ingestor.Push(std::move(copy)).ok());
  }
  ingestor.Flush();
  // Most items finish their stays well before the last batch; the watermark
  // horizon must have closed at least one of them without Close().
  size_t closed_early = 0;
  while (auto delta = ingestor.TryPop()) closed_early += delta->records.size();
  EXPECT_GT(closed_early, 0u);
  ingestor.Close();
}

TEST_F(StreamIngestorTest, UnregisteredItemsAreDroppedAndCounted) {
  ScopedEpoch epoch;
  StreamIngestor ingestor(db_->schema_ptr(), Options());
  // No registrations at all: every reading is dropped at close time.
  std::vector<RawReading> batch = stream_;
  ASSERT_TRUE(ingestor.Push(std::move(batch)).ok());
  ingestor.Close();
  EXPECT_TRUE(DrainAll(ingestor).empty());
  EXPECT_EQ(
      MetricRegistry::Global().counter("stream.ingest.readings_dropped")
          .value(),
      stream_.size());
  EXPECT_EQ(
      MetricRegistry::Global().counter("stream.ingest.paths_emitted").value(),
      0u);
}

TEST_F(StreamIngestorTest, PushAfterCloseFails) {
  StreamIngestor ingestor(db_->schema_ptr(), Options());
  ingestor.Close();
  const Status s = ingestor.Push({});
  EXPECT_EQ(s.code(), Status::Code::kFailedPrecondition);
}

TEST_F(StreamIngestorTest, RegisterRejectsBadDims) {
  StreamIngestor ingestor(db_->schema_ptr(), Options());
  EXPECT_FALSE(ingestor.RegisterItem(1, {}).ok());
  std::vector<NodeId> out_of_range(db_->schema().num_dimensions(),
                                   static_cast<NodeId>(1 << 30));
  EXPECT_FALSE(ingestor.RegisterItem(1, out_of_range).ok());
}

TEST_F(StreamIngestorTest, ResumeFromSnapshotContinuesTheStream) {
  const auto batches = Batches(8);

  // Uninterrupted reference run.
  std::vector<CollectedDelta> reference;
  {
    StreamIngestor ingestor(db_->schema_ptr(), Options());
    RegisterAll(ingestor);
    for (const auto& batch : batches) {
      auto copy = batch;
      ASSERT_TRUE(ingestor.Push(std::move(copy)).ok());
    }
    ingestor.Close();
    reference = DrainAll(ingestor);
  }

  // Same input with a snapshot/restore after the first half.
  std::vector<CollectedDelta> resumed;
  IngestorState snapshot;
  {
    StreamIngestor first(db_->schema_ptr(), Options());
    RegisterAll(first);
    for (size_t i = 0; i < batches.size() / 2; ++i) {
      auto copy = batches[i];
      ASSERT_TRUE(first.Push(std::move(copy)).ok());
    }
    first.Flush();
    while (auto delta = first.TryPop()) {
      resumed.push_back({delta->batch_sequence, std::move(delta->records)});
    }
    snapshot = first.SnapshotState();
    first.Close();
    // Deltas drained before the snapshot stay drained; the final flush of
    // `first` is intentionally ignored — the restored ingestor owns those
    // items now.
    while (first.Pop().has_value()) {
    }
  }
  {
    StreamIngestor second(db_->schema_ptr(), Options(), std::move(snapshot));
    for (size_t i = batches.size() / 2; i < batches.size(); ++i) {
      auto copy = batches[i];
      ASSERT_TRUE(second.Push(std::move(copy)).ok());
    }
    second.Close();
    for (CollectedDelta& d : DrainAll(second)) resumed.push_back(std::move(d));
  }

  EXPECT_EQ(RecordsToString(db_->schema(), reference),
            RecordsToString(db_->schema(), resumed));
}

// --- IncrementalMaintainer --------------------------------------------------

class MaintainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig cfg;
    cfg.num_dimensions = 2;
    cfg.dim_distinct_per_level = {2, 2, 2};
    cfg.seed = 303;
    PathGenerator gen(cfg);
    db_ = std::make_unique<PathDatabase>(gen.Generate(60));
    Result<FlowCubePlan> plan = FlowCubePlan::Default(db_->schema());
    ASSERT_TRUE(plan.ok());
    plan_ = plan.value();
  }

  std::unique_ptr<PathDatabase> db_;
  FlowCubePlan plan_;
};

TEST_F(MaintainerTest, CreateRejectsWindowWithExceptions) {
  IncrementalMaintainerOptions options;
  options.window_records = 10;
  options.build.compute_exceptions = true;
  Result<IncrementalMaintainer> m =
      IncrementalMaintainer::Create(db_->schema_ptr(), plan_, options);
  EXPECT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), Status::Code::kInvalidArgument);
}

TEST_F(MaintainerTest, CreateRejectsBadPlanWithoutCrashing) {
  IncrementalMaintainerOptions options;
  FlowCubePlan bad = plan_;
  bad.mining.dim_levels.pop_back();
  EXPECT_FALSE(
      IncrementalMaintainer::Create(db_->schema_ptr(), bad, options).ok());

  bad = plan_;
  bad.path_levels.push_back(99);
  EXPECT_FALSE(
      IncrementalMaintainer::Create(db_->schema_ptr(), bad, options).ok());

  options.build.min_support = 0;
  EXPECT_FALSE(
      IncrementalMaintainer::Create(db_->schema_ptr(), plan_, options).ok());
}

TEST_F(MaintainerTest, InvalidRecordLeavesTheCubeUntouched) {
  IncrementalMaintainerOptions options;
  Result<IncrementalMaintainer> created =
      IncrementalMaintainer::Create(db_->schema_ptr(), plan_, options);
  ASSERT_TRUE(created.ok());
  IncrementalMaintainer m = std::move(created.value());
  ASSERT_TRUE(m.ApplyRecords(std::span<const PathRecord>(db_->records())
                                 .subspan(0, 20))
                  .ok());
  const std::string before = DumpFlowCube(m.cube());

  // A batch where a later record is invalid must be rejected atomically.
  std::vector<PathRecord> batch = {db_->record(20), PathRecord{}};
  const Status s = m.Apply(StreamDelta{0, std::move(batch)});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(DumpFlowCube(m.cube()), before);
  EXPECT_EQ(m.live_record_count(), 20u);
}

TEST_F(MaintainerTest, ApplyStatsTrackPromotionsAndDemotions) {
  IncrementalMaintainerOptions options;
  options.build.compute_exceptions = false;
  options.window_records = 10;
  Result<IncrementalMaintainer> created =
      IncrementalMaintainer::Create(db_->schema_ptr(), plan_, options);
  ASSERT_TRUE(created.ok());
  IncrementalMaintainer m = std::move(created.value());

  ApplyStats stats;
  ASSERT_TRUE(m.ApplyRecords(std::span<const PathRecord>(db_->records())
                                 .subspan(0, 10),
                             &stats)
                  .ok());
  EXPECT_EQ(stats.records_applied, 10u);
  EXPECT_EQ(stats.records_retired, 0u);
  EXPECT_GT(stats.cells_promoted, 0u) << "the apex cell at least";
  EXPECT_GT(stats.cells_rebuilt, 0u);

  ASSERT_TRUE(m.ApplyRecords(std::span<const PathRecord>(db_->records())
                                 .subspan(10, 20),
                             &stats)
                  .ok());
  EXPECT_EQ(stats.records_applied, 20u);
  EXPECT_EQ(stats.records_retired, 20u) << "window keeps only 10 live";
  EXPECT_EQ(m.live_record_count(), 10u);
  EXPECT_EQ(m.LiveRecords().size(), 10u);
  EXPECT_EQ(m.total_records(), 30u);
}

TEST_F(MaintainerTest, ApplyStatsSplitABatchIntoStages) {
  IncrementalMaintainerOptions options;
  options.build.min_support = 2;
  ASSERT_TRUE(options.build.mark_redundant);
  Result<IncrementalMaintainer> created =
      IncrementalMaintainer::Create(db_->schema_ptr(), plan_, options);
  ASSERT_TRUE(created.ok());
  IncrementalMaintainer m = std::move(created.value());
  const std::span<const PathRecord> records(db_->records());
  ASSERT_TRUE(m.ApplyRecords(records.subspan(0, 40)).ok());

  ApplyStats stats;
  ASSERT_TRUE(m.ApplyRecords(records.subspan(40, 10), &stats).ok());
  ASSERT_GT(stats.cells_rebuilt, 0u);
  ASSERT_GT(stats.redundancy_updates, 0u);
  EXPECT_GT(stats.seconds_cells, 0.0);
  EXPECT_GT(stats.seconds_redundancy, 0.0);
  EXPECT_LE(stats.seconds_cells + stats.seconds_redundancy, stats.seconds);
}

TEST_F(MaintainerTest, ApexCellIsAlwaysMaterialized) {
  IncrementalMaintainerOptions options;
  options.build.min_support = 1000;  // nothing else qualifies
  Result<IncrementalMaintainer> created =
      IncrementalMaintainer::Create(db_->schema_ptr(), plan_, options);
  ASSERT_TRUE(created.ok());
  IncrementalMaintainer m = std::move(created.value());
  ASSERT_TRUE(m.ApplyRecords(std::span<const PathRecord>(db_->records())
                                 .subspan(0, 5))
                  .ok());
  // Find the all-'*' item level: every cuboid there has exactly the apex.
  const int apex = m.plan().FindItemLevel(
      ItemLevel{std::vector<int>(db_->schema().num_dimensions(), 0)});
  ASSERT_GE(apex, 0);
  const Cuboid& cuboid = m.cube().cuboid(static_cast<size_t>(apex), 0);
  EXPECT_EQ(cuboid.size(), 1u);
  const FlowCell* cell = cuboid.Find(Itemset{});
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->support, 5u);
}

TEST_F(MaintainerTest, MaintainMetricsAccumulate) {
  ScopedEpoch epoch;
  IncrementalMaintainerOptions options;
  Result<IncrementalMaintainer> created =
      IncrementalMaintainer::Create(db_->schema_ptr(), plan_, options);
  ASSERT_TRUE(created.ok());
  IncrementalMaintainer m = std::move(created.value());
  ASSERT_TRUE(m.ApplyRecords(std::span<const PathRecord>(db_->records())
                                 .subspan(0, 15))
                  .ok());
  MetricRegistry& reg = MetricRegistry::Global();
  EXPECT_EQ(reg.counter("stream.maintain.batches").value(), 1u);
  EXPECT_EQ(reg.counter("stream.maintain.records").value(), 15u);
  EXPECT_EQ(reg.gauge("stream.maintain.live_records").value(), 15);
}

}  // namespace
}  // namespace flowcube
