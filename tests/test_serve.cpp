// Serving-layer suite (S41): the AlignmentService front door must be a
// scheduling layer, never a semantic one.
//   * Results through the service are bit-identical to a direct
//     engine.align_batch over the same reads (software and sharded
//     backends, arbitrary request sizes);
//   * admission control sheds overload with kRejected + reason while
//     everything admitted still completes;
//   * deadlines are enforced at dequeue (kExpired, zero engine cycles);
//   * interactive requests dispatch before queued batch-class requests;
//   * drain shutdown serves every admitted request, abort shutdown fails
//     the still-queued ones with kShutdown;
//   * concurrent submitters from many threads each get exactly their own
//     results back (run under TSan in CI);
//   * ChunkDemux maps scheduler chunks onto request extents in order.
#include "src/serve/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/align/chunk_demux.h"
#include "src/align/sharded_engine.h"
#include "src/genome/synthetic_genome.h"
#include "src/index/index_io.h"
#include "src/obs/metrics.h"
#include "src/obs/request_trace.h"
#include "src/serve/index_cache.h"
#include "src/util/rng.h"
#include "tests/temp_dir.h"

namespace pim::serve {
namespace {

using namespace std::chrono_literals;

// Randomized read mix covering every outcome class (mirrors
// tests/test_engine.cpp): exact copies, mutated reads, reverse-complement
// strands, and random garbage.
std::vector<std::vector<genome::Base>> make_read_mix(
    const genome::PackedSequence& reference, std::size_t count,
    std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<genome::Base>> reads;
  reads.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = 60 + rng.bounded(41);  // 60-100 bp
    std::vector<genome::Base> read;
    if (i % 5 == 4) {
      for (std::size_t k = 0; k < len; ++k) {
        read.push_back(static_cast<genome::Base>(rng.bounded(4)));
      }
    } else {
      const std::size_t start = rng.bounded(reference.size() - len);
      read = reference.slice(start, start + len);
      if (i % 5 == 1 || i % 5 == 3) {
        const std::size_t subs = 1 + rng.bounded(2);
        for (std::size_t s = 0; s < subs; ++s) {
          const std::size_t pos = rng.bounded(read.size());
          read[pos] = genome::complement(read[pos]);
        }
      }
      if (i % 5 >= 2) read = genome::reverse_complement(read);
    }
    reads.push_back(std::move(read));
  }
  return reads;
}

struct Fixture {
  genome::PackedSequence reference;
  index::FmIndex fm;
  std::vector<std::vector<genome::Base>> reads;
  align::AlignerOptions options;

  explicit Fixture(std::size_t num_reads = 160, std::uint64_t seed = 33) {
    genome::SyntheticGenomeSpec spec;
    spec.length = 50000;
    spec.seed = 11;
    reference = genome::generate_reference(spec);
    fm = index::FmIndex::build(reference, {.bucket_width = 128});
    reads = make_read_mix(reference, num_reads, seed);
    options.inexact.max_diffs = 2;
  }

  /// Ground truth: direct align_batch over exactly `some_reads`.
  std::vector<align::AlignmentResult> direct(
      const std::vector<std::vector<genome::Base>>& some_reads) const {
    align::SoftwareEngine engine(fm, options);
    align::ReadBatch batch = align::ReadBatch::from_reads(some_reads);
    align::BatchResult result;
    engine.align_batch(batch, result);
    return result.to_results();
  }
};

void expect_identical(const align::AlignmentResult& want,
                      const align::AlignmentResult& got, std::size_t index,
                      const char* label) {
  EXPECT_EQ(got.stage, want.stage) << label << " read " << index;
  ASSERT_EQ(got.hits.size(), want.hits.size()) << label << " read " << index;
  for (std::size_t h = 0; h < want.hits.size(); ++h) {
    EXPECT_EQ(got.hits[h].position, want.hits[h].position)
        << label << " read " << index << " hit " << h;
    EXPECT_EQ(got.hits[h].diffs, want.hits[h].diffs)
        << label << " read " << index << " hit " << h;
    EXPECT_EQ(got.hits[h].strand, want.hits[h].strand)
        << label << " read " << index << " hit " << h;
  }
}

/// Slice a [begin, end) range out of the fixture read pool.
std::vector<std::vector<genome::Base>> slice_reads(
    const std::vector<std::vector<genome::Base>>& pool, std::size_t begin,
    std::size_t end) {
  return {pool.begin() + static_cast<std::ptrdiff_t>(begin),
          pool.begin() + static_cast<std::ptrdiff_t>(end)};
}

/// Engine wrapper that blocks inside align_range until opened. Lets tests
/// pin a batch on the "hardware" while they arrange queue contents, making
/// shedding / priority / shutdown orderings deterministic. Deliberately not
/// thread-safe so the service drives it through the serial chunked path.
class GateEngine final : public align::AlignmentEngine {
 public:
  explicit GateEngine(const align::AlignmentEngine& inner) : inner_(&inner) {}

  std::string_view name() const override { return "gate"; }
  bool thread_safe() const override { return false; }

  void align_range(const align::ReadBatch& batch, std::size_t begin,
                   std::size_t end, align::BatchResult& out) const override {
    {
      std::unique_lock<std::mutex> lk(mu_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lk, [&] { return open_; });
    }
    inner_->align_range(batch, begin, end, out);
  }

  /// Block until the batcher has entered align_range at least `n` times.
  void wait_entered(std::size_t n) const {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return entered_ >= n; });
  }

  /// Latch open: every blocked and future align_range proceeds.
  void open() const {
    std::lock_guard<std::mutex> lk(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  const align::AlignmentEngine* inner_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::size_t entered_ = 0;
  mutable bool open_ = false;
};

/// Engine that throws on a chosen batch dispatch (by align_range call
/// index), for error-routing tests.
class FaultyEngine final : public align::AlignmentEngine {
 public:
  FaultyEngine(const align::AlignmentEngine& inner, std::size_t fail_on_call)
      : inner_(&inner), fail_on_call_(fail_on_call) {}

  std::string_view name() const override { return "faulty"; }
  bool thread_safe() const override { return false; }

  void align_range(const align::ReadBatch& batch, std::size_t begin,
                   std::size_t end, align::BatchResult& out) const override {
    if (calls_.fetch_add(1) == fail_on_call_) {
      throw std::runtime_error("injected engine fault");
    }
    inner_->align_range(batch, begin, end, out);
  }

 private:
  const align::AlignmentEngine* inner_;
  std::size_t fail_on_call_;
  mutable std::atomic<std::size_t> calls_{0};
};

// ---------------------------------------------------------------------------
// ChunkDemux

align::BatchResultChunk make_chunk(std::size_t begin, std::size_t end) {
  align::BatchResultChunk chunk;
  chunk.begin = begin;
  chunk.end = end;
  return chunk;
}

TEST(ChunkDemux, SlicesChunksOntoIntervalsInOrder) {
  // Intervals: [0,3) [3,3) [3,8) [8,9). Chunks: [0,2) [2,5) [5,9).
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> slices;
  std::vector<std::size_t> completions;
  align::ChunkDemux demux(
      {0, 3, 3, 8, 9},
      [&](std::size_t interval, const align::BatchResultChunk&,
          std::size_t begin, std::size_t end) {
        slices.emplace_back(interval, begin, end);
      },
      [&](std::size_t interval) { completions.push_back(interval); });
  ASSERT_EQ(demux.num_intervals(), 4u);
  EXPECT_FALSE(demux.done());

  auto c0 = make_chunk(0, 2);
  demux.consume(c0);
  EXPECT_EQ(demux.completed(), 0u);

  auto c1 = make_chunk(2, 5);
  demux.consume(c1);
  // Interval 0 completed at read 3; empty interval 1 completes as the
  // cursor passes it; interval 2 got [3,5).
  EXPECT_EQ(demux.completed(), 2u);

  auto c2 = make_chunk(5, 9);
  demux.consume(c2);
  EXPECT_TRUE(demux.done());

  const std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> want =
      {{0, 0, 2}, {0, 2, 3}, {2, 3, 5}, {2, 5, 8}, {3, 8, 9}};
  EXPECT_EQ(slices, want);
  EXPECT_EQ(completions, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ChunkDemux, LeadingEmptyIntervalsCompleteImmediately) {
  std::vector<std::size_t> completions;
  align::ChunkDemux demux(
      {0, 0, 0, 2},
      [](std::size_t, const align::BatchResultChunk&, std::size_t,
         std::size_t) {},
      [&](std::size_t interval) { completions.push_back(interval); });
  EXPECT_EQ(completions, (std::vector<std::size_t>{0, 1}));
  auto chunk = make_chunk(0, 2);
  demux.consume(chunk);
  EXPECT_TRUE(demux.done());
  EXPECT_EQ(completions, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ChunkDemux, RejectsMalformedBoundsAndOutOfOrderChunks) {
  auto noop_slice = [](std::size_t, const align::BatchResultChunk&,
                       std::size_t, std::size_t) {};
  auto noop_complete = [](std::size_t) {};
  EXPECT_THROW(align::ChunkDemux({1, 2}, noop_slice, noop_complete),
               std::invalid_argument);
  EXPECT_THROW(align::ChunkDemux({0, 4, 2}, noop_slice, noop_complete),
               std::invalid_argument);
  EXPECT_THROW(align::ChunkDemux({}, noop_slice, noop_complete),
               std::invalid_argument);

  align::ChunkDemux demux({0, 4}, noop_slice, noop_complete);
  auto gap = make_chunk(1, 2);  // cursor is 0: a gap
  EXPECT_THROW(demux.consume(gap), std::logic_error);
  auto overrun = make_chunk(0, 5);  // past the partition
  EXPECT_THROW(demux.consume(overrun), std::logic_error);
}

// ---------------------------------------------------------------------------
// Equivalence: service results == direct align_batch results.

TEST(AlignmentService, MatchesDirectAlignBatch) {
  Fixture f;
  align::SoftwareEngine engine(f.fm, f.options);
  const auto want = f.direct(f.reads);

  ServiceOptions options;
  options.batching.max_batch_reads = 48;  // force multi-request coalescing
  options.batching.max_linger = 500us;
  options.batching.parallel.num_threads = 2;
  options.batching.parallel.chunk_size = 16;
  AlignmentService service(engine, options);

  // Carve the pool into requests of varying sizes (1..13 reads).
  std::vector<std::pair<std::size_t, ResponseFuture>> pending;
  std::size_t begin = 0, step = 1;
  while (begin < f.reads.size()) {
    const std::size_t end = std::min(begin + step, f.reads.size());
    AlignRequest request;
    request.reads = slice_reads(f.reads, begin, end);
    pending.emplace_back(begin, service.submit(std::move(request)));
    begin = end;
    step = step % 13 + 1;
  }

  for (auto& [offset, future] : pending) {
    AlignResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.reason;
    for (std::size_t i = 0; i < response.results.size(); ++i) {
      expect_identical(want[offset + i], response.results[i], offset + i,
                       "service");
    }
    EXPECT_GT(response.batch_seq, 0u);
    EXPECT_GE(response.latency_ms, response.queue_ms);
  }
  service.shutdown();

  const auto counters = service.counters();
  EXPECT_EQ(counters.submitted, pending.size());
  EXPECT_EQ(counters.admitted, pending.size());
  EXPECT_EQ(counters.completed, pending.size());
  EXPECT_EQ(counters.rejected, 0u);
  EXPECT_EQ(counters.expired, 0u);
  EXPECT_EQ(counters.batched_reads, f.reads.size());
  EXPECT_GT(counters.batches, 1u);  // coalesced, but more than one batch
  EXPECT_EQ(service.engine_stats().reads_total, f.reads.size());
}

TEST(AlignmentService, ShardedEngineBehindServiceMatchesDirect) {
  Fixture f(120, 77);
  const auto want = f.direct(f.reads);

  // Three software shards behind the sharded (non-thread-safe) engine: the
  // batcher must route it through the serial chunked path.
  std::vector<std::unique_ptr<align::AlignmentEngine>> shards;
  std::vector<const align::AlignmentEngine*> shard_ptrs;
  for (int s = 0; s < 3; ++s) {
    shards.push_back(
        std::make_unique<align::SoftwareEngine>(f.fm, f.options));
    shard_ptrs.push_back(shards.back().get());
  }
  align::ShardedEngine engine(shard_ptrs);

  ServiceOptions options;
  options.batching.max_batch_reads = 64;
  options.batching.max_linger = 300us;
  AlignmentService service(engine, options);

  std::vector<ResponseFuture> futures;
  const std::size_t kRequestReads = 8;
  for (std::size_t begin = 0; begin < f.reads.size();
       begin += kRequestReads) {
    AlignRequest request;
    request.reads = slice_reads(
        f.reads, begin, std::min(begin + kRequestReads, f.reads.size()));
    futures.push_back(service.submit(std::move(request)));
  }
  std::size_t index = 0;
  for (auto& future : futures) {
    AlignResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.reason;
    for (const auto& result : response.results) {
      expect_identical(want[index], result, index, "sharded-service");
      ++index;
    }
  }
  EXPECT_EQ(index, f.reads.size());
}

TEST(AlignmentService, BlockingAlignAndEmptyRequest) {
  Fixture f(10);
  align::SoftwareEngine engine(f.fm, f.options);
  AlignmentService service(engine);

  AlignResponse empty = service.align(AlignRequest{});
  EXPECT_TRUE(empty.ok());
  EXPECT_TRUE(empty.results.empty());

  AlignRequest request;
  request.reads = slice_reads(f.reads, 0, 3);
  AlignResponse response = service.align(std::move(request));
  ASSERT_TRUE(response.ok());
  const auto want = f.direct(slice_reads(f.reads, 0, 3));
  ASSERT_EQ(response.results.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    expect_identical(want[i], response.results[i], i, "blocking");
  }
}

// ---------------------------------------------------------------------------
// Admission control / overload shedding.

/// Shorthand: occupancy with `requests`/`reads` total, all in one class.
QueueOccupancy occupancy_of(std::size_t requests, std::size_t reads,
                            RequestPriority cls = RequestPriority::kBatch) {
  QueueOccupancy occ;
  occ.requests = requests;
  occ.reads = reads;
  occ.class_requests[static_cast<std::size_t>(cls)] = requests;
  occ.class_reads[static_cast<std::size_t>(cls)] = reads;
  return occ;
}

TEST(AdmissionControl, VetIsPureAndReasoned) {
  AdmissionControl admission({.max_queued_requests = 2,
                              .max_queued_reads = 10});
  AlignRequest small;
  small.reads.resize(3);
  EXPECT_FALSE(admission.vet(occupancy_of(0, 0), small).has_value());
  // Request-count bound.
  auto reason = admission.vet(occupancy_of(2, 6), small);
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("queue full"), std::string::npos);
  // Read-count bound.
  reason = admission.vet(occupancy_of(1, 9), small);
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("reads"), std::string::npos);
  // Oversized: could never fit, even against an empty queue.
  AlignRequest huge;
  huge.reads.resize(11);
  reason = admission.vet(occupancy_of(0, 0), huge);
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("too large"), std::string::npos);
  // Unlimited when bounds are 0.
  AdmissionControl unlimited({.max_queued_requests = 0,
                              .max_queued_reads = 0});
  EXPECT_FALSE(
      unlimited.vet(occupancy_of(1u << 20, 1u << 30), huge).has_value());
}

TEST(AdmissionControl, PerClassQuotasIsolateClassesAndNameThem) {
  AdmissionOptions options;
  options.max_queued_requests = 0;  // shared bounds out of the way
  options.max_queued_reads = 0;
  options.max_class_requests[0] = 2;   // interactive
  options.max_class_requests[1] = 4;   // batch
  options.max_class_reads[1] = 16;
  AdmissionControl admission(options);

  AlignRequest interactive;
  interactive.priority = RequestPriority::kInteractive;
  interactive.reads.resize(3);
  AlignRequest batch;
  batch.priority = RequestPriority::kBatch;
  batch.reads.resize(3);

  // A saturated batch class never blocks interactive admission (isolation).
  QueueOccupancy occ;
  occ.requests = 4;
  occ.reads = 16;
  occ.class_requests[1] = 4;
  occ.class_reads[1] = 16;
  EXPECT_FALSE(admission.vet(occ, interactive).has_value());
  auto reason = admission.vet(occ, batch);
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("batch"), std::string::npos)
      << "reject reason must name the class: " << *reason;

  // And vice versa: interactive at quota, batch still admitted.
  QueueOccupancy occ2;
  occ2.requests = 2;
  occ2.reads = 6;
  occ2.class_requests[0] = 2;
  occ2.class_reads[0] = 6;
  EXPECT_FALSE(admission.vet(occ2, batch).has_value());
  reason = admission.vet(occ2, interactive);
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("interactive"), std::string::npos)
      << "reject reason must name the class: " << *reason;

  // Per-class read quota: the batch class's own read ceiling fires with the
  // class named even though the shared read bound is unlimited.
  QueueOccupancy occ3;
  occ3.requests = 3;
  occ3.reads = 15;
  occ3.class_requests[1] = 3;
  occ3.class_reads[1] = 15;
  reason = admission.vet(occ3, batch);
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("batch"), std::string::npos);
  EXPECT_NE(reason->find("max_class_reads"), std::string::npos);

  // Oversized against the class read quota, even when the shared bound
  // would admit it.
  AlignRequest huge;
  huge.priority = RequestPriority::kBatch;
  huge.reads.resize(17);
  reason = admission.vet(QueueOccupancy{}, huge);
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("too large"), std::string::npos);
  EXPECT_NE(reason->find("batch"), std::string::npos);
}

TEST(AlignmentService, ShedsOverloadWithReasonAndServesAdmitted) {
  Fixture f(30);
  align::SoftwareEngine inner(f.fm, f.options);
  GateEngine engine(inner);

  ServiceOptions options;
  options.admission.max_queued_requests = 2;
  options.admission.max_queued_reads = 100;
  options.batching.max_batch_reads = 4;  // one request per batch
  options.batching.max_linger = 0us;
  AlignmentService service(engine, options);

  auto request_at = [&](std::size_t begin) {
    AlignRequest request;
    request.reads = slice_reads(f.reads, begin, begin + 4);
    return request;
  };

  // First request goes in flight (pinned on the gate), leaving the queue
  // empty; two more fill the queue; the rest must be shed.
  ResponseFuture in_flight = service.submit(request_at(0));
  engine.wait_entered(1);
  ResponseFuture queued1 = service.submit(request_at(4));
  ResponseFuture queued2 = service.submit(request_at(8));
  ResponseFuture shed1 = service.submit(request_at(12));
  ResponseFuture shed2 = service.submit(request_at(16));

  AlignResponse r_shed1 = shed1.get();
  AlignResponse r_shed2 = shed2.get();
  EXPECT_EQ(r_shed1.status, RequestStatus::kRejected);
  EXPECT_EQ(r_shed2.status, RequestStatus::kRejected);
  EXPECT_NE(r_shed1.reason.find("queue full"), std::string::npos)
      << r_shed1.reason;
  EXPECT_TRUE(r_shed1.results.empty());

  engine.open();
  EXPECT_TRUE(in_flight.get().ok());
  EXPECT_TRUE(queued1.get().ok());
  EXPECT_TRUE(queued2.get().ok());
  service.shutdown();

  const auto counters = service.counters();
  EXPECT_EQ(counters.submitted, 5u);
  EXPECT_EQ(counters.admitted, 3u);
  EXPECT_EQ(counters.rejected, 2u);
  EXPECT_EQ(counters.completed, 3u);
}

TEST(AlignmentService, OversizedRequestIsRejectedOutright) {
  Fixture f(20);
  align::SoftwareEngine engine(f.fm, f.options);
  ServiceOptions options;
  options.admission.max_queued_reads = 8;
  AlignmentService service(engine, options);

  AlignRequest request;
  request.reads = slice_reads(f.reads, 0, 12);
  AlignResponse response = service.align(std::move(request));
  EXPECT_EQ(response.status, RequestStatus::kRejected);
  EXPECT_NE(response.reason.find("too large"), std::string::npos)
      << response.reason;
}

// ---------------------------------------------------------------------------
// Deadlines.

TEST(AlignmentService, ExpiredDeadlineFailsFastAtDequeue) {
  Fixture f(20);
  align::SoftwareEngine inner(f.fm, f.options);
  GateEngine engine(inner);

  ServiceOptions options;
  options.batching.max_batch_reads = 4;
  options.batching.max_linger = 0us;
  AlignmentService service(engine, options);

  AlignRequest occupant;
  occupant.reads = slice_reads(f.reads, 0, 4);
  ResponseFuture in_flight = service.submit(std::move(occupant));
  engine.wait_entered(1);

  // Deadline already in the past: whatever batch picks it up must expire
  // it at dequeue without touching the engine.
  AlignRequest late;
  late.reads = slice_reads(f.reads, 4, 8);
  late.deadline = ServiceClock::now() - 1ms;
  ResponseFuture expired = service.submit(std::move(late));

  // Generous deadline: must still be served.
  AlignRequest fine;
  fine.reads = slice_reads(f.reads, 8, 12);
  fine.deadline = ServiceClock::now() + 60s;
  ResponseFuture served = service.submit(std::move(fine));

  engine.open();
  AlignResponse r_expired = expired.get();
  EXPECT_EQ(r_expired.status, RequestStatus::kExpired);
  EXPECT_NE(r_expired.reason.find("deadline"), std::string::npos)
      << r_expired.reason;
  EXPECT_TRUE(r_expired.results.empty());
  EXPECT_TRUE(in_flight.get().ok());
  EXPECT_TRUE(served.get().ok());
  service.shutdown();

  const auto counters = service.counters();
  EXPECT_EQ(counters.expired, 1u);
  EXPECT_EQ(counters.completed, 2u);
  // The expired request's reads never reached the engine.
  EXPECT_EQ(service.engine_stats().reads_total, 8u);
}

// ---------------------------------------------------------------------------
// Priority classes.

TEST(AlignmentService, InteractiveDispatchesBeforeQueuedBatch) {
  Fixture f(20);
  align::SoftwareEngine inner(f.fm, f.options);
  GateEngine engine(inner);

  ServiceOptions options;
  options.batching.max_batch_reads = 2;  // one 2-read request per batch
  options.batching.max_linger = 0us;
  AlignmentService service(engine, options);

  auto request_at = [&](std::size_t begin, RequestPriority priority) {
    AlignRequest request;
    request.reads = slice_reads(f.reads, begin, begin + 2);
    request.priority = priority;
    return request;
  };

  ResponseFuture occupant =
      service.submit(request_at(0, RequestPriority::kBatch));
  engine.wait_entered(1);
  ResponseFuture batch1 =
      service.submit(request_at(2, RequestPriority::kBatch));
  ResponseFuture batch2 =
      service.submit(request_at(4, RequestPriority::kBatch));
  ResponseFuture interactive =
      service.submit(request_at(6, RequestPriority::kInteractive));

  engine.open();
  AlignResponse r_interactive = interactive.get();
  AlignResponse r_batch1 = batch1.get();
  AlignResponse r_batch2 = batch2.get();
  service.shutdown();

  ASSERT_TRUE(r_interactive.ok());
  ASSERT_TRUE(r_batch1.ok());
  ASSERT_TRUE(r_batch2.ok());
  // The interactive request jumped the queued batch-class requests.
  EXPECT_LT(r_interactive.batch_seq, r_batch1.batch_seq);
  EXPECT_LT(r_interactive.batch_seq, r_batch2.batch_seq);
  EXPECT_LT(r_batch1.batch_seq, r_batch2.batch_seq);  // FIFO within class
}

TEST(AlignmentService, EarliestDeadlineFirstWithinAClass) {
  Fixture f(20);
  align::SoftwareEngine inner(f.fm, f.options);
  GateEngine engine(inner);

  ServiceOptions options;
  options.batching.max_batch_reads = 2;  // one 2-read request per batch
  options.batching.max_linger = 0us;
  AlignmentService service(engine, options);

  auto request_at = [&](std::size_t begin,
                        std::optional<std::chrono::seconds> budget) {
    AlignRequest request;
    request.reads = slice_reads(f.reads, begin, begin + 2);
    request.priority = RequestPriority::kBatch;
    if (budget) request.deadline = ServiceClock::now() + *budget;
    return request;
  };

  // Pin the batcher, then queue batch-class requests whose deadlines are
  // NOT in submission order: far deadline, no deadline, near deadline.
  ResponseFuture occupant = service.submit(request_at(0, std::nullopt));
  engine.wait_entered(1);
  ResponseFuture late = service.submit(request_at(2, 100s));
  ResponseFuture none = service.submit(request_at(4, std::nullopt));
  ResponseFuture soon = service.submit(request_at(6, 30s));

  engine.open();
  AlignResponse r_late = late.get();
  AlignResponse r_none = none.get();
  AlignResponse r_soon = soon.get();
  service.shutdown();

  ASSERT_TRUE(r_late.ok());
  ASSERT_TRUE(r_none.ok());
  ASSERT_TRUE(r_soon.ok());
  // Gather order is earliest-deadline-first within the class; requests
  // without a deadline sort last (FIFO among themselves).
  EXPECT_LT(r_soon.batch_seq, r_late.batch_seq);
  EXPECT_LT(r_late.batch_seq, r_none.batch_seq);
}

// ---------------------------------------------------------------------------
// Shutdown semantics.

TEST(AlignmentService, DrainShutdownServesEverythingAdmitted) {
  Fixture f(120, 5);
  align::SoftwareEngine engine(f.fm, f.options);
  const auto want = f.direct(f.reads);

  ServiceOptions options;
  options.batching.max_batch_reads = 16;
  options.batching.max_linger = 5000us;
  AlignmentService service(engine, options);

  std::vector<ResponseFuture> futures;
  for (std::size_t begin = 0; begin < f.reads.size(); begin += 6) {
    AlignRequest request;
    request.reads =
        slice_reads(f.reads, begin, std::min(begin + 6, f.reads.size()));
    futures.push_back(service.submit(std::move(request)));
  }
  // Close immediately: drain must still serve every admitted request.
  service.shutdown(AlignmentService::ShutdownMode::kDrain);

  std::size_t index = 0;
  for (auto& future : futures) {
    AlignResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.reason;
    for (const auto& result : response.results) {
      expect_identical(want[index], result, index, "drain");
      ++index;
    }
  }
  EXPECT_EQ(index, f.reads.size());
  EXPECT_EQ(service.counters().completed, futures.size());

  // Submissions after shutdown are turned away, not queued.
  AlignRequest late;
  late.reads = slice_reads(f.reads, 0, 1);
  AlignResponse r_late = service.submit(std::move(late)).get();
  EXPECT_EQ(r_late.status, RequestStatus::kShutdown);
  EXPECT_EQ(service.counters().rejected_shutdown, 1u);
}

TEST(AlignmentService, AbortShutdownFailsQueuedButFinishesInFlight) {
  Fixture f(20);
  align::SoftwareEngine inner(f.fm, f.options);
  GateEngine engine(inner);

  ServiceOptions options;
  options.batching.max_batch_reads = 4;
  options.batching.max_linger = 0us;
  AlignmentService service(engine, options);

  AlignRequest occupant;
  occupant.reads = slice_reads(f.reads, 0, 4);
  ResponseFuture in_flight = service.submit(std::move(occupant));
  engine.wait_entered(1);
  AlignRequest queued;
  queued.reads = slice_reads(f.reads, 4, 8);
  ResponseFuture abandoned = service.submit(std::move(queued));

  // shutdown(kAbort) blocks on the batcher join, which is pinned on the
  // gate — run it from a helper thread and release the gate after.
  std::thread stopper(
      [&] { service.shutdown(AlignmentService::ShutdownMode::kAbort); });
  AlignResponse r_abandoned = abandoned.get();  // failed by the abort
  EXPECT_EQ(r_abandoned.status, RequestStatus::kShutdown);
  EXPECT_NE(r_abandoned.reason.find("shut down"), std::string::npos)
      << r_abandoned.reason;
  engine.open();
  stopper.join();

  EXPECT_TRUE(in_flight.get().ok());  // in-flight batch still completed
  const auto counters = service.counters();
  EXPECT_EQ(counters.aborted, 1u);
  EXPECT_EQ(counters.completed, 1u);
}

// ---------------------------------------------------------------------------
// Error routing.

TEST(AlignmentService, EngineFaultReachesFuturesAndServiceSurvives) {
  Fixture f(20);
  align::SoftwareEngine inner(f.fm, f.options);
  // Large chunk so the whole batch is one align_range call; fail call 0.
  FaultyEngine engine(inner, 0);

  ServiceOptions options;
  options.batching.max_batch_reads = 4;
  options.batching.max_linger = 0us;
  options.batching.parallel.chunk_size = 64;
  AlignmentService service(engine, options);

  AlignRequest doomed;
  doomed.reads = slice_reads(f.reads, 0, 4);
  ResponseFuture first = service.submit(std::move(doomed));
  EXPECT_THROW(first.get(), std::runtime_error);

  // The loop keeps serving: the next batch goes through the inner engine.
  AlignRequest fine;
  fine.reads = slice_reads(f.reads, 4, 8);
  AlignResponse response = service.align(std::move(fine));
  ASSERT_TRUE(response.ok()) << response.reason;
  const auto want = f.direct(slice_reads(f.reads, 4, 8));
  for (std::size_t i = 0; i < response.results.size(); ++i) {
    expect_identical(want[i], response.results[i], i, "post-fault");
  }
  service.shutdown();
}

// ---------------------------------------------------------------------------
// Concurrency (run under TSan in CI).

TEST(AlignmentService, ConcurrentSubmittersEachGetTheirOwnResults) {
  Fixture f(200, 9);
  align::SoftwareEngine engine(f.fm, f.options);
  const auto want = f.direct(f.reads);

  obs::MetricsRegistry registry;
  ServiceOptions options;
  options.batching.max_batch_reads = 32;
  options.batching.max_linger = 200us;
  options.batching.parallel.num_threads = 2;
  options.batching.parallel.chunk_size = 8;
  options.metrics = &registry;
  AlignmentService service(engine, options);

  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kPerThread = 24;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      util::Xoshiro256 rng(1000 + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t size = 1 + rng.bounded(5);
        const std::size_t begin = rng.bounded(f.reads.size() - size);
        AlignRequest request;
        request.reads = slice_reads(f.reads, begin, begin + size);
        request.priority = (i % 3 == 0) ? RequestPriority::kInteractive
                                        : RequestPriority::kBatch;
        AlignResponse response = service.submit(std::move(request)).get();
        if (!response.ok() || response.results.size() != size) {
          mismatches.fetch_add(1);
          continue;
        }
        for (std::size_t r = 0; r < size; ++r) {
          const auto& got = response.results[r];
          const auto& ref = want[begin + r];
          if (got.stage != ref.stage || got.hits.size() != ref.hits.size()) {
            mismatches.fetch_add(1);
            break;
          }
          bool hit_mismatch = false;
          for (std::size_t h = 0; h < ref.hits.size(); ++h) {
            if (got.hits[h].position != ref.hits[h].position ||
                got.hits[h].diffs != ref.hits[h].diffs ||
                got.hits[h].strand != ref.hits[h].strand) {
              hit_mismatch = true;
              break;
            }
          }
          if (hit_mismatch) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  service.shutdown();

  const auto counters = service.counters();
  EXPECT_EQ(counters.submitted, kThreads * kPerThread);
  EXPECT_EQ(counters.completed, kThreads * kPerThread);
  EXPECT_EQ(counters.rejected, 0u);

  // The serve.* series mirror the shared tallies.
  const auto snapshot = registry.scrape();
  EXPECT_EQ(snapshot.counter_value("serve.submitted"), counters.submitted);
  EXPECT_EQ(snapshot.counter_value("serve.completed"), counters.completed);
  EXPECT_EQ(snapshot.counter_value("serve.batches"), counters.batches);
  EXPECT_EQ(snapshot.counter_value("serve.reads"), counters.batched_reads);
  const obs::HistogramSample* latency =
      snapshot.histogram("serve.latency_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, counters.completed);
  EXPECT_LE(latency->p50, latency->p99);
  EXPECT_DOUBLE_EQ(latency->percentile(0.5), latency->p50);
}

// ---------------------------------------------------------------------------
// Per-request tracing (S45): every terminal status leaves a complete,
// monotone phase timeline whose LatencyBreakdown telescopes exactly to the
// end-to-end latency; ids are unique under concurrent submitters (TSan'd).
// ---------------------------------------------------------------------------

using obs::RequestPhase;

/// Assert `trace` walked exactly `phases`, in order: every listed phase is
/// stamped, timestamps are monotone non-decreasing, and no unlisted phase
/// has a stamp (no gaps, no strays).
void expect_timeline(const obs::RequestTrace& trace,
                     std::initializer_list<RequestPhase> phases) {
  ASSERT_TRUE(trace.traced());
  std::array<bool, obs::kNumRequestPhases> listed{};
  double prev = -std::numeric_limits<double>::infinity();
  for (const RequestPhase phase : phases) {
    listed[static_cast<std::size_t>(phase)] = true;
    ASSERT_TRUE(trace.has(phase))
        << "request " << trace.id << " missing phase "
        << obs::to_string(phase);
    EXPECT_GE(trace.at(phase), prev)
        << "request " << trace.id << " non-monotone at "
        << obs::to_string(phase);
    prev = trace.at(phase);
  }
  for (std::size_t i = 0; i < obs::kNumRequestPhases; ++i) {
    const auto phase = static_cast<RequestPhase>(i);
    if (!listed[i]) {
      EXPECT_FALSE(trace.has(phase))
          << "request " << trace.id << " has unexpected phase "
          << obs::to_string(phase);
    }
  }
}

constexpr std::initializer_list<RequestPhase> kOkChain = {
    RequestPhase::kSubmit,     RequestPhase::kAdmit,
    RequestPhase::kDequeue,    RequestPhase::kBatchSeal,
    RequestPhase::kDispatch,   RequestPhase::kFirstChunk,
    RequestPhase::kComplete,
};

TEST(RequestTracing, UntracedServiceKeepsTraceInert) {
  Fixture f(8);
  align::SoftwareEngine engine(f.fm, f.options);
  AlignmentService service(engine, {});
  AlignRequest request;
  request.reads = slice_reads(f.reads, 0, 4);
  AlignResponse response = service.align(std::move(request));
  ASSERT_TRUE(response.ok()) << response.reason;
  EXPECT_FALSE(response.trace.traced());
  EXPECT_EQ(response.request_id(), 0u);
  EXPECT_EQ(response.breakdown.total_ms, 0.0);
  service.shutdown();
}

TEST(RequestTracing, CompletedRequestWalksTheFullChain) {
  Fixture f(20);
  align::SoftwareEngine engine(f.fm, f.options);
  obs::MetricsRegistry registry;
  obs::RequestTracer tracer({.registry = &registry});
  ServiceOptions options;
  options.batching.max_linger = 0us;
  options.tracer = &tracer;
  AlignmentService service(engine, options);

  AlignRequest request;
  request.reads = slice_reads(f.reads, 0, 6);
  request.priority = RequestPriority::kInteractive;
  request.deadline = ServiceClock::now() + 60s;
  AlignResponse response = service.align(std::move(request));
  ASSERT_TRUE(response.ok()) << response.reason;

  const obs::RequestTrace& trace = response.trace;
  EXPECT_GT(response.request_id(), 0u);
  expect_timeline(trace, kOkChain);
  EXPECT_EQ(trace.terminal(), RequestPhase::kComplete);
  EXPECT_EQ(trace.reads, 6u);
  EXPECT_EQ(trace.batch_seq, response.batch_seq);
  EXPECT_GE(trace.batch_requests, 1u);
  EXPECT_GE(trace.batch_reads, 6u);
  EXPECT_GT(trace.deadline_margin_ms(), 0.0);

  // The breakdown telescopes exactly and reconciles with the service's
  // independently measured latency within clock-read error.
  const obs::LatencyBreakdown& breakdown = response.breakdown;
  EXPECT_NEAR(breakdown.sum(), breakdown.total_ms, 1e-9);
  EXPECT_NEAR(breakdown.total_ms, trace.total_ms(), 1e-9);
  EXPECT_NEAR(breakdown.total_ms, response.latency_ms, 1.0);

  service.shutdown();
  EXPECT_EQ(tracer.recorded(), 1u);
  const auto slowest = tracer.slowest();
  ASSERT_EQ(slowest.size(), 1u);
  EXPECT_EQ(slowest[0].id, trace.id);
  const auto snapshot = registry.scrape();
  const obs::HistogramSample* total =
      snapshot.histogram("serve.phase.total_ms");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count, 1u);
  const obs::HistogramSample* margin =
      snapshot.histogram("serve.deadline_margin_ms.interactive");
  ASSERT_NE(margin, nullptr);
  EXPECT_EQ(margin->count, 1u);
}

TEST(RequestTracing, RejectedRequestGetsSubmitRejectTimeline) {
  Fixture f(20);
  align::SoftwareEngine engine(f.fm, f.options);
  obs::RequestTracer tracer;
  ServiceOptions options;
  options.admission.max_queued_reads = 8;
  options.tracer = &tracer;
  AlignmentService service(engine, options);

  AlignRequest oversized;
  oversized.reads = slice_reads(f.reads, 0, 12);
  AlignResponse response = service.align(std::move(oversized));
  EXPECT_EQ(response.status, RequestStatus::kRejected);
  expect_timeline(response.trace,
                  {RequestPhase::kSubmit, RequestPhase::kReject});
  EXPECT_EQ(response.trace.terminal(), RequestPhase::kReject);
  // The whole (tiny) trip is admission; nothing downstream is charged.
  EXPECT_NEAR(response.breakdown.sum(), response.breakdown.total_ms, 1e-9);
  EXPECT_EQ(response.breakdown.queue_ms, 0.0);
  EXPECT_EQ(response.breakdown.compute_ms, 0.0);
  service.shutdown();
  EXPECT_EQ(tracer.recorded(), 1u);
  EXPECT_TRUE(tracer.slowest().empty());  // only kComplete retains exemplars
}

TEST(RequestTracing, ExpiredRequestDiesAfterDequeueWithNegativeMargin) {
  Fixture f(20);
  align::SoftwareEngine inner(f.fm, f.options);
  GateEngine engine(inner);
  obs::RequestTracer tracer;
  ServiceOptions options;
  options.batching.max_batch_reads = 4;
  options.batching.max_linger = 0us;
  options.tracer = &tracer;
  AlignmentService service(engine, options);

  AlignRequest occupant;
  occupant.reads = slice_reads(f.reads, 0, 4);
  ResponseFuture in_flight = service.submit(std::move(occupant));
  engine.wait_entered(1);

  AlignRequest late;
  late.reads = slice_reads(f.reads, 4, 8);
  late.deadline = ServiceClock::now() - 1ms;
  ResponseFuture expired = service.submit(std::move(late));

  engine.open();
  AlignResponse response = expired.get();
  EXPECT_EQ(response.status, RequestStatus::kExpired);
  expect_timeline(response.trace,
                  {RequestPhase::kSubmit, RequestPhase::kAdmit,
                   RequestPhase::kDequeue, RequestPhase::kExpire});
  EXPECT_EQ(response.trace.terminal(), RequestPhase::kExpire);
  EXPECT_LT(response.trace.deadline_margin_ms(), 0.0);
  // Died between dequeue and seal: the remainder lands in seal_ms and the
  // breakdown still telescopes; no compute was ever charged.
  EXPECT_NEAR(response.breakdown.sum(), response.breakdown.total_ms, 1e-9);
  EXPECT_EQ(response.breakdown.compute_ms, 0.0);
  EXPECT_TRUE(in_flight.get().ok());
  service.shutdown();
}

TEST(RequestTracing, ShutdownPathsStampTerminalShutdown) {
  Fixture f(20);
  align::SoftwareEngine inner(f.fm, f.options);
  GateEngine engine(inner);
  obs::RequestTracer tracer;
  ServiceOptions options;
  options.batching.max_batch_reads = 4;
  options.batching.max_linger = 0us;
  options.tracer = &tracer;
  AlignmentService service(engine, options);

  AlignRequest occupant;
  occupant.reads = slice_reads(f.reads, 0, 4);
  ResponseFuture in_flight = service.submit(std::move(occupant));
  engine.wait_entered(1);
  AlignRequest queued;
  queued.reads = slice_reads(f.reads, 4, 8);
  ResponseFuture abandoned = service.submit(std::move(queued));

  std::thread stopper(
      [&] { service.shutdown(AlignmentService::ShutdownMode::kAbort); });
  AlignResponse r_abandoned = abandoned.get();
  EXPECT_EQ(r_abandoned.status, RequestStatus::kShutdown);
  // Admitted, then failed by the abort: submit -> admit -> shutdown.
  expect_timeline(r_abandoned.trace,
                  {RequestPhase::kSubmit, RequestPhase::kAdmit,
                   RequestPhase::kShutdown});
  EXPECT_NEAR(r_abandoned.breakdown.sum(), r_abandoned.breakdown.total_ms,
              1e-9);
  engine.open();
  stopper.join();
  EXPECT_TRUE(in_flight.get().ok());

  // Submitted after close: fail-fast submit -> shutdown timeline.
  AlignRequest post_close;
  post_close.reads = slice_reads(f.reads, 8, 9);
  AlignResponse r_late = service.submit(std::move(post_close)).get();
  EXPECT_EQ(r_late.status, RequestStatus::kShutdown);
  expect_timeline(r_late.trace,
                  {RequestPhase::kSubmit, RequestPhase::kShutdown});
  EXPECT_GE(r_late.trace.total_ms(), 0.0);
}

TEST(RequestTracing, StallProbeChargesProRataShare) {
  Fixture f(20);
  align::SoftwareEngine engine(f.fm, f.options);
  obs::RequestTracer tracer;
  std::atomic<int> probe_calls{0};
  ServiceOptions options;
  options.batching.max_linger = 0us;
  options.tracer = &tracer;
  // Fake backend: cumulative stall grows 2e6 ns per probe call, so the
  // dispatch->completion delta is deterministic (call 0 at dispatch reads
  // 0, call 1 at this request's completion reads 2e6).
  options.stall_probe = [&probe_calls]() -> double {
    return 2.0e6 * static_cast<double>(probe_calls.fetch_add(1));
  };
  AlignmentService service(engine, options);

  AlignRequest request;
  request.reads = slice_reads(f.reads, 0, 4);
  AlignResponse response = service.align(std::move(request));
  ASSERT_TRUE(response.ok()) << response.reason;
  // Sole request in its batch: the full 2 ms delta is attributed to it
  // (reads / total_reads == 1).
  EXPECT_DOUBLE_EQ(response.trace.stall_ms, 2.0);
  EXPECT_DOUBLE_EQ(response.breakdown.stall_ms, 2.0);
  service.shutdown();
}

TEST(RequestTracing, ConcurrentTracedSubmittersGetUniqueCompleteTimelines) {
  Fixture f(200, 9);
  align::SoftwareEngine engine(f.fm, f.options);
  obs::MetricsRegistry registry;
  obs::RequestTracer tracer({.registry = &registry, .max_exemplars = 4});
  ServiceOptions options;
  options.batching.max_batch_reads = 32;
  options.batching.max_linger = 200us;
  options.batching.parallel.num_threads = 2;
  options.batching.parallel.chunk_size = 8;
  options.tracer = &tracer;
  AlignmentService service(engine, options);

  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kPerThread = 20;
  std::mutex mu;
  std::vector<obs::RequestTrace> traces;
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      util::Xoshiro256 rng(4000 + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t size = 1 + rng.bounded(5);
        const std::size_t begin = rng.bounded(f.reads.size() - size);
        AlignRequest request;
        request.reads = slice_reads(f.reads, begin, begin + size);
        request.priority = (i % 3 == 0) ? RequestPriority::kInteractive
                                        : RequestPriority::kBatch;
        request.deadline = ServiceClock::now() + 60s;
        AlignResponse response = service.submit(std::move(request)).get();
        if (!response.ok()) {
          failures.fetch_add(1);
          continue;
        }
        std::lock_guard<std::mutex> lock(mu);
        traces.push_back(response.trace);
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  service.shutdown();
  ASSERT_EQ(failures.load(), 0u);
  ASSERT_EQ(traces.size(), kThreads * kPerThread);

  // Every response carries the complete monotone chain, a telescoping
  // breakdown, and a batch link; ids are globally unique.
  std::set<std::uint64_t> ids;
  for (const auto& trace : traces) {
    expect_timeline(trace, kOkChain);
    const obs::LatencyBreakdown breakdown = obs::breakdown_of(trace);
    EXPECT_NEAR(breakdown.sum(), breakdown.total_ms, 1e-9);
    EXPECT_GT(trace.batch_seq, 0u);
    EXPECT_GE(trace.batch_requests, 1u);
    EXPECT_GE(trace.batch_reads, trace.reads);
    ids.insert(trace.id);
  }
  EXPECT_EQ(ids.size(), traces.size());
  EXPECT_EQ(tracer.recorded(), traces.size());

  // The exemplar buffer holds exactly the K slowest completed requests,
  // slowest first, matching the client-side totals.
  std::vector<double> totals;
  totals.reserve(traces.size());
  for (const auto& trace : traces) totals.push_back(trace.total_ms());
  std::sort(totals.rbegin(), totals.rend());
  const auto slowest = tracer.slowest();
  ASSERT_EQ(slowest.size(), tracer.max_exemplars());
  for (std::size_t i = 0; i < slowest.size(); ++i) {
    EXPECT_DOUBLE_EQ(slowest[i].total_ms(), totals[i]) << "exemplar " << i;
  }

  // Every terminal trace fed the serve.phase.* histograms exactly once.
  const auto snapshot = registry.scrape();
  const obs::HistogramSample* total =
      snapshot.histogram("serve.phase.total_ms");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count, traces.size());
  const obs::HistogramSample* compute =
      snapshot.histogram("serve.phase.compute_ms");
  ASSERT_NE(compute, nullptr);
  EXPECT_EQ(compute->count, traces.size());
  const obs::HistogramSample* margin =
      snapshot.histogram("serve.deadline_margin_ms.interactive");
  ASSERT_NE(margin, nullptr);
  EXPECT_GT(margin->count, 0u);
}

// ---------------------------------------------------------------------------
// Multi-reference routing (S42): an AlignmentService over an IndexCache
// routes by reference_id, lanes follow cache residency, and results stay
// bit-identical to a single-reference service over the same index.
// ---------------------------------------------------------------------------

struct MultiRefFixture {
  struct Ref {
    std::string id;
    std::string path;
    genome::PackedSequence reference;
    index::FmIndex fm;
    std::vector<std::vector<genome::Base>> reads;
  };
  tests::TempDir dir;  ///< Holds the artifacts; outlives every Ref.
  std::vector<Ref> refs;
  align::AlignerOptions aligner;

  explicit MultiRefFixture(std::size_t count = 3) {
    aligner.inexact.max_diffs = 2;
    for (std::size_t i = 0; i < count; ++i) {
      Ref r;
      r.id = "genome" + std::to_string(i);
      r.path = dir.file(r.id + ".index");
      genome::SyntheticGenomeSpec spec;
      spec.length = 20000;
      spec.seed = 500 + i;
      r.reference = genome::generate_reference(spec);
      r.fm = index::FmIndex::build(r.reference, {.bucket_width = 128});
      index::save_index_file(r.path, r.fm, {{r.id, 0, r.reference.size()}});
      r.reads = make_read_mix(r.reference, 40, 70 + i);
      refs.push_back(std::move(r));
    }
  }

  IndexCacheOptions cache_options(std::size_t max_resident) const {
    IndexCacheOptions options;
    options.max_resident = max_resident;
    return options;
  }

  MultiReferenceOptions service_options() const {
    MultiReferenceOptions options;
    options.aligner = aligner;
    return options;
  }

  /// Ground truth for reference `r` over `some_reads`.
  std::vector<align::AlignmentResult> direct(
      const Ref& r,
      const std::vector<std::vector<genome::Base>>& some_reads) const {
    align::SoftwareEngine engine(r.fm, aligner);
    align::ReadBatch batch = align::ReadBatch::from_reads(some_reads);
    align::BatchResult result;
    engine.align_batch(batch, result);
    return result.to_results();
  }
};

TEST(MultiReferenceService, RoutesAcrossThreeReferences) {
  MultiRefFixture f(3);
  IndexCache cache(f.cache_options(3));  // all resident: no eviction noise
  for (const auto& r : f.refs) cache.add_reference(r.id, r.path);
  AlignmentService service(cache, f.service_options());
  EXPECT_TRUE(service.multi_reference());

  // Interleave submissions across all three references, then verify each
  // response against the matching reference's ground truth.
  std::vector<std::pair<std::size_t, ResponseFuture>> pending;
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::size_t r = 0; r < f.refs.size(); ++r) {
      AlignRequest request;
      request.reference_id = f.refs[r].id;
      request.reads = slice_reads(f.refs[r].reads, round * 10, round * 10 + 10);
      pending.emplace_back(r, service.submit(std::move(request)));
    }
  }
  for (auto& [r, future] : pending) {
    auto response = future.get();
    ASSERT_TRUE(response.ok()) << response.reason;
    ASSERT_EQ(response.results.size(), 10U);
  }
  EXPECT_EQ(service.active_lanes().size(), 3U);
  service.shutdown();

  const auto counters = service.counters();
  EXPECT_EQ(counters.submitted, 12U);
  EXPECT_EQ(counters.completed, 12U);
  EXPECT_EQ(counters.rejected, 0U);
}

TEST(MultiReferenceService, BitIdenticalToSingleReferenceService) {
  MultiRefFixture f(2);
  IndexCache cache(f.cache_options(2));
  for (const auto& r : f.refs) cache.add_reference(r.id, r.path);
  AlignmentService service(cache, f.service_options());

  for (const auto& r : f.refs) {
    const auto want = f.direct(r, r.reads);
    AlignRequest request;
    request.reference_id = r.id;
    request.reads = r.reads;
    auto response = service.submit(std::move(request)).get();
    ASSERT_TRUE(response.ok()) << response.reason;
    ASSERT_EQ(response.results.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_identical(want[i], response.results[i], i, r.id.c_str());
    }
  }
  service.shutdown();
}

TEST(MultiReferenceService, SeedExtendLanesBitIdenticalToDirectEngine) {
  // S44: lanes can run seed-and-extend (long reads, WFA extension kernel)
  // instead of the two-stage short-read pipeline. Routing and batching stay
  // purely scheduling decisions: responses are bit-identical to a direct
  // SeedExtendEngine::align_batch over the same reads.
  MultiRefFixture f(2);
  IndexCache cache(f.cache_options(2));
  for (const auto& r : f.refs) cache.add_reference(r.id, r.path);

  MultiReferenceOptions options = f.service_options();
  options.engine_kind = LaneEngineKind::kSeedExtend;
  options.seed_extend.kernel = align::ExtensionKernel::kWfa;
  AlignmentService service(cache, options);

  util::Xoshiro256 rng(55);
  for (const auto& r : f.refs) {
    // Long reads: mutated 600-bp slices, alternating strand.
    std::vector<std::vector<genome::Base>> reads;
    for (int i = 0; i < 8; ++i) {
      const std::size_t start = rng.bounded(r.reference.size() - 600);
      auto read = r.reference.slice(start, start + 600);
      for (int s = 0; s < 2; ++s) {
        const std::size_t pos = rng.bounded(read.size());
        read[pos] = genome::complement(read[pos]);
      }
      if (i % 2 == 1) read = genome::reverse_complement(read);
      reads.push_back(std::move(read));
    }

    const align::SeedExtendEngine engine(r.fm, options.seed_extend);
    align::BatchResult direct;
    engine.align_batch(align::ReadBatch::from_reads(reads), direct);
    const auto want = direct.to_results();

    AlignRequest request;
    request.reference_id = r.id;
    request.reads = reads;
    auto response = service.submit(std::move(request)).get();
    ASSERT_TRUE(response.ok()) << response.reason;
    ASSERT_EQ(response.results.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_identical(want[i], response.results[i], i, r.id.c_str());
    }
  }
  service.shutdown();
}

TEST(MultiReferenceService, RejectsUnroutableRequests) {
  MultiRefFixture f(1);
  IndexCache cache(f.cache_options(1));
  cache.add_reference(f.refs[0].id, f.refs[0].path);
  AlignmentService service(cache, f.service_options());

  AlignRequest missing;
  missing.reads = slice_reads(f.refs[0].reads, 0, 4);
  auto no_id = service.align(std::move(missing));
  EXPECT_EQ(no_id.status, RequestStatus::kRejected);
  EXPECT_NE(no_id.reason.find("missing reference_id"), std::string::npos);

  AlignRequest unknown;
  unknown.reference_id = "nope";
  unknown.reads = slice_reads(f.refs[0].reads, 0, 4);
  auto bad_id = service.align(std::move(unknown));
  EXPECT_EQ(bad_id.status, RequestStatus::kRejected);
  EXPECT_NE(bad_id.reason.find("unknown reference_id"), std::string::npos);

  // Rejections are visible in the routing layer's counters.
  EXPECT_EQ(service.counters().rejected, 2U);
  service.shutdown();

  AlignRequest late;
  late.reference_id = f.refs[0].id;
  late.reads = slice_reads(f.refs[0].reads, 0, 4);
  EXPECT_EQ(service.align(std::move(late)).status, RequestStatus::kShutdown);
}

TEST(MultiReferenceService, SingleEngineServiceRejectsRoutedRequests) {
  Fixture f;
  align::SoftwareEngine engine(f.fm, f.options);
  AlignmentService service(engine, {});
  EXPECT_FALSE(service.multi_reference());
  AlignRequest request;
  request.reference_id = "anything";
  request.reads = slice_reads(f.reads, 0, 4);
  auto response = service.align(std::move(request));
  EXPECT_EQ(response.status, RequestStatus::kRejected);
  EXPECT_NE(response.reason.find("fixed engine"), std::string::npos);
  service.shutdown();
}

TEST(MultiReferenceService, LanesFollowCacheEviction) {
  MultiRefFixture f(3);
  IndexCache cache(f.cache_options(2));  // third reference forces eviction
  for (const auto& r : f.refs) cache.add_reference(r.id, r.path);
  AlignmentService service(cache, f.service_options());

  // Serve all three references round-robin; every response must still be
  // correct even though lanes are being retired and rebuilt under us.
  for (std::size_t round = 0; round < 3; ++round) {
    for (const auto& r : f.refs) {
      const auto some = slice_reads(r.reads, round * 8, round * 8 + 8);
      const auto want = f.direct(r, some);
      AlignRequest request;
      request.reference_id = r.id;
      request.reads = some;
      auto response = service.submit(std::move(request)).get();
      ASSERT_TRUE(response.ok()) << r.id << ": " << response.reason;
      ASSERT_EQ(response.results.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        expect_identical(want[i], response.results[i], i, r.id.c_str());
      }
    }
  }
  // The cache cycled: more misses than references, evictions happened, and
  // the service retired evicted lanes (active set bounded by residency).
  const auto stats = cache.stats();
  EXPECT_GT(stats.misses, 3U);
  EXPECT_GT(stats.evictions, 0U);
  EXPECT_LE(service.active_lanes().size(), 3U);
  service.shutdown();
}

TEST(MultiReferenceService, ConcurrentRoutedSubmitters) {
  MultiRefFixture f(3);
  obs::MetricsRegistry registry;
  IndexCache cache([&] {
    auto options = f.cache_options(2);
    options.metrics = &registry;
    return options;
  }());
  for (const auto& r : f.refs) cache.add_reference(r.id, r.path);
  auto options = f.service_options();
  options.service.metrics = &registry;
  AlignmentService service(cache, options);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 12;
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      util::Xoshiro256 rng(800 + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t r = (t + i) % f.refs.size();
        const std::size_t begin = rng.bounded(f.refs[r].reads.size() - 6);
        const auto some = slice_reads(f.refs[r].reads, begin, begin + 6);
        AlignRequest request;
        request.reference_id = f.refs[r].id;
        request.reads = some;
        auto response = service.submit(std::move(request)).get();
        if (!response.ok() || response.results.size() != some.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        const auto want = f.direct(f.refs[r], some);
        for (std::size_t k = 0; k < want.size(); ++k) {
          if (response.results[k].stage != want[k].stage ||
              response.results[k].hits.size() != want[k].hits.size()) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  EXPECT_EQ(mismatches.load(), 0U);
  service.shutdown();

  const auto snapshot = registry.scrape();
  EXPECT_GE(snapshot.counter_value("service.index_cache.misses"), 3U);
  EXPECT_EQ(snapshot.counter_value("serve.submitted"),
            kThreads * kPerThread);
}

TEST(MultiReferenceService, SharedTracerKeepsIdsGloballyUnique) {
  // S45: one tracer serves the routing layer and every lane, so request
  // ids stay globally unique across references and routed requests still
  // get the full phase timeline from their lane.
  MultiRefFixture f(2);
  IndexCache cache(f.cache_options(2));
  for (const auto& r : f.refs) cache.add_reference(r.id, r.path);
  obs::RequestTracer tracer;
  auto options = f.service_options();
  options.service.tracer = &tracer;
  AlignmentService service(cache, options);

  std::set<std::uint64_t> ids;
  for (std::size_t round = 0; round < 3; ++round) {
    for (const auto& r : f.refs) {
      AlignRequest request;
      request.reference_id = r.id;
      request.reads = slice_reads(r.reads, round * 4, round * 4 + 4);
      auto response = service.submit(std::move(request)).get();
      ASSERT_TRUE(response.ok()) << response.reason;
      expect_timeline(response.trace, kOkChain);
      ids.insert(response.request_id());
    }
  }
  EXPECT_EQ(ids.size(), 6u);

  // Routing-layer rejections are traced too (fail-fast submit -> reject).
  AlignRequest unknown;
  unknown.reference_id = "nope";
  unknown.reads = slice_reads(f.refs[0].reads, 0, 2);
  auto rejected = service.align(std::move(unknown));
  EXPECT_EQ(rejected.status, RequestStatus::kRejected);
  expect_timeline(rejected.trace,
                  {RequestPhase::kSubmit, RequestPhase::kReject});
  EXPECT_FALSE(ids.count(rejected.request_id()));
  EXPECT_EQ(tracer.recorded(), 7u);
  service.shutdown();
}

}  // namespace
}  // namespace pim::serve
