#include "src/align/streaming_pipeline.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/align/parallel_aligner.h"
#include "src/align/sam_writer.h"
#include "src/align/sharded_engine.h"
#include "src/genome/synthetic_genome.h"
#include "src/readsim/read_simulator.h"
#include "tests/temp_dir.h"

namespace pim::align {
namespace {

// One deterministic end-to-end workload shared by every test: synthetic
// reference, ART-like reads (errors, qualities, both strands) serialized as
// real FASTQ text, plus the reference SAM produced by the materializing
// write_batch path. Streaming runs must reproduce `batch_sam` byte for
// byte, whatever the chunking.
struct Fixture {
  genome::PackedSequence reference;
  index::FmIndex fm;
  std::string fastq_text;
  std::unique_ptr<SoftwareEngine> engine;
  std::string batch_sam;

  Fixture() {
    genome::SyntheticGenomeSpec gspec;
    gspec.length = 60000;
    gspec.seed = 7;
    reference = genome::generate_reference(gspec);
    fm = index::FmIndex::build(reference, {.bucket_width = 64});

    readsim::ReadSimSpec rspec;
    rspec.read_length = 64;
    rspec.num_reads = 300;
    rspec.sequencing_error_rate = 0.01;  // exact, inexact, and unaligned mix
    rspec.emit_qualities = true;
    rspec.seed = 21;
    const auto records =
        readsim::to_fastq(readsim::ReadSimulator(rspec).generate(reference));
    std::ostringstream fq;
    genome::write_fastq(fq, records);
    fastq_text = fq.str();

    AlignerOptions options;
    options.inexact.max_diffs = 2;
    engine = std::make_unique<SoftwareEngine>(fm, options);

    const auto batch = ReadBatch::from_fastq(records);
    BatchResult results;
    engine->align_batch(batch, results);
    std::ostringstream sam;
    SamWriter writer(sam, "ref", reference);
    writer.write_header();
    writer.write_batch(batch, results);
    batch_sam = sam.str();
  }

  std::string stream_sam(const AlignmentEngine& e,
                         StreamingOptions options = {},
                         StreamingStats* stats_out = nullptr) const {
    std::istringstream in(fastq_text);
    genome::FastqStreamReader reader(in);
    std::ostringstream sam;
    SamWriter writer(sam, "ref", reference);
    writer.write_header();
    const auto stats = StreamingPipeline(e, options).run(reader, writer);
    if (stats_out) *stats_out = stats;
    return sam.str();
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

TEST(StreamingPipeline, ByteIdenticalToWriteBatch) {
  const auto& f = fixture();
  StreamingStats stats;
  const std::string sam = f.stream_sam(*f.engine, {}, &stats);
  EXPECT_EQ(sam, f.batch_sam);
  EXPECT_EQ(stats.reads, 300U);
  EXPECT_EQ(stats.batches, 1U);  // 300 reads < default batch_reads
  EXPECT_GE(stats.chunks, 1U);
  EXPECT_EQ(stats.engine.reads_total, 300U);
  EXPECT_GT(stats.peak_batch_bytes, 0U);
  EXPECT_GT(stats.wall_ms, 0.0);
}

TEST(StreamingPipeline, ChunkAndBatchSizesDoNotChangeOutput) {
  const auto& f = fixture();
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{16},
                                  std::size_t{1000} /* > batch */}) {
    for (const std::size_t batch_reads :
         {std::size_t{1}, std::size_t{37}, std::size_t{300},
          std::size_t{100000}}) {
      StreamingOptions options;
      options.batch_reads = batch_reads;
      options.parallel.chunk_size = chunk;
      StreamingStats stats;
      EXPECT_EQ(f.stream_sam(*f.engine, options, &stats), f.batch_sam)
          << "chunk=" << chunk << " batch_reads=" << batch_reads;
      EXPECT_EQ(stats.reads, 300U);
      EXPECT_EQ(stats.batches, (300 + batch_reads - 1) / batch_reads);
    }
  }
}

TEST(StreamingPipeline, SerialEngineRouteMatches) {
  const auto& f = fixture();
  StreamingOptions options;
  options.parallel.num_threads = 1;  // the scheduler runs inline
  options.batch_reads = 64;
  EXPECT_EQ(f.stream_sam(*f.engine, options), f.batch_sam);
}

TEST(StreamingPipeline, ShardedEngineStreamsIdentically) {
  const auto& f = fixture();
  AlignerOptions options;
  options.inexact.max_diffs = 2;
  for (const bool rebalance : {false, true}) {
    std::vector<std::unique_ptr<AlignmentEngine>> shards;
    for (int s = 0; s < 3; ++s) {
      shards.push_back(std::make_unique<SoftwareEngine>(f.fm, options));
    }
    ShardedOptions sopts;
    sopts.rebalance = rebalance;
    const ShardedEngine engine(std::move(shards), sopts);
    StreamingOptions stream;
    stream.batch_reads = 100;  // several generations, rebalanced between
    EXPECT_EQ(f.stream_sam(engine, stream), f.batch_sam)
        << "rebalance=" << rebalance;
    if (rebalance) {
      // Weights moved off uniform but stayed a normalized distribution.
      double sum = 0.0;
      for (const double w : engine.shard_weights()) {
        EXPECT_GT(w, 0.0);
        sum += w;
      }
      EXPECT_NEAR(sum, 1.0, 1e-9);
    }
  }
}

TEST(StreamingPipeline, EmptyInputProducesHeaderOnly) {
  const auto& f = fixture();
  std::istringstream in("");
  genome::FastqStreamReader reader(in);
  std::ostringstream sam;
  SamWriter writer(sam, "ref", f.reference);
  writer.write_header();
  const auto stats = StreamingPipeline(*f.engine).run(reader, writer);
  EXPECT_EQ(stats.reads, 0U);
  EXPECT_EQ(stats.batches, 0U);
  EXPECT_EQ(stats.chunks, 0U);
  EXPECT_EQ(writer.records_written(), 0U);
}

TEST(StreamingPipeline, MalformedFastqMidStreamThrowsAfterEmitting) {
  const auto& f = fixture();
  // 8 good records, then a structural error. With 4-read generations the
  // first two generations must land in the SAM before the parse error
  // surfaces from run().
  std::string text;
  for (int i = 0; i < 8; ++i) {
    text += "@ok" + std::to_string(i) + "\nACGTACGTACGT\n+\nIIIIIIIIIIII\n";
  }
  text += "not_a_header\nACGT\n+\nIIII\n";
  std::istringstream in(text);
  genome::FastqStreamReader reader(in);
  std::ostringstream sam;
  SamWriter writer(sam, "ref", f.reference);
  StreamingOptions options;
  options.batch_reads = 4;
  try {
    StreamingPipeline(*f.engine, options).run(reader, writer);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("record 9"), std::string::npos)
        << e.what();
  }
  // Every read of the two complete generations was emitted before the
  // error surfaced (a short read can map to several records).
  std::istringstream emitted(sam.str());
  std::set<std::string> qnames;
  for (std::string line; std::getline(emitted, line);) {
    qnames.insert(line.substr(0, line.find('\t')));
  }
  EXPECT_EQ(qnames.size(), 8U);
  EXPECT_TRUE(qnames.count("ok0"));
  EXPECT_TRUE(qnames.count("ok7"));
}

TEST(StreamingPipeline, SinkExceptionPropagates) {
  const auto& f = fixture();
  std::istringstream in(f.fastq_text);
  genome::FastqStreamReader reader(in);
  EXPECT_THROW(
      StreamingPipeline(*f.engine).run(
          reader,
          [](const BatchResultChunk&) { throw std::logic_error("sink"); }),
      std::logic_error);
}

TEST(StreamingPipeline, ChunksArriveInGlobalReadOrderWithBaseIndex) {
  const auto& f = fixture();
  std::istringstream in(f.fastq_text);
  genome::FastqStreamReader reader(in);
  StreamingOptions options;
  options.batch_reads = 64;
  options.parallel.chunk_size = 7;
  std::size_t next = 0;
  std::uint64_t delivered = 0;
  const auto stats = StreamingPipeline(*f.engine, options)
                         .run(reader, [&](const BatchResultChunk& chunk) {
                           EXPECT_EQ(chunk.base_index, next);
                           EXPECT_EQ(chunk.result->size(), chunk.size());
                           next += chunk.size();
                           ++delivered;
                         });
  EXPECT_EQ(next, 300U);
  EXPECT_EQ(stats.chunks, delivered);
  EXPECT_GE(delivered, 300U / 64U + 1);  // at least one chunk per generation
}

// Nameless reads can't come from FASTQ, so the global "read<i>" backfill is
// exercised at the SamWriter seam directly: emitting one batch as two
// chunks with stream-global base indices must match write_batch's numbering.
TEST(SamWriterChunk, BaseIndexKeepsGlobalReadNumbering) {
  const auto& f = fixture();
  ReadBatchBuilder builder;
  for (std::uint64_t i = 0; i < 10; ++i) {
    builder.add_slice(f.reference, i * 200, i * 200 + 40);
  }
  const auto batch = builder.build();
  BatchResult results;
  f.engine->align_batch(batch, results);

  std::ostringstream whole;
  SamWriter whole_writer(whole, "ref", f.reference);
  whole_writer.write_batch(batch, results);

  std::ostringstream chunked;
  SamWriter chunk_writer(chunked, "ref", f.reference);
  const ChunkSink sink = [&](const BatchResultChunk& chunk) {
    chunk_writer.write_chunk(chunk);
  };
  f.engine->align_batch_chunked(batch, sink, {.chunk_size = 4});
  EXPECT_EQ(chunked.str(), whole.str());
  EXPECT_NE(whole.str().find("read9\t"), std::string::npos);
}

// Golden pin of the whole streaming trip (deterministic workload): catches
// unintended format or ordering drift. On a mismatch the actual output is
// dumped to a kept temp directory named in the failure.
TEST(StreamingPipeline, GoldenFile) {
  const auto& f = fixture();
  StreamingOptions options;
  options.batch_reads = 128;
  tests::expect_golden(f.stream_sam(*f.engine, options),
                       "streaming_end_to_end.sam");
}

}  // namespace
}  // namespace pim::align
