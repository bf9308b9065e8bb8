// The traced run: a serial replay of the two-stage pipeline that calls the
// library's public layer functions in the engine's order (mirroring
// align::detail::align_two_stage) and records one span per call, keyed by
// read id. Spans stay in memory until the end, when they are optionally
// written out; per-layer self time and counts become the per-layer metrics.
// The replay's results must equal the engine's, or the run fails.
#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <streambuf>
#include <type_traits>

#include "bench.h"
#include "src/align/backward_search.h"
#include "src/align/inexact_search.h"
#include "src/align/sam_writer.h"
#include "src/align/search_core.h"
#include "src/align/streaming_pipeline.h"

namespace perfbench {

namespace {

enum Layer : std::uint8_t {
  kRead,  ///< Root of one read's align phase; self time = engine glue.
  kFastq,
  kPack,
  kExact,
  kLocate,
  kDarray,
  kInexact,
  kSam,
  kNumLayers,
};

constexpr const char* kLayerNames[kNumLayers] = {
    "align.read", "genome.fastq", "align.pack",    "align.exact",
    "index.locate", "align.darray", "align.inexact", "align.sam"};

struct Span {
  std::uint32_t key;  ///< Read id.
  Layer layer;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

  /// Run `fn` inside a span and return its result.
  template <typename Fn>
  auto record(std::uint32_t key, Layer layer, Fn&& fn) {
    const std::int64_t start = now_ns();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      spans_.push_back({key, layer, start, now_ns()});
    } else {
      auto value = fn();
      spans_.push_back({key, layer, start, now_ns()});
      return value;
    }
  }

  /// Per-layer self time in ms: a read root's children are every other
  /// align-phase span, which only ever run inside one.
  std::array<double, kNumLayers> self_ms() const {
    std::array<double, kNumLayers> total{};
    for (const auto& s : spans_) {
      total[s.layer] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
    total[kRead] -= total[kExact] + total[kLocate] + total[kDarray] +
                    total[kInexact];
    return total;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "read\tlayer\tstart_ns\tend_ns\n";
    for (const auto& s : spans_) {
      out << s.key << '\t' << kLayerNames[s.layer] << '\t' << s.start_ns << '\t'
          << s.end_ns << '\n';
    }
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Output sink that keeps only a byte count.
class CountingBuf : public std::streambuf {
 public:
  std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) ++bytes_;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};

struct Counters {
  std::uint64_t records = 0;
  std::uint64_t exact_calls = 0, exact_found = 0;
  std::uint64_t locate_rows = 0;
  std::uint64_t darray_calls = 0;
  std::uint64_t inexact_calls = 0, inexact_found = 0;
  std::uint64_t states = 0, truncated = 0;
};

/// The replay proper. Inputs are FASTQ records (parse + pack) when
/// `from_fastq`, else the raw read vectors (pack only), as the workload's
/// program receives them.
class Replay {
 public:
  Replay(const index::FmIndex& fm, const Inputs& in, std::size_t reads,
         bool from_fastq)
      : fm_(&fm), in_(&in), reads_(reads), from_fastq_(from_fastq),
        options_(aligner_options()) {}

  /// The same reads through the untraced serial path: parse/pack, one
  /// SoftwareEngine::align_batch, SamWriter::write_batch. Returns ms.
  double untraced_ms() const {
    const auto t0 = Clock::now();
    const align::ReadBatch batch = pack(nullptr);
    align::BatchResult result;
    align::SoftwareEngine(*fm_, options_).align_batch(batch, result);
    CountingBuf sink;
    std::ostream os(&sink);
    align::SamWriter(os, "ref", in_->reference).write_batch(batch, result);
    return ms_since(t0);
  }

  /// Traced pass; returns its wall time in ms.
  double run(SpanLog& log) {
    const auto t0 = Clock::now();
    const align::ReadBatch batch = pack(&log);
    std::vector<genome::Base> read, rc;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto key = static_cast<std::uint32_t>(i);
      log.record(key, kRead, [&] {
        batch.read(i).unpack_into(read);
        align_read(key, read, rc, log);
      });
    }
    CountingBuf sink;
    std::ostream os(&sink);
    align::SamWriter writer(os, "ref", in_->reference);
    align::BatchResult one;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      one.clear();
      one.add_read(results.stage(i), results.hits(i));
      log.record(static_cast<std::uint32_t>(i), kSam, [&] {
        writer.write_chunk(align::BatchResultChunk{&batch, i, i + 1, &one, i});
      });
    }
    os.flush();
    counters.records = writer.records_written();
    sam_bytes = sink.bytes();
    return ms_since(t0);
  }

  align::BatchResult results;
  Counters counters;
  std::uint64_t sam_bytes = 0;

 private:
  /// Parse (FASTQ inputs) and pack every read, one span per call when
  /// `log` is set.
  align::ReadBatch pack(SpanLog* log) const {
    align::ReadBatchBuilder builder;
    builder.reserve(reads_, reads_ * 100);
    auto timed = [&](std::uint32_t key, Layer layer, auto fn) {
      if (log != nullptr) return log->record(key, layer, fn);
      return fn();
    };
    if (from_fastq_) {
      ViewBuf text(std::string_view(in_->fastq)
                       .substr(0, in_->record_offsets[reads_]));
      std::istream is(&text);
      genome::FastqStreamReader reader(is);
      genome::FastqRecord record;
      for (std::uint32_t i = 0;
           timed(i, kFastq, [&] { return reader.next(record); }); ++i) {
        timed(i, kPack, [&] { builder.add(record); });
      }
    } else {
      for (std::uint32_t i = 0; i < reads_; ++i) {
        timed(i, kPack, [&] { builder.add(in_->reads.reads[i].bases); });
      }
    }
    return builder.build();
  }

  bool full(const std::vector<align::AlignmentHit>& hits) const {
    return options_.max_hits != 0 && hits.size() >= options_.max_hits;
  }

  // align::detail::align_two_stage, one span per layer call.
  void align_read(std::uint32_t key, const std::vector<genome::Base>& read,
                  std::vector<genome::Base>& rc, SpanLog& log) {
    hits_.clear();
    bool rc_ready = false;
    exact(key, read, align::Strand::kForward, log);
    if (options_.try_reverse_complement && !full(hits_)) {
      genome::reverse_complement_into(read, rc);
      rc_ready = true;
      exact(key, rc, align::Strand::kReverseComplement, log);
    }
    auto stage = align::AlignmentStage::kUnaligned;
    if (!hits_.empty()) {
      stage = align::AlignmentStage::kExact;
    } else if (options_.inexact.max_diffs > 0) {
      inexact(key, read, align::Strand::kForward, log);
      if (options_.try_reverse_complement && !full(hits_)) {
        if (!rc_ready) genome::reverse_complement_into(read, rc);
        inexact(key, rc, align::Strand::kReverseComplement, log);
      }
      if (!hits_.empty()) stage = align::AlignmentStage::kInexact;
    }
    std::sort(hits_.begin(), hits_.end(),
              [](const align::AlignmentHit& a, const align::AlignmentHit& b) {
                if (a.position != b.position) return a.position < b.position;
                return a.diffs < b.diffs;
              });
    results.add_read(stage, hits_);
  }

  void exact(std::uint32_t key, const std::vector<genome::Base>& oriented,
             align::Strand strand, SpanLog& log) {
    const align::ExactResult r = log.record(
        key, kExact, [&] { return align::exact_search(*fm_, oriented); });
    ++counters.exact_calls;
    if (!r.found()) return;
    ++counters.exact_found;
    log.record(key, kLocate,
               [&] { fm_->locate_all_into(r.interval, positions_); });
    counters.locate_rows += r.interval.count();
    for (const auto pos : positions_) {
      hits_.push_back(align::AlignmentHit{pos, 0, strand});
      if (full(hits_)) return;
    }
  }

  void inexact(std::uint32_t key, const std::vector<genome::Base>& oriented,
               align::Strand strand, SpanLog& log) {
    std::vector<std::uint32_t> d = log.record(key, kDarray, [&] {
      return align::compute_lower_bound_d(*fm_, oriented);
    });
    ++counters.darray_calls;
    const align::InexactResult r = log.record(key, kInexact, [&] {
      return align::InexactSearchCore<index::FmIndex>(*fm_, oriented,
                                                      options_.inexact,
                                                      std::move(d))
          .run();
    });
    ++counters.inexact_calls;
    counters.inexact_found += r.found();
    counters.states += r.states_explored;
    counters.truncated += r.truncated;
    // inexact_locate: every row of every interval, minimum diffs per
    // position.
    std::map<std::uint64_t, std::uint32_t> by_position;
    log.record(key, kLocate, [&] {
      for (const auto& hit : r.hits) {
        for (std::uint64_t row = hit.interval.low; row < hit.interval.high;
             ++row) {
          const std::uint64_t pos = fm_->locate(static_cast<std::size_t>(row));
          const auto [it, fresh] = by_position.emplace(pos, hit.diffs);
          if (!fresh) it->second = std::min(it->second, hit.diffs);
        }
      }
    });
    for (const auto& hit : r.hits) counters.locate_rows += hit.interval.count();
    for (const auto& [pos, diffs] : by_position) {
      hits_.push_back(align::AlignmentHit{pos, diffs, strand});
      if (full(hits_)) return;
    }
  }

  const index::FmIndex* fm_;
  const Inputs* in_;
  std::size_t reads_;
  bool from_fastq_;
  align::AlignerOptions options_;
  std::vector<align::AlignmentHit> hits_;
  std::vector<std::uint64_t> positions_;
};

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

void replay(const index::FmIndex& fm, const Inputs& in, std::size_t reads,
            bool from_fastq, const align::BatchResult& engine_results,
            const Args& args, Report& report) {
  // Untraced serial passes bracket the traced one, so host speed drift
  // during the run shows up in neither side of the coverage ratio alone.
  const Replay serial(fm, in, reads, from_fastq);
  const double before_ms = serial.untraced_ms();
  SpanLog log;
  Replay traced(fm, in, reads, from_fastq);
  const double replay_ms = traced.run(log);
  const double untraced_ms = 0.5 * (before_ms + serial.untraced_ms());

  // Fidelity: the replay must reproduce the engine's results read for read,
  // or it measures a different program.
  report.attempted += reads;
  for (std::size_t i = 0; i < reads; ++i) {
    if (i >= engine_results.size() ||
        !same_hits(engine_results, i, traced.results.hits(i))) {
      report.fail("replay differs from the engine for read " +
                  std::to_string(i));
    }
  }
  if (report.failed != 0) report.correct = false;

  const auto self = log.self_ms();
  const Counters& c = traced.counters;
  report.set("genome.fastq.records",
             from_fastq ? static_cast<double>(reads) : 0.0);
  report.set("genome.fastq.busy_ms", self[kFastq]);
  report.set("align.pack.busy_ms", self[kPack]);
  report.set("align.exact.calls", static_cast<double>(c.exact_calls));
  report.set("align.exact.busy_ms", self[kExact]);
  report.set("align.exact.found_ratio", ratio(c.exact_found, c.exact_calls));
  report.set("index.locate.rows", static_cast<double>(c.locate_rows));
  report.set("index.locate.busy_ms", self[kLocate]);
  report.set("align.darray.calls", static_cast<double>(c.darray_calls));
  report.set("align.darray.busy_ms", self[kDarray]);
  report.set("align.inexact.calls", static_cast<double>(c.inexact_calls));
  report.set("align.inexact.busy_ms", self[kInexact]);
  report.set("align.inexact.states", static_cast<double>(c.states));
  report.set("align.inexact.truncated", static_cast<double>(c.truncated));
  report.set("align.inexact.found_ratio",
             ratio(c.inexact_found, c.inexact_calls));
  report.set("align.read.self_ms", self[kRead]);
  report.set("align.sam.records", static_cast<double>(c.records));
  report.set("align.sam.bytes", static_cast<double>(traced.sam_bytes));
  report.set("align.sam.busy_ms", self[kSam]);
  double layers_ms = 0.0;
  for (int l = kFastq; l < kNumLayers; ++l) layers_ms += self[l];
  report.set("trace.reads", static_cast<double>(reads));
  report.set("trace.replay_ms", replay_ms);
  report.set("trace.untraced_ms", untraced_ms);
  report.set("trace.coverage", layers_ms / untraced_ms);
  std::fprintf(stderr,
               "perfbench: coverage: layer self time %.1f ms of %.1f ms "
               "untraced serial wall (%.1f%%); traced replay %.1f ms\n",
               layers_ms, untraced_ms, 100.0 * layers_ms / untraced_ms,
               replay_ms);
  if (!args.spans_path.empty()) log.write(args.spans_path);
}

}  // namespace

void replay_stream(const index::FmIndex& fm, const Inputs& in,
                   std::size_t reads, const align::BatchResult& expected,
                   const Args& args, Report& report) {
  // StreamingStats of the same reads through the measured pipeline.
  ViewBuf text(std::string_view(in.fastq).substr(0, in.record_offsets[reads]));
  std::istream is(&text);
  genome::FastqStreamReader reader(is);
  const align::SoftwareEngine software(fm, aligner_options());
  CountingBuf sink;
  std::ostream os(&sink);
  align::SamWriter writer(os, "ref", in.reference);
  const align::StreamingStats stats =
      align::StreamingPipeline(software, stream_options()).run(reader, writer);
  report.set("align.stream.ingest_wait_ms", stats.ingest_wait_ms);

  replay(fm, in, reads, /*from_fastq=*/true, expected, args, report);
}

void replay_reads(const index::FmIndex& fm, const Inputs& in,
                  std::size_t reads, const align::BatchResult& engine_results,
                  const Args& args, Report& report) {
  replay(fm, in, reads, /*from_fastq=*/false, engine_results, args, report);
}

}  // namespace perfbench
