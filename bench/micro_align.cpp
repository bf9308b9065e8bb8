// Micro-benchmarks of the alignment algorithms (google-benchmark):
// O(m) FM-index backward search versus O(nm) Smith-Waterman — the
// complexity contrast of Section II — plus stage one's early-finishing
// exact locate, the per-call cost of the Occ/LFM kernel, inexact-search
// cost versus mismatch budget, the effect of lower-bound pruning, stage
// two's two host kernels (the D-array and the SAM CIGAR DP), and SAM
// rendering of exact hits.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "src/align/backward_search.h"
#include "src/align/engine.h"
#include "src/align/global_align.h"
#include "src/align/inexact_search.h"
#include "src/align/sam_writer.h"
#include "src/align/smith_waterman.h"
#include "src/genome/synthetic_genome.h"
#include "src/util/rng.h"

namespace {

struct Workload {
  pim::genome::PackedSequence reference;
  std::vector<pim::genome::Base> ref_bases;
  pim::index::FmIndex fm;
  std::vector<std::vector<pim::genome::Base>> reads;

  explicit Workload(std::size_t n = 1 << 18) {
    pim::genome::SyntheticGenomeSpec spec;
    spec.length = n;
    spec.seed = 11;
    reference = pim::genome::generate_reference(spec);
    ref_bases = reference.unpack();
    fm = pim::index::FmIndex::build(reference, {.bucket_width = 128});
    pim::util::Xoshiro256 rng(13);
    for (int i = 0; i < 64; ++i) {
      const std::size_t start = rng.bounded(reference.size() - 100);
      auto read = reference.slice(start, start + 100);
      if (i % 3 == 1) read[50] = static_cast<pim::genome::Base>(rng.bounded(4));
      if (i % 3 == 2) {
        read[20] = static_cast<pim::genome::Base>(rng.bounded(4));
        read[80] = static_cast<pim::genome::Base>(rng.bounded(4));
      }
      reads.push_back(std::move(read));
    }
  }
};

Workload& workload() {
  static Workload w;
  return w;
}

// The Occ/LFM kernel alone, at the paper's bucket width (d = 128) on a
// 1 Mbp reference: per-call cost of one LFM and of one four-base extension.
struct KernelWorkload {
  pim::index::FmIndex fm;
  std::vector<pim::index::SaInterval> intervals;

  KernelWorkload() {
    pim::genome::SyntheticGenomeSpec spec;
    spec.length = 1 << 20;
    spec.seed = 19;
    fm = pim::index::FmIndex::build(pim::genome::generate_reference(spec),
                                    {.bucket_width = 128});
    pim::util::Xoshiro256 rng(23);
    for (int i = 0; i < 4096; ++i) {
      const std::uint64_t low = rng.bounded(fm.num_rows());
      intervals.push_back({low, std::min(fm.num_rows(), low + rng.bounded(64))});
    }
  }
};

KernelWorkload& kernel_workload() {
  static KernelWorkload w;
  return w;
}

void BM_Lfm(benchmark::State& state) {
  auto& w = kernel_workload();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto nt = static_cast<pim::genome::Base>(i & 3);
    benchmark::DoNotOptimize(
        w.fm.lfm(nt, w.intervals[i++ % w.intervals.size()].low));
  }
}
BENCHMARK(BM_Lfm);

void BM_Extend4(benchmark::State& state) {
  auto& w = kernel_workload();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        w.fm.extend4(w.intervals[i++ % w.intervals.size()]));
  }
}
BENCHMARK(BM_Extend4);

// Stage two's D-array pre-pass on a 100-bp read with one substitution at
// position 50: two chunks, the paper workload's typical stage-two read.
void BM_LowerBoundD(benchmark::State& state) {
  auto& w = workload();
  auto read = w.reference.slice(4096, 4196);
  read[50] = pim::genome::complement(read[50]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pim::align::compute_lower_bound_d(w.fm, read));
  }
}
BENCHMARK(BM_LowerBoundD);

// SamWriter's CIGAR DP for a 100-bp read with 2 substitutions, against the
// window it uses: the read length plus diffs + 2 bases from the hit.
void BM_GlocalAlign(benchmark::State& state) {
  auto& w = workload();
  auto read = w.reference.slice(8192, 8292);
  read[20] = pim::genome::complement(read[20]);
  read[80] = pim::genome::complement(read[80]);
  const auto window = w.reference.slice(8192, 8192 + 100 + 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pim::align::glocal_align(window, read));
  }
}
BENCHMARK(BM_GlocalAlign);

void BM_FmExactSearch(benchmark::State& state) {
  auto& w = workload();
  const auto read_len = static_cast<std::size_t>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    auto read = w.reads[i++ % w.reads.size()];
    read.resize(read_len);
    benchmark::DoNotOptimize(pim::align::exact_search(w.fm, read));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FmExactSearch)->Arg(25)->Arg(50)->Arg(100)->Complexity();

// Stage one's search plus locate on the same reads: backward search stops
// once the interval is one row and the rest of the read is compared with
// the packed reference, so the cost flattens in m where exact_search's
// grows linearly.
void BM_FmExactLocate(benchmark::State& state) {
  auto& w = workload();
  const auto read_len = static_cast<std::size_t>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    auto read = w.reads[i++ % w.reads.size()];
    read.resize(read_len);
    benchmark::DoNotOptimize(pim::align::exact_locate(w.fm, read));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FmExactLocate)->Arg(25)->Arg(50)->Arg(100)->Complexity();

// Locate of multi-row intervals, the shape repeats give stage one, on a
// 4 Mbp repeat-rich reference (SA and BWT above a per-core L2): the
// interval's SA entries read by row, then the kept ones selected and
// sorted. per_row is the time per located row.
struct LocateWorkload {
  pim::index::FmIndex fm;
  std::vector<pim::index::SaInterval> intervals;

  LocateWorkload() {
    pim::genome::SyntheticGenomeSpec spec;
    spec.length = std::size_t{4} << 20;
    spec.seed = 37;
    spec.repeat_fraction = 0.5;
    const auto reference = pim::genome::generate_reference(spec);
    fm = pim::index::FmIndex::build(reference, {.bucket_width = 128});
    pim::util::Xoshiro256 rng(41);
    while (intervals.size() < 1024) {
      const std::size_t start = rng.bounded(reference.size() - 20);
      const auto interval =
          pim::align::exact_search(fm, reference.slice(start, start + 20))
              .interval;
      if (interval.count() >= 2) intervals.push_back(interval);
    }
  }
};

void BM_LocateAll(benchmark::State& state) {
  static const LocateWorkload w;
  const auto limit = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> out;
  std::size_t i = 0;
  std::uint64_t rows = 0;
  for (auto _ : state) {
    const auto& interval = w.intervals[i++ % w.intervals.size()];
    w.fm.locate_all_into(interval, out, limit);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    rows += interval.count();
  }
  state.counters["per_row"] = benchmark::Counter(
      static_cast<double>(rows),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
// Arg: the kept-hit limit (0 = every row, 64 = the engine's default
// max_hits cut).
BENCHMARK(BM_LocateAll)->Arg(0)->Arg(64);

void BM_SmithWatermanFull(benchmark::State& state) {
  auto& w = workload();
  // Full O(nm) DP against a reference window (full 262 kbp would dominate
  // the suite's runtime; the point is the per-cell cost).
  const std::vector<pim::genome::Base> window(
      w.ref_bases.begin(), w.ref_bases.begin() + (1 << 14));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& read = w.reads[i++ % w.reads.size()];
    benchmark::DoNotOptimize(pim::align::smith_waterman(window, read));
  }
}
BENCHMARK(BM_SmithWatermanFull);

void BM_SmithWatermanBanded(benchmark::State& state) {
  auto& w = workload();
  const std::vector<pim::genome::Base> window(
      w.ref_bases.begin(), w.ref_bases.begin() + (1 << 14));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& read = w.reads[i++ % w.reads.size()];
    benchmark::DoNotOptimize(pim::align::smith_waterman_banded(
        window, read, 0, static_cast<std::uint32_t>(state.range(0))));
  }
}
BENCHMARK(BM_SmithWatermanBanded)->Arg(8)->Arg(32)->Arg(128);

void BM_InexactSearch(benchmark::State& state) {
  auto& w = workload();
  pim::align::InexactOptions opt;
  opt.max_diffs = static_cast<std::uint32_t>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pim::align::inexact_search(w.fm, w.reads[i++ % w.reads.size()], opt));
  }
}
BENCHMARK(BM_InexactSearch)->Arg(0)->Arg(1)->Arg(2);

void BM_InexactSearchNoPruning(benchmark::State& state) {
  auto& w = workload();
  pim::align::InexactOptions opt;
  opt.max_diffs = static_cast<std::uint32_t>(state.range(0));
  opt.use_lower_bound_pruning = false;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pim::align::inexact_search(w.fm, w.reads[i++ % w.reads.size()], opt));
  }
}
BENCHMARK(BM_InexactSearchNoPruning)->Arg(1)->Arg(2);

// Batch alignment through SoftwareEngine over a packed ReadBatch arena (the
// engine_throughput bench measures it at production batch sizes).
void BM_AlignBatchEngine(benchmark::State& state) {
  auto& w = workload();
  pim::align::AlignerOptions opt;
  opt.inexact.max_diffs = 2;
  const pim::align::SoftwareEngine engine(w.fm, opt);
  const auto batch = pim::align::ReadBatch::from_reads(w.reads);
  pim::align::BatchResult results;
  for (auto _ : state) {
    engine.align_batch(batch, results);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_AlignBatchEngine);

/// A stream that drops what it is given, so a benchmark times the writer.
class DiscardBuffer : public std::streambuf {
 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
  int overflow(int c) override { return traits_type::not_eof(c); }
};

// SAM rendering of one 1024-read chunk of exact hits with names and
// qualities, half of them on the reverse strand: the per-record cost of the
// writer on an exact-only stream (no CIGAR DP).
void BM_SamWriteChunk(benchmark::State& state) {
  auto& w = workload();
  pim::align::ReadBatchBuilder builder;
  pim::util::Xoshiro256 rng(29);
  for (int i = 0; i < 1024; ++i) {
    const std::size_t start = rng.bounded(w.reference.size() - 100);
    auto read = w.reference.slice(start, start + 100);
    if (i % 2 == 1) read = pim::genome::reverse_complement(read);
    std::string qual(100, 'I');
    for (auto& q : qual) q = static_cast<char>('!' + rng.bounded(41));
    builder.add(read, "read_" + std::to_string(i) + " sim", qual);
  }
  const auto batch = builder.build();
  pim::align::AlignerOptions opt;
  opt.inexact.max_diffs = 0;
  pim::align::BatchResult results;
  pim::align::SoftwareEngine(w.fm, opt).align_batch(batch, results);
  DiscardBuffer discard;
  std::ostream out(&discard);
  pim::align::SamWriter writer(out, "ref", w.reference);
  for (auto _ : state) {
    writer.write_batch(batch, results);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_SamWriteChunk);

void BM_IndexBuild(benchmark::State& state) {
  pim::genome::SyntheticGenomeSpec spec;
  spec.length = static_cast<std::size_t>(state.range(0));
  spec.seed = 17;
  const auto text = pim::genome::generate_reference(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pim::index::FmIndex::build(text, {.bucket_width = 128}));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IndexBuild)->Arg(1 << 14)->Arg(1 << 16)->Arg(1 << 18)->Complexity();

void print_complexity_contrast() {
  auto& w = workload();
  const auto& read = w.reads[0];
  const auto exact = pim::align::exact_search(w.fm, read);
  const auto sw =
      pim::align::smith_waterman(w.ref_bases, read);
  std::printf("\n=== O(m) vs O(nm) work contrast (Sec. II) ===\n");
  std::printf("backward search: %u LFM steps for a %zu-bp read\n",
              exact.steps * 2, read.size());
  std::printf("Smith-Waterman:  %llu DP cells for the same read vs %zu bp\n",
              static_cast<unsigned long long>(sw.cells_computed),
              w.ref_bases.size());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_complexity_contrast();
  return 0;
}
