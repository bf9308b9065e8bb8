// Long-read extension-kernel sweep (S44): banded Smith-Waterman vs
// gap-affine WFA behind the seed-and-extend seam, across read length and
// divergence (substitutions + short indels).
//
// The paper's introduction motivates reads "from 50 to thousands nt"; its
// algorithm evaluates at 100 bp with z <= 2, and a z-bounded backtracking
// crossover table opens the run to keep that contrast visible. The sweep
// itself answers the S44 question: does WFA place long reads at least as
// well as banded SW while touching fewer DP-cell equivalents? Wavefront
// work is O(read * penalty) instead of O(read * band), so at sequencing
// divergence the answer should be yes — and this bench ASSERTS it:
//   * WFA recall >= banded-SW recall at every (length, divergence) cell;
//   * WFA cells-touched <= banded-SW at >= 1 kb and 0.3% divergence.
// A regression in either exits non-zero, which is how CI gates the kernel.
//
// Usage: long_read_bench [reads_per_cell] [metrics.jsonl]
// Emits one {"bench":"long_read_kernel_sweep",...} JSON line per sweep
// cell, and (with a metrics path) the seed_extend.* / wfa.* registry
// series that tools/check_metrics_schema.py gates on.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/align/inexact_search.h"
#include "src/align/seed_extend.h"
#include "src/genome/synthetic_genome.h"
#include "src/obs/metrics.h"
#include "src/obs/reporter.h"
#include "src/util/rng.h"
#include "src/util/table.h"

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// One sweep cell's accumulated outcome.
struct CellResult {
  std::size_t length = 0;
  double divergence = 0.0;
  pim::align::ExtensionKernel kernel = pim::align::ExtensionKernel::kBandedSw;
  int reads = 0;
  int placed = 0;  ///< Best hit within +-64 bp of the true origin.
  std::uint64_t cells = 0;
  double ms = 0.0;

  double recall() const {
    return reads ? static_cast<double>(placed) / reads : 0.0;
  }
  double cells_per_read() const {
    return reads ? static_cast<double>(cells) / reads : 0.0;
  }
};

/// Mutate `read` at `divergence` per-base error rate: 80% substitutions,
/// 20% short (1-3 bp) indels — the shape of real long-read error profiles,
/// and the regime where the kernels differ.
void mutate(std::vector<pim::genome::Base>& read, double divergence,
            pim::util::Xoshiro256& rng) {
  const auto errors = std::max<std::size_t>(
      1, static_cast<std::size_t>(divergence *
                                  static_cast<double>(read.size())));
  for (std::size_t e = 0; e < errors && read.size() > 4; ++e) {
    const std::size_t pos = rng.bounded(read.size());
    const std::uint64_t kind = rng.bounded(10);
    if (kind < 8) {  // substitution
      read[pos] = static_cast<pim::genome::Base>(
          (static_cast<int>(read[pos]) + 1 + rng.bounded(3)) % 4);
    } else {
      const std::size_t len =
          std::min<std::size_t>(1 + rng.bounded(3), read.size() - pos);
      if (kind == 8) {  // deletion from the read
        read.erase(read.begin() + static_cast<long>(pos),
                   read.begin() + static_cast<long>(pos + len));
      } else {  // insertion into the read
        for (std::size_t i = 0; i < len; ++i) {
          read.insert(read.begin() + static_cast<long>(pos),
                      static_cast<pim::genome::Base>(rng.bounded(4)));
        }
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using pim::align::ExtensionKernel;
  using pim::util::TextTable;

  const int reads_per_cell = argc > 1 ? std::atoi(argv[1]) : 40;
  const std::string metrics_path = argc > 2 ? argv[2] : "";

  pim::genome::SyntheticGenomeSpec spec;
  spec.length = 1 << 20;
  spec.seed = 41;
  const auto reference = pim::genome::generate_reference(spec);
  const auto fm = pim::index::FmIndex::build(reference, {.bucket_width = 128});

  pim::obs::MetricsRegistry registry;
  auto reads_counter = registry.counter("seed_extend.reads");
  auto hits_counter = registry.counter("seed_extend.hits");
  auto candidates_counter = registry.counter("seed_extend.candidates");
  auto cells_banded = registry.counter("seed_extend.cells.banded_sw");
  auto cells_wfa = registry.counter("seed_extend.cells.wfa");
  auto wfa_wavefronts = registry.counter("wfa.wavefronts");
  auto wfa_cells = registry.counter("wfa.cells");
  auto wfa_compares = registry.counter("wfa.compare_bases");

  // --- Part 1: the motivating crossover, backtracking (z=2) vs seeds. ----
  std::printf("=== Long reads: backtracking (z=2) vs seed-and-extend ===\n");
  std::printf("reference: %zu bp; 0.3%% substitutions; %d reads per length\n\n",
              reference.size(), reads_per_cell);
  {
    TextTable out({"length", "backtrack recall", "seed-extend recall"});
    pim::util::Xoshiro256 rng(43);
    for (const std::size_t len : {100UL, 500UL, 2000UL}) {
      int bt_hits = 0, se_hits = 0;
      for (int r = 0; r < reads_per_cell; ++r) {
        const std::size_t start = rng.bounded(reference.size() - len);
        auto read = reference.slice(start, start + len);
        const auto subs = std::max<std::size_t>(1, len * 3 / 1000);
        for (std::size_t s = 0; s < subs; ++s) {
          const std::size_t p = rng.bounded(read.size());
          read[p] = static_cast<pim::genome::Base>(
              (static_cast<int>(read[p]) + 1) % 4);
        }
        pim::align::InexactOptions opt;
        opt.max_diffs = 2;
        opt.max_states = 500000;  // cap pathological blowups
        if (pim::align::inexact_search(fm, read, opt).found()) ++bt_hits;
        const auto se = pim::align::seed_extend_align(fm, read);
        if (se.found() && se.hits[0].ref_begin + 64 >= start &&
            se.hits[0].ref_begin <= start + 64) {
          ++se_hits;
        }
      }
      out.add_row({std::to_string(len),
                   TextTable::num(100.0 * bt_hits / reads_per_cell) + " %",
                   TextTable::num(100.0 * se_hits / reads_per_cell) + " %"});
    }
    std::printf("%s\n", out.render().c_str());
  }

  // --- Part 2: the S44 kernel sweep. -------------------------------------
  std::printf("=== Extension-kernel sweep: banded SW vs gap-affine WFA ===\n");
  std::printf("errors: 80%% subs / 20%% 1-3 bp indels; recall window +-64 bp\n\n");

  const std::vector<std::size_t> lengths = {250, 500, 1000, 2000};
  const std::vector<double> divergences = {0.001, 0.003, 0.01};
  std::vector<CellResult> cells;

  for (const ExtensionKernel kernel :
       {ExtensionKernel::kBandedSw, ExtensionKernel::kWfa}) {
    for (const std::size_t len : lengths) {
      for (const double divergence : divergences) {
        CellResult cell;
        cell.length = len;
        cell.divergence = divergence;
        cell.kernel = kernel;
        // Same seed per (length, divergence): both kernels verify the
        // identical read set, so the comparison is paired, not sampled.
        pim::util::Xoshiro256 rng(
            1000 + len + static_cast<std::uint64_t>(divergence * 1e5));
        pim::align::SeedExtendOptions options;
        options.kernel = kernel;
        for (int r = 0; r < reads_per_cell; ++r) {
          const std::size_t start = rng.bounded(reference.size() - len);
          auto read = reference.slice(start, start + len);
          mutate(read, divergence, rng);
          const auto t0 = std::chrono::steady_clock::now();
          const auto se =
              pim::align::seed_extend_align(fm, read, options);
          cell.ms += ms_since(t0);
          ++cell.reads;
          cell.cells += se.extension_cells;
          reads_counter.add();
          hits_counter.add(se.hits.size());
          candidates_counter.add(se.candidates_tried);
          if (kernel == ExtensionKernel::kWfa) {
            cells_wfa.add(se.extension_cells);
            wfa_wavefronts.add(se.wfa.wavefronts);
            wfa_cells.add(se.wfa.cells);
            wfa_compares.add(se.wfa.compare_bases);
          } else {
            cells_banded.add(se.extension_cells);
          }
          if (se.found() && se.hits[0].ref_begin + 64 >= start &&
              se.hits[0].ref_begin <= start + 64) {
            ++cell.placed;
          }
        }
        std::printf(
            "{\"bench\":\"long_read_kernel_sweep\",\"kernel\":\"%s\","
            "\"length\":%zu,\"divergence\":%.4f,\"reads\":%d,"
            "\"recall\":%.4f,\"cells_per_read\":%.1f,\"ms_per_read\":%.3f}\n",
            pim::align::to_string(kernel), len, divergence, cell.reads,
            cell.recall(), cell.cells_per_read(), cell.ms / cell.reads);
        cells.push_back(cell);
      }
    }
  }

  // Side-by-side table (banded rows precede WFA rows in `cells`).
  const std::size_t half = cells.size() / 2;
  TextTable out({"length", "divergence", "banded recall", "wfa recall",
                 "banded cells/read", "wfa cells/read"});
  for (std::size_t i = 0; i < half; ++i) {
    const CellResult& sw = cells[i];
    const CellResult& wf = cells[half + i];
    out.add_row({std::to_string(sw.length), TextTable::num(sw.divergence),
                 TextTable::num(100.0 * sw.recall()) + " %",
                 TextTable::num(100.0 * wf.recall()) + " %",
                 TextTable::num(sw.cells_per_read()),
                 TextTable::num(wf.cells_per_read())});
  }
  std::printf("\n%s", out.render().c_str());

  if (!metrics_path.empty()) {
    std::ofstream metrics_out(metrics_path);
    pim::obs::write_json_lines(registry.scrape(), metrics_out);
    std::printf("\nregistry snapshot -> %s\n", metrics_path.c_str());
  }

  // --- Assertions (the CI gate). -----------------------------------------
  int failures = 0;
  for (std::size_t i = 0; i < half; ++i) {
    const CellResult& sw = cells[i];
    const CellResult& wf = cells[half + i];
    if (wf.recall() < sw.recall()) {
      std::printf("FAIL: WFA recall %.3f < banded %.3f at length %zu, "
                  "divergence %.4f\n",
                  wf.recall(), sw.recall(), sw.length, sw.divergence);
      ++failures;
    }
    if (sw.length >= 1000 && sw.divergence <= 0.003 && wf.cells > sw.cells) {
      std::printf("FAIL: WFA cells/read %.1f > banded %.1f at length %zu, "
                  "divergence %.4f\n",
                  wf.cells_per_read(), sw.cells_per_read(), sw.length,
                  sw.divergence);
      ++failures;
    }
  }
  if (failures > 0) return 1;

  std::printf("\ntakeaway: wavefront work is O(read * penalty), banded DP "
              "O(read * band) — at sequencing\ndivergence WFA matches or "
              "beats banded-SW recall while touching a fraction of the "
              "cells.\nBoth kernels run on the host; the simulated PIM "
              "platform runs only Algorithms 1-2.\n");
  return 0;
}
