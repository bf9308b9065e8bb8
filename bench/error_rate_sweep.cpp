// Workload sweep — error-rate sensitivity of the two-stage pipeline.
//
// The paper fixes population variation at 0.1% and sequencing error at
// 0.2% and allows z <= 2 mismatches. This sweep shows how those choices
// interact: the stage mix, the fraction of reads the z-budget can still
// place, and the backtracking cost (explored search states) as error rates
// grow — quantifying "handles mismatches to reduce excessive backtracking".
#include <cstdio>

#include "src/align/engine.h"
#include "src/align/inexact_search.h"
#include "src/genome/synthetic_genome.h"
#include "src/readsim/read_simulator.h"
#include "src/util/table.h"

int main() {
  using pim::util::TextTable;

  pim::genome::SyntheticGenomeSpec spec;
  spec.length = 1 << 19;
  spec.seed = 23;
  const auto reference = pim::genome::generate_reference(spec);
  const auto fm = pim::index::FmIndex::build(reference, {.bucket_width = 128});

  std::printf("=== Error-rate sweep (100-bp reads, z = 2) ===\n\n");
  TextTable out({"error rate", "exact %", "inexact %", "unaligned %",
                 "avg states/inexact read", "avg states (no pruning)"});

  for (const double rate : {0.001, 0.002, 0.005, 0.01, 0.02, 0.04}) {
    pim::readsim::ReadSimSpec rspec;
    rspec.read_length = 100;
    rspec.num_reads = 200;
    rspec.population_variation_rate = 0.0;  // isolate the sequencing knob
    rspec.sequencing_error_rate = rate;
    rspec.seed = static_cast<std::uint64_t>(rate * 1e6) + 7;
    const auto set = pim::readsim::ReadSimulator(rspec).generate(reference);

    pim::align::AlignerOptions options;
    options.inexact.max_diffs = 2;
    const pim::align::SoftwareEngine engine(fm, options);
    pim::align::ReadBatchBuilder builder;
    for (const auto& read : set.reads) builder.add(read.bases);
    pim::align::BatchResult results;
    engine.align_batch(builder.build(), results);

    std::uint64_t states_pruned = 0, states_raw = 0, inexact_runs = 0;
    for (std::size_t i = 0; i < set.reads.size(); ++i) {
      const auto& read = set.reads[i];
      if (results.stage(i) != pim::align::AlignmentStage::kExact &&
          inexact_runs < 40) {
        // Sample the backtracking cost with and without the D-array.
        pim::align::InexactOptions with = options.inexact;
        pim::align::InexactOptions without = options.inexact;
        without.use_lower_bound_pruning = false;
        states_pruned +=
            pim::align::inexact_search(fm, read.bases, with).states_explored;
        states_raw +=
            pim::align::inexact_search(fm, read.bases, without)
                .states_explored;
        ++inexact_runs;
      }
    }
    const auto& stats = results.stats();
    const double n = static_cast<double>(stats.reads_total);
    out.add_row(
        {TextTable::num(rate * 100.0) + " %",
         TextTable::num(100.0 * static_cast<double>(stats.reads_exact) / n),
         TextTable::num(100.0 * static_cast<double>(stats.reads_inexact) / n),
         TextTable::num(100.0 * static_cast<double>(stats.reads_unaligned) /
                        n),
         inexact_runs ? TextTable::num(static_cast<double>(states_pruned) /
                                       static_cast<double>(inexact_runs))
                      : "-",
         inexact_runs ? TextTable::num(static_cast<double>(states_raw) /
                                       static_cast<double>(inexact_runs))
                      : "-"});
  }
  std::printf("%s", out.render().c_str());
  std::printf("\ntakeaways: at the paper's 0.2%% the z=2 budget places nearly"
              " everything; past ~1%% per-base error\nthe unaligned tail "
              "grows (>2 differences per 100 bp becomes common) and the "
              "D-array pruning's\nstate reduction is what keeps stage two "
              "affordable.\n");
  return 0;
}
