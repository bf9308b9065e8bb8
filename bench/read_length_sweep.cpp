// Workload sweep — read length 50 bp to 1 kbp (the paper's introduction:
// reads "range from 50 to thousands nt in length").
//
// For each length: the exact-alignment fraction at the paper's error rates
// (falls as 0.997^m), the LFM work per read (grows as 2m), the measured
// software alignment behaviour, and the chip model's projected throughput
// (inverse in m). The backward-search O(m) scaling is what keeps long reads
// feasible at all — the DP baselines pay O(nm).
#include <cstdio>

#include "src/accel/pim_aligner_model.h"
#include "src/align/engine.h"
#include "src/genome/synthetic_genome.h"
#include "src/readsim/read_simulator.h"
#include "src/util/table.h"

int main() {
  using pim::util::TextTable;

  pim::genome::SyntheticGenomeSpec spec;
  spec.length = 1 << 20;
  spec.seed = 19;
  const auto reference = pim::genome::generate_reference(spec);
  const auto fm = pim::index::FmIndex::build(reference, {.bucket_width = 128});
  const pim::hw::TimingEnergyModel timing;

  std::printf("=== Read-length sweep (50 bp .. 1 kbp) ===\n");
  std::printf("rates: 0.1%% variation + 0.2%% sequencing error; z = 2\n\n");
  TextTable out({"length", "exact frac (sim)", "exact frac (0.997^m)",
                 "aligned frac", "LFM/read (model)",
                 "chip throughput Pd=2 (q/s)"});

  for (const std::uint32_t len : {50U, 100U, 200U, 400U, 1000U}) {
    pim::readsim::ReadSimSpec rspec;
    rspec.read_length = len;
    rspec.num_reads = 300;
    rspec.population_variation_rate = 0.001;
    rspec.sequencing_error_rate = 0.002;
    rspec.seed = 100 + len;
    const auto set = pim::readsim::ReadSimulator(rspec).generate(reference);

    pim::align::AlignerOptions options;
    options.inexact.max_diffs = 2;
    const pim::align::SoftwareEngine engine(fm, options);
    pim::align::ReadBatchBuilder builder;
    for (const auto& r : set.reads) builder.add(r.bases);
    pim::align::BatchResult results;
    engine.align_batch(builder.build(), results);
    const auto& stats = results.stats();

    pim::accel::ChipModelConfig chip_cfg;
    chip_cfg.read_length = len;
    const pim::accel::PimChipModel chip(timing, {}, chip_cfg);
    const auto chip_report = chip.evaluate(2);

    const double aligned_frac =
        1.0 - static_cast<double>(stats.reads_unaligned) /
                  static_cast<double>(stats.reads_total);
    double predicted = 1.0;
    for (std::uint32_t i = 0; i < len; ++i) predicted *= 0.997;
    out.add_row({std::to_string(len),
                 TextTable::num(set.exact_fraction() * 100.0) + " %",
                 TextTable::num(predicted * 100.0) + " %",
                 TextTable::num(aligned_frac * 100.0) + " %",
                 TextTable::num(chip_report.lfm_per_read),
                 TextTable::num(chip_report.throughput_qps)});
  }
  std::printf("%s", out.render().c_str());
  std::printf("\ntakeaways: the ~70%% exact-stage fraction is a 100-bp "
              "artifact — at 400 bp most reads carry a\ndifference and stage "
              "two dominates; chip throughput scales as 1/m (O(m) backward "
              "search), while a\nDP baseline would scale as 1/(nm).\n");
  return 0;
}
