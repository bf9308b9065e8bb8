// Micro-benchmarks of the simulated in-memory primitives (google-benchmark)
// plus a printed decomposition of the modeled hardware cost per operation.
//
// The wall-clock numbers measure the *simulator's* speed (useful when
// sizing experiments); the modeled ns/pJ columns are the architectural
// costs the chip model consumes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "src/genome/synthetic_genome.h"
#include "src/pim/mapping.h"
#include "src/pim/platform.h"
#include "src/util/rng.h"
#include "src/util/table.h"

namespace {

const pim::hw::TimingEnergyModel& timing() {
  static pim::hw::TimingEnergyModel model;
  return model;
}

struct TileFixture {
  pim::genome::PackedSequence text;
  pim::index::FmIndex fm;
  std::unique_ptr<pim::hw::PimTile> tile;
  TileFixture() {
    pim::genome::SyntheticGenomeSpec spec;
    spec.length = 30000;
    spec.seed = 3;
    text = pim::genome::generate_reference(spec);
    fm = pim::index::FmIndex::build(text, {.bucket_width = 128});
    tile = std::make_unique<pim::hw::PimTile>(timing(), pim::hw::ZoneLayout{},
                                              fm, 0);
  }
};

TileFixture& tile_fixture() {
  static TileFixture f;
  return f;
}

struct PlatformFixture {
  pim::index::FmIndex fm;
  std::unique_ptr<pim::hw::PimAlignerPlatform> platform;
  PlatformFixture() {
    pim::genome::SyntheticGenomeSpec spec;
    spec.length = 100000;  // 4 tiles of 32768 BWT rows
    spec.seed = 17;
    fm = pim::index::FmIndex::build(pim::genome::generate_reference(spec),
                                    {.bucket_width = 128});
    platform = std::make_unique<pim::hw::PimAlignerPlatform>(fm, timing());
  }
};

PlatformFixture& platform_fixture() {
  static PlatformFixture f;
  return f;
}

void BM_SubArrayTripleSense(benchmark::State& state) {
  pim::hw::SubArray array(timing());
  pim::util::Xoshiro256 rng(1);
  pim::util::BitVector row(array.cols());
  for (std::uint32_t i = 0; i < array.cols(); ++i) row.set(i, rng.bernoulli(0.5));
  array.write_row(0, row);
  array.write_row(1, row);
  array.write_row(2, row);
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.triple_sense(0, 1, 2));
  }
}
BENCHMARK(BM_SubArrayTripleSense);

void BM_SubArrayXnor2(benchmark::State& state) {
  pim::hw::SubArray array(timing());
  array.write_row(0, pim::util::BitVector(array.cols(), true));
  array.write_row(1, pim::util::BitVector(array.cols(), false));
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.xnor2(0, 1));
  }
}
BENCHMARK(BM_SubArrayXnor2);

void BM_SubArrayImAdd32(benchmark::State& state) {
  pim::hw::SubArray array(timing());
  array.write_word_vertical(0, 0, 32, 123456u);
  array.write_word_vertical(0, 32, 32, 654321u);
  for (auto _ : state) {
    array.im_add(0, 32, 64, 96, 32);
  }
}
BENCHMARK(BM_SubArrayImAdd32);

void BM_SubArrayVerticalWord32(benchmark::State& state) {
  pim::hw::SubArray array(timing());
  std::uint32_t value = 123456u;
  for (auto _ : state) {
    array.write_word_vertical(7, 0, 32, value);
    benchmark::DoNotOptimize(value = static_cast<std::uint32_t>(
                                 array.read_word_vertical(7, 0, 32) + 1));
  }
}
BENCHMARK(BM_SubArrayVerticalWord32);

void BM_TileCountMatch(benchmark::State& state) {
  auto& f = tile_fixture();
  std::uint64_t cursor = 5000;
  for (auto _ : state) {
    std::uint64_t id = 1 + (cursor++ % 20000);
    if (id % 128 == 0) ++id;  // count_match needs an off-checkpoint id
    benchmark::DoNotOptimize(f.tile->count_match(pim::genome::Base::C, id));
  }
}
BENCHMARK(BM_TileCountMatch);

void BM_TileLfm(benchmark::State& state) {
  auto& f = tile_fixture();
  std::uint64_t id = 777;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.tile->lfm(pim::genome::Base::G, 1 + (id++ % 20000)));
  }
}
BENCHMARK(BM_TileLfm);

void BM_SoftwareLfm(benchmark::State& state) {
  auto& f = tile_fixture();
  std::uint64_t id = 777;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.fm.lfm(pim::genome::Base::G, 1 + (id++ % 20000)));
  }
}
BENCHMARK(BM_SoftwareLfm);

// One backward-extension step (two LFMs) on whichever tiles own its bounds.
void BM_PlatformExtendHw(benchmark::State& state) {
  auto& f = platform_fixture();
  const std::uint64_t rows = f.fm.num_rows();
  pim::util::Xoshiro256 rng(5);
  for (auto _ : state) {
    const std::uint64_t low = rng.bounded(rows);
    const std::uint64_t high = low + 1 + rng.bounded(std::min<std::uint64_t>(
                                             64, rows - low));
    benchmark::DoNotOptimize(f.platform->extend_hw(
        {low, high}, static_cast<pim::genome::Base>(rng.bounded(4))));
  }
}
BENCHMARK(BM_PlatformExtendHw);

void print_modeled_costs() {
  using pim::util::TextTable;
  const auto& m = timing();
  std::printf("\n=== Modeled per-operation hardware costs ===\n");
  TextTable out({"operation", "latency (ns)", "energy (pJ)"});
  const auto add = [&](const char* name, pim::hw::OpCost c) {
    out.add_row({name, TextTable::num(c.latency_ns), TextTable::num(c.energy_pj)});
  };
  add("MEM read (row)", m.op_cost(pim::hw::SubArrayOp::kMemRead));
  add("MEM write (row)", m.op_cost(pim::hw::SubArrayOp::kMemWrite));
  add("triple sense (AND3/MAJ/OR3/XOR3)",
      m.op_cost(pim::hw::SubArrayOp::kTripleSense));
  add("DPU word", m.op_cost(pim::hw::SubArrayOp::kDpuWord));
  add("XNOR_Match (triple + DPU)", m.xnor_match_cost());
  add("IM_ADD 32-bit", m.im_add_cost(32));
  add("IM_ADD 16-bit", m.im_add_cost(16));
  std::printf("%s", out.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_modeled_costs();
  return 0;
}
