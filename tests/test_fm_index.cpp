#include "src/index/fm_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/align/backward_search.h"
#include "src/genome/synthetic_genome.h"
#include "src/index/index_io.h"
#include "src/index/mapped_index.h"
#include "src/util/rng.h"
#include "tests/temp_dir.h"

namespace pim::index {
namespace {

using genome::Base;
using genome::PackedSequence;

TEST(SaInterval, Basics) {
  SaInterval valid{2, 5};
  EXPECT_TRUE(valid.valid());
  EXPECT_EQ(valid.count(), 3U);
  SaInterval collapsed{5, 5};
  EXPECT_FALSE(collapsed.valid());
  EXPECT_EQ(collapsed.count(), 0U);
  SaInterval inverted{6, 2};
  EXPECT_FALSE(inverted.valid());
  EXPECT_EQ(inverted.count(), 0U);
}

TEST(FmIndex, BuildSmall) {
  const PackedSequence text("TGCTA");
  const FmIndex fm = FmIndex::build(text, {.bucket_width = 2});
  EXPECT_EQ(fm.reference_size(), 5U);
  EXPECT_EQ(fm.num_rows(), 6U);
  EXPECT_EQ(fm.whole_interval(), (SaInterval{0, 6}));
}

TEST(FmIndex, OccMatchesOracle) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 512;
  spec.seed = 17;
  const PackedSequence text = genome::generate_reference(spec);
  const FmIndex fm = FmIndex::build(text, {.bucket_width = 16});
  const OccTable oracle(fm.bwt());
  for (std::size_t i = 0; i <= fm.num_rows(); ++i) {
    for (const auto nt : genome::kAllBases) {
      ASSERT_EQ(fm.occ(nt, i), oracle.occ(nt, i)) << i;
    }
  }
}

TEST(FmIndex, LocateRecoversSuffixArray) {
  const PackedSequence text("TGCTA");
  const FmIndex fm = FmIndex::build(text, {.bucket_width = 2});
  // SA of TGCTA$ = [5,4,2,1,3,0].
  const std::vector<std::uint64_t> expect = {5, 4, 2, 1, 3, 0};
  for (std::size_t row = 0; row < fm.num_rows(); ++row) {
    EXPECT_EQ(fm.locate(row), expect[row]) << row;
  }
}

// locate reads the adopted SA-IS output by row: it must give the oracle's
// SA, row by row and interval by interval.
TEST(FmIndex, Rate1LocateMatchesSuffixArray) {
  genome::SyntheticGenomeSpec repeats;
  repeats.length = 3000;
  repeats.seed = 43;
  repeats.repeat_fraction = 0.6;
  repeats.repeat_unit_length = 120;
  const std::vector<PackedSequence> texts = {
      PackedSequence(""),
      PackedSequence("G"),
      genome::generate_uniform(2500, 41),
      genome::generate_reference(repeats),
      PackedSequence(std::string(700, 'A')),
  };
  util::Xoshiro256 rng(47);
  for (const auto& text : texts) {
    const std::size_t n = text.size();
    const SuffixArray oracle = build_suffix_array_naive(text);
    const FmIndex full = FmIndex::build(text, {.bucket_width = 32});
    ASSERT_EQ(full.num_rows(), n + 1);
    EXPECT_EQ(full.memory_footprint().sa_bytes, 4 * (n + 1)) << n;
    for (std::size_t row = 0; row <= n; ++row) {
      ASSERT_EQ(full.locate(row), oracle[row]) << "n=" << n << " row=" << row;
    }
    std::vector<std::uint64_t> from_full;
    for (int trial = 0; trial < 40; ++trial) {
      const std::uint64_t low = rng.bounded(n + 1);
      const std::uint64_t high = low + 1 + rng.bounded(n + 1 - low);
      full.locate_all_into({low, high}, from_full);
      std::vector<std::uint64_t> expect(oracle.begin() + low,
                                        oracle.begin() + high);
      std::sort(expect.begin(), expect.end());
      ASSERT_EQ(from_full, expect) << "n=" << n << " [" << low << "," << high;
    }
  }
}

// locate_all_into(interval, out, limit) is the interval's sorted positions
// cut to the first `limit` (all at 0), on built, stream-loaded and mapped
// indexes of a random, a repeat-rich and a homopolymer text.
TEST(FmIndex, LocateKeptEqualsSortedPrefix) {
  genome::SyntheticGenomeSpec repeats;
  repeats.length = 3000;
  repeats.seed = 43;
  repeats.repeat_fraction = 0.6;
  repeats.repeat_unit_length = 120;
  const std::vector<PackedSequence> texts = {
      genome::generate_uniform(2500, 41),
      genome::generate_reference(repeats),
      PackedSequence(std::string(700, 'A')),
  };
  util::Xoshiro256 rng(59);
  for (const auto& text : texts) {
    const std::size_t n = text.size();
    SCOPED_TRACE("n=" + std::to_string(n));
    const SuffixArray oracle = build_suffix_array_naive(text);
    const FmIndex built = FmIndex::build(text, {.bucket_width = 32});
    std::stringstream buffer;
    save_index(buffer, built);
    const LoadedIndex streamed = load_index(buffer);
    tests::TempDir dir;
    const std::string path = dir.file("kept.index");
    save_index_file(path, built);
    const auto mapped = MappedIndex::open(path);
    ASSERT_TRUE(mapped.mapped());
    std::vector<std::uint64_t> out;
    for (int trial = 0; trial < 30; ++trial) {
      // Short intervals (up to 100 rows) and arbitrary ones.
      const std::uint64_t low = rng.bounded(n);
      const std::uint64_t span = trial % 2 == 0 ? 100 : n + 1 - low;
      const std::uint64_t high =
          low + 1 + rng.bounded(std::min<std::uint64_t>(span, n + 1 - low));
      const SaInterval interval{low, high};
      std::vector<std::uint64_t> sorted(oracle.begin() + low,
                                        oracle.begin() + high);
      std::sort(sorted.begin(), sorted.end());
      const std::size_t count = sorted.size();
      for (const std::size_t limit :
           {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{64},
            count - 1, count, count + 1}) {
        const std::size_t kept =
            limit == 0 ? count : std::min<std::size_t>(limit, count);
        const std::vector<std::uint64_t> want(sorted.begin(),
                                              sorted.begin() + kept);
        for (const FmIndex* fm :
             {&built, &streamed.index, &mapped.index()}) {
          fm->locate_all_into(interval, out, limit);
          ASSERT_EQ(out, want) << "[" << low << "," << high
                               << ") limit " << limit;
        }
      }
    }
  }
}

TEST(FmIndex, LocateRejectsRowsPastTheSuffixArray) {
  const PackedSequence text = genome::generate_uniform(300, 53);
  const FmIndex fm = FmIndex::build(text, {.bucket_width = 32});
  EXPECT_THROW((void)fm.locate(fm.num_rows()), std::out_of_range);
  std::vector<std::uint64_t> out;
  EXPECT_THROW(fm.locate_all_into({fm.num_rows() - 2, fm.num_rows() + 1}, out),
               std::out_of_range);
  EXPECT_THROW(
      fm.locate_all_into({fm.num_rows() - 2, fm.num_rows() + 1}, out, 1),
      std::out_of_range);
}

TEST(FmIndex, ExtendShrinksIntervalsMonotonically) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 2000;
  spec.seed = 29;
  const PackedSequence text = genome::generate_reference(spec);
  const FmIndex fm = FmIndex::build(text, {.bucket_width = 64});
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    SaInterval interval = fm.whole_interval();
    std::uint64_t prev_count = interval.count();
    for (int step = 0; step < 30 && interval.valid(); ++step) {
      interval = fm.extend(interval, static_cast<Base>(rng.bounded(4)));
      EXPECT_LE(interval.count(), prev_count);
      prev_count = interval.count();
    }
  }
}

TEST(FmIndex, LocateAllSortedAndUnique) {
  const PackedSequence text("ACGTACGTACGT");
  const FmIndex fm = FmIndex::build(text, {.bucket_width = 4});
  // Pattern ACGT occurs at 0, 4, 8: get its interval by backward search.
  SaInterval interval = fm.whole_interval();
  for (const char c : {'T', 'G', 'C', 'A'}) {
    interval = fm.extend(interval, *genome::base_from_char(c));
  }
  const auto positions = fm.locate_all(interval);
  const std::vector<std::uint64_t> expect = {0, 4, 8};
  EXPECT_EQ(positions, expect);
  EXPECT_TRUE(std::is_sorted(positions.begin(), positions.end()));
}

TEST(FmIndex, LocateAllOfInvalidIntervalIsEmpty) {
  const PackedSequence text("ACGT");
  const FmIndex fm = FmIndex::build(text, {.bucket_width = 2});
  EXPECT_TRUE(fm.locate_all(SaInterval{3, 3}).empty());
}

TEST(FmIndex, MemoryFootprintAccounts) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 4096;
  spec.seed = 2;
  const PackedSequence text = genome::generate_reference(spec);
  const FmIndex full = FmIndex::build(text, {.bucket_width = 128});
  const auto fp_full = full.memory_footprint();
  EXPECT_GT(fp_full.total(), 0U);
  // BWT at 2 bits/base: 4097 symbols -> ~1 KiB.
  EXPECT_NEAR(static_cast<double>(fp_full.bwt_bytes), 4097.0 / 4.0, 8.0);
}

TEST(FmIndex, FromPartsRejectsTextOfWrongLength) {
  const PackedSequence text = genome::generate_uniform(1000, 3);
  const FmIndex built = FmIndex::build(text, {.bucket_width = 64});
  const auto assemble = [&](PackedSequence reference) {
    return FmIndex::from_parts(
        built.config(), std::move(reference), built.bwt(), built.counts(),
        built.markers(),
        SuffixArray(built.suffix_array().begin(), built.suffix_array().end()));
  };
  EXPECT_TRUE(assemble(text).reference() == text);
  EXPECT_THROW(assemble(PackedSequence(text.slice(0, 999))),
               std::invalid_argument);
  PackedSequence longer = text;
  longer.push_back(Base::A);
  EXPECT_THROW(assemble(longer), std::invalid_argument);
}

// A crafted SA value past n throws from a limited locate too, even from a
// row whose value the limit would not keep.
TEST(FmIndex, LimitedLocateStillChecksEveryRow) {
  const PackedSequence text = genome::generate_uniform(1000, 3);
  const FmIndex built = FmIndex::build(text, {.bucket_width = 64});
  SuffixArray sa(built.suffix_array().begin(), built.suffix_array().end());
  const SaInterval interval{10, 50};
  *std::max_element(sa.begin() + 10, sa.begin() + 50) = 5000;
  const FmIndex crafted =
      FmIndex::from_parts(built.config(), text, built.bwt(), built.counts(),
                          built.markers(), std::move(sa));
  std::vector<std::uint64_t> out;
  for (const std::size_t limit : {0u, 1u, 39u}) {
    EXPECT_THROW(crafted.locate_all_into(interval, out, limit),
                 std::runtime_error)
        << limit;
  }
}

TEST(FmIndex, FinishOneRowVerifiesThePrefix) {
  const PackedSequence text = genome::generate_uniform(2000, 5);
  const FmIndex fm = FmIndex::build(text, {.bucket_width = 128});
  // Walk T[1500, 1540) backwards until its interval is one row.
  SaInterval row = fm.whole_interval();
  std::size_t rest = 1540;
  while (row.count() != 1) row = fm.extend(row, text.at(--rest));
  ASSERT_GT(rest, 1500U);
  ASSERT_EQ(fm.locate(row.low), rest);
  std::vector<std::uint64_t> out;
  auto prefix = text.slice(1500, rest);
  fm.finish_one_row(row, prefix, out);
  EXPECT_EQ(out, std::vector<std::uint64_t>{1500});
  prefix[0] = static_cast<Base>((static_cast<int>(prefix[0]) + 1) % 4);
  fm.finish_one_row(row, prefix, out);
  EXPECT_TRUE(out.empty());
  // A prefix longer than the row's text position fits nowhere.
  fm.finish_one_row(row, std::vector<Base>(rest + 1, Base::A), out);
  EXPECT_TRUE(out.empty());
}

TEST(FmIndex, KmerLengthIsTheLargestWithSixteenRowsPerEntry) {
  const auto k_for = FmIndex::kmer_length_for;
  EXPECT_EQ(k_for(0), 0U);
  EXPECT_EQ(k_for(63), 0U);
  EXPECT_EQ(k_for(64), 1U);
  EXPECT_EQ(k_for(16 * 1024 - 1), 4U);
  EXPECT_EQ(k_for(16 * 1024), 5U);
  EXPECT_EQ(k_for(std::uint64_t{1} << 20), 8U);   // 512 KB on 1 Mbp
  EXPECT_EQ(k_for(std::uint64_t{16} << 20), 10U);  // 8 MB on 16 Mbp
  EXPECT_EQ(k_for(std::uint64_t{1} << 31), 12U);  // capped
  // Past 32-bit row bounds there is no table.
  EXPECT_EQ(k_for(std::numeric_limits<std::uint32_t>::max() - 1), 12U);
  EXPECT_EQ(k_for(std::numeric_limits<std::uint32_t>::max()), 0U);
  for (const std::size_t n : {40u, 5000u, 20000u}) {
    const FmIndex fm = FmIndex::build(genome::generate_uniform(n, 3));
    EXPECT_EQ(fm.kmer_length(), k_for(n)) << n;
  }
}

TEST(FmIndex, ShortReadsAndTinyReferencesStartFromTheWholeInterval) {
  const FmIndex tiny = FmIndex::build(PackedSequence("ACGTTGCAAC"));
  EXPECT_EQ(tiny.kmer_length(), 0U);
  const auto read = genome::encode("TTGCA");
  EXPECT_EQ(tiny.exact_start(read).interval, tiny.whole_interval());
  EXPECT_EQ(tiny.exact_start(read).consumed, 0U);

  const FmIndex fm = FmIndex::build(genome::generate_uniform(20000, 4));
  ASSERT_EQ(fm.kmer_length(), 5U);
  for (const std::size_t m : {0u, 1u, 5u}) {
    const SearchStart start = fm.exact_start(std::vector<Base>(m, Base::C));
    EXPECT_EQ(start.interval, fm.whole_interval()) << m;
    EXPECT_EQ(start.consumed, 0U) << m;
    EXPECT_FALSE(start.passed_one_row) << m;
  }
  EXPECT_EQ(fm.exact_start(std::vector<Base>(6, Base::C)).consumed, 5U);
}

// Every k-mer's entry is where Algorithm 1 stands after the k-mer's k bases,
// and an empty entry says whether some suffix of the k-mer had exactly one
// row. A 4%-GC text leaves many GC-rich k-mers rare or absent, so all three
// kinds of entry occur. Built, stream-loaded and mapped indexes each derive
// the table.
TEST(FmIndex, KmerTableEntriesEqualBackwardSearch) {
  const PackedSequence text = genome::generate_uniform(20000, 9, 0.04);
  const FmIndex built = FmIndex::build(text, {.bucket_width = 128});
  std::stringstream buffer;
  save_index(buffer, built);
  const LoadedIndex streamed = load_index(buffer);
  tests::TempDir dir;
  const std::string path = dir.file("kmer.index");
  save_index_file(path, built);
  const auto mapped = MappedIndex::open(path);
  ASSERT_TRUE(mapped.mapped());

  const std::size_t k = built.kmer_length();
  ASSERT_EQ(k, 5U);
  for (const FmIndex* fm : {&built, &streamed.index, &mapped.index()}) {
    ASSERT_EQ(fm->kmer_length(), k);
    std::size_t rows = 0, one_row_then_empty = 0, empty = 0;
    for (std::size_t code = 0; code < (std::size_t{1} << (2 * k)); ++code) {
      std::vector<Base> kmer(k);
      for (std::size_t i = 0; i < k; ++i) {
        kmer[i] = static_cast<Base>((code >> (2 * (k - 1 - i))) & 3);
      }
      const auto trace = align::exact_search_trace(*fm, kmer);
      const SaInterval want = trace.back();
      const bool passed_one_row =
          std::any_of(trace.begin(), trace.end(),
                      [](const SaInterval& iv) { return iv.count() == 1; });
      // One base in front, so the read is longer than k.
      std::vector<Base> read = {Base::G};
      read.insert(read.end(), kmer.begin(), kmer.end());
      const SearchStart start = fm->exact_start(read);
      SCOPED_TRACE("k-mer " + genome::decode(kmer));
      EXPECT_EQ(start.consumed, k);
      if (want.valid()) {
        EXPECT_EQ(start.interval, want);
        EXPECT_FALSE(start.passed_one_row);
        ++rows;
      } else {
        EXPECT_FALSE(start.interval.valid());
        EXPECT_EQ(start.passed_one_row, passed_one_row);
        ++(passed_one_row ? one_row_then_empty : empty);
      }
    }
    EXPECT_GT(rows, 0U);
    EXPECT_GT(one_row_then_empty, 0U);
    EXPECT_GT(empty, 0U);
  }
}

}  // namespace
}  // namespace pim::index
