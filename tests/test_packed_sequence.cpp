#include "src/genome/packed_sequence.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/util/rng.h"

namespace pim::genome {
namespace {

TEST(PackedSequence, EmptyByDefault) {
  PackedSequence s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0U);
}

TEST(PackedSequence, FromStringRoundTrip) {
  const std::string text = "ACGTTGCAACGT";
  const PackedSequence s(text);
  EXPECT_EQ(s.size(), text.size());
  EXPECT_EQ(s.to_string(), text);
}

TEST(PackedSequence, PushBackAcrossWordBoundary) {
  PackedSequence s;
  std::string expect;
  // 70 bases crosses the 32-bases-per-word boundary twice.
  for (int i = 0; i < 70; ++i) {
    const Base b = static_cast<Base>(i % 4);
    s.push_back(b);
    expect.push_back(to_char(b));
  }
  EXPECT_EQ(s.to_string(), expect);
}

TEST(PackedSequence, AtMatchesUnpacked) {
  util::Xoshiro256 rng(3);
  std::vector<Base> bases;
  for (int i = 0; i < 200; ++i) bases.push_back(static_cast<Base>(rng.bounded(4)));
  const PackedSequence s(bases);
  const auto unpacked = s.unpack();
  ASSERT_EQ(unpacked.size(), bases.size());
  for (std::size_t i = 0; i < bases.size(); ++i) {
    EXPECT_EQ(s.at(i), bases[i]);
    EXPECT_EQ(unpacked[i], bases[i]);
  }
}

TEST(PackedSequence, SetOverwrites) {
  PackedSequence s("AAAA");
  s.set(2, Base::G);
  EXPECT_EQ(s.to_string(), "AAGA");
  s.set(0, Base::T);
  EXPECT_EQ(s.to_string(), "TAGA");
}

TEST(PackedSequence, SetOutOfRangeThrows) {
  PackedSequence s("ACG");
  EXPECT_THROW(s.set(3, Base::A), std::out_of_range);
}

TEST(PackedSequence, Slice) {
  const PackedSequence s("ACGTACGT");
  EXPECT_EQ(decode(s.slice(2, 6)), "GTAC");
  EXPECT_EQ(decode(s.slice(0, 0)), "");
  EXPECT_EQ(decode(s.slice(8, 8)), "");
  EXPECT_THROW(s.slice(5, 3), std::out_of_range);
  EXPECT_THROW(s.slice(0, 9), std::out_of_range);
}

TEST(PackedSequence, Equality) {
  PackedSequence a("ACGT"), b("ACGT"), c("ACGA");
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(PackedSequence, MatchesAtEveryOffsetAndLength) {
  util::Xoshiro256 rng(11);
  std::vector<Base> bases(300);
  for (auto& b : bases) b = static_cast<Base>(rng.bounded(4));
  const PackedSequence s(bases);
  for (std::size_t pos = 0; pos <= 100; pos += 3) {
    for (std::size_t len = 0; len <= 70 && pos + len <= 300; ++len) {
      auto query = s.slice(pos, pos + len);
      ASSERT_TRUE(s.matches_at(pos, query)) << pos << "+" << len;
      if (len == 0) continue;
      auto& flipped = query[rng.bounded(len)];
      flipped = static_cast<Base>((static_cast<int>(flipped) + 1) % 4);
      ASSERT_FALSE(s.matches_at(pos, query)) << pos << "+" << len;
    }
  }
  // The last bases, and ranges past the end.
  EXPECT_TRUE(s.matches_at(260, s.slice(260, 300)));
  EXPECT_FALSE(s.matches_at(261, s.slice(260, 300)));
  EXPECT_TRUE(s.matches_at(300, {}));
  EXPECT_FALSE(s.matches_at(301, {}));
}

TEST(PackedSequence, MemoryIsTwoBitsPerBase) {
  PackedSequence s;
  for (int i = 0; i < 3200; ++i) s.push_back(Base::A);
  // 3200 bases = 100 words = 800 bytes.
  EXPECT_EQ(s.memory_bytes(), 800U);
}

}  // namespace
}  // namespace pim::genome
