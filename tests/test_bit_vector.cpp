#include "src/util/bit_vector.h"

#include <gtest/gtest.h>

#include <stdexcept>


namespace pim::util {
namespace {

TEST(BitVector, DefaultIsEmpty) {
  BitVector v;
  EXPECT_EQ(v.size(), 0U);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.popcount(), 0U);
}

TEST(BitVector, ConstructAllZero) {
  BitVector v(130);
  EXPECT_EQ(v.size(), 130U);
  EXPECT_EQ(v.popcount(), 0U);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_FALSE(v.get(i));
}

TEST(BitVector, ConstructAllOne) {
  BitVector v(130, true);
  EXPECT_EQ(v.popcount(), 130U);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_TRUE(v.get(i));
}

TEST(BitVector, SetAndGet) {
  BitVector v(100);
  v.set(0, true);
  v.set(63, true);
  v.set(64, true);
  v.set(99, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(99));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.popcount(), 4U);
  v.set(63, false);
  EXPECT_FALSE(v.get(63));
  EXPECT_EQ(v.popcount(), 3U);
}

TEST(BitVector, ResizeGrowZero) {
  BitVector v(10, true);
  v.resize(100);
  EXPECT_EQ(v.popcount(), 10U);
  EXPECT_FALSE(v.get(50));
}

TEST(BitVector, ResizeGrowOne) {
  BitVector v(10);
  v.resize(100, true);
  EXPECT_EQ(v.popcount(), 90U);
  EXPECT_FALSE(v.get(5));
  EXPECT_TRUE(v.get(10));
  EXPECT_TRUE(v.get(99));
}

TEST(BitVector, ResizeShrinkClearsTail) {
  BitVector v(100, true);
  v.resize(65);
  EXPECT_EQ(v.popcount(), 65U);
  v.resize(100);
  EXPECT_EQ(v.popcount(), 65U);  // regrown bits are zero
}

TEST(BitVector, SetAllClearAll) {
  BitVector v(77);
  v.set_all();
  EXPECT_EQ(v.popcount(), 77U);
  v.clear_all();
  EXPECT_EQ(v.popcount(), 0U);
}

TEST(BitVector, BitwiseOperators) {
  BitVector a(70), b(70);
  a.set(0, true);
  a.set(69, true);
  b.set(0, true);
  b.set(35, true);
  const BitVector both = a & b;
  EXPECT_EQ(both.popcount(), 1U);
  EXPECT_TRUE(both.get(0));
  const BitVector either = a | b;
  EXPECT_EQ(either.popcount(), 3U);
  const BitVector exclusive = a ^ b;
  EXPECT_EQ(exclusive.popcount(), 2U);
  EXPECT_TRUE(exclusive.get(35));
  EXPECT_TRUE(exclusive.get(69));
}

TEST(BitVector, ComplementRespectsSize) {
  BitVector v(70);
  v.set(3, true);
  const BitVector inv = ~v;
  EXPECT_EQ(inv.popcount(), 69U);
  EXPECT_FALSE(inv.get(3));
  // Tail bits beyond size must stay zero so popcount stays consistent.
  EXPECT_EQ((~inv).popcount(), 1U);
}

TEST(BitVector, SizeMismatchThrows) {
  BitVector a(10), b(11);
  EXPECT_THROW(a & b, std::invalid_argument);
  EXPECT_THROW(a ^ b, std::invalid_argument);
}

TEST(BitVector, Equality) {
  BitVector a(40), b(40);
  EXPECT_TRUE(a == b);
  a.set(12, true);
  EXPECT_FALSE(a == b);
  b.set(12, true);
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace pim::util
