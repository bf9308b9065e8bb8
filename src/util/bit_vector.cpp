#include "src/util/bit_vector.h"

#include <bit>
#include <stdexcept>
#include <vector>

namespace pim::util {

namespace {
constexpr std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }
}  // namespace

BitVector::BitVector(std::size_t num_bits, bool value)
    : num_bits_(num_bits),
      words_(std::vector<std::uint64_t>(words_for(num_bits),
                                        value ? ~0ULL : 0ULL)) {
  trim_tail();
}

BitVector BitVector::borrowed(const std::uint64_t* words,
                              std::size_t num_bits) {
  return from_words(Storage<std::uint64_t>::borrowed(words, words_for(num_bits)),
                    num_bits);
}

BitVector BitVector::from_words(Storage<std::uint64_t> words,
                                std::size_t num_bits) {
  if (words.size() != words_for(num_bits)) {
    throw std::invalid_argument("BitVector::from_words: word count mismatch");
  }
  if (num_bits % 64 != 0 && !words.empty()) {
    const std::uint64_t tail = words[words.size() - 1];
    if ((tail & ~((1ULL << (num_bits & 63)) - 1)) != 0) {
      throw std::invalid_argument(
          "BitVector::from_words: nonzero bits past the end");
    }
  }
  BitVector v;
  v.num_bits_ = num_bits;
  v.words_ = std::move(words);
  return v;
}

void BitVector::resize(std::size_t num_bits, bool value) {
  const std::size_t old_bits = num_bits_;
  num_bits_ = num_bits;
  auto& words = words_.vec();
  words.resize(words_for(num_bits), value ? ~0ULL : 0ULL);
  if (value && num_bits > old_bits && old_bits % 64 != 0) {
    // Fill the tail of the previously-last word.
    words[old_bits >> 6] |= ~0ULL << (old_bits & 63);
  }
  trim_tail();
}

void BitVector::clear_all() {
  for (auto& w : words_.vec()) w = 0;
}

void BitVector::set_all() {
  for (auto& w : words_.vec()) w = ~0ULL;
  trim_tail();
}

void BitVector::trim_tail() {
  if (num_bits_ % 64 != 0 && !words_.empty()) {
    words_.vec().back() &= (1ULL << (num_bits_ & 63)) - 1;
  }
}

std::size_t BitVector::popcount() const {
  std::size_t total = 0;
  for (const auto w : words_.span()) {
    total += static_cast<std::size_t>(std::popcount(w));
  }
  return total;
}

void BitVector::check_same_size(const BitVector& a, const BitVector& b) {
  if (a.num_bits_ != b.num_bits_) {
    throw std::invalid_argument("BitVector size mismatch");
  }
}

BitVector BitVector::operator&(const BitVector& other) const {
  BitVector result = *this;
  result &= other;
  return result;
}
BitVector BitVector::operator|(const BitVector& other) const {
  BitVector result = *this;
  result |= other;
  return result;
}
BitVector BitVector::operator^(const BitVector& other) const {
  BitVector result = *this;
  result ^= other;
  return result;
}
BitVector BitVector::operator~() const {
  BitVector result = *this;
  for (auto& w : result.words_.vec()) w = ~w;
  result.trim_tail();
  return result;
}
BitVector& BitVector::operator&=(const BitVector& other) {
  check_same_size(*this, other);
  auto& words = words_.vec();
  for (std::size_t i = 0; i < words.size(); ++i) words[i] &= other.words_[i];
  return *this;
}
BitVector& BitVector::operator|=(const BitVector& other) {
  check_same_size(*this, other);
  auto& words = words_.vec();
  for (std::size_t i = 0; i < words.size(); ++i) words[i] |= other.words_[i];
  return *this;
}
BitVector& BitVector::operator^=(const BitVector& other) {
  check_same_size(*this, other);
  auto& words = words_.vec();
  for (std::size_t i = 0; i < words.size(); ++i) words[i] ^= other.words_[i];
  return *this;
}

bool BitVector::operator==(const BitVector& other) const {
  return num_bits_ == other.num_bits_ && words_ == other.words_;
}

}  // namespace pim::util
