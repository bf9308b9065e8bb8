#include "src/genome/packed_sequence.h"

#include <algorithm>
#include <stdexcept>

namespace pim::genome {

namespace {
constexpr std::size_t words_for(std::size_t bases) { return (bases + 31) / 32; }
}  // namespace

PackedSequence::PackedSequence(const std::vector<Base>& bases) {
  words_.vec().reserve(words_for(bases.size()));
  for (const auto b : bases) push_back(b);
}

PackedSequence::PackedSequence(std::string_view ascii)
    : PackedSequence(encode(ascii)) {}

PackedSequence PackedSequence::borrowed(const std::uint64_t* words,
                                        std::size_t num_bases) {
  return from_words(
      util::Storage<std::uint64_t>::borrowed(words, words_for(num_bases)),
      num_bases);
}

PackedSequence PackedSequence::from_words(util::Storage<std::uint64_t> words,
                                          std::size_t num_bases) {
  if (words.size() != words_for(num_bases)) {
    throw std::invalid_argument(
        "PackedSequence::from_words: word count mismatch");
  }
  if (num_bases % 32 != 0 && !words.empty()) {
    const std::uint64_t tail = words[words.size() - 1];
    if ((tail & ~((1ULL << ((num_bases & 31) * 2)) - 1)) != 0) {
      throw std::invalid_argument(
          "PackedSequence::from_words: nonzero bits past the end");
    }
  }
  PackedSequence seq;
  seq.size_ = num_bases;
  seq.words_ = std::move(words);
  return seq;
}

void PackedSequence::push_back(Base b) {
  auto& words = words_.vec();
  if (size_ % 32 == 0) words.push_back(0);
  words.back() |= static_cast<std::uint64_t>(b) << ((size_ & 31) * 2);
  ++size_;
}

void PackedSequence::set(std::size_t i, Base b) {
  if (i >= size_) throw std::out_of_range("PackedSequence::set");
  const std::size_t shift = (i & 31) * 2;
  auto& words = words_.vec();
  words[i >> 5] &= ~(std::uint64_t{0b11} << shift);
  words[i >> 5] |= static_cast<std::uint64_t>(b) << shift;
}

bool PackedSequence::matches_at(std::size_t pos,
                                std::span<const Base> bases) const {
  if (pos > size_ || bases.size() > size_ - pos) return false;
  const std::uint64_t* words = words_.data();
  for (std::size_t done = 0; done < bases.size(); done += 32) {
    const std::size_t lanes = std::min<std::size_t>(32, bases.size() - done);
    std::uint64_t query = 0;
    for (std::size_t j = 0; j < lanes; ++j) {
      query |= static_cast<std::uint64_t>(bases[done + j]) << (2 * j);
    }
    // The sequence's 32 lanes from `at`, spliced from two words when `at`
    // is not word-aligned (the second word exists whenever a lane needs it).
    const std::size_t at = pos + done;
    const std::size_t w = at >> 5;
    const std::size_t shift = (at & 31) * 2;
    std::uint64_t text = words[w] >> shift;
    if (shift != 0 && w + 1 < words_.size()) {
      text |= words[w + 1] << (64 - shift);
    }
    const std::uint64_t mask = lanes == 32 ? ~0ULL : (1ULL << (2 * lanes)) - 1;
    if (((text ^ query) & mask) != 0) return false;
  }
  return true;
}

std::vector<Base> PackedSequence::slice(std::size_t begin, std::size_t end) const {
  if (begin > end || end > size_) {
    throw std::out_of_range("PackedSequence::slice");
  }
  std::vector<Base> out;
  out.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) out.push_back(at(i));
  return out;
}

std::string PackedSequence::to_string() const { return decode(unpack()); }

bool PackedSequence::operator==(const PackedSequence& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

}  // namespace pim::genome
