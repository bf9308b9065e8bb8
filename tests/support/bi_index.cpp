#include "tests/support/bi_index.h"

namespace pim::align {

BiFmIndex BiFmIndex::build(const genome::PackedSequence& reference,
                           const index::FmIndexConfig& config) {
  BiFmIndex bi;
  bi.forward_ = index::FmIndex::build(reference, config);
  genome::PackedSequence reversed;
  for (std::size_t i = reference.size(); i-- > 0;) {
    reversed.push_back(reference.at(i));
  }
  bi.reverse_ = index::FmIndex::build(reversed, config);
  return bi;
}

std::vector<std::uint32_t> BiFmIndex::compute_lower_bound_d(
    const std::vector<genome::Base>& read) const {
  // Growing read[j..i] rightward corresponds to *prepending* read[i] to the
  // reversed chunk, which is exactly one backward-extension step on the
  // reverse index. When the interval collapses the chunk does not occur:
  // bump z, start the next chunk after i.
  std::vector<std::uint32_t> d(read.size(), 0);
  std::uint32_t z = 0;
  index::SaInterval interval = reverse_.whole_interval();
  for (std::size_t i = 0; i < read.size(); ++i) {
    interval = reverse_.extend(interval, read[i]);
    if (!interval.valid()) {
      ++z;
      interval = reverse_.whole_interval();
    }
    d[i] = z;
  }
  return d;
}

}  // namespace pim::align
