#include "src/align/sam_writer.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "src/align/global_align.h"
#include "src/align/smith_waterman.h"

namespace pim::align {

std::string SamRecord::to_line() const {
  std::ostringstream out;
  out << qname << '\t' << flag << '\t' << rname << '\t' << pos << '\t'
      << static_cast<int>(mapq) << '\t' << cigar << '\t' << rnext << '\t'
      << pnext << '\t' << tlen << '\t' << (seq.empty() ? "*" : seq) << '\t'
      << qual;
  if ((flag & kFlagUnmapped) == 0) {
    out << "\tNM:i:" << edit_distance;
  }
  return out.str();
}

std::string sanitize_qname(std::string_view name) {
  const auto cut = name.find_first_of(" \t");
  return std::string(name.substr(0, cut));
}

std::uint8_t estimate_mapq(std::size_t num_hits, std::uint32_t diffs) {
  if (num_hits == 0) return 0;
  if (num_hits == 1) {
    // Unique placement: confidence decays with the differences spent.
    const int q = 60 - static_cast<int>(diffs) * 10;
    return static_cast<std::uint8_t>(std::max(q, 20));
  }
  if (num_hits == 2) return 3;
  return 0;  // repeat region: essentially unplaceable
}

SamWriter::SamWriter(std::ostream& out, std::string reference_name,
                     const genome::PackedSequence& reference)
    : out_(&out),
      reference_name_(std::move(reference_name)),
      reference_(&reference) {}

void SamWriter::write_header(const std::string& program_name,
                             const std::string& version) {
  (*out_) << "@HD\tVN:1.6\tSO:unknown\n";
  (*out_) << "@SQ\tSN:" << reference_name_ << "\tLN:" << reference_->size()
          << "\n";
  (*out_) << "@PG\tID:" << program_name << "\tPN:" << program_name
          << "\tVN:" << version << "\n";
}

std::string SamWriter::cigar_for_hit(
    const std::vector<genome::Base>& oriented_read,
    const AlignmentHit& hit) const {
  const std::size_t m = oriented_read.size();
  if (hit.diffs == 0) {
    return std::to_string(m) + "M";  // exact: one match run
  }
  // Re-align the full read semi-globally against a window around the hit:
  // every read base is consumed (no soft clips), so the CIGAR and NM are
  // the true edit script. The window pads by the difference budget so
  // indel alignments fit.
  const std::uint64_t pad = hit.diffs + 2;
  const std::uint64_t begin = hit.position;
  const std::uint64_t end =
      std::min<std::uint64_t>(reference_->size(), begin + m + pad);
  if (begin >= end) return std::to_string(m) + "M";
  const std::vector<genome::Base> window = reference_->slice(begin, end);
  const GlocalResult glocal = glocal_align(window, oriented_read);
  return glocal_cigar_string(glocal);
}

std::vector<SamRecord> SamWriter::make_records(
    const std::string& qname, const std::vector<genome::Base>& read,
    const AlignmentResult& result,
    const std::optional<std::string>& qualities) const {
  if (qualities && qualities->size() != read.size()) {
    throw std::invalid_argument("SamWriter: quality/read length mismatch");
  }
  const std::string name = sanitize_qname(qname);
  std::vector<SamRecord> records;

  if (!result.aligned()) {
    SamRecord rec;
    rec.qname = name;
    rec.flag = SamRecord::kFlagUnmapped;
    rec.seq = genome::decode(read);
    rec.qual = qualities.value_or("*");
    records.push_back(std::move(rec));
    return records;
  }

  // Order: the best hit first (primary), the rest secondary.
  std::vector<AlignmentHit> ordered = result.hits;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&](const AlignmentHit& a, const AlignmentHit& b) {
                     if (a.diffs != b.diffs) return a.diffs < b.diffs;
                     return a.position < b.position;
                   });

  // SEQ is stored in reference orientation: reverse-strand hits emit the
  // reverse complement (and reversed qualities). Both oriented variants are
  // built at most once for the whole hit set — a repeat-heavy read with many
  // secondary hits must not redo the copy per hit.
  const std::string fwd_seq = genome::decode(read);
  const std::string fwd_qual = qualities.value_or("*");
  std::vector<genome::Base> rc;
  std::string rc_seq, rc_qual;
  bool rc_ready = false;

  const std::uint8_t mapq = estimate_mapq(ordered.size(), ordered[0].diffs);
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const auto& hit = ordered[i];
    SamRecord rec;
    rec.qname = name;
    rec.rname = reference_name_;
    rec.pos = hit.position + 1;  // SAM is 1-based
    rec.mapq = (i == 0) ? mapq : 0;
    rec.edit_distance = hit.diffs;
    if (i > 0) rec.flag |= SamRecord::kFlagSecondary;

    const std::vector<genome::Base>* oriented = &read;
    if (hit.strand == Strand::kReverseComplement) {
      rec.flag |= SamRecord::kFlagReverse;
      if (!rc_ready) {
        rc = genome::reverse_complement(read);
        rc_seq = genome::decode(rc);
        rc_qual = fwd_qual;
        if (qualities) std::reverse(rc_qual.begin(), rc_qual.end());
        rc_ready = true;
      }
      oriented = &rc;
      rec.seq = rc_seq;
      rec.qual = rc_qual;
    } else {
      rec.seq = fwd_seq;
      rec.qual = fwd_qual;
    }
    rec.cigar = cigar_for_hit(*oriented, hit);
    records.push_back(std::move(rec));
  }
  return records;
}

void SamWriter::write_alignment(const std::string& qname,
                                const std::vector<genome::Base>& read,
                                const AlignmentResult& result,
                                const std::optional<std::string>& qualities) {
  for (const auto& rec : make_records(qname, read, result, qualities)) {
    (*out_) << rec.to_line() << '\n';
    ++records_;
  }
}

void SamWriter::write_chunk(const BatchResultChunk& chunk) {
  const ReadBatch& batch = *chunk.batch;
  std::vector<genome::Base> scratch;
  for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
    // make_records sanitizes names (comments and ground-truth suffixes stay
    // out of QNAME); here only nameless reads need the "read<i>" backfill,
    // numbered by global stream position.
    std::string qname(batch.name(i));
    if (qname.empty()) {
      qname = "read" + std::to_string(chunk.base_index + (i - chunk.begin));
    }
    batch.read(i).unpack_into(scratch);
    std::optional<std::string> qual;
    if (batch.has_qualities() && !batch.qualities(i).empty()) {
      qual = std::string(batch.qualities(i));
    }
    write_alignment(qname, scratch, chunk.result->result(i - chunk.begin),
                    qual);
  }
}

void SamWriter::write_batch(const ReadBatch& batch,
                            const BatchResult& results) {
  write_chunk(BatchResultChunk{&batch, 0, batch.size(), &results, 0});
}

void SamWriter::write_pair(const std::string& qname,
                           const std::vector<genome::Base>& read1,
                           const std::vector<genome::Base>& read2,
                           const PairedResult& result,
                           const std::optional<std::string>& qual1,
                           const std::optional<std::string>& qual2) {
  // Build each mate's primary record: the ProperPair hit when there is
  // one, otherwise the mate's own best hit, otherwise unmapped.
  const auto primary_record =
      [&](const std::vector<genome::Base>& read,
          const std::optional<std::string>& qual,
          const AlignmentResult& mate_result,
          const std::optional<AlignmentHit>& forced) -> SamRecord {
    AlignmentResult narrowed;
    if (forced) {
      narrowed.hits = {*forced};
    } else if (const auto best = mate_result.best()) {
      narrowed.hits = {*best};
    }
    narrowed.stage = narrowed.hits.empty() ? AlignmentStage::kUnaligned
                                           : mate_result.stage;
    auto records = make_records(qname, read, narrowed, qual);
    return records.front();
  };

  std::optional<AlignmentHit> h1, h2;
  if (result.pair) {
    h1 = result.pair->first;
    h2 = result.pair->second;
  }
  SamRecord r1 = primary_record(read1, qual1, result.mate1, h1);
  SamRecord r2 = primary_record(read2, qual2, result.mate2, h2);

  r1.flag |= SamRecord::kFlagPaired | SamRecord::kFlagFirstInPair;
  r2.flag |= SamRecord::kFlagPaired | SamRecord::kFlagSecondInPair;
  if (result.cls == PairClass::kProperPair) {
    r1.flag |= SamRecord::kFlagProperPair;
    r2.flag |= SamRecord::kFlagProperPair;
  }
  // SAM spec recommended practice: an unmapped read with a mapped mate
  // takes its mate's RNAME/POS (it stays flagged 0x4 with CIGAR "*"), so
  // the pair stays adjacent under coordinate sort instead of the unmapped
  // half drifting to the unplaced block.
  const bool mapped1 = (r1.flag & SamRecord::kFlagUnmapped) == 0;
  const bool mapped2 = (r2.flag & SamRecord::kFlagUnmapped) == 0;
  if (!mapped1 && mapped2) {
    r1.rname = r2.rname;
    r1.pos = r2.pos;
  } else if (mapped1 && !mapped2) {
    r2.rname = r1.rname;
    r2.pos = r1.pos;
  }
  const auto cross_link = [&](SamRecord& self, const SamRecord& mate) {
    if (mate.flag & SamRecord::kFlagUnmapped) {
      // 0x20 is undefined for an unmapped mate; the placement above still
      // gives RNEXT/PNEXT a coordinate when the mate was co-located.
      self.flag |= SamRecord::kFlagMateUnmapped;
    } else if (mate.flag & SamRecord::kFlagReverse) {
      self.flag |= SamRecord::kFlagMateReverse;
    }
    if (mate.pos != 0) {
      self.rnext = "=";
      self.pnext = mate.pos;
    }
  };
  cross_link(r1, r2);
  cross_link(r2, r1);
  if (result.pair) {
    const auto tlen = static_cast<std::int64_t>(result.pair->observed_insert);
    // Leftmost mate gets +TLEN, the other -TLEN.
    if (r1.pos <= r2.pos) {
      r1.tlen = tlen;
      r2.tlen = -tlen;
    } else {
      r1.tlen = -tlen;
      r2.tlen = tlen;
    }
  }
  (*out_) << r1.to_line() << '\n' << r2.to_line() << '\n';
  records_ += 2;
}

}  // namespace pim::align
