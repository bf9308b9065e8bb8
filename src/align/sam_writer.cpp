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

SamWriter::SamWriter(std::ostream& out,
                     const genome::PackedSequence& reference,
                     std::vector<genome::Chromosome> table)
    : out_(&out), reference_(&reference), chromosomes_(std::move(table)) {
  if (chromosomes_.empty()) {
    chromosomes_.push_back({"ref", 0, reference.size()});
  }
  genome::validate_chromosomes(chromosomes_, reference.size());
}

SamWriter::SamWriter(std::ostream& out, std::string reference_name,
                     const genome::PackedSequence& reference)
    : SamWriter(out, reference,
                {{std::move(reference_name), 0, reference.size()}}) {}

void SamWriter::write_header(const std::string& program_name,
                             const std::string& version) {
  (*out_) << "@HD\tVN:1.6\tSO:unknown\n";
  for (const auto& chrom : chromosomes_) {
    (*out_) << "@SQ\tSN:" << chrom.name << "\tLN:" << chrom.length << "\n";
  }
  (*out_) << "@PG\tID:" << program_name << "\tPN:" << program_name
          << "\tVN:" << version << "\n";
}

std::optional<SamWriter::Placement> SamWriter::place(
    const std::vector<genome::Base>& oriented_read, const AlignmentHit& hit) {
  const auto loc = genome::locate(chromosomes_, hit.position);
  const std::size_t m = oriented_read.size();
  std::string cigar;
  std::uint64_t ref_span = m;  // exact: one match run
  if (loc && hit.diffs == 0) {
    cigar = std::to_string(m) + "M";
  } else if (loc) {
    // Re-align the full read semi-globally against a window around the hit:
    // every read base is consumed (no soft clips), so the CIGAR and NM are
    // the true edit script. The window pads by the difference budget so
    // indel alignments fit; it may reach into the next chromosome, and the
    // check below drops the hit if the alignment does.
    const std::uint64_t end = std::min<std::uint64_t>(
        reference_->size(), hit.position + m + hit.diffs + 2);
    const GlocalResult glocal =
        glocal_align(reference_->slice(hit.position, end), oriented_read);
    cigar = glocal_cigar_string(glocal);
    ref_span = glocal.ref_end;
  }
  if (!loc || loc->offset + ref_span > chromosomes_[loc->chromosome].length) {
    ++junction_dropped_;
    return std::nullopt;
  }
  return Placement{hit, loc->chromosome, std::move(cigar)};
}

std::vector<SamRecord> SamWriter::make_records(
    const std::string& qname, const std::vector<genome::Base>& read,
    const AlignmentResult& result,
    const std::optional<std::string>& qualities) {
  if (qualities && qualities->size() != read.size()) {
    throw std::invalid_argument("SamWriter: quality/read length mismatch");
  }
  const std::string name = sanitize_qname(qname);
  std::vector<SamRecord> records;

  // Reverse-strand hits align (and store SEQ) in reference orientation.
  // Every oriented variant is built at most once for the whole hit set — a
  // repeat-heavy read with many secondary hits must not redo the copy per
  // hit.
  std::vector<genome::Base> rc;
  bool rc_ready = false;
  const auto oriented =
      [&](Strand strand) -> const std::vector<genome::Base>& {
    if (strand != Strand::kReverseComplement) return read;
    if (!rc_ready) {
      rc = genome::reverse_complement(read);
      rc_ready = true;
    }
    return rc;
  };

  // Junction artefacts are dropped before the primary and MAPQ are chosen:
  // they are not placements of the read.
  std::vector<Placement> placed;
  if (result.aligned()) {
    placed.reserve(result.hits.size());
    for (const auto& hit : result.hits) {
      if (auto p = place(oriented(hit.strand), hit)) {
        placed.push_back(std::move(*p));
      }
    }
  }

  if (placed.empty()) {
    SamRecord rec;
    rec.qname = name;
    rec.flag = SamRecord::kFlagUnmapped;
    rec.seq = genome::decode(read);
    rec.qual = qualities.value_or("*");
    records.push_back(std::move(rec));
    return records;
  }

  // Order: the best hit first (primary), the rest secondary.
  std::stable_sort(placed.begin(), placed.end(),
                   [](const Placement& a, const Placement& b) {
                     if (a.hit.diffs != b.hit.diffs) {
                       return a.hit.diffs < b.hit.diffs;
                     }
                     return a.hit.position < b.hit.position;
                   });

  const std::string fwd_seq = genome::decode(read);
  const std::string fwd_qual = qualities.value_or("*");
  std::string rc_seq, rc_qual;

  const std::uint8_t mapq =
      estimate_mapq(placed.size(), placed[0].hit.diffs);
  records.reserve(placed.size());
  for (std::size_t i = 0; i < placed.size(); ++i) {
    auto& p = placed[i];
    const genome::Chromosome& chrom = chromosomes_[p.chromosome];
    SamRecord rec;
    rec.qname = name;
    rec.rname = chrom.name;
    rec.pos = p.hit.position - chrom.offset + 1;  // SAM is 1-based
    rec.mapq = (i == 0) ? mapq : 0;
    rec.edit_distance = p.hit.diffs;
    if (i > 0) rec.flag |= SamRecord::kFlagSecondary;

    if (p.hit.strand == Strand::kReverseComplement) {
      rec.flag |= SamRecord::kFlagReverse;
      if (rc_seq.empty()) {
        rc_seq = genome::decode(rc);
        rc_qual = fwd_qual;
        if (qualities) std::reverse(rc_qual.begin(), rc_qual.end());
      }
      rec.seq = rc_seq;
      rec.qual = rc_qual;
    } else {
      rec.seq = fwd_seq;
      rec.qual = fwd_qual;
    }
    rec.cigar = std::move(p.cigar);
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
  // A pair is proper, and has a TLEN, only with both mates mapped on one
  // chromosome: not across a junction, and not when a mate's forced hit was
  // dropped as a junction artefact.
  const bool mapped1 = (r1.flag & SamRecord::kFlagUnmapped) == 0;
  const bool mapped2 = (r2.flag & SamRecord::kFlagUnmapped) == 0;
  const bool same_chromosome = mapped1 && mapped2 && r1.rname == r2.rname;
  if (result.cls == PairClass::kProperPair && same_chromosome) {
    r1.flag |= SamRecord::kFlagProperPair;
    r2.flag |= SamRecord::kFlagProperPair;
  }
  // SAM spec recommended practice: an unmapped read with a mapped mate
  // takes its mate's RNAME/POS (it stays flagged 0x4 with CIGAR "*"), so
  // the pair stays adjacent under coordinate sort instead of the unmapped
  // half drifting to the unplaced block.
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
      self.rnext = mate.rname == self.rname ? "=" : mate.rname;
      self.pnext = mate.pos;
    }
  };
  cross_link(r1, r2);
  cross_link(r2, r1);
  if (result.pair && same_chromosome) {
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
