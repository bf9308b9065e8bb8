#include "src/align/sam_writer.h"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <stdexcept>

#include "src/align/global_align.h"
#include "src/align/smith_waterman.h"

namespace pim::align {

struct SamFields {
  std::string_view qname;
  std::uint16_t flag = 0;
  std::string_view rname = "*";
  std::uint64_t pos = 0;
  std::uint8_t mapq = 0;
  std::string_view cigar = "*";
  std::string_view rnext = "*";
  std::uint64_t pnext = 0;
  std::int64_t tlen = 0;
  std::string_view seq;
  std::string_view qual = "*";
  std::uint32_t edit_distance = 0;
};

namespace {

template <typename Int>
void append_int(std::string& out, Int value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

/// The field appender: one tab-separated record, without its newline. An
/// empty SEQ is written "*"; a mapped record ends with its NM tag.
void append_fields(std::string& out, const SamFields& r) {
  out.append(r.qname);
  out.push_back('\t');
  append_int(out, r.flag);
  out.push_back('\t');
  out.append(r.rname);
  out.push_back('\t');
  append_int(out, r.pos);
  out.push_back('\t');
  append_int(out, static_cast<unsigned>(r.mapq));
  out.push_back('\t');
  out.append(r.cigar);
  out.push_back('\t');
  out.append(r.rnext);
  out.push_back('\t');
  append_int(out, r.pnext);
  out.push_back('\t');
  append_int(out, r.tlen);
  out.push_back('\t');
  out.append(r.seq.empty() ? std::string_view("*") : r.seq);
  out.push_back('\t');
  out.append(r.qual);
  if ((r.flag & SamRecord::kFlagUnmapped) == 0) {
    out.append("\tNM:i:");
    append_int(out, r.edit_distance);
  }
}

SamFields fields_of(const SamRecord& rec) {
  return {rec.qname, rec.flag,  rec.rname, rec.pos,  rec.mapq, rec.cigar,
          rec.rnext, rec.pnext, rec.tlen,  rec.seq,  rec.qual,
          rec.edit_distance};
}

std::optional<std::string_view> as_view(
    const std::optional<std::string>& text) {
  if (!text) return std::nullopt;
  return std::string_view(*text);
}

/// SEQ text of `read`, or of its reverse complement, into `out`.
void decode_into(const std::vector<genome::Base>& read, bool reverse,
                 std::string& out) {
  static constexpr char kChars[] = "ACGT";
  static constexpr char kComplementChars[] = "TGCA";
  const std::size_t m = read.size();
  out.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    out[i] = reverse ? kComplementChars[static_cast<int>(read[m - 1 - i])]
                     : kChars[static_cast<int>(read[i])];
  }
}

}  // namespace

std::string SamRecord::to_line() const {
  std::string line;
  append_fields(line, fields_of(*this));
  return line;
}

std::string_view sanitize_qname(std::string_view name) {
  return name.substr(0, name.find_first_of(" \t"));
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
  buf_.append("@HD\tVN:1.6\tSO:unknown\n");
  for (const auto& chrom : chromosomes_) {
    buf_.append("@SQ\tSN:").append(chrom.name).append("\tLN:");
    append_int(buf_, chrom.length);
    buf_.push_back('\n');
  }
  buf_.append("@PG\tID:").append(program_name).append("\tPN:");
  buf_.append(program_name).append("\tVN:").append(version).push_back('\n');
  flush();
}

void SamWriter::flush() {
  out_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
}

const std::vector<genome::Base>& SamWriter::oriented(
    const std::vector<genome::Base>& read, Strand strand) {
  if (strand != Strand::kReverseComplement) return read;
  if (!rc_ready_) {
    genome::reverse_complement_into(read, rc_);
    rc_ready_ = true;
  }
  return rc_;
}

std::optional<SamWriter::Placement> SamWriter::place(
    const std::vector<genome::Base>& read, const AlignmentHit& hit) {
  const auto loc = genome::locate(chromosomes_, hit.position);
  const std::size_t m = read.size();
  std::string cigar;  // exact: one match run of m, rendered by the caller
  std::uint64_t ref_span = m;
  if (loc && hit.diffs != 0) {
    // Re-align the full read semi-globally against a window around the hit:
    // every read base is consumed (no soft clips), so the CIGAR and NM are
    // the true edit script. Reverse-strand hits align in reference
    // orientation. The window pads by the difference budget so indel
    // alignments fit; it may reach into the next chromosome, and the check
    // below drops the hit if the alignment does.
    const std::uint64_t end = std::min<std::uint64_t>(
        reference_->size(), hit.position + m + hit.diffs + 2);
    const GlocalResult glocal = glocal_align(
        reference_->slice(hit.position, end), oriented(read, hit.strand));
    cigar = glocal_cigar_string(glocal);
    ref_span = glocal.ref_end;
  }
  if (!loc || loc->offset + ref_span > chromosomes_[loc->chromosome].length) {
    ++junction_dropped_;
    return std::nullopt;
  }
  return Placement{hit, loc->chromosome, std::move(cigar)};
}

template <typename Emit>
void SamWriter::render(std::string_view qname,
                       const std::vector<genome::Base>& read, bool aligned,
                       std::span<const AlignmentHit> hits,
                       std::optional<std::string_view> qualities, Emit&& emit) {
  if (qualities && qualities->size() != read.size()) {
    throw std::invalid_argument("SamWriter: quality/read length mismatch");
  }
  rc_ready_ = false;
  placed_.clear();
  if (aligned) {
    // Junction artefacts are dropped before the primary and MAPQ are
    // chosen: they are not placements of the read.
    for (const auto& hit : hits) {
      if (auto p = place(read, hit)) placed_.push_back(std::move(*p));
    }
    // Order: the best hit first (primary), the rest secondary.
    std::stable_sort(placed_.begin(), placed_.end(),
                     [](const Placement& a, const Placement& b) {
                       if (a.hit.diffs != b.hit.diffs) {
                         return a.hit.diffs < b.hit.diffs;
                       }
                       return a.hit.position < b.hit.position;
                     });
  }
  decode_into(read, false, seq_);
  SamFields rec;
  rec.qname = qname;
  if (placed_.empty()) {
    rec.flag = SamRecord::kFlagUnmapped;
    rec.seq = seq_;
    rec.qual = qualities.value_or("*");
    emit(rec);
    return;
  }

  // An exact hit's CIGAR is one match run of the read's length.
  char exact_cigar[24];
  char* const cigar_end =
      std::to_chars(exact_cigar, exact_cigar + sizeof(exact_cigar) - 1,
                    read.size())
          .ptr;
  *cigar_end = 'M';
  const std::string_view exact(
      exact_cigar, static_cast<std::size_t>(cigar_end + 1 - exact_cigar));
  bool rc_decoded = false;
  const std::uint8_t mapq =
      estimate_mapq(placed_.size(), placed_[0].hit.diffs);
  for (std::size_t i = 0; i < placed_.size(); ++i) {
    const Placement& p = placed_[i];
    const genome::Chromosome& chrom = chromosomes_[p.chromosome];
    rec.flag = i > 0 ? SamRecord::kFlagSecondary : 0;
    rec.rname = chrom.name;
    rec.pos = p.hit.position - chrom.offset + 1;  // SAM is 1-based
    rec.mapq = i == 0 ? mapq : 0;
    rec.cigar = p.hit.diffs == 0 ? exact : std::string_view(p.cigar);
    rec.edit_distance = p.hit.diffs;
    // Reverse-strand hits store SEQ (and QUAL) in reference orientation.
    if (p.hit.strand == Strand::kReverseComplement) {
      rec.flag |= SamRecord::kFlagReverse;
      if (!rc_decoded) {
        decode_into(read, true, rc_seq_);
        if (qualities) rc_qual_.assign(qualities->rbegin(), qualities->rend());
        rc_decoded = true;
      }
      rec.seq = rc_seq_;
      rec.qual = qualities ? std::string_view(rc_qual_) : "*";
    } else {
      rec.seq = seq_;
      rec.qual = qualities.value_or("*");
    }
    emit(rec);
  }
}

std::vector<SamRecord> SamWriter::make_records(
    const std::string& qname, const std::vector<genome::Base>& read,
    const AlignmentResult& result,
    const std::optional<std::string>& qualities) {
  std::vector<SamRecord> records;
  render(sanitize_qname(qname), read, result.aligned(), result.hits,
         as_view(qualities), [&](const SamFields& f) {
           records.push_back(
               {std::string(f.qname), f.flag, std::string(f.rname), f.pos,
                f.mapq, std::string(f.cigar), std::string(f.rnext), f.pnext,
                f.tlen, std::string(f.seq), std::string(f.qual),
                f.edit_distance});
         });
  return records;
}

void SamWriter::append_record(const SamFields& fields) {
  append_fields(buf_, fields);
  buf_.push_back('\n');
  ++records_;
}

void SamWriter::write_alignment(const std::string& qname,
                                const std::vector<genome::Base>& read,
                                const AlignmentResult& result,
                                const std::optional<std::string>& qualities) {
  buf_.clear();
  render(sanitize_qname(qname), read, result.aligned(), result.hits,
         as_view(qualities), [this](const SamFields& f) { append_record(f); });
  flush();
}

void SamWriter::write_chunk(const BatchResultChunk& chunk) {
  const ReadBatch& batch = *chunk.batch;
  const BatchResult& results = *chunk.result;
  buf_.clear();
  try {
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
      const std::size_t r = i - chunk.begin;
      // Comments and ground-truth suffixes stay out of QNAME; nameless
      // reads get "read<i>", numbered by global stream position.
      std::string_view qname = sanitize_qname(batch.name(i));
      if (batch.name(i).empty()) {
        numbered_.assign("read");
        append_int(numbered_, chunk.base_index + r);
        qname = numbered_;
      }
      batch.read(i).unpack_into(read_);
      std::optional<std::string_view> qual;
      if (!batch.qualities(i).empty()) qual = batch.qualities(i);
      render(qname, read_, results.aligned(r), results.hits(r), qual,
             [this](const SamFields& f) { append_record(f); });
    }
  } catch (...) {
    // render throws before it emits a record of the failing read, so the
    // buffer holds the reads before it: they are written, as when every
    // record went to the stream on its own.
    flush();
    throw;
  }
  flush();
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
  append_fields(buf_, fields_of(r1));
  buf_.push_back('\n');
  append_fields(buf_, fields_of(r2));
  buf_.push_back('\n');
  flush();
  records_ += 2;
}

}  // namespace pim::align
