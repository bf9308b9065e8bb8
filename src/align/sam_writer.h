// SAM output — the interchange format downstream genomics pipelines expect.
//
// Converts AlignmentResults into SAM 1.6 records: header (@HD, one @SQ per
// chromosome, @PG), flags (reverse-strand 0x10, unmapped 0x4, secondary
// 0x100), 1-based per-chromosome positions, CIGAR strings (recomputed for
// hits with differences by the semi-global glocal_align, which fills only
// the score-bounded diagonal band, against a window of read length +
// diffs + 2 at the hit), MAPQ from hit multiplicity and difference count,
// and NM edit-distance tags. An unaligned read, the empty read included, is
// one unmapped record.
//
// Every record, from every public call, goes through one field appender
// into a buffer the writer owns and reuses, and each call hands that buffer
// to the stream once. The single-end path renders straight from the placed
// hits; SamRecord (make_records) is the value form for tests, custom sinks
// and the paired path.
//
// The engines align against one concatenated reference and never see
// chromosomes. The writer is the one place that maps their hit positions
// back through the chromosome table, and it drops (and counts) every hit
// whose record would run past its chromosome's end: SAM forbids a record
// longer than its @SQ LN, and on a concatenated index such a hit is exactly
// a junction artefact.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/align/engine.h"
#include "src/align/paired.h"
#include "src/align/read_batch.h"
#include "src/genome/multi_reference.h"
#include "src/genome/packed_sequence.h"

namespace pim::align {

struct SamRecord {
  std::string qname;
  std::uint16_t flag = 0;
  std::string rname = "*";
  std::uint64_t pos = 0;  ///< 1-based; 0 = unmapped.
  std::uint8_t mapq = 0;
  std::string cigar = "*";
  std::string rnext = "*";
  std::uint64_t pnext = 0;
  std::int64_t tlen = 0;
  std::string seq;
  std::string qual = "*";
  std::uint32_t edit_distance = 0;  ///< Emitted as NM:i: tag when mapped.

  static constexpr std::uint16_t kFlagPaired = 0x1;
  static constexpr std::uint16_t kFlagProperPair = 0x2;
  static constexpr std::uint16_t kFlagUnmapped = 0x4;
  static constexpr std::uint16_t kFlagMateUnmapped = 0x8;
  static constexpr std::uint16_t kFlagReverse = 0x10;
  static constexpr std::uint16_t kFlagMateReverse = 0x20;
  static constexpr std::uint16_t kFlagFirstInPair = 0x40;
  static constexpr std::uint16_t kFlagSecondInPair = 0x80;
  static constexpr std::uint16_t kFlagSecondary = 0x100;

  std::string to_line() const;
};

/// One record's fields as views (the writer's rendering form).
struct SamFields;

/// MAPQ heuristic: unique hits score high (decaying with differences),
/// multi-mapped reads score near zero, unmapped reads zero.
std::uint8_t estimate_mapq(std::size_t num_hits, std::uint32_t diffs);

/// QNAME as the SAM grammar allows it, as a view into `name`: everything
/// from the first whitespace on (FASTQ comments, ground-truth suffixes) is
/// dropped. Every record emission path routes through this, so the two
/// mates of a pair and the batch/single-read paths agree on the name.
std::string_view sanitize_qname(std::string_view name);

class SamWriter {
 public:
  /// Writer over a concatenated reference and its chromosome table. The
  /// table must tile `reference` (std::invalid_argument otherwise); an empty
  /// table means one chromosome named "ref". `reference` is kept (not
  /// copied) for CIGAR recomputation and must outlive the writer.
  SamWriter(std::ostream& out, const genome::PackedSequence& reference,
            std::vector<genome::Chromosome> table);

  /// Single-chromosome writer: a one-entry table named `reference_name`.
  SamWriter(std::ostream& out, std::string reference_name,
            const genome::PackedSequence& reference);

  /// Emit @HD, one @SQ per chromosome and @PG. Call once, first.
  void write_header(const std::string& program_name = "pim-aligner",
                    const std::string& version = "1.0.0");

  /// Convert one read's alignment into records: the best surviving hit is
  /// primary, the remaining survivors are secondary. A read without
  /// surviving hits (unaligned, or only junction artefacts) gets one
  /// unmapped record.
  /// `qualities` (Phred+33), if given, must match the read length.
  void write_alignment(const std::string& qname,
                       const std::vector<genome::Base>& read,
                       const AlignmentResult& result,
                       const std::optional<std::string>& qualities = {});

  /// Engine-layer batch output: the records write_alignment would give for
  /// each read, pulling QNAMEs and qualities from the batch's slabs (reads
  /// without names get "read<i>"). Reads unpack through one reusable
  /// scratch buffer.
  void write_batch(const ReadBatch& batch, const BatchResult& results);

  /// Streaming emission (S39): write the reads of one completed chunk. The
  /// "read<i>" backfill for nameless reads uses chunk.base_index, so a
  /// streamed run over many chunks/batches emits the same QNAMEs as one
  /// write_batch over the whole set. When a read throws (a quality/read
  /// length mismatch), the records of the reads before it reach the stream
  /// and the exception propagates.
  void write_chunk(const BatchResultChunk& chunk);

  /// Emit the two primary records of a paired alignment with full pair
  /// flags (0x1/0x2/0x40/0x80, mate strand/unmapped), RNEXT/PNEXT and TLEN.
  /// Proper pairs use the ProperPair hits; other classes fall back to each
  /// mate's best hit (or an unmapped record). 0x2 and TLEN need both mates
  /// mapped on one chromosome; RNEXT is "=" only when the mate shares the
  /// RNAME.
  void write_pair(const std::string& qname,
                  const std::vector<genome::Base>& read1,
                  const std::vector<genome::Base>& read2,
                  const PairedResult& result,
                  const std::optional<std::string>& qual1 = {},
                  const std::optional<std::string>& qual2 = {});

  std::size_t records_written() const { return records_; }
  /// Hits dropped because their record would run past its chromosome's end.
  std::size_t junction_artifacts_dropped() const { return junction_dropped_; }

  /// Build (without writing) the records for an alignment — exposed for
  /// tests and custom sinks. Dropped junction artefacts are counted.
  std::vector<SamRecord> make_records(
      const std::string& qname, const std::vector<genome::Base>& read,
      const AlignmentResult& result,
      const std::optional<std::string>& qualities = {});

 private:
  /// A hit that fits inside its chromosome, with its CIGAR (empty for an
  /// exact hit, whose CIGAR is one match run of the read's length).
  struct Placement {
    AlignmentHit hit;
    std::size_t chromosome = 0;
    std::string cigar;
  };

  /// Place `hit` of `read` (forward orientation), or nullopt (counted) when
  /// its record would run past its chromosome's end.
  std::optional<Placement> place(const std::vector<genome::Base>& read,
                                 const AlignmentHit& hit);

  /// The read in `strand`'s orientation; the reverse complement is built
  /// at most once per read.
  const std::vector<genome::Base>& oriented(
      const std::vector<genome::Base>& read, Strand strand);

  /// The one record renderer: check the qualities' length, place every hit
  /// of an aligned read, and call `emit` with each record's fields, the
  /// primary first. The views stay valid until the next render.
  template <typename Emit>
  void render(std::string_view qname, const std::vector<genome::Base>& read,
              bool aligned, std::span<const AlignmentHit> hits,
              std::optional<std::string_view> qualities, Emit&& emit);

  /// Append one record line to buf_ and count it.
  void append_record(const SamFields& fields);

  /// One stream write of buf_, which is then cleared.
  void flush();

  std::ostream* out_;
  const genome::PackedSequence* reference_;
  std::vector<genome::Chromosome> chromosomes_;
  std::size_t records_ = 0;
  std::size_t junction_dropped_ = 0;

  // Reused across reads and calls.
  std::string buf_;
  std::vector<Placement> placed_;
  std::vector<genome::Base> read_;
  std::string numbered_;
  std::vector<genome::Base> rc_;
  bool rc_ready_ = false;
  std::string seq_;
  std::string rc_seq_;
  std::string rc_qual_;
};

}  // namespace pim::align
