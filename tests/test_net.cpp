// Wire-protocol + alignment-server suite (S46).
//   * Frame and payload codecs round-trip without a socket in sight, and a
//     decoder fed arbitrary split points (randomized 1..N-byte slices)
//     reassembles the identical frame;
//   * every malformed input names the offending field: truncated header,
//     bad magic, unsupported version, checksum mismatch, oversized
//     payload (rejected before buffering), garbage payloads;
//   * results AND SAM bytes over the wire are bit-identical to a direct
//     engine.align_batch / SamWriter::write_batch over the same reads,
//     including multi-reference routing by reference_id;
//   * a malformed frame closes only the offending connection — a payload
//     error keeps it open — and the server never crashes;
//   * >= 6 concurrent client threads each get exactly their own results
//     (run under TSan in CI);
//   * graceful drain completes in-flight requests before the loop exits;
//   * idle connections are reaped after Options::idle_timeout.
#include "src/net/server.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/align/sam_writer.h"
#include "src/genome/synthetic_genome.h"
#include "src/index/index_io.h"
#include "src/net/client.h"
#include "src/obs/metrics.h"
#include "src/obs/request_trace.h"
#include "src/serve/index_cache.h"
#include "src/serve/service.h"
#include "src/util/rng.h"
#include "tests/temp_dir.h"

namespace pim::net {
namespace {

using namespace std::chrono_literals;

std::vector<std::vector<genome::Base>> make_read_mix(
    const genome::PackedSequence& reference, std::size_t count,
    std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<genome::Base>> reads;
  reads.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = 60 + rng.bounded(41);
    std::vector<genome::Base> read;
    if (i % 5 == 4) {
      for (std::size_t k = 0; k < len; ++k) {
        read.push_back(static_cast<genome::Base>(rng.bounded(4)));
      }
    } else {
      const std::size_t start = rng.bounded(reference.size() - len);
      read = reference.slice(start, start + len);
      if (i % 5 == 1 || i % 5 == 3) {
        const std::size_t pos = rng.bounded(read.size());
        read[pos] = genome::complement(read[pos]);
      }
      if (i % 5 >= 2) read = genome::reverse_complement(read);
    }
    reads.push_back(std::move(read));
  }
  return reads;
}

std::vector<std::vector<genome::Base>> slice_reads(
    const std::vector<std::vector<genome::Base>>& pool, std::size_t begin,
    std::size_t end) {
  return {pool.begin() + static_cast<std::ptrdiff_t>(begin),
          pool.begin() + static_cast<std::ptrdiff_t>(end)};
}

void expect_identical_results(
    const std::vector<align::AlignmentResult>& want,
    const std::vector<align::AlignmentResult>& got, const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].stage, want[i].stage) << label << " read " << i;
    ASSERT_EQ(got[i].hits.size(), want[i].hits.size())
        << label << " read " << i;
    for (std::size_t h = 0; h < want[i].hits.size(); ++h) {
      EXPECT_EQ(got[i].hits[h].position, want[i].hits[h].position)
          << label << " read " << i << " hit " << h;
      EXPECT_EQ(got[i].hits[h].diffs, want[i].hits[h].diffs)
          << label << " read " << i << " hit " << h;
      EXPECT_EQ(got[i].hits[h].strand, want[i].hits[h].strand)
          << label << " read " << i << " hit " << h;
    }
  }
}

// ---------------------------------------------------------------------------
// Frame codec: pure byte-level tests, no sockets.
// ---------------------------------------------------------------------------

TEST(FrameCodec, RoundTripsEveryFrameType) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 0, 7};
  for (const FrameType type :
       {FrameType::kAlignRequest, FrameType::kAlignResponse, FrameType::kPing,
        FrameType::kPong, FrameType::kError}) {
    const auto bytes = encode_frame(type, 0xDEADBEEFCAFEBABEull, payload);
    ASSERT_EQ(bytes.size(), kHeaderBytes + payload.size());

    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    Frame frame;
    ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kFrame);
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.request_id, 0xDEADBEEFCAFEBABEull);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(decoder.next(frame), FrameDecoder::Result::kNeedMore);
    EXPECT_FALSE(decoder.failed());
  }
}

TEST(FrameCodec, EmptyPayloadAndBackToBackFrames) {
  auto first = encode_frame(FrameType::kPing, 1, {});
  const auto second = encode_frame(FrameType::kPong, 2, {9, 9});
  first.insert(first.end(), second.begin(), second.end());

  FrameDecoder decoder;
  decoder.feed(first.data(), first.size());
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.type, FrameType::kPing);
  EXPECT_TRUE(frame.payload.empty());
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.type, FrameType::kPong);
  EXPECT_EQ(frame.request_id, 2u);
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Result::kNeedMore);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameCodec, ReassemblesFromRandomizedSplitPoints) {
  std::vector<std::uint8_t> payload(301);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  const auto bytes = encode_frame(FrameType::kAlignRequest, 42, payload);

  // Byte-at-a-time is the worst case; then randomized slice lengths.
  {
    FrameDecoder decoder;
    Frame frame;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kNeedMore)
          << "frame completed early at byte " << i;
      decoder.feed(&bytes[i], 1);
    }
    ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kFrame);
    EXPECT_EQ(frame.payload, payload);
  }
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Xoshiro256 rng(seed);
    FrameDecoder decoder;
    Frame frame;
    bool complete = false;
    std::size_t fed = 0;
    while (fed < bytes.size()) {
      const std::size_t n = std::min(bytes.size() - fed,
                                     static_cast<std::size_t>(1) +
                                         rng.bounded(64));
      decoder.feed(bytes.data() + fed, n);
      fed += n;
      const auto result = decoder.next(frame);
      ASSERT_NE(result, FrameDecoder::Result::kError) << "seed " << seed;
      if (result == FrameDecoder::Result::kFrame) {
        complete = true;
        EXPECT_EQ(fed, bytes.size()) << "seed " << seed;
      }
    }
    if (!complete) {
      ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kFrame)
          << "seed " << seed;
    }
    EXPECT_EQ(frame.type, FrameType::kAlignRequest);
    EXPECT_EQ(frame.request_id, 42u);
    EXPECT_EQ(frame.payload, payload) << "seed " << seed;
  }
}

TEST(FrameCodec, TruncatedHeaderJustWaits) {
  const auto bytes = encode_frame(FrameType::kPing, 7, {1, 2, 3});
  FrameDecoder decoder;
  decoder.feed(bytes.data(), kHeaderBytes - 1);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Result::kNeedMore);
  EXPECT_FALSE(decoder.failed());
}

TEST(FrameCodec, BadMagicNamesField) {
  auto bytes = encode_frame(FrameType::kPing, 7, {});
  bytes[0] = 'X';
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error_field(), "magic");
  EXPECT_TRUE(decoder.failed());
  // Sticky: once desynced, the decoder refuses forever.
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Result::kError);
}

TEST(FrameCodec, UnsupportedVersionNamesField) {
  auto bytes = encode_frame(FrameType::kPing, 7, {});
  bytes[4] = 0x7F;  // version lives at offset 4 (little-endian u16)
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error_field(), "version");
}

TEST(FrameCodec, UnknownTypeNamesField) {
  auto bytes = encode_frame(FrameType::kPing, 7, {});
  bytes[6] = 99;  // type lives at offset 6
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error_field(), "type");
}

TEST(FrameCodec, ChecksumMismatchNamesField) {
  auto bytes = encode_frame(FrameType::kPing, 7, {1, 2, 3, 4});
  bytes.back() ^= 0xFF;  // corrupt the payload, not the stored checksum
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error_field(), "checksum");
}

TEST(FrameCodec, OversizedPayloadRejectedFromHeaderAlone) {
  // A length beyond the bound must be rejected before the decoder buffers
  // (or is even fed) the claimed payload.
  const std::vector<std::uint8_t> payload(4096, 0xAB);
  const auto bytes = encode_frame(FrameType::kPing, 7, payload);
  FrameDecoder decoder({/*max_payload_bytes=*/1024});
  decoder.feed(bytes.data(), kHeaderBytes);  // header only
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error_field(), "payload_length");
}

// ---------------------------------------------------------------------------
// Payload codecs.
// ---------------------------------------------------------------------------

TEST(WireCodec, AlignRequestRoundTripsPackedReads) {
  WireAlignRequest request;
  request.priority = 0;
  request.want_sam = true;
  request.deadline_budget = 1500ms;
  request.reference_id = "genome1";
  // Lengths 0..10 cover every packing remainder (4 bases/byte).
  const std::string pool = "ACGTACGTTTGACGTAACGTACGT";
  for (std::size_t len = 0; len <= 10; ++len) {
    request.reads.push_back(
        genome::encode(std::string_view(pool).substr(len % 4, len)));
  }

  WireAlignRequest decoded;
  std::string field;
  ASSERT_TRUE(
      decode_align_request(encode_align_request(request), &decoded, &field))
      << field;
  EXPECT_EQ(decoded.priority, request.priority);
  EXPECT_EQ(decoded.want_sam, request.want_sam);
  ASSERT_TRUE(decoded.deadline_budget.has_value());
  EXPECT_EQ(*decoded.deadline_budget, 1500ms);
  EXPECT_EQ(decoded.reference_id, "genome1");
  ASSERT_EQ(decoded.reads.size(), request.reads.size());
  for (std::size_t i = 0; i < request.reads.size(); ++i) {
    EXPECT_EQ(decoded.reads[i], request.reads[i]) << "read " << i;
  }

  request.deadline_budget.reset();
  request.want_sam = false;
  ASSERT_TRUE(
      decode_align_request(encode_align_request(request), &decoded, &field));
  EXPECT_FALSE(decoded.deadline_budget.has_value());
  EXPECT_FALSE(decoded.want_sam);
}

TEST(WireCodec, AlignResponseRoundTrips) {
  WireAlignResponse response;
  response.status = 1;
  response.reason = "queue full: 9 requests";
  response.breakdown.recv_ms = 0.25;
  response.breakdown.admit_ms = 0.5;
  response.breakdown.queue_ms = 1.75;
  response.breakdown.compute_ms = 3.5;
  response.breakdown.total_ms = 6.0;
  response.breakdown.stall_ms = 0.125;
  response.latency_ms = 5.75;
  align::AlignmentResult r1;
  r1.stage = align::AlignmentStage::kInexact;
  r1.hits.push_back({12345, 2, align::Strand::kReverseComplement});
  r1.hits.push_back({99, 0, align::Strand::kForward});
  align::AlignmentResult r2;  // unaligned, no hits
  response.results = {r1, r2};
  response.sam = "read0\t16\tref\t100\n";

  WireAlignResponse decoded;
  std::string field;
  ASSERT_TRUE(
      decode_align_response(encode_align_response(response), &decoded, &field))
      << field;
  EXPECT_EQ(decoded.status, response.status);
  EXPECT_EQ(decoded.reason, response.reason);
  EXPECT_EQ(decoded.breakdown.recv_ms, 0.25);
  EXPECT_EQ(decoded.breakdown.admit_ms, 0.5);
  EXPECT_EQ(decoded.breakdown.queue_ms, 1.75);
  EXPECT_EQ(decoded.breakdown.compute_ms, 3.5);
  EXPECT_EQ(decoded.breakdown.total_ms, 6.0);
  EXPECT_EQ(decoded.breakdown.stall_ms, 0.125);
  EXPECT_EQ(decoded.latency_ms, 5.75);
  expect_identical_results(response.results, decoded.results, "wire");
  EXPECT_EQ(decoded.sam, response.sam);
}

TEST(WireCodec, ErrorRoundTrips) {
  const WireError error{"checksum", "payload checksum mismatch"};
  WireError decoded;
  ASSERT_TRUE(decode_error(encode_error(error), &decoded));
  EXPECT_EQ(decoded.field, "checksum");
  EXPECT_EQ(decoded.message, "payload checksum mismatch");
}

TEST(WireCodec, MalformedRequestPayloadsNameTheField) {
  WireAlignRequest request;
  request.reads.push_back(genome::encode("ACGTACGT"));
  const auto good = encode_align_request(request);

  WireAlignRequest out;
  std::string field;

  auto corrupted = good;
  corrupted[0] = 7;  // priority ordinal out of range
  EXPECT_FALSE(decode_align_request(corrupted, &out, &field));
  EXPECT_EQ(field, "priority");

  corrupted = good;
  corrupted.resize(corrupted.size() - 1);  // truncated packed bases
  EXPECT_FALSE(decode_align_request(corrupted, &out, &field));
  EXPECT_EQ(field, "read_length");

  corrupted = good;
  corrupted.push_back(0);  // trailing garbage
  EXPECT_FALSE(decode_align_request(corrupted, &out, &field));
  EXPECT_EQ(field, "payload");

  // A read count far beyond what the payload could hold must be rejected
  // without allocating.
  WireAlignRequest empty;
  auto huge = encode_align_request(empty);
  huge[huge.size() - 4] = 0xFF;
  huge[huge.size() - 3] = 0xFF;
  huge[huge.size() - 2] = 0xFF;
  huge[huge.size() - 1] = 0x7F;
  EXPECT_FALSE(decode_align_request(huge, &out, &field));
  EXPECT_EQ(field, "read_count");

  EXPECT_FALSE(decode_align_request({}, &out, &field));  // empty payload
}

// ---------------------------------------------------------------------------
// Server + client over loopback.
// ---------------------------------------------------------------------------

struct NetFixture {
  genome::PackedSequence reference;
  index::FmIndex fm;
  std::vector<std::vector<genome::Base>> reads;
  align::AlignerOptions options;

  explicit NetFixture(std::size_t num_reads = 96, std::uint64_t seed = 51) {
    genome::SyntheticGenomeSpec spec;
    spec.length = 30000;
    spec.seed = 17;
    reference = genome::generate_reference(spec);
    fm = index::FmIndex::build(reference, {.bucket_width = 128});
    reads = make_read_mix(reference, num_reads, seed);
    options.inexact.max_diffs = 2;
  }

  std::vector<align::AlignmentResult> direct(
      const std::vector<std::vector<genome::Base>>& some_reads) const {
    align::SoftwareEngine engine(fm, options);
    align::ReadBatch batch = align::ReadBatch::from_reads(some_reads);
    align::BatchResult result;
    engine.align_batch(batch, result);
    return result.to_results();
  }
};

/// Blocking raw socket for tests that need to send bytes the AlignClient
/// would never produce (garbage, hand-corrupted frames).
struct RawClient {
  int fd = -1;
  FrameDecoder decoder;

  explicit RawClient(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
  }
  ~RawClient() {
    if (fd >= 0) ::close(fd);
  }

  void send(const std::vector<std::uint8_t>& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Blocking read until a frame completes. Returns nullopt on EOF.
  std::optional<Frame> read_frame() {
    std::uint8_t buf[4096];
    Frame frame;
    while (true) {
      if (decoder.next(frame) == FrameDecoder::Result::kFrame) return frame;
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) return std::nullopt;
      decoder.feed(buf, static_cast<std::size_t>(n));
    }
  }

  /// Blocking read until the peer closes (EOF).
  bool wait_eof() {
    std::uint8_t buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
      decoder.feed(buf, static_cast<std::size_t>(n));
    }
  }
};

TEST(AlignServer, WireResultsAndSamBitIdenticalToDirect) {
  NetFixture f;
  align::SoftwareEngine engine(f.fm, f.options);
  serve::AlignmentService service(engine, {});

  AlignServer::Options options;
  options.sam_sources[""] = {"synthetic", &f.reference};
  AlignServer server(service, options);
  server.start();
  ASSERT_GT(server.port(), 0);
  ASSERT_TRUE(server.running());

  AlignClient::Options client_options;
  client_options.port = server.port();
  AlignClient client(client_options);

  for (std::size_t begin = 0; begin < 60; begin += 20) {
    const auto some_reads = slice_reads(f.reads, begin, begin + 20);
    WireAlignRequest request;
    request.want_sam = true;
    request.reads = some_reads;
    const WireAlignResponse response = client.align(request);
    ASSERT_TRUE(response.ok()) << response.reason;

    const auto want = f.direct(some_reads);
    expect_identical_results(want, response.results, "wire");

    // SAM bytes must match the in-process emission path exactly.
    std::ostringstream direct_sam;
    align::SamWriter writer(direct_sam, "synthetic", f.reference);
    align::ReadBatch batch = align::ReadBatch::from_reads(some_reads);
    align::BatchResult batch_result;
    engine.align_batch(batch, batch_result);
    writer.write_batch(batch, batch_result);
    EXPECT_EQ(response.sam, direct_sam.str());
  }

  EXPECT_GT(client.ping().count(), 0);
  server.stop();
  EXPECT_FALSE(server.running());
  service.shutdown();
}

// genome0 is one chromosome; genome1 is two chromosomes behind one index,
// so its wire SAM carries per-chromosome RNAME/POS.
TEST(AlignServer, RoutesMultiReferenceRequestsOverTheWire) {
  struct Ref {
    std::string id;
    std::string path;
    genome::PackedSequence reference;
    std::vector<genome::Chromosome> chromosomes;
    index::FmIndex fm;
    std::vector<std::vector<genome::Base>> reads;
  };
  const tests::TempDir dir;
  std::vector<Ref> refs;
  align::AlignerOptions aligner;
  aligner.inexact.max_diffs = 2;
  for (std::size_t i = 0; i < 2; ++i) {
    Ref r;
    r.id = "genome" + std::to_string(i);
    r.path = dir.file(r.id + ".index");
    genome::SyntheticGenomeSpec spec;
    spec.length = 20000;
    spec.seed = 700 + i;
    r.reference = genome::generate_reference(spec);
    if (i == 0) {
      r.chromosomes = {{r.id, 0, 20000}};
    } else {
      r.chromosomes = {{r.id + "_a", 0, 12000}, {r.id + "_b", 12000, 8000}};
    }
    r.fm = index::FmIndex::build(r.reference, {.bucket_width = 128});
    index::save_index_file(r.path, r.fm, r.chromosomes);
    r.reads = make_read_mix(r.reference, 24, 80 + i);
    refs.push_back(std::move(r));
  }

  serve::IndexCache cache;
  for (const auto& r : refs) cache.add_reference(r.id, r.path);
  serve::MultiReferenceOptions service_options;
  service_options.aligner = aligner;
  serve::AlignmentService service(cache, service_options);

  AlignServer::Options options;
  for (const auto& r : refs) {
    options.sam_sources[r.id] = {r.id, &r.reference, r.chromosomes};
  }
  AlignServer server(service, options);
  server.start();

  AlignClient::Options client_options;
  client_options.port = server.port();
  AlignClient client(client_options);

  for (const auto& r : refs) {
    WireAlignRequest request;
    request.reference_id = r.id;
    request.want_sam = true;
    request.reads = r.reads;
    const WireAlignResponse response = client.align(request);
    ASSERT_TRUE(response.ok()) << response.reason;

    align::SoftwareEngine ref_engine(r.fm, aligner);
    align::ReadBatch batch = align::ReadBatch::from_reads(r.reads);
    align::BatchResult batch_result;
    ref_engine.align_batch(batch, batch_result);
    expect_identical_results(batch_result.to_results(), response.results,
                             r.id.c_str());

    std::ostringstream direct_sam;
    align::SamWriter writer(direct_sam, r.reference, r.chromosomes);
    writer.write_batch(batch, batch_result);
    EXPECT_EQ(response.sam, direct_sam.str()) << r.id;
    for (const auto& chrom : r.chromosomes) {
      EXPECT_NE(response.sam.find("\t" + chrom.name + "\t"),
                std::string::npos)
          << chrom.name;
    }
  }

  // Unknown references are an application-level rejection, not a protocol
  // error: the connection survives, the status says why.
  WireAlignRequest unroutable;
  unroutable.reference_id = "nope";
  unroutable.reads = slice_reads(refs[0].reads, 0, 2);
  const WireAlignResponse rejected = client.align(unroutable);
  EXPECT_EQ(rejected.status,
            static_cast<std::uint8_t>(serve::RequestStatus::kRejected));
  EXPECT_NE(rejected.reason.find("unknown reference"), std::string::npos);

  server.stop();
  service.shutdown();
}

TEST(AlignServer, MalformedFrameClosesOnlyTheOffendingConnection) {
  NetFixture f(16);
  align::SoftwareEngine engine(f.fm, f.options);
  serve::AlignmentService service(engine, {});
  AlignServer server(service, {});
  server.start();

  RawClient bad(server.port());
  RawClient innocent(server.port());

  // Stream-level garbage: the server must answer with an error frame
  // naming the field, then close — that connection only.
  std::vector<std::uint8_t> garbage(64, 0x5A);
  bad.send(garbage);
  const auto error_frame = bad.read_frame();
  ASSERT_TRUE(error_frame.has_value());
  EXPECT_EQ(error_frame->type, FrameType::kError);
  WireError error;
  ASSERT_TRUE(decode_error(error_frame->payload, &error));
  EXPECT_EQ(error.field, "magic");
  EXPECT_TRUE(bad.wait_eof());

  // The innocent connection still serves.
  WireAlignRequest request;
  request.reads = slice_reads(f.reads, 0, 4);
  innocent.send(encode_frame(FrameType::kAlignRequest, 77,
                             encode_align_request(request)));
  const auto response_frame = innocent.read_frame();
  ASSERT_TRUE(response_frame.has_value());
  EXPECT_EQ(response_frame->type, FrameType::kAlignResponse);
  EXPECT_EQ(response_frame->request_id, 77u);
  WireAlignResponse response;
  std::string field;
  ASSERT_TRUE(
      decode_align_response(response_frame->payload, &response, &field));
  ASSERT_TRUE(response.ok()) << response.reason;
  expect_identical_results(f.direct(slice_reads(f.reads, 0, 4)),
                           response.results, "innocent");

  server.stop();
  service.shutdown();
}

TEST(AlignServer, PayloadErrorKeepsTheConnectionOpen) {
  NetFixture f(8);
  align::SoftwareEngine engine(f.fm, f.options);
  serve::AlignmentService service(engine, {});
  AlignServer server(service, {});
  server.start();

  RawClient raw(server.port());

  // A well-framed request with a bad payload: error frame names the field,
  // but the byte stream is still synchronized — connection stays usable.
  WireAlignRequest request;
  request.reads = slice_reads(f.reads, 0, 2);
  auto payload = encode_align_request(request);
  payload[0] = 9;  // invalid priority ordinal
  raw.send(encode_frame(FrameType::kAlignRequest, 5, payload));
  const auto error_frame = raw.read_frame();
  ASSERT_TRUE(error_frame.has_value());
  ASSERT_EQ(error_frame->type, FrameType::kError);
  EXPECT_EQ(error_frame->request_id, 5u);
  WireError error;
  ASSERT_TRUE(decode_error(error_frame->payload, &error));
  EXPECT_EQ(error.field, "priority");

  // Unexpected frame types are handled the same way.
  raw.send(encode_frame(FrameType::kAlignResponse, 6, {}));
  const auto type_error = raw.read_frame();
  ASSERT_TRUE(type_error.has_value());
  ASSERT_EQ(type_error->type, FrameType::kError);
  ASSERT_TRUE(decode_error(type_error->payload, &error));
  EXPECT_EQ(error.field, "type");

  // Same socket, valid request: still served.
  raw.send(encode_frame(FrameType::kAlignRequest, 7,
                        encode_align_request(request)));
  const auto ok_frame = raw.read_frame();
  ASSERT_TRUE(ok_frame.has_value());
  EXPECT_EQ(ok_frame->type, FrameType::kAlignResponse);
  EXPECT_EQ(ok_frame->request_id, 7u);

  server.stop();
  service.shutdown();
}

TEST(AlignServer, SixConcurrentClientsEachGetTheirOwnResults) {
  NetFixture f(96);
  align::SoftwareEngine engine(f.fm, f.options);
  serve::ServiceOptions service_options;
  service_options.batching.max_batch_reads = 64;  // force coalescing
  serve::AlignmentService service(engine, service_options);
  AlignServer server(service, {});
  server.start();

  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kRequests = 4;
  constexpr std::size_t kReadsPer = 4;
  std::vector<std::vector<align::AlignmentResult>> want(kThreads * kRequests);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t q = 0; q < kRequests; ++q) {
      const std::size_t begin = (t * kRequests + q) * kReadsPer;
      want[t * kRequests + q] =
          f.direct(slice_reads(f.reads, begin, begin + kReadsPer));
    }
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      AlignClient::Options client_options;
      client_options.port = server.port();
      AlignClient client(client_options);
      for (std::size_t q = 0; q < kRequests; ++q) {
        const std::size_t begin = (t * kRequests + q) * kReadsPer;
        WireAlignRequest request;
        request.priority = static_cast<std::uint8_t>(q % 2);
        request.reads = slice_reads(f.reads, begin, begin + kReadsPer);
        const WireAlignResponse response = client.align(request);
        if (!response.ok()) {
          ++failures;
          continue;
        }
        const auto& expected = want[t * kRequests + q];
        if (response.results.size() != expected.size()) {
          ++failures;
          continue;
        }
        for (std::size_t i = 0; i < expected.size(); ++i) {
          if (response.results[i].hits.size() != expected[i].hits.size() ||
              response.results[i].stage != expected[i].stage) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  server.stop();
  service.shutdown();
}

TEST(AlignServer, GracefulDrainCompletesInFlightThenRefusesNew) {
  NetFixture f(8);
  align::SoftwareEngine engine(f.fm, f.options);
  serve::AlignmentService service(engine, {});

  obs::MetricsRegistry registry;
  AlignServer::Options options;
  options.metrics = &registry;
  AlignServer server(service, options);
  server.start();
  const std::uint16_t port = server.port();

  // One round trip proves the path, then drain: stop() must flush and
  // exit, and the port must refuse new connections afterwards.
  AlignClient::Options client_options;
  client_options.port = port;
  AlignClient client(client_options);
  WireAlignRequest request;
  request.reads = slice_reads(f.reads, 0, 4);
  ASSERT_TRUE(client.align(request).ok());

  server.stop();
  EXPECT_FALSE(server.running());

  AlignClient::Options refused_options;
  refused_options.port = port;
  refused_options.connect_retries = 0;
  refused_options.connect_timeout = 200ms;
  AlignClient refused(refused_options);
  EXPECT_THROW(refused.connect(), std::runtime_error);

  const auto snapshot = registry.scrape();
  EXPECT_GE(snapshot.counter_value("net.accepted"), 1u);
  EXPECT_EQ(snapshot.counter_value("net.requests"), 1u);
  EXPECT_GE(snapshot.counter_value("net.frames_in"), 1u);
  EXPECT_GE(snapshot.counter_value("net.bytes_out"), kHeaderBytes);

  service.shutdown();
}

TEST(AlignServer, IdleConnectionsAreReaped) {
  NetFixture f(4);
  align::SoftwareEngine engine(f.fm, f.options);
  serve::AlignmentService service(engine, {});

  AlignServer::Options options;
  options.idle_timeout = 50ms;
  AlignServer server(service, options);
  server.start();

  RawClient idle(server.port());
  // No traffic: the server must close us. wait_eof() returns once recv
  // sees EOF — bounded by the idle sweep, not by this test.
  EXPECT_TRUE(idle.wait_eof());

  server.stop();
  service.shutdown();
}

TEST(AlignServer, WireBreakdownTelescopesFromRecvToTotal) {
  NetFixture f(16);
  obs::RequestTracer tracer;
  align::SoftwareEngine engine(f.fm, f.options);
  serve::ServiceOptions service_options;
  service_options.tracer = &tracer;
  serve::AlignmentService service(engine, service_options);
  AlignServer server(service, {});
  server.start();

  AlignClient::Options client_options;
  client_options.port = server.port();
  AlignClient client(client_options);
  WireAlignRequest request;
  request.priority = 0;
  request.deadline_budget = 5s;
  request.reads = slice_reads(f.reads, 0, 8);
  const WireAlignResponse response = client.align(request);
  ASSERT_TRUE(response.ok()) << response.reason;

  // The server stamped kRecv before submit, so the wire breakdown leads
  // with a recv segment and its segments telescope to total_ms exactly.
  const obs::LatencyBreakdown& b = response.breakdown;
  EXPECT_GE(b.recv_ms, 0.0);
  EXPECT_GT(b.total_ms, 0.0);
  EXPECT_NEAR(b.sum(), b.total_ms, 1e-6);
  // total anchors at recv (at or before admission), so it can only exceed
  // the admission-anchored latency.
  EXPECT_GE(b.total_ms, response.latency_ms - 0.5);

  server.stop();
  service.shutdown();
}

TEST(AlignServer, SigtermDrainsGracefully) {
  NetFixture f(16);
  align::SoftwareEngine engine(f.fm, f.options);
  serve::AlignmentService service(engine, {});
  AlignServer server(service, {});
  server.start();
  install_stop_signal_handlers(&server);

  // A round trip proves the server is live before the signal lands.
  AlignClient::Options client_options;
  client_options.port = server.port();
  AlignClient client(client_options);
  WireAlignRequest request;
  request.reads = slice_reads(f.reads, 0, 4);
  ASSERT_TRUE(client.align(request).ok());

  // raise() delivers on this thread; the handler is one eventfd write
  // that kicks the loop into its drain path.
  ASSERT_EQ(std::raise(SIGTERM), 0);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (server.running() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_FALSE(server.running());

  install_stop_signal_handlers(nullptr);
  server.stop();
  service.shutdown();
}

}  // namespace
}  // namespace pim::net
