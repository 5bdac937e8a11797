// Chunk-frame container suite: the builder/view pair must round-trip
// bit-exactly, the content hash must commit to every byte, and every
// malformed input — truncations, single-byte corruptions, structural
// lies in the header or section table — must surface as a Status, never
// a crash. Frames cross process boundaries (spill files, RPC payloads),
// so the corruption sweep mirrors the net layer's Connection::Recv tests.

#include "codec/chunk_frame.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "codec/hash.h"

namespace spangle {
namespace codec {
namespace {

// A small two-section frame with distinctive payloads.
std::string BuildFrame(uint64_t* hash_out) {
  FrameBuilder b(/*record_count=*/3, /*num_sections=*/2);
  b.BeginSection(SectionKind::kKeys, SectionEncoding::kVarintDelta);
  b.buffer()->append("\x02\x04\x06", 3);
  b.EndSection();
  b.BeginSection(SectionKind::kValues, SectionEncoding::kRaw);
  b.buffer()->append("abcdefgh", 8);
  b.EndSection();
  return b.Finish(hash_out);
}

TEST(ChunkFrame, BuildParseRoundTrip) {
  uint64_t hash = 0;
  const std::string frame = BuildFrame(&hash);
  ASSERT_GE(frame.size(), kFrameHeaderBytes + 2 * kSectionDescBytes);
  EXPECT_EQ(std::memcmp(frame.data(), kFrameMagic, 4), 0);

  auto view = FrameView::Parse(frame.data(), frame.size());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->record_count(), 3u);
  EXPECT_EQ(view->content_hash(), hash);
  ASSERT_EQ(view->num_sections(), 2);
  EXPECT_EQ(view->section(0).kind, SectionKind::kKeys);
  EXPECT_EQ(view->section(0).encoding, SectionEncoding::kVarintDelta);
  EXPECT_EQ(view->section(0).bytes, 3u);
  EXPECT_EQ(std::memcmp(view->section_data(0), "\x02\x04\x06", 3), 0);
  EXPECT_EQ(view->section(1).kind, SectionKind::kValues);
  EXPECT_EQ(view->section(1).bytes, 8u);
  EXPECT_EQ(std::memcmp(view->section_data(1), "abcdefgh", 8), 0);
}

TEST(ChunkFrame, HashIsDeterministicAndContentSensitive) {
  uint64_t h1 = 0, h2 = 0;
  const std::string f1 = BuildFrame(&h1);
  const std::string f2 = BuildFrame(&h2);
  EXPECT_EQ(f1, f2) << "same input must encode to identical bytes";
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, 0u);
  EXPECT_EQ(ComputeFrameHash(f1.data(), f1.size()), h1);

  // A different payload must produce a different address.
  FrameBuilder b(3, 2);
  b.BeginSection(SectionKind::kKeys, SectionEncoding::kVarintDelta);
  b.buffer()->append("\x02\x04\x06", 3);
  b.EndSection();
  b.BeginSection(SectionKind::kValues, SectionEncoding::kRaw);
  b.buffer()->append("abcdefgX", 8);
  b.EndSection();
  uint64_t h3 = 0;
  (void)b.Finish(&h3);
  EXPECT_NE(h3, h1);
}

TEST(ChunkFrame, PeekFrameHashReadsStoredAddress) {
  uint64_t hash = 0;
  const std::string frame = BuildFrame(&hash);
  auto peeked = PeekFrameHash(frame.data(), frame.size());
  ASSERT_TRUE(peeked.ok());
  EXPECT_EQ(*peeked, hash);
  EXPECT_FALSE(PeekFrameHash(frame.data(), kFrameHeaderBytes - 1).ok());
}

TEST(ChunkFrame, EmptyFrameRoundTrips) {
  FrameBuilder b(0, 1);
  b.BeginSection(SectionKind::kValues, SectionEncoding::kRaw);
  b.EndSection();
  uint64_t hash = 0;
  const std::string frame = b.Finish(&hash);
  auto view = FrameView::Parse(frame.data(), frame.size());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->record_count(), 0u);
  ASSERT_EQ(view->num_sections(), 1);
  EXPECT_EQ(view->section(0).bytes, 0u);
}

// Every truncation point must parse to an error, not read out of bounds
// (ASan/UBSan verify the "not out of bounds" half) — the same sweep the
// net frame decoder gets.
TEST(ChunkFrame, AllTruncationsFail) {
  uint64_t hash = 0;
  const std::string frame = BuildFrame(&hash);
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_FALSE(FrameView::Parse(frame.data(), cut).ok())
        << "truncation at " << cut << " parsed";
  }
  // Trailing garbage must be rejected too: the section table fully
  // accounts for the body, so extra bytes are structural corruption.
  const std::string extended = frame + '\x00';
  EXPECT_FALSE(FrameView::Parse(extended.data(), extended.size()).ok());
}

// The content hash commits to all 12 pre-hash header bytes and the whole
// body, and the hash field itself is compared against the recomputation —
// so EVERY single-byte flip anywhere in the frame must fail validation.
TEST(ChunkFrame, EverySingleByteCorruptionFails) {
  uint64_t hash = 0;
  const std::string frame = BuildFrame(&hash);
  for (size_t i = 0; i < frame.size(); ++i) {
    std::string bad = frame;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    EXPECT_FALSE(FrameView::Parse(bad.data(), bad.size()).ok())
        << "flip at byte " << i << " parsed";
  }
}

TEST(ChunkFrame, HashMismatchIsDetectedOnlyWhenVerifying) {
  uint64_t hash = 0;
  std::string frame = BuildFrame(&hash);
  // Flip a payload byte (past header + table): structure stays valid,
  // only the content address disagrees.
  frame[frame.size() - 1] = static_cast<char>(frame.back() ^ 0x01);
  EXPECT_FALSE(FrameView::Parse(frame.data(), frame.size()).ok());
  auto unverified =
      FrameView::Parse(frame.data(), frame.size(), /*verify_hash=*/false);
  EXPECT_TRUE(unverified.ok())
      << "structural parse must pass when hash verification is waived";
}

TEST(ChunkFrame, SectionTableLiesAreRejected) {
  uint64_t hash = 0;
  const std::string frame = BuildFrame(&hash);
  // Section count claims more tables than the buffer holds.
  {
    std::string bad = frame;
    bad[5] = '\x08';
    EXPECT_FALSE(
        FrameView::Parse(bad.data(), bad.size(), /*verify_hash=*/false).ok());
  }
  // Section byte count overruns the remaining payload.
  {
    std::string bad = frame;
    // First section desc starts at kFrameHeaderBytes; bytes field is the
    // trailing u64 of the 16-byte descriptor.
    bad[kFrameHeaderBytes + 8] = '\x7f';
    EXPECT_FALSE(
        FrameView::Parse(bad.data(), bad.size(), /*verify_hash=*/false).ok());
  }
  // Nonzero reserved descriptor bytes are structural corruption.
  {
    std::string bad = frame;
    bad[kFrameHeaderBytes + 2] = '\x01';
    EXPECT_FALSE(
        FrameView::Parse(bad.data(), bad.size(), /*verify_hash=*/false).ok());
  }
  // Bad magic / version / flags.
  {
    std::string bad = frame;
    bad[0] = 'X';
    EXPECT_FALSE(
        FrameView::Parse(bad.data(), bad.size(), /*verify_hash=*/false).ok());
  }
  {
    std::string bad = frame;
    bad[4] = '\x7f';
    EXPECT_FALSE(
        FrameView::Parse(bad.data(), bad.size(), /*verify_hash=*/false).ok());
  }
  {
    std::string bad = frame;
    bad[6] = '\x01';
    EXPECT_FALSE(
        FrameView::Parse(bad.data(), bad.size(), /*verify_hash=*/false).ok());
  }
}

TEST(Hash64, KnownPropertiesHold) {
  const char data[] = "the quick brown fox";
  const uint64_t h = Hash64(data, sizeof(data) - 1);
  EXPECT_EQ(Hash64(data, sizeof(data) - 1), h) << "must be deterministic";
  EXPECT_NE(Hash64(data, sizeof(data) - 2), h);
  EXPECT_NE(Hash64(data, sizeof(data) - 1, /*seed=*/1), h)
      << "seed must perturb the hash (chaining)";
  EXPECT_NE(Hash64(data, 0), Hash64(data, 0, 1))
      << "empty input must still mix the seed";
}

}  // namespace
}  // namespace codec
}  // namespace spangle
