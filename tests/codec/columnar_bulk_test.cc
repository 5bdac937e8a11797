// Encoder byte stability and bulk-decode edges. The content hashes of
// fixed partitions are pinned, one per encoding choice (raw and varint
// keys, raw and zero-suppressed values, the record-codec fallback), so
// any change to the encoder that moves a single output byte fails here:
// frames are the wire format and the content address. The decode cases
// cover the presence-mask walk that runs a 64-bit word at a time: tails
// of n ≡ 1, 7, 63 (mod 64), all-present and all-absent words, and the
// bit patterns (-0.0, NaN) that only a byte-level zero test preserves.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "codec/chunk_frame.h"
#include "codec/columnar.h"

namespace spangle {
namespace codec {
namespace {

/// splitmix64: a fixed generator, so the pinned inputs never depend on a
/// standard library's distribution implementation.
uint64_t Mix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string Hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

/// Section (kind, encoding) pairs of a frame, to prove each pinned case
/// really exercises the encoding it is named after.
std::vector<std::pair<SectionKind, SectionEncoding>> Layout(
    const std::string& bytes) {
  auto view = FrameView::Parse(bytes.data(), bytes.size());
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  std::vector<std::pair<SectionKind, SectionEncoding>> out;
  if (!view.ok()) return out;
  for (int i = 0; i < view->num_sections(); ++i) {
    out.emplace_back(view->section(i).kind, view->section(i).encoding);
  }
  return out;
}

template <typename T>
void ExpectPinned(const std::vector<T>& records,
                  std::vector<std::pair<SectionKind, SectionEncoding>> layout,
                  uint64_t want_hash, size_t want_size) {
  const EncodedFrame frame = EncodePartitionFrame(records);
  EXPECT_EQ(Layout(frame.bytes), layout);
  EXPECT_EQ(Hex(frame.content_hash), Hex(want_hash));
  EXPECT_EQ(frame.bytes.size(), want_size);
  auto decoded =
      DecodePartitionFrame<T>(frame.bytes.data(), frame.bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(*decoded == records);
}

constexpr auto kKeys = SectionKind::kKeys;
constexpr auto kValues = SectionKind::kValues;
constexpr auto kPresence = SectionKind::kPresence;
constexpr auto kRecords = SectionKind::kRecords;
constexpr auto kRaw = SectionEncoding::kRaw;
constexpr auto kVarint = SectionEncoding::kVarintDelta;
constexpr auto kZs = SectionEncoding::kZeroSuppressed;
constexpr auto kBits = SectionEncoding::kBitpacked;

TEST(ColumnarPinned, RawKeysRawValues) {
  uint64_t s = 1;
  std::vector<std::pair<uint64_t, double>> records;
  for (int i = 0; i < 1000; ++i) {
    records.emplace_back(Mix(&s), static_cast<double>(Mix(&s) % 1000) + 1);
  }
  ExpectPinned(records, {{kKeys, kRaw}, {kValues, kRaw}},
               0x051c5a774bd4f4b2ULL, 16052);
}

TEST(ColumnarPinned, VarintKeysZeroSuppressedValues) {
  uint64_t s = 2;
  std::vector<std::pair<int64_t, double>> records;
  int64_t key = -500;
  for (int i = 0; i < 1000; ++i) {
    key += static_cast<int64_t>(Mix(&s) % 5);
    const bool present = Mix(&s) % 10 == 0;
    records.emplace_back(key, present ? 0.5 * static_cast<double>(i) : 0.0);
  }
  ExpectPinned(records, {{kKeys, kVarint}, {kPresence, kBits}, {kValues, kZs}},
               0x16941cb04fc21eafULL, 1842);
}

TEST(ColumnarPinned, VarintKeysRawValues) {
  std::vector<std::pair<int32_t, float>> records;
  for (int i = 0; i < 777; ++i) {
    records.emplace_back(3 * i - 100, static_cast<float>(i) + 0.25f);
  }
  ExpectPinned(records, {{kKeys, kVarint}, {kValues, kRaw}},
               0xa54c47d5dde8553dULL, 3938);
}

TEST(ColumnarPinned, RawKeysZeroSuppressedValues) {
  uint64_t s = 3;
  std::vector<std::pair<uint64_t, double>> records;
  for (int i = 0; i < 640; ++i) {
    records.emplace_back(Mix(&s), i % 16 == 0 ? -1.0 * i : 0.0);
  }
  ExpectPinned(records, {{kKeys, kRaw}, {kPresence, kBits}, {kValues, kZs}},
               0xd8a71fc71d768359ULL, 5588);
}

TEST(ColumnarPinned, ScalarColumns) {
  std::vector<int64_t> ints;
  for (int i = 0; i < 500; ++i) ints.push_back(1000 - 7 * i);
  ExpectPinned(ints, {{kKeys, kVarint}}, 0xf05f89351b5814e5ULL, 537);

  uint64_t s = 4;
  std::vector<uint64_t> wide;
  for (int i = 0; i < 300; ++i) wide.push_back(Mix(&s));
  ExpectPinned(wide, {{kKeys, kRaw}}, 0xa96031f59315cb5cULL, 2436);

  std::vector<double> sparse(1000, 0.0);
  for (int i = 0; i < 1000; i += 37) sparse[i] = i * 1.5;
  ExpectPinned(sparse, {{kPresence, kBits}, {kValues, kZs}},
               0x4fa520c8d591d213ULL, 393);

  std::vector<double> dense;
  for (int i = 0; i < 1000; ++i) dense.push_back(i + 0.125);
  ExpectPinned(dense, {{kValues, kRaw}}, 0x227293aa380f550bULL, 8036);
}

TEST(ColumnarPinned, RecordsFallback) {
  std::vector<std::string> strings;
  for (int i = 0; i < 200; ++i) {
    strings.push_back(std::string(i % 13, static_cast<char>('a' + i % 26)));
  }
  ExpectPinned(strings, {{kRecords, kRaw}}, 0x09a771df4050c6c8ULL, 2016);

  std::vector<std::pair<uint64_t, std::string>> keyed;
  for (int i = 0; i < 200; ++i) {
    keyed.emplace_back(10 * i, std::to_string(i * i));
  }
  ExpectPinned(keyed, {{kKeys, kVarint}, {kRecords, kRaw}},
               0xb1c7ebb83a019bb7ULL, 1906);
}

/// pair<uint64_t, double> records whose value i is present when
/// `present(i)`; present values are distinct nonzero bit patterns.
template <typename Present>
std::vector<std::pair<uint64_t, double>> Masked(size_t n,
                                                const Present& present) {
  std::vector<std::pair<uint64_t, double>> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    records.emplace_back(i * 3,
                         present(i) ? 1.0 + static_cast<double>(i) : 0.0);
  }
  return records;
}

template <typename T>
void ExpectRoundTrip(const std::vector<T>& records,
                     bool want_zero_suppressed) {
  const EncodedFrame frame = EncodePartitionFrame(records);
  const auto layout = Layout(frame.bytes);
  bool zero_suppressed = false;
  for (const auto& [kind, encoding] : layout) {
    zero_suppressed = zero_suppressed || kind == kPresence;
  }
  EXPECT_EQ(zero_suppressed, want_zero_suppressed);
  auto decoded =
      DecodePartitionFrame<T>(frame.bytes.data(), frame.bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(std::memcmp(&(*decoded)[i], &records[i], sizeof(T)), 0)
        << "record " << i << " of " << records.size();
  }
}

TEST(ColumnarBulkDecode, MaskTailsAtEveryWordResidue) {
  for (const size_t base : {0u, 64u, 640u}) {
    for (const size_t tail : {1u, 7u, 63u}) {
      const size_t n = base + tail;
      SCOPED_TRACE("n=" + std::to_string(n));
      // The last record is present, so the partial final word carries a
      // set bit.
      const auto present = [n](size_t i) {
        return i % 11 == 0 || i + 1 == n;
      };
      size_t nonzero = 0;
      for (size_t i = 0; i < n; ++i) nonzero += present(i) ? 1 : 0;
      // The encoder's rule: mask plus survivors must beat the raw slab.
      const bool zs = (n + 7) / 8 + nonzero * sizeof(double) <
                      n * sizeof(double);
      ExpectRoundTrip(Masked(n, present), zs);
      std::vector<double> scalars(n, 0.0);
      for (size_t i = 0; i < n; ++i) {
        if (present(i)) scalars[i] = -2.0 * static_cast<double>(i + 1);
      }
      ExpectRoundTrip(scalars, zs);
    }
  }
}

TEST(ColumnarBulkDecode, AllPresentAndAllAbsentWords) {
  // Words 0 and 2 fully present, word 1 and 3 fully absent, word 4
  // mixed: the run fast paths and the per-bit path in one column.
  const auto present = [](size_t i) {
    const size_t word = i / 64;
    return word == 0 || word == 2 || (word == 4 && i % 3 == 0);
  };
  ExpectRoundTrip(Masked(64 * 5 + 10, present), true);
  std::vector<double> scalars(64 * 5 + 10, 0.0);
  for (size_t i = 0; i < scalars.size(); ++i) {
    if (present(i)) scalars[i] = static_cast<double>(i) + 0.5;
  }
  ExpectRoundTrip(scalars, true);
  // Every value absent: the values section is empty.
  ExpectRoundTrip(Masked(200, [](size_t) { return false; }), true);
}

TEST(ColumnarBulkDecode, NegativeZeroAndNaNBitsKept) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::pair<uint64_t, double>> records;
  for (size_t i = 0; i < 300; ++i) {
    double v = 0.0;
    if (i % 50 == 1) v = -0.0;
    if (i % 50 == 2) v = nan;
    if (i % 50 == 3) v = -nan;
    records.emplace_back(i, v);
  }
  ExpectRoundTrip(records, true);
}

TEST(ColumnarBulkDecode, TrailingZeroSuppressedBytesRejected) {
  const auto records = Masked(130, [](size_t i) { return i % 20 == 0; });
  const EncodedFrame frame = EncodePartitionFrame(records);
  auto view = FrameView::Parse(frame.bytes.data(), frame.bytes.size());
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->num_sections(), 3);
  ASSERT_EQ(view->section(2).kind, kValues);
  // Grow the values section by one element: 8 more bytes at the end of
  // the frame, the table entry and the hash patched to match, so only
  // the presence/values agreement is wrong.
  std::string bad = frame.bytes;
  bad.append(sizeof(double), '\x01');
  const size_t entry = kFrameHeaderBytes + 2 * kSectionDescBytes + 8;
  uint64_t section_bytes = 0;
  std::memcpy(&section_bytes, bad.data() + entry, sizeof(section_bytes));
  section_bytes += sizeof(double);
  std::memcpy(bad.data() + entry, &section_bytes, sizeof(section_bytes));
  const uint64_t hash = ComputeFrameHash(bad.data(), bad.size());
  std::memcpy(bad.data() + 12, &hash, sizeof(hash));
  using T = std::pair<uint64_t, double>;
  auto decoded = DecodePartitionFrame<T>(bad.data(), bad.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("trailing"), std::string::npos)
      << decoded.status().ToString();

  // And one element short: the mask promises more values than exist.
  std::string short_frame = frame.bytes;
  short_frame.resize(short_frame.size() - sizeof(double));
  section_bytes -= 2 * sizeof(double);
  std::memcpy(short_frame.data() + entry, &section_bytes,
              sizeof(section_bytes));
  const uint64_t short_hash =
      ComputeFrameHash(short_frame.data(), short_frame.size());
  std::memcpy(short_frame.data() + 12, &short_hash, sizeof(short_hash));
  decoded = DecodePartitionFrame<T>(short_frame.data(), short_frame.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("truncated"), std::string::npos)
      << decoded.status().ToString();
}

}  // namespace
}  // namespace codec
}  // namespace spangle
