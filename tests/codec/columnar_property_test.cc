// Columnar partition codec property suite: random partitions of every
// spillable shape — mixed payload density (1% / 10% / 90%), empty
// bitmasks (all-zero payloads), zero-length payloads, adversarial key
// patterns — must round-trip BIT-exactly through the chunk frame, and
// sparse partitions must encode strictly smaller than the
// record-at-a-time format. Comparisons go through the byte
// representation (memcmp), not operator==, so -0.0, NaN payloads, and
// denormals cannot hide a lossy encoder.

#include "codec/columnar.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "codec/frame_file.h"
#include "codec/record_codec.h"

namespace spangle {
namespace codec {
namespace {

// Bitwise equality: memcmp for trivially-copyable types, memberwise for
// pairs (std::pair is never trivially copyable in libstdc++, and
// memberwise also sidesteps padding bytes), operator== otherwise.
template <typename T>
bool BitEq(const T& a, const T& b) {
  if constexpr (std::is_trivially_copyable_v<T>) {
    return std::memcmp(&a, &b, sizeof(T)) == 0;
  } else {
    return a == b;
  }
}

template <typename A, typename B>
bool BitEq(const std::pair<A, B>& a, const std::pair<A, B>& b) {
  return BitEq(a.first, b.first) && BitEq(a.second, b.second);
}

template <typename T>
void ExpectBitExact(const std::vector<T>& got, const std::vector<T>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(BitEq(got[i], want[i])) << "record " << i << " changed bits";
  }
}

template <typename T>
void RoundTrip(const std::vector<T>& records) {
  const EncodedFrame frame = EncodePartitionFrame(records);
  EXPECT_EQ(frame.content_hash,
            ComputeFrameHash(frame.bytes.data(), frame.bytes.size()));
  auto decoded = DecodePartitionFrame<T>(frame.bytes.data(),
                                         frame.bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectBitExact(*decoded, records);
  // Determinism: identical input must produce identical bytes (the
  // content address is only useful if equal partitions collide on it).
  EXPECT_EQ(EncodePartitionFrame(records).bytes, frame.bytes);
}

/// Random pair<int64_t,double> partition where a value is nonzero with
/// probability `density`.
std::vector<std::pair<int64_t, double>> SparsePairs(size_t n, double density,
                                                    uint32_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(-1e9, 1e9);
  std::bernoulli_distribution present(density);
  std::vector<std::pair<int64_t, double>> records;
  records.reserve(n);
  int64_t key = static_cast<int64_t>(rng() % 1000);
  for (size_t i = 0; i < n; ++i) {
    key += static_cast<int64_t>(rng() % 7);  // mostly-sorted keys
    records.emplace_back(key, present(rng) ? value(rng) : 0.0);
  }
  return records;
}

TEST(ColumnarCodec, SparsePairsRoundTripAtEveryDensity) {
  for (const double density : {0.01, 0.10, 0.90}) {
    for (const uint32_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("density=" + std::to_string(density) +
                   " seed=" + std::to_string(seed));
      RoundTrip(SparsePairs(2000, density, seed));
    }
  }
}

TEST(ColumnarCodec, SparsePartitionsBeatTheLegacyFormat) {
  for (const double density : {0.01, 0.10}) {
    const auto records = SparsePairs(4000, density, 99);
    const EncodedFrame frame = EncodePartitionFrame(records);
    // Record at a time: a uint32 record count, then each record's bytes.
    std::string old_bytes(sizeof(uint32_t), '\0');
    for (const auto& rec : records) Encode(rec, &old_bytes);
    EXPECT_EQ(frame.raw_bytes, old_bytes.size())
        << "raw_bytes must report the record-at-a-time size";
    EXPECT_LT(frame.bytes.size(), old_bytes.size())
        << "a " << density * 100 << "% dense partition must encode "
        << "strictly smaller than record-at-a-time";
  }
}

TEST(ColumnarCodec, EmptyBitmaskAllZeroPayloads) {
  // Every value zero: the presence bitmask is entirely empty and the
  // zero-suppressed slab holds nothing.
  std::vector<std::pair<int64_t, double>> records;
  for (int i = 0; i < 500; ++i) records.emplace_back(i * 3, 0.0);
  RoundTrip(records);
  const EncodedFrame frame = EncodePartitionFrame(records);
  EXPECT_LT(frame.bytes.size(), records.size() * sizeof(records[0]) / 4)
      << "an all-zero payload column should nearly vanish";
}

TEST(ColumnarCodec, NegativeZeroAndDenormalsSurvive) {
  std::vector<std::pair<int64_t, double>> records;
  records.emplace_back(1, -0.0);
  records.emplace_back(2, std::numeric_limits<double>::denorm_min());
  records.emplace_back(3, std::numeric_limits<double>::quiet_NaN());
  records.emplace_back(4, 0.0);
  records.emplace_back(5, -std::numeric_limits<double>::denorm_min());
  RoundTrip(records);
}

TEST(ColumnarCodec, AdversarialKeyPatterns) {
  // Wraparound deltas: min/max alternation, unsigned high bit, descending.
  std::vector<std::pair<int64_t, double>> extremes;
  extremes.emplace_back(std::numeric_limits<int64_t>::min(), 1.0);
  extremes.emplace_back(std::numeric_limits<int64_t>::max(), 2.0);
  extremes.emplace_back(-1, 3.0);
  extremes.emplace_back(0, 4.0);
  extremes.emplace_back(std::numeric_limits<int64_t>::min(), 5.0);
  RoundTrip(extremes);

  std::vector<std::pair<uint64_t, float>> unsigned_keys;
  unsigned_keys.emplace_back(std::numeric_limits<uint64_t>::max(), 1.0f);
  unsigned_keys.emplace_back(0, 2.0f);
  unsigned_keys.emplace_back(1ULL << 63, 3.0f);
  RoundTrip(unsigned_keys);

  std::vector<std::pair<int32_t, double>> descending;
  for (int i = 1000; i > 0; --i) descending.emplace_back(i, i * 0.5);
  RoundTrip(descending);

  // Random keys that defeat delta compression entirely (raw fallback).
  std::mt19937_64 rng(7);
  std::vector<std::pair<int64_t, double>> random_keys;
  for (int i = 0; i < 500; ++i) {
    random_keys.emplace_back(static_cast<int64_t>(rng()), 1.5);
  }
  RoundTrip(random_keys);
}

TEST(ColumnarCodec, EmptyAndSingletonPartitions) {
  RoundTrip(std::vector<std::pair<int64_t, double>>{});
  RoundTrip(std::vector<int>{});
  RoundTrip(std::vector<double>{});
  RoundTrip(std::vector<std::string>{});
  RoundTrip(std::vector<std::pair<int64_t, double>>{{42, 0.25}});
  RoundTrip(std::vector<int>{-1});
}

TEST(ColumnarCodec, IntegralAndScalarColumns) {
  std::vector<int> ints;
  std::mt19937 rng(11);
  for (int i = 0; i < 3000; ++i) {
    ints.push_back(static_cast<int>(rng()) % 1000 - 500);
  }
  RoundTrip(ints);

  std::vector<uint64_t> wide;
  for (int i = 0; i < 100; ++i) wide.push_back(rng());
  RoundTrip(wide);

  std::vector<double> doubles(1000, 0.0);
  doubles[17] = 3.25;
  doubles[943] = -1e300;
  RoundTrip(doubles);
}

TEST(ColumnarCodec, ZeroLengthAndVariablePayloads) {
  // Record-codec fallback shapes: strings and vectors, including
  // zero-length payloads mixed with large ones.
  std::vector<std::string> strings = {"", "a", std::string(10000, 'z'), "",
                                      std::string("\x00\x01\x02", 3)};
  RoundTrip(strings);

  std::vector<std::pair<uint64_t, std::vector<double>>> vec_pairs;
  vec_pairs.emplace_back(0, std::vector<double>{});
  vec_pairs.emplace_back(5, std::vector<double>{1.0, -0.0, 2.5});
  vec_pairs.emplace_back(6, std::vector<double>(1000, 0.0));
  vec_pairs.emplace_back(7, std::vector<double>{});
  RoundTrip(vec_pairs);

  std::vector<std::vector<float>> vecs;
  vecs.emplace_back();
  vecs.emplace_back(std::vector<float>(100, 1.5f));
  vecs.emplace_back();
  RoundTrip(vecs);
}

TEST(ColumnarCodec, RandomizedMixedShapeSweep) {
  std::mt19937_64 rng(20260807);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    const size_t n = rng() % 700;
    const double density =
        std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    RoundTrip(SparsePairs(n, density, static_cast<uint32_t>(rng())));
  }
}

// Truncation/corruption sweep at the typed-decode level: a frame that
// fails validation must come back as a Status from DecodePartitionFrame,
// mirroring the Connection::Recv bad-header tests in the net suite.
TEST(ColumnarCodec, TruncationAndCorruptionSurfaceAsStatus) {
  const auto records = SparsePairs(300, 0.5, 123);
  const EncodedFrame frame = EncodePartitionFrame(records);
  using T = std::pair<int64_t, double>;
  for (size_t cut = 0; cut < frame.bytes.size();
       cut += 1 + cut / 16) {  // dense near the header, sparse later
    auto decoded = DecodePartitionFrame<T>(frame.bytes.data(), cut);
    EXPECT_FALSE(decoded.ok()) << "truncation at " << cut << " decoded";
  }
  for (size_t i = 0; i < frame.bytes.size(); i += 1 + i / 16) {
    std::string bad = frame.bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0xff);
    auto decoded = DecodePartitionFrame<T>(bad.data(), bad.size());
    EXPECT_FALSE(decoded.ok()) << "corruption at " << i << " decoded";
  }
}

TEST(ColumnarCodec, SpillFileRoundTrip) {
  const auto records = SparsePairs(1500, 0.2, 5);
  const std::string path =
      ::testing::TempDir() + "/spangle_codec_frame_file_test.bin";
  const auto written = WritePartitionFile(records, path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_GT(*written, 0u);

  auto buf = ReadWholeFile(path);
  ASSERT_TRUE(buf.ok()) << buf.status().ToString();
  auto decoded = DecodePartitionFrame<std::pair<int64_t, double>>(
      buf->data(), buf->size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectBitExact(*decoded, records);

  const auto reread =
      ReadPartitionFile<std::pair<int64_t, double>>(path);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  ExpectBitExact(*reread, records);
  ::remove(path.c_str());
}

}  // namespace
}  // namespace codec
}  // namespace spangle
