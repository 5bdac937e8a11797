// The record-order contract of every grouping: a reduce partition lists
// its keys in the order they first appear when its buckets are read from
// map partition 0 to n-1, each in record order; a narrow grouping lists
// them in the order they first appear in its input (for CoGroup the left
// side, then the right). Shared by the LOCAL suite (pair_rdd_test) and
// the DISTRIBUTED one (distributed_mode_test).

#ifndef SPANGLE_TESTS_ENGINE_FIRST_SEEN_ORDER_H_
#define SPANGLE_TESTS_ENGINE_FIRST_SEEN_ORDER_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "array/array_rdd.h"
#include "engine/engine.h"

namespace spangle::order_contract {

/// Every partition of `rdd`, in partition order.
template <typename T>
std::vector<std::vector<T>> PartitionsOf(const Rdd<T>& rdd) {
  using Tagged = std::pair<int, T>;
  std::vector<std::vector<T>> out(static_cast<size_t>(rdd.num_partitions()));
  const auto tagged = rdd.template MapPartitionsWithIndex<Tagged>(
                             [](int p, const std::vector<T>& in) {
                               std::vector<Tagged> recs;
                               for (const T& r : in) recs.emplace_back(p, r);
                               return recs;
                             },
                             "tag")
                          .Collect();
  for (const auto& [p, rec] : tagged) {
    out[static_cast<size_t>(p)].push_back(rec);
  }
  return out;
}

/// The keys of `parts` that `p` places on partition `r`, in the order
/// they first appear reading the partitions in order, each in record
/// order. Keys already in `seen` are skipped.
template <typename K, typename V>
std::vector<K> FirstSeenKeys(
    const std::vector<std::vector<std::pair<K, V>>>& parts,
    const Partitioner<K>& p, int r, std::vector<K> seen = {}) {
  std::vector<K> keys;
  for (const auto& part : parts) {
    for (const auto& [k, v] : part) {
      if (p.PartitionFor(k) != r) continue;
      if (std::find(seen.begin(), seen.end(), k) != seen.end()) continue;
      seen.push_back(k);
      keys.push_back(k);
    }
  }
  return keys;
}

/// Every value of `key` in `parts`, in partition then record order.
template <typename K, typename V>
std::vector<V> ValuesOf(const std::vector<std::vector<std::pair<K, V>>>& parts,
                        const K& key) {
  std::vector<V> values;
  for (const auto& part : parts) {
    for (const auto& [k, v] : part) {
      if (k == key) values.push_back(v);
    }
  }
  return values;
}

template <typename K, typename V>
std::vector<K> KeysOf(const std::vector<std::pair<K, V>>& part) {
  std::vector<K> keys;
  for (const auto& [k, v] : part) keys.push_back(k);
  return keys;
}

/// Descending keys with repeats, spread over several map partitions and
/// hash buckets: libstdc++'s unordered_map iterates such keys in an order
/// unlike the order they were inserted in.
inline std::vector<std::pair<uint64_t, int>> DescendingPairs(int n,
                                                             uint64_t top,
                                                             uint64_t step) {
  std::vector<std::pair<uint64_t, int>> out;
  for (int i = 0; i < n; ++i) {
    out.emplace_back(top - (static_cast<uint64_t>(i) * step) % (top + 1), i);
  }
  return out;
}

/// Checks ReduceByKey, GroupByKey, CoGroup and GroupIntoChunks on `ctx`.
inline void ExpectFirstSeenOrder(Context* ctx) {
  auto input = ToPair<uint64_t, int>(
      ctx->Parallelize(DescendingPairs(120, 47, 5), 4));
  const auto in_parts = PartitionsOf(input.AsRdd());
  auto p = std::make_shared<HashPartitioner<uint64_t>>(3);

  // ReduceByKey: keys in first-seen order, values combined in that order
  // (string concatenation does not commute).
  auto as_text = input.MapValues([](const int& v) {
    return std::to_string(v) + ",";
  });
  const auto text_parts = PartitionsOf(as_text.AsRdd());
  const auto reduced = PartitionsOf(
      as_text
          .ReduceByKey(
              [](const std::string& a, const std::string& b) { return a + b; },
              p)
          .AsRdd());
  // GroupByKey: the same key order, each key's values in record order.
  const auto grouped = PartitionsOf(input.GroupByKey(p).AsRdd());
  for (int r = 0; r < 3; ++r) {
    SCOPED_TRACE("reduce partition " + std::to_string(r));
    const std::vector<uint64_t> want = FirstSeenKeys(in_parts, *p, r);
    EXPECT_EQ(KeysOf(reduced[r]), want);
    EXPECT_EQ(KeysOf(grouped[r]), want);
    for (const auto& [k, text] : reduced[r]) {
      std::string concat;
      for (const std::string& s : ValuesOf(text_parts, k)) concat += s;
      EXPECT_EQ(text, concat) << "key " << k;
    }
    for (const auto& [k, values] : grouped[r]) {
      EXPECT_EQ(values, ValuesOf(in_parts, k)) << "key " << k;
    }
  }

  // CoGroup: the left side's keys first, then the right side's new ones.
  auto right = ToPair<uint64_t, int>(
      ctx->Parallelize(DescendingPairs(60, 59, 7), 2));
  const auto right_parts = PartitionsOf(right.AsRdd());
  auto cogrouped = input.CoGroup(right);
  const auto co_parts = PartitionsOf(cogrouped.AsRdd());
  for (int r = 0; r < cogrouped.num_partitions(); ++r) {
    SCOPED_TRACE("cogroup partition " + std::to_string(r));
    const Partitioner<uint64_t>& cp = *cogrouped.partitioner();
    std::vector<uint64_t> want = FirstSeenKeys(in_parts, cp, r);
    const std::vector<uint64_t> right_only =
        FirstSeenKeys(right_parts, cp, r, want);
    want.insert(want.end(), right_only.begin(), right_only.end());
    EXPECT_EQ(KeysOf(co_parts[r]), want);
    for (const auto& [k, sides] : co_parts[r]) {
      EXPECT_EQ(sides.first, ValuesOf(in_parts, k)) << "key " << k;
      EXPECT_EQ(sides.second, ValuesOf(right_parts, k)) << "key " << k;
    }
  }

  // GroupIntoChunks: chunks in the order their first run arrives, built
  // from their runs in arrival order (a later cell wins an offset).
  std::vector<std::pair<ChunkId, CellRun>> runs;
  for (const auto& [id, i] : DescendingPairs(90, 29, 7)) {
    runs.emplace_back(id, CellRun{{static_cast<uint32_t>(i % 40), i * 0.5}});
  }
  auto runs_rdd = ctx->Parallelize(runs, 3);
  const auto run_parts = PartitionsOf(runs_rdd);
  auto cp = std::make_shared<HashPartitioner<ChunkId>>(2);
  const auto chunks = PartitionsOf(
      GroupIntoChunks(runs_rdd, 64, ModePolicy::Auto(), cp).AsRdd());
  for (int r = 0; r < 2; ++r) {
    SCOPED_TRACE("chunk partition " + std::to_string(r));
    EXPECT_EQ(KeysOf(chunks[r]), FirstSeenKeys(run_parts, *cp, r));
    for (const auto& [id, chunk] : chunks[r]) {
      std::map<uint32_t, double> want;
      for (const CellRun& run : ValuesOf(run_parts, id)) {
        for (const auto& [off, v] : run) want[off] = v;
      }
      std::map<uint32_t, double> got;
      chunk.ForEachValid([&](uint32_t off, double v) { got[off] = v; });
      EXPECT_EQ(got, want) << "chunk " << id;
    }
  }
}

}  // namespace spangle::order_contract

#endif  // SPANGLE_TESTS_ENGINE_FIRST_SEEN_ORDER_H_
