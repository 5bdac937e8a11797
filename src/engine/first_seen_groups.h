#ifndef SPANGLE_ENGINE_FIRST_SEEN_GROUPS_H_
#define SPANGLE_ENGINE_FIRST_SEEN_GROUPS_H_

#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

namespace spangle::internal {

/// The one grouping primitive: one group per key, kept in the order the
/// keys were first seen. Groups sit in a dense vector and the hash map
/// only indexes it, so no bucket layout ever decides an output order.
/// Every shuffle reduce, narrow grouping and chunk build groups through
/// it, which makes their record order the same under LOCAL and
/// DISTRIBUTED and for any standard library.
template <typename K, typename G>
class FirstSeenGroups {
 public:
  /// The slot of `key`'s group; a new key gets a value-initialized group
  /// in the next slot.
  size_t Slot(const K& key) {
    const auto [it, fresh] = index_.try_emplace(key, groups_.size());
    if (fresh) groups_.emplace_back(key, G());
    return it->second;
  }

  /// The group of `key`, made empty on first sight.
  G& operator[](const K& key) { return groups_[Slot(key)].second; }

  /// A new key's group becomes `value`; a seen key's becomes
  /// merge(group, value).
  template <typename Value, typename Merge>
  void Fold(const K& key, Value&& value, const Merge& merge) {
    const auto [it, fresh] = index_.try_emplace(key, groups_.size());
    if (fresh) {
      groups_.emplace_back(key, std::forward<Value>(value));
    } else {
      G& group = groups_[it->second].second;
      group = merge(group, value);
    }
  }

  bool empty() const { return groups_.empty(); }
  const K& key(size_t slot) const { return groups_[slot].first; }
  G& group(size_t slot) { return groups_[slot].second; }

  /// Every (key, group) in first-seen order; leaves this empty.
  std::vector<std::pair<K, G>> Take() {
    index_.clear();
    return std::exchange(groups_, {});
  }

 private:
  std::unordered_map<K, size_t> index_;
  std::vector<std::pair<K, G>> groups_;
};

}  // namespace spangle::internal

#endif  // SPANGLE_ENGINE_FIRST_SEEN_GROUPS_H_
