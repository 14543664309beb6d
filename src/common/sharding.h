// Stable view-name sharding: a given pool must land on the same shards on
// every platform, compiler and release (per-shard state, SHOW SHARD STATS
// and the shard benches depend on it). FNV-1a over the raw bytes gives that
// stability; std::hash does not.

#ifndef EVE_COMMON_SHARDING_H_
#define EVE_COMMON_SHARDING_H_

#include <cstdint>
#include <string_view>

namespace eve {

// 64-bit FNV-1a. Deterministic across platforms; never reorder or reseed.
constexpr uint64_t StableHash64(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV offset basis
  for (const char c : bytes) {
    hash ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    hash *= 0x100000001b3ull;  // FNV prime
  }
  return hash;
}

// The shard owning `view_name` among `shard_count` shards.
constexpr size_t ShardOf(std::string_view view_name, size_t shard_count) {
  return shard_count <= 1
             ? 0
             : static_cast<size_t>(StableHash64(view_name) % shard_count);
}

}  // namespace eve

#endif  // EVE_COMMON_SHARDING_H_
