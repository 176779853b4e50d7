// Package shardutil holds the shard-count and key-hash helpers shared by
// the sharded LRU caches (the result cache and the parsing cache), so both
// caches stay tuned identically.
package shardutil

// MaxShards caps the shard count (power of two for mask indexing).
// MinEntriesPerShard keeps small caches on a single shard, where eviction
// is exact global LRU; sharding (with per-shard LRU) only kicks in for
// caches large enough that lock contention outweighs slightly approximate
// recency.
const (
	MaxShards          = 16
	MinEntriesPerShard = 64
)

// Count picks a power-of-two shard count for a capacity.
func Count(maxEntries int) int {
	n := 1
	for n < MaxShards && (n<<1)*MinEntriesPerShard <= maxEntries {
		n <<= 1
	}
	return n
}

// Hash is FNV-1a over the key, used for shard selection. A key held in a
// byte buffer hashes without being converted to a string.
func Hash[K ~string | ~[]byte](s K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
