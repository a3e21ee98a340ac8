// The latent cache of the metadata tower (paper Sec. 4.2.2): stores the
// per-layer metadata latent representations computed during P1 so that P2's
// content tower reuses them instead of re-encoding the metadata sequence.
//
// Keyed by table-chunk identity; bounded LRU; thread-safe (P1 and P2
// inference stages may run on different pool threads).
//
// Sharding: the cache is split into N independently-locked shards, each a
// bounded LRU of capacity ceil(capacity / N). Keys route to shards by
// std::hash of the key string, so unrelated table-chunks contend on
// different mutexes and throughput scales with the number of pipeline
// workers. Eviction is per-shard (approximate global LRU), which matches
// how the paper's serving tier shards its cache: an entry can be evicted
// from a hot shard while a colder shard has room, a standard and acceptable
// trade for lock independence.
//
// Aggregate views (`size`, `stats`, `ApproxBytes`) sum over shards.
// `Clear` locks every shard in index order before dropping anything, so a
// concurrent reader never observes a half-cleared cache shard-by-shard
// mid-flight writes serialize behind it — linearizable enough for
// checkpoint restore, which quiesces the pipeline first anyway.
//
// Ownership note: cached tensors may have been allocated under an
// ExecContext with buffer pooling. Each such tensor co-owns the context's
// BufferPool (see tensor/exec_context.h), so parking latents here keeps
// that pool alive — and returns the buffers to it on eviction — even after
// the producing context is gone. No special handling is needed here.

#ifndef TASTE_MODEL_LATENT_CACHE_H_
#define TASTE_MODEL_LATENT_CACHE_H_

#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/adtd.h"
#include "obs/metrics.h"

namespace taste::model {

/// One cached unit: the encoded metadata input (needed to rebuild masks and
/// gather features in P2) plus everything the metadata tower produced.
struct CachedMetadata {
  EncodedMetadata input;
  AdtdModel::MetadataEncoding encoding;
};

/// Bounded LRU cache of metadata-tower latents, sharded by key hash.
class LatentCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
  };

  /// `capacity` is the total entry budget across all shards; each shard
  /// holds ceil(capacity / shards), min 1. `shards` must be >= 1.
  explicit LatentCache(size_t capacity = 4096, int shards = 1);
  ~LatentCache();

  /// Inserts (or refreshes) an entry. Tensors are shared, not copied.
  void Put(const std::string& key, CachedMetadata value);

  /// Returns the entry and marks it most-recently-used, or nullopt.
  std::optional<CachedMetadata> Get(const std::string& key);

  /// Removes everything. Locks all shards before dropping any entry.
  void Clear();

  size_t size() const;
  Stats stats() const;
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Approximate bytes of tensor payload currently cached (data buffers of
  /// all layer latents, anchor states, and logits; excludes map/list
  /// overhead). Tracked incrementally on Put/eviction, so this is O(1) in
  /// the number of entries (O(shards) to sum).
  /// For capacity planning and the substrate bench report.
  int64_t ApproxBytes() const;

 private:
  // One independently-locked LRU. Entries never migrate between shards, so
  // a shard's mutex guards all of its state.
  struct Shard {
    mutable std::mutex mu;
    // LRU list: front = most recent. Map values point into the list.
    std::list<std::pair<std::string, CachedMetadata>> lru;
    std::unordered_map<std::string, decltype(lru)::iterator> index;
    Stats stats;
    int64_t approx_bytes = 0;
    // Per-shard hit/miss handles (taste_cache_shard_*_total{shard="i"}),
    // resolved once at construction; registry lookups take a mutex.
    obs::Counter* hits_counter = nullptr;
    obs::Counter* misses_counter = nullptr;
  };

  size_t ShardIndexFor(const std::string& key) const;

  /// Payload bytes of one entry (same accounting as ApproxBytes).
  static int64_t EntryBytes(const CachedMetadata& value);
  /// Adds `delta` to the shard's byte tally and mirrors it into the
  /// taste_cache_bytes gauge. Caller holds the shard's mutex.
  static void AddBytes(Shard& shard, int64_t delta);
  /// Mirrors an entry-count change into the taste_cache_entries gauge.
  static void AddEntries(double delta);

  size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace taste::model

#endif  // TASTE_MODEL_LATENT_CACHE_H_
