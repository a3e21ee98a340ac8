// The latent cache of the metadata tower (paper Sec. 4.2.2): stores the
// per-layer metadata latent representations computed during P1 so that P2's
// content tower reuses them instead of re-encoding the metadata sequence.
//
// Keyed by table-chunk identity; one bounded LRU behind one mutex, so it is
// thread-safe (P1 and P2 inference stages may run on different pool
// threads). A lookup holds the lock for a hash probe and a list splice; a
// forward takes milliseconds, so the lock is not contended at the worker
// counts the pipeline runs.
//
// Ownership note: cached tensors may have been allocated under an
// ExecContext with buffer pooling. Each such tensor co-owns the context's
// BufferPool (see tensor/exec_context.h), so parking latents here keeps
// that pool alive — and returns the buffers to it on eviction — even after
// the producing context is gone. No special handling is needed here.

#ifndef TASTE_MODEL_LATENT_CACHE_H_
#define TASTE_MODEL_LATENT_CACHE_H_

#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "model/adtd.h"

namespace taste::model {

/// One cached unit: the encoded metadata input (needed to rebuild masks and
/// gather features in P2) plus everything the metadata tower produced.
struct CachedMetadata {
  EncodedMetadata input;
  AdtdModel::MetadataEncoding encoding;
};

/// Bounded LRU cache of metadata-tower latents.
class LatentCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
  };

  /// `capacity` is the entry budget; must be > 0.
  explicit LatentCache(size_t capacity = 4096);
  ~LatentCache();

  /// Inserts (or refreshes) an entry. Tensors are shared, not copied.
  void Put(const std::string& key, CachedMetadata value);

  /// Returns the entry and marks it most-recently-used, or nullopt.
  std::optional<CachedMetadata> Get(const std::string& key);

  size_t size() const;
  Stats stats() const;

  /// Approximate bytes of tensor payload currently cached (data buffers of
  /// all layer latents, anchor states, and logits; excludes map/list
  /// overhead). Tracked incrementally on Put/eviction, so this is O(1).
  /// For capacity planning and the substrate bench report.
  int64_t ApproxBytes() const;

 private:
  /// Payload bytes of one entry (same accounting as ApproxBytes).
  static int64_t EntryBytes(const CachedMetadata& value);
  /// Adds `delta` to the byte tally and mirrors it into the
  /// taste_cache_bytes gauge. Caller holds mu_.
  void AddBytes(int64_t delta);
  /// Mirrors an entry-count change into the taste_cache_entries gauge.
  static void AddEntries(double delta);

  const size_t capacity_;
  mutable std::mutex mu_;
  // LRU list: front = most recent. Map values point into the list.
  std::list<std::pair<std::string, CachedMetadata>> lru_;
  std::unordered_map<std::string, decltype(lru_)::iterator> index_;
  Stats stats_;
  int64_t approx_bytes_ = 0;
};

}  // namespace taste::model

#endif  // TASTE_MODEL_LATENT_CACHE_H_
