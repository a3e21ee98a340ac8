#include "model/latent_cache.h"

#include "obs/metrics.h"

namespace taste::model {

namespace {

/// Registry handles for the cache's serving metrics, resolved once.
/// Counters aggregate across every LatentCache in the process; the bytes
/// gauge composes through signed Add deltas for the same reason.
struct CacheMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;
  obs::Gauge* bytes;
  obs::Gauge* entries;

  static CacheMetrics& Get() {
    static CacheMetrics m = [] {
      obs::Registry& r = obs::Registry::Global();
      CacheMetrics x;
      x.hits = r.GetCounter("taste_cache_hits_total");
      x.misses = r.GetCounter("taste_cache_misses_total");
      x.evictions = r.GetCounter("taste_cache_evictions_total");
      x.bytes = r.GetGauge("taste_cache_bytes");
      x.entries = r.GetGauge("taste_cache_entries");
      return x;
    }();
    return m;
  }
};

}  // namespace

LatentCache::LatentCache(size_t capacity) : capacity_(capacity) {
  TASTE_CHECK(capacity > 0);
  CacheMetrics::Get();  // register the cache metric families eagerly
}

LatentCache::~LatentCache() {
  // Return this cache's contribution so the process-wide gauges don't
  // accumulate bytes from dead caches.
  std::lock_guard<std::mutex> lock(mu_);
  AddBytes(-approx_bytes_);
  AddEntries(-static_cast<double>(lru_.size()));
}

int64_t LatentCache::EntryBytes(const CachedMetadata& value) {
  int64_t bytes = 0;
  auto add = [&bytes](const tensor::Tensor& t) {
    if (t.defined()) bytes += t.numel() * static_cast<int64_t>(sizeof(float));
  };
  for (const auto& latent : value.encoding.layer_latents) add(latent);
  add(value.encoding.anchor_states);
  add(value.encoding.logits);
  return bytes;
}

void LatentCache::AddBytes(int64_t delta) {
  approx_bytes_ += delta;
  if (obs::MetricsEnabled()) {
    CacheMetrics::Get().bytes->Add(static_cast<double>(delta));
  }
}

void LatentCache::AddEntries(double delta) {
  if (delta != 0.0 && obs::MetricsEnabled()) {
    CacheMetrics::Get().entries->Add(delta);
  }
}

void LatentCache::Put(const std::string& key, CachedMetadata value) {
  const int64_t new_bytes = EntryBytes(value);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    AddBytes(-EntryBytes(it->second->second));
    AddEntries(-1.0);
    lru_.erase(it->second);
    index_.erase(it);
  }
  lru_.emplace_front(key, std::move(value));
  index_[key] = lru_.begin();
  AddBytes(new_bytes);
  AddEntries(1.0);
  while (lru_.size() > capacity_) {
    AddBytes(-EntryBytes(lru_.back().second));
    AddEntries(-1.0);
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
    if (obs::MetricsEnabled()) CacheMetrics::Get().evictions->Inc();
  }
}

std::optional<CachedMetadata> LatentCache::Get(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    if (obs::MetricsEnabled()) CacheMetrics::Get().misses->Inc();
    return std::nullopt;
  }
  ++stats_.hits;
  if (obs::MetricsEnabled()) CacheMetrics::Get().hits->Inc();
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

size_t LatentCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

LatentCache::Stats LatentCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

int64_t LatentCache::ApproxBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return approx_bytes_;
}

}  // namespace taste::model
