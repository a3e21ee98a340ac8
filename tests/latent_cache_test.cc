// Tests for the LatentCache beyond the LRU basics in model_test: bytes and
// entry-gauge accounting (including the Put-refresh no-drift regression),
// and a ThreadSanitizer stress over concurrent Get/Put/ApproxBytes with key
// skew (tsan-heavy label; the TSan CI job runs exactly this).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "model/latent_cache.h"
#include "obs/metrics.h"

namespace taste::model {
namespace {

/// A cache entry whose tensor payload is `rows * 4` floats.
CachedMetadata MakeEntry(int64_t rows) {
  CachedMetadata v;
  std::vector<float> data(static_cast<size_t>(rows) * 4, 1.0f);
  v.encoding.layer_latents.push_back(
      tensor::Tensor::FromVector({rows, 4}, std::move(data)));
  return v;
}

int64_t EntryPayloadBytes(int64_t rows) {
  return rows * 4 * static_cast<int64_t>(sizeof(float));
}

TEST(LatentCacheTest, PutRefreshDoesNotDriftBytesOrGauge) {
  // Regression: replacing an entry with a different-sized payload must
  // leave ApproxBytes equal to the live payload, and the process-wide
  // taste_cache_bytes gauge must move by exactly the same deltas — no
  // drift after any number of refreshes.
  obs::SetMetricsEnabled(true);
  obs::Gauge* gauge = obs::Registry::Global().GetGauge("taste_cache_bytes");
  obs::Gauge* entries = obs::Registry::Global().GetGauge("taste_cache_entries");
  const double gauge_before = gauge->Value();
  const double entries_before = entries->Value();
  {
    LatentCache cache(/*capacity=*/16);
    const int64_t sizes[] = {3, 11, 1, 7, 7, 2, 19, 5};
    for (int round = 0; round < 50; ++round) {
      const int64_t rows = sizes[round % 8];
      cache.Put("refreshed#0", MakeEntry(rows));
      cache.Put("steady#0", MakeEntry(4));
      EXPECT_EQ(cache.ApproxBytes(),
                EntryPayloadBytes(rows) + EntryPayloadBytes(4))
          << "round " << round;
      EXPECT_EQ(gauge->Value() - gauge_before,
                static_cast<double>(cache.ApproxBytes()))
          << "round " << round;
      EXPECT_EQ(cache.size(), 2u);
      EXPECT_EQ(entries->Value() - entries_before, 2.0);
    }
  }
  // Destruction returns the cache's whole contribution.
  EXPECT_EQ(gauge->Value(), gauge_before);
  EXPECT_EQ(entries->Value(), entries_before);
  obs::SetMetricsEnabled(false);
}

TEST(LatentCacheTest, ConcurrentSkewedStressKeepsStatsConsistent) {
  // 8 threads hammer Get/Put/ApproxBytes with a skewed key distribution
  // (70% of ops on 8 hot keys). Under TSan this is the data race probe for
  // the cache lock; under plain builds it checks the stats invariant: every
  // Get counts exactly one hit or miss, so stats().hits + stats().misses
  // equals the op tally and stats().hits equals the number of Gets that
  // returned a value.
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  constexpr size_t kCapacity = 32;
  LatentCache cache(kCapacity);
  std::atomic<int64_t> total_gets{0};
  std::atomic<int64_t> observed_hits{0};
  std::atomic<int64_t> total_puts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      int64_t gets = 0, hits = 0, puts = 0;
      for (int op = 0; op < kOpsPerThread; ++op) {
        const bool hot = rng.NextU64() % 10 < 7;
        std::string key = hot ? "hot" : "cold";
        key += std::to_string(rng.NextU64() % (hot ? 8 : 256));
        const uint64_t kind = rng.NextU64() % 100;
        if (kind < 55) {
          ++gets;
          if (cache.Get(key)) ++hits;
        } else if (kind < 90) {
          ++puts;
          cache.Put(key, MakeEntry(1 + static_cast<int64_t>(
                                           rng.NextU64() % 4)));
        } else {
          EXPECT_GE(cache.ApproxBytes(), 0);
          EXPECT_LE(cache.size(), kCapacity);
        }
      }
      total_gets += gets;
      observed_hits += hits;
      total_puts += puts;
    });
  }
  for (auto& th : threads) th.join();
  const LatentCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, total_gets.load());
  EXPECT_EQ(stats.hits, observed_hits.load());
  EXPECT_LE(stats.evictions, total_puts.load());
  // Once quiescent, the byte tally is that of the resident entries, each
  // 1-4 rows.
  const int64_t resident = static_cast<int64_t>(cache.size());
  EXPECT_LE(cache.size(), kCapacity);
  EXPECT_GE(cache.ApproxBytes(), resident * EntryPayloadBytes(1));
  EXPECT_LE(cache.ApproxBytes(), resident * EntryPayloadBytes(4));
}

TEST(LatentCacheTest, EvictionRacingPutRefreshKeepsExactBytes) {
  // Regression for the worst-case accounting interleaving: refreshes of a
  // hot key (erase old bytes, insert new bytes) constantly interleave with
  // capacity evictions triggered by cold-key inserts from other threads.
  // Any accounting path that double-subtracts an evicted refresh — or
  // misses the old bytes of a refreshed entry — drifts ApproxBytes and the
  // process-wide gauge; both must land EXACTLY back at baseline.
  obs::SetMetricsEnabled(true);
  obs::Gauge* gauge = obs::Registry::Global().GetGauge("taste_cache_bytes");
  obs::Gauge* entries = obs::Registry::Global().GetGauge("taste_cache_entries");
  const double gauge_before = gauge->Value();
  const double entries_before = entries->Value();
  {
    constexpr int kThreads = 8;
    // Capacity 4: nearly every cold Put evicts.
    LatentCache cache(/*capacity=*/4);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(static_cast<uint64_t>(t) * 31 + 7);
        for (int op = 0; op < 3000; ++op) {
          if (t % 2 == 0) {
            // Refresher: hammer 2 hot keys with varying payload sizes, so
            // the erase-old/insert-new byte deltas differ every round.
            cache.Put("hot" + std::to_string(rng.NextU64() % 2),
                      MakeEntry(1 + static_cast<int64_t>(rng.NextU64() % 9)));
          } else {
            // Evictor: cold keys overflow the 4-entry budget immediately.
            cache.Put("cold" + std::to_string(rng.NextU64() % 64),
                      MakeEntry(1 + static_cast<int64_t>(rng.NextU64() % 3)));
          }
          if (op % 16 == 0) {
            EXPECT_GE(cache.ApproxBytes(), 0) << "negative byte tally";
            (void)cache.Get("hot0");
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    // Quiescent: the tally must equal the gauge delta (same AddBytes calls)
    // and the resident set must be within the budget.
    EXPECT_LE(cache.size(), 4u);
    EXPECT_EQ(gauge->Value() - gauge_before,
              static_cast<double>(cache.ApproxBytes()));
    EXPECT_EQ(entries->Value() - entries_before,
              static_cast<double>(cache.size()));
  }
  // Destruction returns the cache's whole contribution: zero drift after
  // ~24k racing refreshes and evictions.
  EXPECT_EQ(gauge->Value(), gauge_before);
  EXPECT_EQ(entries->Value(), entries_before);
  obs::SetMetricsEnabled(false);
}

}  // namespace
}  // namespace taste::model
