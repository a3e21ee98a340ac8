// Tests for the inference ExecContext: BufferPool recycling semantics,
// thread-local binding rules, structural no-grad enforcement, profiling
// hooks, and the acceptance-level guarantee that arena-backed (pooled)
// forwards are bit-identical to heap-backed ones.

#include "tensor/exec_context.h"

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "clouddb/database.h"
#include "data/table_generator.h"
#include "model/adtd.h"
#include "model/input_encoding.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace taste::tensor {
namespace {

// ---- BufferPool -------------------------------------------------------------

TEST(BufferPoolTest, ReusesExactSizeAndZeroFills) {
  BufferPool pool;
  std::vector<float> buf = pool.Acquire(16);
  ASSERT_EQ(buf.size(), 16u);
  for (float v : buf) EXPECT_EQ(v, 0.0f);
  float* first_data = buf.data();
  for (auto& v : buf) v = 7.0f;  // dirty it
  pool.Release(std::move(buf));

  std::vector<float> again = pool.Acquire(16);
  ASSERT_EQ(again.size(), 16u);
  EXPECT_EQ(again.data(), first_data);  // same storage came back
  for (float v : again) EXPECT_EQ(v, 0.0f);  // ... but scrubbed

  BufferPool::Stats st = pool.stats();
  EXPECT_EQ(st.acquires, 2);
  EXPECT_EQ(st.reuses, 1);
  EXPECT_EQ(st.releases, 1);
}

TEST(BufferPoolTest, DifferentSizesDoNotAlias) {
  BufferPool pool;
  pool.Release(pool.Acquire(8));
  std::vector<float> other = pool.Acquire(9);
  EXPECT_EQ(other.size(), 9u);
  EXPECT_EQ(pool.stats().reuses, 0);
}

TEST(BufferPoolTest, ByteCapDropsReleases) {
  BufferPool pool(/*max_bytes=*/16);  // room for 4 floats
  std::vector<float> one = pool.Acquire(4);
  std::vector<float> two = pool.Acquire(4);
  pool.Release(std::move(one));  // fits exactly
  pool.Release(std::move(two));  // past the cap: dropped, not counted
  BufferPool::Stats st = pool.stats();
  EXPECT_EQ(st.releases, 1);
  EXPECT_EQ(st.bytes_pooled, 16);
}

TEST(BufferPoolTest, ConcurrentAcquireReleaseIsSafe) {
  // The cross-thread contract behind cached latents: tensors created on an
  // infer worker can drop their buffers from any thread. Run under
  // TASTE_SANITIZE=thread this is the pool's race check.
  BufferPool pool;
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&pool] {
      for (int i = 0; i < 200; ++i) pool.Release(pool.Acquire(64));
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(pool.stats().acquires, 1600);
}

// ---- binding ----------------------------------------------------------------

TEST(ExecContextTest, ScopedBindingNestsAndNullIsNoOp) {
  EXPECT_EQ(ExecContext::Current(), nullptr);
  ExecContext outer;
  {
    ScopedExecContext bind_outer(&outer);
    EXPECT_EQ(ExecContext::Current(), &outer);
    {
      // Null binding must NOT clobber the outer binding: every Forward(...,
      // ctx = nullptr) in the nn/model layers relies on this.
      ScopedExecContext noop(nullptr);
      EXPECT_EQ(ExecContext::Current(), &outer);
    }
    EXPECT_EQ(ExecContext::Current(), &outer);
    ExecContext inner;
    {
      ScopedExecContext bind_inner(&inner);
      EXPECT_EQ(ExecContext::Current(), &inner);
    }
    EXPECT_EQ(ExecContext::Current(), &outer);
  }
  EXPECT_EQ(ExecContext::Current(), nullptr);
}

// ---- structural no-grad -----------------------------------------------------

TEST(ExecContextTest, NoGradContextSuppressesTape) {
  Rng rng(3);
  Tensor a = Tensor::Randn({4, 6}, rng, 1.0f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({6, 5}, rng, 1.0f, /*requires_grad=*/true);

  ExecContext::Options opt;
  opt.no_grad = true;
  ExecContext ctx(opt);
  const int64_t edges_before = GradEdgesRecorded();
  {
    ScopedExecContext bind(&ctx);
    EXPECT_FALSE(GradEnabled());  // even without a NoGradGuard
    Tensor y = MatMul(a, b);
    EXPECT_FALSE(y.requires_grad());
  }
  EXPECT_EQ(GradEdgesRecorded(), edges_before);
  // Outside the context the tape works again.
  EXPECT_TRUE(GradEnabled());
  Tensor y = MatMul(a, b);
  EXPECT_TRUE(y.requires_grad());
  EXPECT_GT(GradEdgesRecorded(), edges_before);
}

// ---- pooled tensors ---------------------------------------------------------

TEST(ExecContextTest, PooledTensorMayOutliveContext) {
  std::shared_ptr<BufferPool> pool;
  Tensor survivor;
  {
    ExecContext ctx;
    pool = ctx.buffer_pool();
    ASSERT_NE(pool, nullptr);
    Rng rng(5);
    Tensor a = Tensor::Randn({3, 3}, rng);
    Tensor b = Tensor::Randn({3, 3}, rng);
    ScopedExecContext bind(&ctx);
    survivor = Add(a, b);  // op output draws from the context's pool
    EXPECT_GT(pool->stats().acquires, 0);
  }
  // Context is gone; the tensor (co-owning the pool) is still valid.
  EXPECT_EQ(survivor.numel(), 9);
  const int64_t releases_before = pool->stats().releases;
  survivor = Tensor();  // dropping the last reference returns the buffer
  EXPECT_EQ(pool->stats().releases, releases_before + 1);
}

TEST(ExecContextTest, SecondForwardReusesActivationBuffers) {
  Rng rng(6);
  Tensor a = Tensor::Randn({8, 16}, rng);
  Tensor b = Tensor::Randn({16, 8}, rng);
  ExecContext ctx;
  {
    ScopedExecContext bind(&ctx);
    { Tensor y = Gelu(MatMul(a, b)); }  // buffers go back to the pool here
    BufferPool::Stats first = ctx.stats().pool;
    EXPECT_EQ(first.reuses, 0);
    { Tensor y = Gelu(MatMul(a, b)); }
    BufferPool::Stats second = ctx.stats().pool;
    EXPECT_EQ(second.reuses, first.acquires);  // every buffer recycled
  }
}

// ---- profiling --------------------------------------------------------------

TEST(ExecContextTest, ProfilingCountsKernelCalls) {
  Rng rng(7);
  Tensor a = Tensor::Randn({4, 8}, rng);
  Tensor b = Tensor::Randn({8, 4}, rng);
  ExecContext::Options opt;
  opt.profile = true;
  ExecContext ctx(opt);
  {
    ScopedExecContext bind(&ctx);
    Tensor y = Softmax(MatMul(a, b));
    Tensor g = Gelu(y);
  }
  ExecStats st = ctx.stats();
  EXPECT_EQ(st.gemm.calls, 1);
  EXPECT_EQ(st.softmax.calls, 1);
  EXPECT_EQ(st.gelu.calls, 1);
  EXPECT_GE(st.gemm.ms, 0.0);
  ctx.ResetStats();
  EXPECT_EQ(ctx.stats().gemm.calls, 0);
}

TEST(ExecContextTest, ProfilingOffRecordsNothing) {
  Rng rng(8);
  Tensor a = Tensor::Randn({4, 8}, rng);
  Tensor b = Tensor::Randn({8, 4}, rng);
  ExecContext ctx;  // default: profile = false
  {
    ScopedExecContext bind(&ctx);
    Tensor y = MatMul(a, b);
  }
  EXPECT_EQ(ctx.stats().gemm.calls, 0);
}

// ---- ExecContextPool --------------------------------------------------------

TEST(ExecContextPoolTest, ReturnedContextServesTheNextEqualLease) {
  ExecContextPool pool;
  ExecContext::Options serving;
  serving.no_grad = true;
  ExecContext* first = nullptr;
  {
    ExecContextPool::Lease lease = pool.Acquire(serving);
    first = lease.get();
    EXPECT_EQ(pool.leased(), 1u);
  }
  EXPECT_EQ(pool.leased(), 0u);
  {
    ExecContextPool::Lease again = pool.Acquire(serving);
    EXPECT_EQ(again.get(), first);
    // Different options never share a context.
    ExecContextPool::Lease profiled = pool.Acquire({.profile = true});
    EXPECT_NE(profiled.get(), first);
    EXPECT_TRUE(profiled->profiling());
  }
  EXPECT_EQ(pool.size(), 2u);
}

TEST(ExecContextPoolTest, ConcurrentLeasesGetDistinctContexts) {
  ExecContextPool pool;
  ExecContextPool::Lease a = pool.Acquire({});
  ExecContextPool::Lease b = pool.Acquire({});
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(pool.leased(), 2u);

  // Stress: no context is ever held by two threads at once.
  std::mutex mu;
  std::set<ExecContext*> held;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        ExecContextPool::Lease lease = pool.Acquire({});
        {
          std::lock_guard<std::mutex> lock(mu);
          EXPECT_TRUE(held.insert(lease.get()).second);
        }
        Tensor t = Tensor::Zeros({4});
        {
          ScopedExecContext bind(lease.get());
          t = AddScalar(t, 1.0f);
        }
        std::lock_guard<std::mutex> lock(mu);
        held.erase(lease.get());
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(pool.leased(), 2u);  // a and b
  EXPECT_LE(pool.size(), 6u);
}

TEST(ExecContextPoolTest, ReturnResetsStatsAndKeepsTheBuffers) {
  ExecContextPool pool;
  Rng rng(12);
  Tensor a = Tensor::Randn({4, 8}, rng);
  Tensor b = Tensor::Randn({8, 4}, rng);
  const ExecContext::Options opt{.profile = true};
  {
    ExecContextPool::Lease lease = pool.Acquire(opt);
    ScopedExecContext bind(lease.get());
    Tensor y = MatMul(a, b);
  }
  ExecContextPool::Lease lease = pool.Acquire(opt);
  ExecStats st = lease->stats();
  EXPECT_EQ(st.gemm.calls, 0);
  EXPECT_EQ(st.pool.acquires, 0);
  {
    ScopedExecContext bind(lease.get());
    Tensor y = MatMul(a, b);
  }
  st = lease->stats();
  EXPECT_EQ(st.gemm.calls, 1);
  EXPECT_EQ(st.pool.acquires, 1);
  EXPECT_EQ(st.pool.reuses, 1);  // the first lease's output buffer
}

// ---- arena vs heap parity on the real model ---------------------------------

TEST(ExecContextTest, ArenaBackedAdtdForwardIsBitIdenticalToHeap) {
  data::DatasetProfile profile = data::DatasetProfile::WikiLike(/*tables=*/4);
  data::Dataset ds = data::GenerateDataset(profile);
  text::WordPieceTrainer trainer({.vocab_size = 400, .min_pair_frequency = 2});
  for (const auto& doc : data::BuildCorpusDocuments(ds)) {
    trainer.AddDocument(doc);
  }
  text::WordPieceTokenizer tok(trainer.Train());

  clouddb::CostModel cost;
  cost.time_scale = 0.0;
  clouddb::SimulatedDatabase db(cost);
  ASSERT_TRUE(db.IngestDataset(ds, /*with_histograms=*/true).ok());
  auto conn = db.Connect();
  auto meta = conn->GetTableMetadata(ds.tables[0].name);
  ASSERT_TRUE(meta.ok());

  model::AdtdConfig cfg = model::AdtdConfig::Tiny(
      tok.vocab().size(), data::SemanticTypeRegistry::Default().size());
  Rng rng(99);
  model::AdtdModel model(cfg, rng);
  model::InputEncoder encoder(&tok, cfg.input);
  model::EncodedMetadata em = encoder.EncodeMetadata(*meta);

  NoGradGuard ng;
  model::AdtdModel::MetadataEncoding heap = model.ForwardMetadata(em);

  ExecContext::Options opt;
  opt.no_grad = true;
  ExecContext ctx(opt);
  model::AdtdModel::MetadataEncoding pooled = model.ForwardMetadata(em, &ctx);
  // Run again so the second pass consumes recycled (previously dirty,
  // re-zeroed) buffers — the case that would expose a scrubbing bug.
  model::AdtdModel::MetadataEncoding recycled = model.ForwardMetadata(em, &ctx);
  EXPECT_GT(ctx.stats().pool.reuses, 0);

  ASSERT_EQ(heap.logits.numel(), pooled.logits.numel());
  for (int64_t i = 0; i < heap.logits.numel(); ++i) {
    ASSERT_EQ(heap.logits.data()[i], pooled.logits.data()[i]) << "at " << i;
    ASSERT_EQ(heap.logits.data()[i], recycled.logits.data()[i]) << "at " << i;
  }
  ASSERT_EQ(heap.anchor_states.numel(), pooled.anchor_states.numel());
  for (int64_t i = 0; i < heap.anchor_states.numel(); ++i) {
    ASSERT_EQ(heap.anchor_states.data()[i], pooled.anchor_states.data()[i]);
  }
}

}  // namespace
}  // namespace taste::tensor
