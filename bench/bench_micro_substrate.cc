// Google-benchmark microbenchmarks of the substrates: tensor kernels,
// tokenizer throughput, model forward passes (P1, P2 with/without cached
// latents), and database access primitives. Not a paper figure — these
// bound the cost model of the larger benches.
//
// Before the google-benchmark suite runs, main() emits a machine-readable
// BENCH_substrate.json: a GEMM GFLOP/s sweep over the Tiny- and Paper-
// config encoder shapes (naive serial reference vs blocked kernel vs
// blocked + intra-op pool) plus end-to-end Fig. 4-style wall-ms of the
// pipeline executor. This file seeds the perf trajectory across PRs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include <signal.h>

#include "bench_common.h"
#include "clouddb/database.h"
#include "obs/export.h"
#include "core/taste_detector.h"
#include "data/table_generator.h"
#include "model/adtd.h"
#include "nn/transformer.h"
#include "serve/router.h"
#include "tensor/exec_context.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "text/wordpiece.h"

namespace taste {
namespace {

// ---- tensor kernels ---------------------------------------------------------

void BM_MatMul(benchmark::State& state) {
  int64_t n = state.range(0);
  Rng rng(1);
  tensor::Tensor a = tensor::Tensor::Randn({n, n}, rng);
  tensor::Tensor b = tensor::Tensor::Randn({n, n}, rng);
  tensor::NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_Softmax(benchmark::State& state) {
  Rng rng(2);
  tensor::Tensor x = tensor::Tensor::Randn({state.range(0), 128}, rng);
  tensor::NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::Softmax(x));
  }
}
BENCHMARK(BM_Softmax)->Arg(64)->Arg(256);

void BM_LayerNorm(benchmark::State& state) {
  Rng rng(3);
  tensor::Tensor x = tensor::Tensor::Randn({state.range(0), 64}, rng);
  tensor::Tensor g = tensor::Tensor::Full({64}, 1.0f);
  tensor::Tensor b = tensor::Tensor::Zeros({64});
  tensor::NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::LayerNorm(x, g, b));
  }
}
BENCHMARK(BM_LayerNorm)->Arg(64)->Arg(256);

void BM_AutogradBackward(benchmark::State& state) {
  Rng rng(4);
  for (auto _ : state) {
    tensor::Tensor a = tensor::Tensor::Randn({32, 32}, rng, 1.0f, true);
    tensor::Tensor b = tensor::Tensor::Randn({32, 32}, rng, 1.0f, true);
    tensor::Tensor loss = tensor::MeanAll(tensor::Square(tensor::MatMul(a, b)));
    loss.Backward();
    benchmark::DoNotOptimize(a.grad().data());
  }
}
BENCHMARK(BM_AutogradBackward);

// ---- shared fixture for model-level benches ------------------------------------

struct Fixture {
  data::Dataset dataset;
  std::unique_ptr<text::WordPieceTokenizer> tokenizer;
  std::unique_ptr<model::AdtdModel> model;
  std::unique_ptr<clouddb::SimulatedDatabase> db;

  static Fixture& Get() {
    static Fixture* f = [] {
      auto* fx = new Fixture();
      fx->dataset =
          data::GenerateDataset(data::DatasetProfile::WikiLike(40));
      text::WordPieceTrainer trainer({.vocab_size = 600});
      for (const auto& d : data::BuildCorpusDocuments(fx->dataset)) {
        trainer.AddDocument(d);
      }
      fx->tokenizer =
          std::make_unique<text::WordPieceTokenizer>(trainer.Train());
      model::AdtdConfig cfg = model::AdtdConfig::Tiny(
          fx->tokenizer->vocab().size(),
          data::SemanticTypeRegistry::Default().size());
      Rng rng(5);
      fx->model = std::make_unique<model::AdtdModel>(cfg, rng);
      clouddb::CostModel cost;
      cost.time_scale = 0.0;
      fx->db = std::make_unique<clouddb::SimulatedDatabase>(cost);
      TASTE_CHECK(fx->db->IngestDataset(fx->dataset).ok());
      return fx;
    }();
    return *f;
  }
};

void BM_TokenizerEncode(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  std::string text =
      "customer_email_address varchar(255) primary contact email "
      "james.smith@example.com 555-0199 2024-01-01";
  int64_t bytes = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.tokenizer->Encode(text));
    bytes += static_cast<int64_t>(text.size());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_TokenizerEncode);

void BM_MetadataTowerForward(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  auto conn = f.db->Connect();
  auto meta = conn->GetTableMetadata(f.dataset.tables[0].name);
  TASTE_CHECK(meta.ok());
  model::InputEncoder encoder(f.tokenizer.get(), f.model->config().input);
  model::EncodedMetadata em = encoder.EncodeMetadata(*meta);
  tensor::NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model->ForwardMetadata(em));
  }
}
BENCHMARK(BM_MetadataTowerForward);

void BM_ContentTowerForward_CachedLatents(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  auto conn = f.db->Connect();
  auto meta = conn->GetTableMetadata(f.dataset.tables[0].name);
  TASTE_CHECK(meta.ok());
  model::InputEncoder encoder(f.tokenizer.get(), f.model->config().input);
  model::EncodedMetadata em = encoder.EncodeMetadata(*meta);
  std::map<int, std::vector<std::string>> content;
  for (int c = 0; c < em.num_columns; ++c) {
    content[c] = f.dataset.tables[0].columns[c].values;
  }
  model::EncodedContent ec = encoder.EncodeContent(em, content);
  tensor::NoGradGuard ng;
  auto cached = f.model->ForwardMetadata(em);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model->ForwardContent(ec, em, cached));
  }
}
BENCHMARK(BM_ContentTowerForward_CachedLatents);

void BM_ContentTowerForward_RecomputedLatents(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  auto conn = f.db->Connect();
  auto meta = conn->GetTableMetadata(f.dataset.tables[0].name);
  TASTE_CHECK(meta.ok());
  model::InputEncoder encoder(f.tokenizer.get(), f.model->config().input);
  model::EncodedMetadata em = encoder.EncodeMetadata(*meta);
  std::map<int, std::vector<std::string>> content;
  for (int c = 0; c < em.num_columns; ++c) {
    content[c] = f.dataset.tables[0].columns[c].values;
  }
  model::EncodedContent ec = encoder.EncodeContent(em, content);
  tensor::NoGradGuard ng;
  for (auto _ : state) {
    // The "TASTE w/o caching" path: the metadata tower runs again.
    auto enc = f.model->ForwardMetadata(em);
    benchmark::DoNotOptimize(f.model->ForwardContent(ec, em, enc));
  }
}
BENCHMARK(BM_ContentTowerForward_RecomputedLatents);

void BM_MetadataFetch(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  auto conn = f.db->Connect();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        conn->GetTableMetadata(f.dataset.tables[i % 40].name));
    ++i;
  }
}
BENCHMARK(BM_MetadataFetch);

void BM_ColumnScan(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  auto conn = f.db->Connect();
  const auto& table = f.dataset.tables[0];
  std::vector<std::string> cols;
  for (const auto& c : table.columns) cols.push_back(c.name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        conn->ScanColumns(table.name, cols, {.limit_rows = 50}));
  }
}
BENCHMARK(BM_ColumnScan);

void BM_EndToEndDetectTable(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  core::TasteDetector det(f.model.get(), f.tokenizer.get(), {});
  auto conn = f.db->Connect();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        det.DetectTable(conn.get(), f.dataset.tables[i % 40].name));
    ++i;
  }
}
BENCHMARK(BM_EndToEndDetectTable);

// ---- BENCH_substrate.json ---------------------------------------------------

struct GemmCase {
  const char* name;  // <config>_<gemm site>
  int64_t m, n, k;
};

// The three GEMM shapes that dominate one encoder layer (QKV projection and
// the two feed-forward matmuls) at the Tiny test config (H=48, I=128,
// ~128 tokens) and the paper's TinyBERT config (H=312, I=1200, Wmax=512),
// plus the serving model's per-head attention products (head_dim 12): a
// content segment's scores over 142 keys, its probs x V context, and a
// 111-token metadata chunk's context. Their widths are not multiples of the
// 16-column register tile, so they time the kernel's column tail.
constexpr GemmCase kGemmCases[] = {
    {"tiny_qkv", 128, 48, 48},     {"tiny_ffn1", 128, 128, 48},
    {"tiny_ffn2", 128, 48, 128},   {"paper_qkv", 512, 312, 312},
    {"paper_ffn1", 512, 1200, 312}, {"paper_ffn2", 512, 312, 1200},
    {"tiny_attn_scores", 31, 142, 12}, {"tiny_attn_context", 31, 12, 142},
    {"tiny_p1_context", 111, 12, 111},
};

// Best batch-average over several batches: the minimum is the standard
// microbench estimator for machines with scheduler noise — overhead only
// ever adds time.
template <typename Fn>
double TimeGemmMs(const Fn& fn, int reps) {
  fn();  // warm up (and fault in the packing scratch)
  double best = 0.0;
  for (int batch = 0; batch < 5; ++batch) {
    Stopwatch watch;
    for (int r = 0; r < reps; ++r) fn();
    const double ms = watch.ElapsedMillis() / reps;
    if (batch == 0 || ms < best) best = ms;
  }
  return best;
}

void WriteSubstrateJson() {
  const int hw_threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  bench::JsonWriter json;
  json.BeginObject();
  json.Field("bench", std::string("substrate"));
  json.Field("hardware_threads", hw_threads);

  std::printf("GEMM sweep (%d hardware threads):\n", hw_threads);
  json.BeginArray("gemm");
  for (const GemmCase& s : kGemmCases) {
    Rng rng(7);
    std::vector<float> a(static_cast<size_t>(s.m * s.k));
    std::vector<float> b(static_cast<size_t>(s.k * s.n));
    std::vector<float> c(static_cast<size_t>(s.m * s.n), 0.0f);
    for (auto& x : a) x = static_cast<float>(rng.NextGaussian());
    for (auto& x : b) x = static_cast<float>(rng.NextGaussian());
    const int reps = s.m * s.n * s.k < (1 << 22) ? 50 : 10;
    const double serial_ms = TimeGemmMs(
        [&] {
          tensor::kernels::GemmAccRef(a.data(), b.data(), c.data(), s.m, s.n,
                                      s.k, false, false);
        },
        reps);
    const double blocked_ms = TimeGemmMs(
        [&] {
          tensor::kernels::GemmAcc(a.data(), b.data(), c.data(), s.m, s.n,
                                   s.k, false, false);
        },
        reps);
    const double mflop = 2.0 * s.m * s.n * s.k / 1e6;
    json.BeginObject();
    json.Field("shape", std::string(s.name));
    json.Field("m", s.m);
    json.Field("n", s.n);
    json.Field("k", s.k);
    json.Field("serial_ms", serial_ms);
    json.Field("serial_gflops", mflop / serial_ms);
    json.Field("blocked_ms", blocked_ms);
    json.Field("blocked_gflops", mflop / blocked_ms);
    json.Field("speedup_blocked", serial_ms / blocked_ms);
    json.EndObject();
    std::printf(
        "  %-11s serial %8.3f ms (%6.2f GF/s)  blocked %8.3f ms "
        "(%6.2f GF/s, %.2fx)\n",
        s.name, serial_ms, mflop / serial_ms, blocked_ms, mflop / blocked_ms,
        serial_ms / blocked_ms);
  }
  json.EndArray();

  // Attention forwards at the serving model's shape (A=4, head_dim 12):
  // the P2 column-segmented form (12 segments of 27 content rows over 130
  // metadata rows), its anchor form (the same keys and values, only each
  // segment's first row as a query: the last encoder layer's shape) and
  // the P1 dense form (111 x 111). Ungated: they track the attention op,
  // whose time no GEMM row above covers.
  {
    tensor::NoGradGuard ng;
    Rng arng(29);
    nn::MultiHeadAttention attn(48, 4, arng);
    const int64_t segments = 12, seg = 27, memory_rows = 130, dense = 111;
    const tensor::Tensor x =
        tensor::Tensor::Randn({segments * seg, 48}, arng);
    const tensor::Tensor memory = tensor::Tensor::Randn({memory_rows, 48}, arng);
    const tensor::Tensor seg_mask =
        tensor::Tensor::Zeros({segments, memory_rows + seg});
    const nn::SegmentGroup group = {&memory, &seg_mask, segments, seg};
    const tensor::Tensor y = tensor::Tensor::Randn({dense, 48}, arng);
    const tensor::Tensor dense_mask = tensor::Tensor::Zeros({dense, dense});
    const double segmented_ms = TimeGemmMs(
        [&] { benchmark::DoNotOptimize(attn.ForwardSegmented(x, group)); },
        50);
    const double anchor_ms = TimeGemmMs(
        [&] {
          benchmark::DoNotOptimize(attn.ForwardSegmented(
              x, group, nn::SegmentQueries::kFirstRows));
        },
        50);
    const double dense_ms = TimeGemmMs(
        [&] { benchmark::DoNotOptimize(attn.Forward(y, y, &dense_mask)); },
        50);
    json.BeginArray("attention");
    json.BeginObject();
    json.Field("form", std::string("p2_segmented_12x27_m130"));
    json.Field("ms", segmented_ms);
    json.EndObject();
    json.BeginObject();
    json.Field("form", std::string("p2_anchor_12x27_m130"));
    json.Field("ms", anchor_ms);
    json.EndObject();
    json.BeginObject();
    json.Field("form", std::string("p1_dense_111"));
    json.Field("ms", dense_ms);
    json.EndObject();
    json.EndArray();
    std::printf("attention (A=4, hd=12): segmented 12x27+130 %.3f ms, "
                "anchors 12x27+130 %.3f ms, dense 111x111 %.3f ms\n",
                segmented_ms, anchor_ms, dense_ms);
  }

  // LayerNormRows without the backward's side buffers, as inference runs
  // it: a wide_batch P2 content layer's rows (11 segments of 31) at the
  // served H=48, and a 512-token chunk at the paper's H=312. Ungated.
  {
    struct LayerNormCase {
      const char* form;
      int64_t rows, h;
    };
    json.BeginArray("layernorm");
    std::printf("LayerNormRows:");
    for (const LayerNormCase& c : {LayerNormCase{"tiny_341x48", 341, 48},
                                   LayerNormCase{"paper_512x312", 512, 312}}) {
      Rng lrng(11);
      std::vector<float> x(static_cast<size_t>(c.rows * c.h));
      for (auto& v : x) v = static_cast<float>(lrng.NextGaussian());
      std::vector<float> gamma(static_cast<size_t>(c.h), 1.0f);
      std::vector<float> beta(static_cast<size_t>(c.h), 0.0f);
      std::vector<float> y(x.size());
      const double ms = TimeGemmMs(
          [&] {
            tensor::kernels::LayerNormRows(x.data(), gamma.data(),
                                           beta.data(), 1e-5f, c.rows, c.h,
                                           y.data(), nullptr, nullptr);
          },
          200);
      json.BeginObject();
      json.Field("form", std::string(c.form));
      json.Field("rows", c.rows);
      json.Field("h", c.h);
      json.Field("ms", ms);
      json.EndObject();
      std::printf("  %s %.4f ms", c.form, ms);
    }
    json.EndArray();
    std::printf("\n");
  }

  Fixture& f = Fixture::Get();

  // Both ADTD tower forwards at the perfbench wide_batch shape: a batch of
  // four 11-column tables, every column scanned (11 segments of 31 rows).
  // "p1" is the batch's four ForwardMetadata calls, "p2" its four
  // ForwardContent calls, one after another. Ungated: they track the
  // towers' forward time, which the end-to-end row below mixes with
  // detection and scheduling.
  {
    tensor::NoGradGuard ng;
    data::DatasetProfile profile = data::DatasetProfile::WikiLike(4);
    profile.min_columns = profile.max_columns = 11;
    profile.seed = 31;
    const data::Dataset wide = data::GenerateDataset(profile);
    clouddb::CostModel cost;
    cost.time_scale = 0.0;
    clouddb::SimulatedDatabase db(cost);
    TASTE_CHECK(db.IngestDataset(wide).ok());
    auto conn = db.Connect();
    model::InputEncoder encoder(f.tokenizer.get(), f.model->config().input);
    // Each table's metadata and scanned values (every column), kept so
    // the input encoding can be timed on its own below.
    std::vector<clouddb::TableMetadata> raw;
    std::vector<std::map<int, std::vector<std::string>>> scanned;
    std::vector<model::EncodedMetadata> metas;
    std::vector<model::EncodedContent> contents;
    for (const auto& table : wide.tables) {
      auto meta = conn->GetTableMetadata(table.name);
      TASTE_CHECK(meta.ok());
      raw.push_back(*meta);
      metas.push_back(encoder.EncodeMetadata(*meta));
      const model::EncodedMetadata& em = metas.back();
      TASTE_CHECK(em.num_columns == 11);
      std::map<int, std::vector<std::string>>& values = scanned.emplace_back();
      for (int c = 0; c < em.num_columns; ++c) {
        values[c] = table.columns[em.column_ordinals[c]].values;
      }
      contents.push_back(encoder.EncodeContent(em, values));
    }
    // Input encoding per table: EncodeMetadata, then EncodeContent of
    // every column, the tokenizer's trie walk and the mask rows included.
    // Ungated.
    const double encode_ms =
        TimeGemmMs(
            [&] {
              for (size_t t = 0; t < raw.size(); ++t) {
                const model::EncodedMetadata em = encoder.EncodeMetadata(raw[t]);
                benchmark::DoNotOptimize(encoder.EncodeContent(em, scanned[t]));
              }
            },
            20) /
        static_cast<double>(raw.size());
    json.BeginObject("encode");
    json.Field("form", std::string("wide_11col_table"));
    json.Field("ms_per_table", encode_ms);
    json.Field("trie_bytes", static_cast<int64_t>(f.tokenizer->trie_bytes()));
    json.EndObject();
    std::printf("input encoding (11-column table): %.4f ms per table, "
                "vocabulary trie %zu bytes\n",
                encode_ms, f.tokenizer->trie_bytes());
    std::vector<model::AdtdModel::MetadataEncoding> encs;
    for (const auto& em : metas) encs.push_back(f.model->ForwardMetadata(em));
    const double p1_ms = TimeGemmMs(
        [&] {
          for (const auto& em : metas) {
            benchmark::DoNotOptimize(f.model->ForwardMetadata(em));
          }
        },
        20);
    const double p2_ms = TimeGemmMs(
        [&] {
          for (size_t j = 0; j < metas.size(); ++j) {
            benchmark::DoNotOptimize(
                f.model->ForwardContent(contents[j], metas[j], encs[j]));
          }
        },
        20);
    json.BeginArray("adtd_forward");
    json.BeginObject();
    json.Field("form", std::string("p1_metadata_4x11col"));
    json.Field("ms", p1_ms);
    json.EndObject();
    json.BeginObject();
    json.Field("form", std::string("p2_content_batch_4x11col"));
    json.Field("ms", p2_ms);
    json.EndObject();
    json.EndArray();
    std::printf("ADTD forwards (4 tables x 11 columns): P1 %.3f ms, "
                "P2 %.3f ms\n",
                p1_ms, p2_ms);
  }

  // End-to-end Fig. 4-style wall clock: the full detector over the micro
  // fixture's tables, sequential vs pipelined executor (instant cost model,
  // so this is pure compute — the substrate's share of Fig. 4).
  core::TasteDetector det(f.model.get(), f.tokenizer.get(), {});
  std::vector<std::string> tables;
  for (const auto& t : f.dataset.tables) tables.push_back(t.name);

  pipeline::PipelineExecutor seq(&det, f.db.get(), {.pipelined = false});
  TASTE_CHECK(seq.RunBatch(tables).all_ok());
  pipeline::PipelineExecutor pip(&det, f.db.get(), {.pipelined = true});
  TASTE_CHECK(pip.RunBatch(tables).all_ok());

  json.BeginObject("end_to_end");
  json.Field("tables", static_cast<int64_t>(tables.size()));
  json.Field("sequential_wall_ms", seq.stats().wall_ms);
  json.Field("pipelined_wall_ms", pip.stats().wall_ms);
  json.EndObject();

  // Int8 P2: the --p2-dtype=int8 content forward against fp32 at the PAPER
  // tower shape (L=4, H=312, I=1200 — the Tiny fixture's GEMMs are too
  // small to show the kernel, and the paper shape is what serving runs).
  // Weights are prepacked once (PrepackQuantWeights, as model load does);
  // the sweep times the same B chunks, forwarded one after another through
  // ForwardContent, under an fp32 vs an int8 ExecContext.
  // tools/bench_check.py gates the speedup (hard floor 2.5x, advisory 3x)
  // when a SIMD kernel is compiled in.
  {
    tensor::NoGradGuard ng;
    model::AdtdConfig pcfg = model::AdtdConfig::Paper(
        static_cast<int>(f.tokenizer->vocab().size()),
        static_cast<int>(data::SemanticTypeRegistry::Default().size()));
    Rng prng(17);
    model::AdtdModel pmodel(pcfg, prng);
    const int64_t packed_bytes = pmodel.PrepackQuantWeights();

    struct Chunk {
      model::EncodedMetadata em;
      model::EncodedContent ec;
      model::AdtdModel::MetadataEncoding enc;
    };
    // The Sec. 6.8 serving profile (n=2, l=2): short chunks. Latents come
    // from THIS model's metadata tower — cross-attention reads them during
    // the content forward.
    model::InputConfig icfg = pcfg.input;
    icfg.cells_per_column = 2;
    model::InputEncoder encoder(f.tokenizer.get(), icfg);
    std::vector<std::unique_ptr<Chunk>> chunks;
    auto conn = f.db->Connect();
    for (int t = 0; t < 16 && chunks.size() < 16; ++t) {
      auto meta = conn->GetTableMetadata(f.dataset.tables[t].name);
      TASTE_CHECK(meta.ok());
      for (const auto& part : model::SplitWideTable(*meta, /*max_columns=*/2)) {
        if (chunks.size() >= 16) break;
        auto ch = std::make_unique<Chunk>();
        ch->em = encoder.EncodeMetadata(part);
        std::map<int, std::vector<std::string>> content;
        for (int c = 0; c < ch->em.num_columns; ++c) {
          content[c] =
              f.dataset.tables[t].columns[ch->em.column_ordinals[c]].values;
        }
        ch->ec = encoder.EncodeContent(ch->em, content);
        ch->enc = pmodel.ForwardMetadata(ch->em);
        chunks.push_back(std::move(ch));
      }
    }

    tensor::ExecContext fp32_ctx({.no_grad = true});
    tensor::ExecContext::Options int8_opt;
    int8_opt.no_grad = true;
    int8_opt.p2_dtype = tensor::P2Dtype::kInt8;
    tensor::ExecContext int8_ctx(int8_opt);

    double fp32_total = 0.0, int8_total = 0.0;
    std::printf("P2 int8 vs fp32 at paper shape (kernel %s, %lld KiB packed):\n",
                tensor::quant::QuantKernelName(tensor::quant::BestQuantKernel()),
                static_cast<long long>(packed_bytes / 1024));
    json.BeginObject("int8_p2");
    json.Field("kernel",
               std::string(tensor::quant::QuantKernelName(
                   tensor::quant::BestQuantKernel())));
    json.Field("packed_kib", packed_bytes / 1024);
    json.BeginArray("sweep");
    for (int bsize : {1, 2, 4, 8}) {
      std::vector<const Chunk*> items;
      int64_t total_tokens = 0;
      for (int i = 0; i < bsize; ++i) {
        items.push_back(chunks[static_cast<size_t>(i) % chunks.size()].get());
        total_tokens += static_cast<int64_t>(items.back()->ec.token_ids.size());
      }
      const int reps = std::max(1, 8 / bsize);
      auto forward_all = [&](tensor::ExecContext* ctx) {
        for (const Chunk* ch : items) {
          benchmark::DoNotOptimize(
              pmodel.ForwardContent(ch->ec, ch->em, ch->enc, ctx));
        }
      };
      const double fp32_ms = TimeGemmMs([&] { forward_all(&fp32_ctx); }, reps);
      const double int8_ms = TimeGemmMs([&] { forward_all(&int8_ctx); }, reps);
      fp32_total += fp32_ms;
      int8_total += int8_ms;
      json.BeginObject();
      json.Field("batch_size", static_cast<int64_t>(bsize));
      json.Field("tokens", total_tokens);
      json.Field("fp32_ms", fp32_ms);
      json.Field("int8_ms", int8_ms);
      json.Field("speedup", fp32_ms / int8_ms);
      json.EndObject();
      std::printf("  B=%-3d fp32 %8.3f ms  int8 %8.3f ms  %.2fx\n", bsize,
                  fp32_ms, int8_ms, fp32_ms / int8_ms);
    }
    json.EndArray();
    json.Field("speedup", fp32_total / int8_total);
    json.EndObject();
    std::printf("  overall int8 speedup %.2fx\n", fp32_total / int8_total);
  }

  // Multi-process serving tier (DESIGN.md §10): the same batch scattered
  // across forked replica workers by the supervising router. Runs here, in
  // main() before benchmark::Initialize, so fork happens at a known-safe
  // point. Each replica count forks fresh workers (cold latent caches —
  // comparable across rows); the parent detector never runs a table itself,
  // so every row starts from the same image. The failover row re-runs at
  // full strength with a crash injected into the owner of the first table
  // and reports how long the supervisor took to restore the replica.
  {
    core::TasteOptions mp_topt;
    core::TasteDetector mp_det(f.model.get(), f.tokenizer.get(), mp_topt);
    serve::WorkerEnv env;
    env.detector = &mp_det;
    env.db = f.db.get();

    std::printf("multi-process serving (replicas x %zu tables):\n",
                tables.size());
    json.BeginObject("p2_serving_mp");
    json.Field("tables", static_cast<int64_t>(tables.size()));
    json.BeginArray("rows");
    double wall1 = 0.0, wall4 = 0.0;
    for (const int replicas : {1, 2, 4}) {
      serve::RouterOptions ropt;
      ropt.supervisor.replicas = replicas;
      double best = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        serve::Router router(env, ropt);
        TASTE_CHECK(router.Start().ok());
        pipeline::BatchResult batch = router.RunBatch(tables);
        for (const auto& t : batch.tables) {
          TASTE_CHECK(t.outcome == pipeline::TableOutcome::kComplete);
        }
        const double wall = router.stats().wall_ms;
        router.Shutdown();
        if (rep == 0 || wall < best) best = wall;
      }
      if (replicas == 1) wall1 = best;
      if (replicas == 4) wall4 = best;
      const double tps = 1000.0 * static_cast<double>(tables.size()) / best;
      json.BeginObject();
      json.Field("replicas", static_cast<int64_t>(replicas));
      json.Field("wall_ms", best);
      json.Field("tables_per_s", tps);
      json.EndObject();
      std::printf("  replicas=%d  wall %8.1f ms  %7.1f tables/s\n", replicas,
                  best, tps);
    }
    json.EndArray();
    json.Field("scaling_1_to_4", wall1 / wall4);

    serve::ConsistentHashRing ring(4, 64);
    serve::WorkerEnv crash_env = env;
    crash_env.crash_table = tables[0];
    crash_env.crash_replica =
        ring.NodeFor(tables[0], [](int) { return true; });
    serve::RouterOptions ropt;
    ropt.supervisor.replicas = 4;
    serve::Router router(crash_env, ropt);
    TASTE_CHECK(router.Start().ok());
    pipeline::BatchResult batch = router.RunBatch(tables);
    for (const auto& t : batch.tables) {
      TASTE_CHECK(t.outcome == pipeline::TableOutcome::kComplete);
    }
    TASTE_CHECK(router.MaintainUntilAllUp(5000.0));
    const auto& rec = router.supervisor().recovery_times_ms();
    TASTE_CHECK(!rec.empty());
    const double recovery_ms = rec.front();
    router.Shutdown();
    json.Field("failover_recovery_ms", recovery_ms);

    // Gray-failure row (DESIGN.md §13): SIGSTOP-wedge the ring owner of
    // the first table. The batch CANNOT complete until the watchdog
    // condemns the wedged replica (SIGTERM -> SIGKILL) and its tables
    // re-dispatch — which makes the respawn, and therefore the
    // recovery-time sample, deterministic. The gate bounds wedge->respawn
    // recovery by the same 5 s budget as kill->respawn.
    serve::WorkerEnv wedge_env = env;
    wedge_env.wedge_table = tables[0];
    wedge_env.wedge_replica =
        ring.NodeFor(tables[0], [](int) { return true; });
    serve::RouterOptions wopt;
    wopt.supervisor.replicas = 4;
    // ~800 ms for a 10-table leg: generous vs this box's healthy leg wall
    // (~300 ms for the whole batch), so only the wedge — which never
    // completes — crosses it and the run condemns exactly that replica.
    wopt.watchdog_ms_per_table = 80.0;
    serve::Router wrouter(wedge_env, wopt);
    TASTE_CHECK(wrouter.Start().ok());
    pipeline::BatchResult wbatch = wrouter.RunBatch(tables);
    for (const auto& t : wbatch.tables) {
      TASTE_CHECK(t.outcome == pipeline::TableOutcome::kComplete);
    }
    TASTE_CHECK(wrouter.supervisor().watchdog_kills() >= 1);
    TASTE_CHECK(wrouter.MaintainUntilAllUp(5000.0));
    const auto& wrec = wrouter.supervisor().recovery_times_ms();
    TASTE_CHECK(!wrec.empty());
    const double wedge_recovery_ms = wrec.back();
    wrouter.Shutdown();
    json.Field("wedge_recovery_ms", wedge_recovery_ms);
    json.EndObject();
    std::printf("  scaling 1->4: %.2fx;  kill->respawn recovery %.1f ms\n",
                wall1 / wall4, recovery_ms);
    std::printf("  wedge: watchdog recovery %.1f ms\n", wedge_recovery_ms);
  }

  // The unified-observability view of the same two runs: stage latency
  // histograms, cache and db counters, per-op kernel timings. This is the
  // machine-readable surface tools/bench_check.py sanity-checks.
  obs::AppendMetricsJson(obs::Registry::Global().snapshot(), &json);
  json.EndObject();

  const char* path = "BENCH_substrate.json";
  if (json.WriteFile(path)) {
    std::printf("end-to-end: %zu tables, sequential %.1f ms, pipelined %.1f ms\n",
                tables.size(), seq.stats().wall_ms, pip.stats().wall_ms);
    std::printf("wrote %s\n", path);
  } else {
    std::fprintf(stderr, "failed to write %s\n", path);
  }
}

}  // namespace
}  // namespace taste

int main(int argc, char** argv) {
  taste::WriteSubstrateJson();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
