// Reverse-mode autodiff tests: every differentiable op is validated against
// central-difference numeric gradients, plus end-to-end training sanity
// checks with the optimizers.

#include <cmath>
#include <cstring>
#include <functional>
#include <tuple>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"

namespace taste::tensor {
namespace {

/// Checks d(fn(x))/dx against central differences for every element of
/// every input. `fn` must return a one-element tensor.
void CheckGradients(std::vector<Tensor> inputs,
                    const std::function<Tensor(const std::vector<Tensor>&)>& fn,
                    float eps = 1e-3f, float tol = 2e-2f) {
  Tensor loss = fn(inputs);
  ASSERT_EQ(loss.numel(), 1);
  loss.Backward();
  for (size_t t = 0; t < inputs.size(); ++t) {
    Tensor& x = inputs[t];
    if (!x.requires_grad()) continue;
    const std::vector<float> analytic = x.grad();
    for (int64_t i = 0; i < x.numel(); ++i) {
      float orig = x.data()[i];
      x.data()[i] = orig + eps;
      float up = fn(inputs).item();
      x.data()[i] = orig - eps;
      float down = fn(inputs).item();
      x.data()[i] = orig;
      float numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(analytic[i], numeric, tol)
          << "input " << t << " element " << i;
    }
  }
}

TEST(AutogradTest, AddSubMulGrads) {
  Rng rng(1);
  Tensor a = Tensor::Randn({2, 3}, rng, 1.0f, true);
  Tensor b = Tensor::Randn({2, 3}, rng, 1.0f, true);
  CheckGradients({a, b}, [](const std::vector<Tensor>& in) {
    return SumAll(Mul(Add(in[0], in[1]), Sub(in[0], in[1])));
  });
}

TEST(AutogradTest, ScaleSquareGrads) {
  Rng rng(2);
  Tensor a = Tensor::Randn({4}, rng, 1.0f, true);
  CheckGradients({a}, [](const std::vector<Tensor>& in) {
    return SumAll(Square(Scale(in[0], 3.0f)));
  });
}

TEST(AutogradTest, LogReciprocalGrads) {
  Rng rng(3);
  Tensor a = Tensor::Uniform({4}, rng, 0.5f, 2.0f, true);
  CheckGradients({a}, [](const std::vector<Tensor>& in) {
    return SumAll(Add(Log(in[0]), Reciprocal(in[0])));
  });
}

TEST(AutogradTest, ActivationGrads) {
  Rng rng(4);
  Tensor a = Tensor::Randn({6}, rng, 1.0f, true);
  CheckGradients({a}, [](const std::vector<Tensor>& in) {
    return SumAll(Gelu(in[0]));
  });
  Tensor b = Tensor::Randn({6}, rng, 1.0f, true);
  CheckGradients({b}, [](const std::vector<Tensor>& in) {
    return SumAll(Sigmoid(in[0]));
  });
  Tensor c = Tensor::Randn({6}, rng, 1.0f, true);
  CheckGradients({c}, [](const std::vector<Tensor>& in) {
    return SumAll(Tanh(in[0]));
  });
}

TEST(AutogradTest, MatMulGrads) {
  Rng rng(5);
  Tensor a = Tensor::Randn({3, 4}, rng, 0.5f, true);
  Tensor b = Tensor::Randn({4, 2}, rng, 0.5f, true);
  CheckGradients({a, b}, [](const std::vector<Tensor>& in) {
    return SumAll(Square(MatMul(in[0], in[1])));
  });
}

TEST(AutogradTest, BatchedMatMulGrads) {
  Rng rng(6);
  Tensor a = Tensor::Randn({2, 2, 3}, rng, 0.5f, true);
  Tensor b = Tensor::Randn({2, 3, 2}, rng, 0.5f, true);
  CheckGradients({a, b}, [](const std::vector<Tensor>& in) {
    return SumAll(Square(BatchedMatMul(in[0], in[1])));
  });
}

TEST(AutogradTest, TransposeReshapeGatherGrads) {
  Rng rng(7);
  Tensor a = Tensor::Randn({2, 3, 4}, rng, 0.5f, true);
  CheckGradients({a}, [](const std::vector<Tensor>& in) {
    Tensor t = TransposeLast2(in[0]);            // (2,4,3)
    Tensor r = Reshape(t, {8, 3});
    Tensor g = GatherRows(r, {5, 0, 7, 5});      // row 5 twice
    return SumAll(Square(Reshape(g, {3, 4})));
  });
}

TEST(AutogradTest, SoftmaxGrads) {
  Rng rng(8);
  Tensor a = Tensor::Randn({2, 5}, rng, 1.0f, true);
  // Weighted sum to make gradient nontrivial.
  Tensor w = Tensor::FromVector({2, 5}, {1, -1, 2, 0.5f, 3, -2, 1, 0, 1, -1});
  CheckGradients({a}, [w](const std::vector<Tensor>& in) {
    return SumAll(Mul(Softmax(in[0]), w));
  });
}

TEST(AutogradTest, AttentionGrads) {
  // Two heads (hd 3) and two spans that share memory key rows [0, 3) and
  // read one mask at different row offsets: every q, k and v element
  // feeds the loss through at least one (span, head) block.
  Rng rng(18);
  Tensor q = Tensor::Randn({5, 6}, rng, 0.7f, true);
  Tensor k = Tensor::Randn({9, 6}, rng, 0.7f, true);
  Tensor v = Tensor::Randn({9, 6}, rng, 0.7f, true);
  Tensor w = Tensor::Randn({5, 6}, rng);
  Tensor mask = Tensor::Zeros({5, 6});
  mask.data()[0 * 6 + 4] = -1e9f;  // span 0, query 0: own key 1 blocked
  mask.data()[3 * 6 + 0] = -1e9f;  // span 1, query 1: memory key 0 blocked
  std::vector<AttentionSpan> spans(2);
  spans[0].query = {0, 2};
  spans[0].kv[0] = {0, 3};
  spans[0].kv[1] = {3, 3};
  spans[0].mask = &mask;
  spans[1].query = {2, 3};
  spans[1].kv[0] = {0, 3};
  spans[1].kv[1] = {6, 3};
  spans[1].mask = &mask;
  spans[1].mask_row = 2;
  CheckGradients({q, k, v}, [&spans, w](const std::vector<Tensor>& in) {
    return SumAll(Mul(Attention(in[0], in[1], in[2], 2, spans), w));
  });
}

TEST(AutogradTest, LayerNormGrads) {
  Rng rng(9);
  Tensor x = Tensor::Randn({3, 4}, rng, 1.0f, true);
  Tensor gamma = Tensor::Uniform({4}, rng, 0.5f, 1.5f, true);
  Tensor beta = Tensor::Randn({4}, rng, 0.5f, true);
  Tensor w = Tensor::Randn({3, 4}, rng);
  CheckGradients({x, gamma, beta}, [w](const std::vector<Tensor>& in) {
    return SumAll(Mul(LayerNorm(in[0], in[1], in[2]), w));
  }, 1e-3f, 5e-2f);
}

TEST(AutogradTest, AddBiasGrads) {
  Rng rng(10);
  Tensor x = Tensor::Randn({3, 4}, rng, 1.0f, true);
  Tensor b = Tensor::Randn({4}, rng, 1.0f, true);
  CheckGradients({x, b}, [](const std::vector<Tensor>& in) {
    return SumAll(Square(AddBias(in[0], in[1])));
  });
}

TEST(AutogradTest, LinearGrads) {
  Rng rng(12);
  Tensor x = Tensor::Randn({3, 4}, rng, 1.0f, true);
  Tensor w = Tensor::Randn({4, 2}, rng, 0.5f, true);
  Tensor b = Tensor::Randn({2}, rng, 1.0f, true);
  CheckGradients({x, w, b}, [](const std::vector<Tensor>& in) {
    return SumAll(Square(Linear(in[0], in[1], in[2])));
  });
}

TEST(AutogradTest, LinearGradsEqualAddBiasMatMulBitwise) {
  // Linear is one tape node where AddBias(MatMul(x, W), b) was two; its
  // backward runs their kernels in the order the tape ran them. With x
  // feeding a second consumer (so its gradient sums two contributions in
  // tape order), every gradient must match the two-node chain bit for bit,
  // for widths on and off the 16-column grid.
  for (int64_t n : {20, 128}) {
    struct Leaves {
      Tensor x0, w, b, w2;
    };
    auto make = [n] {
      Rng rng(40 + n);
      return Leaves{Tensor::Randn({9, 48}, rng, 1.0f, true),
                    Tensor::Randn({48, n}, rng, 0.2f, true),
                    Tensor::Randn({n}, rng, 1.0f, true),
                    Tensor::Randn({48, 7}, rng, 0.2f, true)};
    };
    auto loss = [](const Leaves& l, bool fused) {
      const Tensor x = Tanh(l.x0);
      const Tensor y = fused ? Linear(x, l.w, l.b)
                             : AddBias(MatMul(x, l.w), l.b);
      return Add(SumAll(Square(y)), SumAll(Square(MatMul(x, l.w2))));
    };
    const Leaves fused = make();
    const Leaves chain = make();
    loss(fused, true).Backward();
    loss(chain, false).Backward();
    for (const auto& [got, want, name] :
         {std::tuple{&fused.x0, &chain.x0, "x"},
          std::tuple{&fused.w, &chain.w, "W"},
          std::tuple{&fused.b, &chain.b, "b"},
          std::tuple{&fused.w2, &chain.w2, "W2"}}) {
      ASSERT_EQ(got->grad().size(), want->grad().size());
      EXPECT_EQ(0, std::memcmp(got->grad().data(), want->grad().data(),
                               sizeof(float) * got->grad().size()))
          << "n=" << n << ": d" << name;
    }
  }
}

TEST(AutogradTest, AddBroadcastMatGrads) {
  Rng rng(11);
  Tensor x = Tensor::Randn({2, 3, 3}, rng, 1.0f, true);
  Tensor m = Tensor::Randn({3, 3}, rng, 1.0f, true);
  CheckGradients({x, m}, [](const std::vector<Tensor>& in) {
    return SumAll(Square(AddBroadcastMat(in[0], in[1])));
  });
}

TEST(AutogradTest, EmbeddingLookupGrads) {
  Rng rng(12);
  Tensor w = Tensor::Randn({5, 3}, rng, 1.0f, true);
  std::vector<int> ids = {0, 3, 3, 1};
  CheckGradients({w}, [ids](const std::vector<Tensor>& in) {
    return SumAll(Square(EmbeddingLookup(in[0], ids)));
  });
}

TEST(AutogradTest, GatherSliceConcatGrads) {
  Rng rng(13);
  Tensor a = Tensor::Randn({4, 3}, rng, 1.0f, true);
  Tensor b = Tensor::Randn({2, 3}, rng, 1.0f, true);
  CheckGradients({a, b}, [](const std::vector<Tensor>& in) {
    Tensor g = GatherRows(in[0], {1, 1, 3});
    Tensor s = SliceRows(in[0], 0, 2);
    Tensor cat = ConcatRows({g, s, in[1]});
    Tensor cc = ConcatCols(SliceRows(cat, 0, 2), SliceRows(cat, 2, 4));
    return SumAll(Square(cc));
  });
}

TEST(AutogradTest, BceWithLogitsGrads) {
  Rng rng(14);
  Tensor z = Tensor::Randn({2, 3}, rng, 1.0f, true);
  Tensor y = Tensor::FromVector({2, 3}, {1, 0, 1, 0, 0, 1});
  CheckGradients({z}, [y](const std::vector<Tensor>& in) {
    return BceWithLogits(in[0], y);
  });
}

TEST(AutogradTest, CrossEntropyGrads) {
  Rng rng(15);
  Tensor z = Tensor::Randn({3, 4}, rng, 1.0f, true);
  std::vector<int> t = {2, -1, 0};
  CheckGradients({z}, [t](const std::vector<Tensor>& in) {
    return CrossEntropyWithLogits(in[0], t, -1);
  });
}

TEST(AutogradTest, GradAccumulatesOverReuse) {
  // y = x*x computed via two paths sharing x: dy/dx must sum contributions.
  Tensor x = Tensor::Scalar(3.0f, true);
  Tensor y = Mul(x, x);
  y.Backward();
  EXPECT_NEAR(x.grad()[0], 6.0f, 1e-5f);
}

TEST(AutogradTest, DiamondGraph) {
  // z = (x+x) * (x*2): dz/dx = 8x.
  Tensor x = Tensor::Scalar(1.5f, true);
  Tensor z = Mul(Add(x, x), Scale(x, 2.0f));
  z.Backward();
  EXPECT_NEAR(x.grad()[0], 8.0f * 1.5f, 1e-4f);
}

TEST(AutogradTest, NoGradGuardSkipsTape) {
  Tensor x = Tensor::Scalar(2.0f, true);
  Tensor y;
  {
    NoGradGuard guard;
    y = Square(x);
  }
  EXPECT_FALSE(y.requires_grad());
  EXPECT_TRUE(GradEnabled());
}

TEST(AutogradTest, StopsAtNonRequiresGradLeaves) {
  Tensor x = Tensor::Scalar(2.0f, /*requires_grad=*/false);
  Tensor w = Tensor::Scalar(3.0f, /*requires_grad=*/true);
  Tensor y = Mul(x, w);
  y.Backward();
  EXPECT_NEAR(w.grad()[0], 2.0f, 1e-6f);
  EXPECT_TRUE(x.grad().empty() || x.grad()[0] == 0.0f);
}

TEST(AutogradTest, DeepChainDoesNotOverflowStack) {
  Tensor x = Tensor::Scalar(1.0f, true);
  Tensor y = x;
  for (int i = 0; i < 5000; ++i) y = AddScalar(y, 0.0f);
  Tensor loss = SumAll(y);
  loss.Backward();
  EXPECT_NEAR(x.grad()[0], 1.0f, 1e-5f);
}

TEST(AutogradTest, GraphsAreFreedAfterBackward) {
  // Regression: backward closures must not keep their own node alive (a
  // shared_ptr self-capture once leaked every training step's graph).
  // Weak-pointer check: the graph root must die when the last Tensor
  // handle goes away.
  std::weak_ptr<internal::TensorImpl> weak_root;
  Tensor w = Tensor::Scalar(2.0f, /*requires_grad=*/true);
  {
    Tensor loss = Square(Mul(w, AddScalar(w, 1.0f)));
    weak_root = loss.impl();
    loss.Backward();
  }
  EXPECT_TRUE(weak_root.expired());
}

TEST(AutogradTest, RepeatedTrainingStepsDoNotAccumulateGraphs) {
  // Run many forward/backward/step cycles; every intermediate must be
  // reclaimed (checked via a sampled weak_ptr per iteration).
  Rng rng(30);
  Tensor w = Tensor::Randn({8, 8}, rng, 0.5f, true);
  Adam opt({w}, {.lr = 1e-3f});
  std::vector<std::weak_ptr<internal::TensorImpl>> weak;
  for (int i = 0; i < 50; ++i) {
    Tensor x = Tensor::Randn({4, 8}, rng);
    Tensor loss = MeanAll(Square(MatMul(x, w)));
    weak.push_back(loss.impl());
    loss.Backward();
    opt.Step();
  }
  for (const auto& wp : weak) EXPECT_TRUE(wp.expired());
}

TEST(OptimizerTest, SgdConvergesOnQuadratic) {
  Tensor x = Tensor::Scalar(10.0f, true);
  Sgd opt({x}, 0.1f);
  for (int i = 0; i < 200; ++i) {
    Tensor loss = Square(x);
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(x.item(), 0.0f, 1e-3f);
}

TEST(OptimizerTest, AdamConvergesOnQuadraticBowl) {
  Rng rng(20);
  Tensor w = Tensor::Randn({4}, rng, 2.0f, true);
  Tensor target = Tensor::FromVector({4}, {1, -2, 3, 0.5f});
  Adam opt({w}, {.lr = 0.05f});
  for (int i = 0; i < 500; ++i) {
    Tensor loss = SumAll(Square(Sub(w, target)));
    loss.Backward();
    opt.Step();
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(w.data()[i], target.data()[i], 1e-2f);
  }
}

TEST(OptimizerTest, AdamClipNormBoundsUpdate) {
  Tensor x = Tensor::Scalar(0.0f, true);
  Adam opt({x}, {.lr = 1.0f, .clip_norm = 0.001f});
  Tensor loss = Scale(x, 1e6f);
  loss.Backward();
  opt.Step();
  // With tiny clipped grad, Adam's normalized step is still bounded by lr.
  EXPECT_LE(std::abs(x.item()), 1.0f + 1e-4f);
  EXPECT_EQ(opt.step_count(), 1);
}

TEST(OptimizerTest, WeightDecayShrinksWeights) {
  Tensor x = Tensor::Scalar(1.0f, true);
  Adam opt({x}, {.lr = 0.1f, .weight_decay = 0.5f});
  // Zero loss gradient: only decay acts.
  Tensor loss = Scale(x, 0.0f);
  loss.Backward();
  opt.Step();
  EXPECT_LT(x.item(), 1.0f);
}

TEST(OptimizerTest, LinearRegressionLearns) {
  // Fit y = 2a - b with a small linear model trained by Adam.
  Rng rng(21);
  Tensor w = Tensor::Randn({2, 1}, rng, 0.1f, true);
  Tensor bias = Tensor::Zeros({1}, true);
  Adam opt({w, bias}, {.lr = 0.05f});
  Tensor x = Tensor::FromVector({4, 2}, {1, 0, 0, 1, 1, 1, 2, 1});
  Tensor y = Tensor::FromVector({4, 1}, {2, -1, 1, 3});
  for (int i = 0; i < 800; ++i) {
    Tensor pred = AddBias(MatMul(x, w), bias);
    Tensor loss = MeanAll(Square(Sub(pred, y)));
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(w.data()[0], 2.0f, 0.05f);
  EXPECT_NEAR(w.data()[1], -1.0f, 0.05f);
  EXPECT_NEAR(bias.data()[0], 0.0f, 0.05f);
}

}  // namespace
}  // namespace taste::tensor
