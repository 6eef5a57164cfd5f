#include "tensor/attention_ops.h"

#include <cmath>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace duet::tensor {

namespace {

using Impl = std::shared_ptr<TensorImpl>;

bool TrackGrad(std::initializer_list<const Tensor*> inputs) {
  if (!NoGradGuard::GradEnabled()) return false;
  for (const Tensor* t : inputs) {
    if (t->defined() && t->requires_grad()) return true;
  }
  return false;
}

Tensor MakeResult(std::vector<int64_t> shape, bool track, std::vector<Impl> parents) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->value.assign(static_cast<size_t>(impl->numel()), 0.0f);
  impl->requires_grad = track;
  if (track) impl->parents = std::move(parents);
  return Tensor(std::move(impl));
}

}  // namespace

Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta, float eps) {
  DUET_CHECK_EQ(x.ndim(), 2);
  const int64_t rows = x.dim(0), cols = x.dim(1);
  DUET_CHECK_EQ(gamma.numel(), cols);
  DUET_CHECK_EQ(beta.numel(), cols);
  const bool track = TrackGrad({&x, &gamma, &beta});
  Tensor out = MakeResult({rows, cols}, track, {x.impl(), gamma.impl(), beta.impl()});
  // Cached per-row statistics shared with the backward closure.
  auto mean = std::make_shared<std::vector<float>>(static_cast<size_t>(rows));
  auto inv_std = std::make_shared<std::vector<float>>(static_cast<size_t>(rows));
  const float* xp = x.data();
  const float* gp = gamma.data();
  const float* bp = beta.data();
  float* op = out.data();
  ParallelForChunked(
      0, rows,
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float* xrow = xp + r * cols;
          float mu = 0.0f;
          for (int64_t c = 0; c < cols; ++c) mu += xrow[c];
          mu /= static_cast<float>(cols);
          float var = 0.0f;
          for (int64_t c = 0; c < cols; ++c) {
            const float d = xrow[c] - mu;
            var += d * d;
          }
          var /= static_cast<float>(cols);
          const float istd = 1.0f / std::sqrt(var + eps);
          (*mean)[static_cast<size_t>(r)] = mu;
          (*inv_std)[static_cast<size_t>(r)] = istd;
          float* orow = op + r * cols;
          for (int64_t c = 0; c < cols; ++c) {
            orow[c] = gp[c] * (xrow[c] - mu) * istd + bp[c];
          }
        }
      },
      rows * cols > (1 << 16), 16);
  if (track) {
    TensorImpl* xi = x.impl().get();
    TensorImpl* gi = gamma.impl().get();
    TensorImpl* bi = beta.impl().get();
    TensorImpl* oi = out.impl().get();
    out.impl()->backward = [xi, gi, bi, oi, rows, cols, mean, inv_std]() {
      const float* g = oi->grad.data();
      const float* xv = xi->value.data();
      const float* gv = gi->value.data();
      float* gx = xi->MutableGrad();
      float* gg = gi->MutableGrad();
      float* gb = bi->MutableGrad();
      for (int64_t r = 0; r < rows; ++r) {
        const float mu = (*mean)[static_cast<size_t>(r)];
        const float istd = (*inv_std)[static_cast<size_t>(r)];
        const float* grow = g + r * cols;
        const float* xrow = xv + r * cols;
        // dxhat = g * gamma; reduce the two row sums the jacobian needs.
        float sum_dxhat = 0.0f;
        float sum_dxhat_xhat = 0.0f;
        for (int64_t c = 0; c < cols; ++c) {
          const float xhat = (xrow[c] - mu) * istd;
          const float dxhat = grow[c] * gv[c];
          sum_dxhat += dxhat;
          sum_dxhat_xhat += dxhat * xhat;
          if (gg != nullptr) gg[c] += grow[c] * xhat;
          if (gb != nullptr) gb[c] += grow[c];
        }
        if (gx == nullptr) continue;
        float* gxrow = gx + r * cols;
        const float inv_n = 1.0f / static_cast<float>(cols);
        for (int64_t c = 0; c < cols; ++c) {
          const float xhat = (xrow[c] - mu) * istd;
          const float dxhat = grow[c] * gv[c];
          gxrow[c] += istd * (dxhat - inv_n * sum_dxhat - inv_n * xhat * sum_dxhat_xhat);
        }
      }
    };
  }
  return out;
}

Tensor Gelu(const Tensor& x) {
  const bool track = TrackGrad({&x});
  Tensor out = MakeResult(x.shape(), track, {x.impl()});
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  constexpr float kA = 0.044715f;
  const float* xp = x.data();
  float* op = out.data();
  const int64_t n = x.numel();
  for (int64_t i = 0; i < n; ++i) {
    const float v = xp[i];
    const float t = std::tanh(kC * (v + kA * v * v * v));
    op[i] = 0.5f * v * (1.0f + t);
  }
  if (track) {
    TensorImpl* xi = x.impl().get();
    TensorImpl* oi = out.impl().get();
    out.impl()->backward = [xi, oi, n]() {
      const float* g = oi->grad.data();
      const float* xv = xi->value.data();
      float* gx = xi->MutableGrad();
      for (int64_t i = 0; i < n; ++i) {
        const float v = xv[i];
        const float u = kC * (v + kA * v * v * v);
        const float t = std::tanh(u);
        const float du = kC * (1.0f + 3.0f * kA * v * v);
        gx[i] += g[i] * (0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du);
      }
    };
  }
  return out;
}

Tensor SplitHeads(const Tensor& x, int64_t batch, int64_t n, int64_t heads) {
  DUET_CHECK_EQ(x.ndim(), 2);
  DUET_CHECK_EQ(x.dim(0), batch * n);
  const int64_t d = x.dim(1);
  DUET_CHECK_EQ(d % heads, 0);
  const int64_t dh = d / heads;
  const bool track = TrackGrad({&x});
  Tensor out = MakeResult({batch * heads * n, dh}, track, {x.impl()});
  const float* xp = x.data();
  float* op = out.data();
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t h = 0; h < heads; ++h) {
      for (int64_t t = 0; t < n; ++t) {
        const float* src = xp + (b * n + t) * d + h * dh;
        float* dst = op + ((b * heads + h) * n + t) * dh;
        for (int64_t c = 0; c < dh; ++c) dst[c] = src[c];
      }
    }
  }
  if (track) {
    TensorImpl* xi = x.impl().get();
    TensorImpl* oi = out.impl().get();
    out.impl()->backward = [xi, oi, batch, n, heads, d, dh]() {
      const float* g = oi->grad.data();
      float* gx = xi->MutableGrad();
      for (int64_t b = 0; b < batch; ++b) {
        for (int64_t h = 0; h < heads; ++h) {
          for (int64_t t = 0; t < n; ++t) {
            const float* src = g + ((b * heads + h) * n + t) * dh;
            float* dst = gx + (b * n + t) * d + h * dh;
            for (int64_t c = 0; c < dh; ++c) dst[c] += src[c];
          }
        }
      }
    };
  }
  return out;
}

Tensor MergeHeads(const Tensor& x, int64_t batch, int64_t n, int64_t heads) {
  DUET_CHECK_EQ(x.ndim(), 2);
  DUET_CHECK_EQ(x.dim(0), batch * heads * n);
  const int64_t dh = x.dim(1);
  const int64_t d = dh * heads;
  const bool track = TrackGrad({&x});
  Tensor out = MakeResult({batch * n, d}, track, {x.impl()});
  const float* xp = x.data();
  float* op = out.data();
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t h = 0; h < heads; ++h) {
      for (int64_t t = 0; t < n; ++t) {
        const float* src = xp + ((b * heads + h) * n + t) * dh;
        float* dst = op + (b * n + t) * d + h * dh;
        for (int64_t c = 0; c < dh; ++c) dst[c] = src[c];
      }
    }
  }
  if (track) {
    TensorImpl* xi = x.impl().get();
    TensorImpl* oi = out.impl().get();
    out.impl()->backward = [xi, oi, batch, n, heads, d, dh]() {
      const float* g = oi->grad.data();
      float* gx = xi->MutableGrad();
      for (int64_t b = 0; b < batch; ++b) {
        for (int64_t h = 0; h < heads; ++h) {
          for (int64_t t = 0; t < n; ++t) {
            const float* src = g + (b * n + t) * d + h * dh;
            float* dst = gx + ((b * heads + h) * n + t) * dh;
            for (int64_t c = 0; c < dh; ++c) dst[c] += src[c];
          }
        }
      }
    };
  }
  return out;
}

Tensor BatchedScores(const Tensor& q, const Tensor& k, int64_t batch, int64_t n,
                     float scale) {
  DUET_CHECK_EQ(q.ndim(), 2);
  DUET_CHECK_EQ(k.ndim(), 2);
  DUET_CHECK_EQ(q.dim(0), batch * n);
  DUET_CHECK_EQ(k.dim(0), batch * n);
  const int64_t d = q.dim(1);
  DUET_CHECK_EQ(d, k.dim(1));
  const bool track = TrackGrad({&q, &k});
  Tensor out = MakeResult({batch * n, n}, track, {q.impl(), k.impl()});
  const float* qp = q.data();
  const float* kp = k.data();
  float* op = out.data();
  ParallelForChunked(
      0, batch,
      [&](int64_t lo, int64_t hi) {
        for (int64_t b = lo; b < hi; ++b) {
          const float* qb = qp + b * n * d;
          const float* kb = kp + b * n * d;
          float* ob = op + b * n * n;
          for (int64_t i = 0; i < n; ++i) {
            for (int64_t j = 0; j < n; ++j) {
              float acc = 0.0f;
              const float* qi = qb + i * d;
              const float* kj = kb + j * d;
              for (int64_t c = 0; c < d; ++c) acc += qi[c] * kj[c];
              ob[i * n + j] = scale * acc;
            }
          }
        }
      },
      batch * n * n * d > (1 << 17), 1);
  if (track) {
    TensorImpl* qi_ = q.impl().get();
    TensorImpl* ki_ = k.impl().get();
    TensorImpl* oi = out.impl().get();
    out.impl()->backward = [qi_, ki_, oi, batch, n, d, scale]() {
      const float* g = oi->grad.data();
      const float* qv = qi_->value.data();
      const float* kv = ki_->value.data();
      float* gq = qi_->MutableGrad();
      float* gk = ki_->MutableGrad();
      for (int64_t b = 0; b < batch; ++b) {
        const float* gb = g + b * n * n;
        const float* qb = qv + b * n * d;
        const float* kb = kv + b * n * d;
        for (int64_t i = 0; i < n; ++i) {
          for (int64_t j = 0; j < n; ++j) {
            const float gij = scale * gb[i * n + j];
            if (gij == 0.0f) continue;
            if (gq != nullptr) {
              const float* kj = kb + j * d;
              float* gqi = gq + (b * n + i) * d;
              for (int64_t c = 0; c < d; ++c) gqi[c] += gij * kj[c];
            }
            if (gk != nullptr) {
              const float* qi = qb + i * d;
              float* gkj = gk + (b * n + j) * d;
              for (int64_t c = 0; c < d; ++c) gkj[c] += gij * qi[c];
            }
          }
        }
      }
    };
  }
  return out;
}

Tensor CausalSoftmaxRows(const Tensor& scores, int64_t n) {
  DUET_CHECK_EQ(scores.ndim(), 2);
  DUET_CHECK_EQ(scores.dim(1), n);
  const int64_t rows = scores.dim(0);
  DUET_CHECK_EQ(rows % n, 0);
  const bool track = TrackGrad({&scores});
  Tensor out = MakeResult({rows, n}, track, {scores.impl()});
  const float* sp = scores.data();
  float* op = out.data();
  ParallelForChunked(
      0, rows,
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const int64_t t = r % n;  // token index -> attend columns [0, t]
          const float* srow = sp + r * n;
          float* orow = op + r * n;
          float mx = srow[0];
          for (int64_t j = 1; j <= t; ++j) mx = std::max(mx, srow[j]);
          float z = 0.0f;
          for (int64_t j = 0; j <= t; ++j) {
            const float e = std::exp(srow[j] - mx);
            orow[j] = e;
            z += e;
          }
          const float inv = 1.0f / z;
          for (int64_t j = 0; j <= t; ++j) orow[j] *= inv;
          for (int64_t j = t + 1; j < n; ++j) orow[j] = 0.0f;
        }
      },
      rows * n > (1 << 16), 16);
  if (track) {
    TensorImpl* si = scores.impl().get();
    TensorImpl* oi = out.impl().get();
    out.impl()->backward = [si, oi, rows, n]() {
      const float* g = oi->grad.data();
      const float* y = oi->value.data();
      float* gs = si->MutableGrad();
      for (int64_t r = 0; r < rows; ++r) {
        const int64_t t = r % n;
        const float* grow = g + r * n;
        const float* yrow = y + r * n;
        float* gsrow = gs + r * n;
        float dot = 0.0f;
        for (int64_t j = 0; j <= t; ++j) dot += grow[j] * yrow[j];
        for (int64_t j = 0; j <= t; ++j) gsrow[j] += yrow[j] * (grow[j] - dot);
      }
    };
  }
  return out;
}

Tensor BatchedAttend(const Tensor& attn, const Tensor& v, int64_t batch, int64_t n) {
  DUET_CHECK_EQ(attn.ndim(), 2);
  DUET_CHECK_EQ(v.ndim(), 2);
  DUET_CHECK_EQ(attn.dim(0), batch * n);
  DUET_CHECK_EQ(attn.dim(1), n);
  DUET_CHECK_EQ(v.dim(0), batch * n);
  const int64_t d = v.dim(1);
  const bool track = TrackGrad({&attn, &v});
  Tensor out = MakeResult({batch * n, d}, track, {attn.impl(), v.impl()});
  const float* ap = attn.data();
  const float* vp = v.data();
  float* op = out.data();
  ParallelForChunked(
      0, batch,
      [&](int64_t lo, int64_t hi) {
        for (int64_t b = lo; b < hi; ++b) {
          const float* ab = ap + b * n * n;
          const float* vb = vp + b * n * d;
          float* ob = op + b * n * d;
          for (int64_t i = 0; i < n; ++i) {
            float* orow = ob + i * d;
            for (int64_t j = 0; j < n; ++j) {
              const float w = ab[i * n + j];
              if (w == 0.0f) continue;
              const float* vrow = vb + j * d;
              for (int64_t c = 0; c < d; ++c) orow[c] += w * vrow[c];
            }
          }
        }
      },
      batch * n * n * d > (1 << 17), 1);
  if (track) {
    TensorImpl* ai = attn.impl().get();
    TensorImpl* vi = v.impl().get();
    TensorImpl* oi = out.impl().get();
    out.impl()->backward = [ai, vi, oi, batch, n, d]() {
      const float* g = oi->grad.data();
      const float* av = ai->value.data();
      const float* vv = vi->value.data();
      float* ga = ai->MutableGrad();
      float* gv = vi->MutableGrad();
      for (int64_t b = 0; b < batch; ++b) {
        const float* gb = g + b * n * d;
        const float* ab = av + b * n * n;
        const float* vb = vv + b * n * d;
        for (int64_t i = 0; i < n; ++i) {
          const float* grow = gb + i * d;
          for (int64_t j = 0; j < n; ++j) {
            if (ga != nullptr) {
              const float* vrow = vb + j * d;
              float acc = 0.0f;
              for (int64_t c = 0; c < d; ++c) acc += grow[c] * vrow[c];
              ga[(b * n + i) * n + j] += acc;
            }
            const float w = ab[i * n + j];
            if (gv == nullptr || w == 0.0f) continue;
            float* gvrow = gv + (b * n + j) * d;
            for (int64_t c = 0; c < d; ++c) gvrow[c] += w * grow[c];
          }
        }
      }
    };
  }
  return out;
}

Tensor AddRowBroadcast(const Tensor& x, const Tensor& table) {
  DUET_CHECK_EQ(x.ndim(), 2);
  DUET_CHECK_EQ(table.ndim(), 2);
  const int64_t rows = x.dim(0), d = x.dim(1);
  const int64_t n = table.dim(0);
  DUET_CHECK_EQ(d, table.dim(1));
  DUET_CHECK_EQ(rows % n, 0);
  const bool track = TrackGrad({&x, &table});
  Tensor out = MakeResult({rows, d}, track, {x.impl(), table.impl()});
  const float* xp = x.data();
  const float* tp = table.data();
  float* op = out.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* trow = tp + (r % n) * d;
    const float* xrow = xp + r * d;
    float* orow = op + r * d;
    for (int64_t c = 0; c < d; ++c) orow[c] = xrow[c] + trow[c];
  }
  if (track) {
    TensorImpl* xi = x.impl().get();
    TensorImpl* ti = table.impl().get();
    TensorImpl* oi = out.impl().get();
    out.impl()->backward = [xi, ti, oi, rows, n, d]() {
      const float* g = oi->grad.data();
      float* gx = xi->MutableGrad();
      float* gt = ti->MutableGrad();
      for (int64_t r = 0; r < rows; ++r) {
        const float* grow = g + r * d;
        if (gx != nullptr) {
          float* gxrow = gx + r * d;
          for (int64_t c = 0; c < d; ++c) gxrow[c] += grow[c];
        }
        if (gt != nullptr) {
          float* gtrow = gt + (r % n) * d;
          for (int64_t c = 0; c < d; ++c) gtrow[c] += grow[c];
        }
      }
    };
  }
  return out;
}

}  // namespace duet::tensor
