#include "ann/ops.hpp"

#include <cmath>
#include <stdexcept>

namespace neuro::ann {

std::size_t conv_out_dim(std::size_t in, std::size_t k, std::size_t stride) {
    if (stride == 0) throw std::invalid_argument("conv_out_dim: zero stride");
    if (k > in) throw std::invalid_argument("conv_out_dim: kernel larger than input");
    // Floor semantics: border pixels that do not fit a full kernel window are
    // dropped (28 -> 12 for the paper's 5x5k/2s layer).
    return (in - k) / stride + 1;
}

Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                      std::size_t stride) {
    const std::size_t in_c = x.dim(0);
    const std::size_t in_h = x.dim(1);
    const std::size_t in_w = x.dim(2);
    const std::size_t out_c = w.dim(0);
    const std::size_t k = w.dim(2);
    if (w.dim(1) != in_c) throw std::invalid_argument("conv2d_forward: channel mismatch");
    const std::size_t out_h = conv_out_dim(in_h, k, stride);
    const std::size_t out_w = conv_out_dim(in_w, k, stride);

    Tensor y({out_c, out_h, out_w});
    for (std::size_t oc = 0; oc < out_c; ++oc) {
        for (std::size_t oy = 0; oy < out_h; ++oy) {
            for (std::size_t ox = 0; ox < out_w; ++ox) {
                float acc = b[oc];
                for (std::size_t ic = 0; ic < in_c; ++ic) {
                    for (std::size_t ky = 0; ky < k; ++ky) {
                        const std::size_t iy = oy * stride + ky;
                        for (std::size_t kx = 0; kx < k; ++kx) {
                            acc += w.at4(oc, ic, ky, kx) *
                                   x.at3(ic, iy, ox * stride + kx);
                        }
                    }
                }
                y.at3(oc, oy, ox) = acc;
            }
        }
    }
    return y;
}

Tensor conv2d_backward(const Tensor& x, const Tensor& w, const Tensor& dy,
                       std::size_t stride, Tensor& dw, Tensor& db) {
    const std::size_t in_c = x.dim(0);
    const std::size_t out_c = w.dim(0);
    const std::size_t k = w.dim(2);
    const std::size_t out_h = dy.dim(1);
    const std::size_t out_w = dy.dim(2);

    Tensor dx(std::vector<std::size_t>(x.shape()));
    for (std::size_t oc = 0; oc < out_c; ++oc) {
        for (std::size_t oy = 0; oy < out_h; ++oy) {
            for (std::size_t ox = 0; ox < out_w; ++ox) {
                const float g = dy.at3(oc, oy, ox);
                if (g == 0.0f) continue;
                db[oc] += g;
                for (std::size_t ic = 0; ic < in_c; ++ic) {
                    for (std::size_t ky = 0; ky < k; ++ky) {
                        const std::size_t iy = oy * stride + ky;
                        for (std::size_t kx = 0; kx < k; ++kx) {
                            const std::size_t ix = ox * stride + kx;
                            dw.at4(oc, ic, ky, kx) += g * x.at3(ic, iy, ix);
                            dx.at3(ic, iy, ix) += g * w.at4(oc, ic, ky, kx);
                        }
                    }
                }
            }
        }
    }
    return dx;
}

Tensor dense_forward(const Tensor& x, const Tensor& w, const Tensor& b) {
    const std::size_t out = w.dim(0);
    const std::size_t in = w.dim(1);
    if (x.size() != in) throw std::invalid_argument("dense_forward: size mismatch");
    Tensor y({out});
    for (std::size_t o = 0; o < out; ++o) {
        float acc = b[o];
        const float* row = w.data() + o * in;
        for (std::size_t i = 0; i < in; ++i) acc += row[i] * x[i];
        y[o] = acc;
    }
    return y;
}

Tensor dense_backward(const Tensor& x, const Tensor& w, const Tensor& dy, Tensor& dw,
                      Tensor& db) {
    const std::size_t out = w.dim(0);
    const std::size_t in = w.dim(1);
    Tensor dx({in});
    for (std::size_t o = 0; o < out; ++o) {
        const float g = dy[o];
        db[o] += g;
        const float* row = w.data() + o * in;
        float* drow = dw.data() + o * in;
        for (std::size_t i = 0; i < in; ++i) {
            drow[i] += g * x[i];
            dx[i] += g * row[i];
        }
    }
    return dx;
}

Tensor relu_forward(const Tensor& x) {
    Tensor y = x;
    for (auto& v : y)
        if (v < 0.0f) v = 0.0f;
    return y;
}

Tensor relu_backward(const Tensor& x, const Tensor& dy) {
    Tensor dx = dy;
    for (std::size_t i = 0; i < x.size(); ++i)
        if (x[i] <= 0.0f) dx[i] = 0.0f;
    return dx;
}

float softmax_cross_entropy(const Tensor& logits, std::size_t label, Tensor& dlogits) {
    const std::size_t n = logits.size();
    if (label >= n) throw std::out_of_range("softmax_cross_entropy: bad label");
    const float m = logits.max();
    float denom = 0.0f;
    for (std::size_t i = 0; i < n; ++i) denom += std::exp(logits[i] - m);
    const float log_denom = std::log(denom);

    dlogits = Tensor({n});
    for (std::size_t i = 0; i < n; ++i) {
        const float p = std::exp(logits[i] - m) / denom;
        dlogits[i] = p - (i == label ? 1.0f : 0.0f);
    }
    // loss = -log softmax(label)
    return -(logits[label] - m - log_denom);
}

}  // namespace neuro::ann
