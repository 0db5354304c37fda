#pragma once
// Numerical kernels for the offline ANN trainer (paper Sec. IV-A: "the
// convolutional layers are pretrained offline with their respective datasets
// before mapping on to Loihi"). Direct (non-im2col) convolution is plenty
// for the paper's two small conv layers.
//
// Conventions: images are CHW; conv weights are {out_c, in_c, k, k};
// convolutions are valid (no padding) with square kernels and stride s, so
// out = (in - k) / s + 1 exactly as the paper's topology string
// "5x5k-16c-2s / 3x3k-8c-2s" implies.

#include <cstddef>

#include "common/tensor.hpp"

namespace neuro::ann {

using common::Tensor;

/// Output spatial size of a valid convolution with floor semantics:
/// (in - k) / stride + 1. Throws std::invalid_argument for a zero stride or
/// a kernel that exceeds the input.
std::size_t conv_out_dim(std::size_t in, std::size_t k, std::size_t stride);

/// y[oc,oy,ox] = b[oc] + sum_{ic,ky,kx} w[oc,ic,ky,kx] * x[ic, oy*s+ky, ox*s+kx]
Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                      std::size_t stride);

/// Gradients of the valid convolution. `dx` has x's shape; `dw`/`db` are
/// accumulated into (caller zeroes them between batches).
Tensor conv2d_backward(const Tensor& x, const Tensor& w, const Tensor& dy,
                       std::size_t stride, Tensor& dw, Tensor& db);

/// y = W x + b with W {out, in}.
Tensor dense_forward(const Tensor& x, const Tensor& w, const Tensor& b);

Tensor dense_backward(const Tensor& x, const Tensor& w, const Tensor& dy, Tensor& dw,
                      Tensor& db);

/// In-place ReLU returning a copy; backward masks by the forward input.
Tensor relu_forward(const Tensor& x);
Tensor relu_backward(const Tensor& x, const Tensor& dy);

/// Numerically stable softmax + cross-entropy against an integer label.
/// Returns the loss; writes dlogits (softmax - onehot).
float softmax_cross_entropy(const Tensor& logits, std::size_t label, Tensor& dlogits);

}  // namespace neuro::ann
