/// \file tensor.hpp
/// \brief Dense row-major float tensor used by the retraining framework.
///
/// A deliberately small tensor: contiguous float storage, shape metadata,
/// reductions and elementwise ops. NCHW layout throughout. Substitutes the
/// role PyTorch plays in the paper's framework. The kernels that compute on
/// tensors live in src/kernels: the float GEMMs (kernels/gemm.hpp) and the
/// conv layout transforms (im2col / col2im).
#pragma once

#include "util/rng.hpp"

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace amret::tensor {

/// Shape type; dimensions are non-negative.
using Shape = std::vector<std::int64_t>;

/// Dense row-major float tensor.
class Tensor {
public:
    Tensor() = default;

    /// Zero-initialized tensor of the given shape.
    explicit Tensor(Shape shape);

    static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
    static Tensor full(Shape shape, float value);
    /// I.i.d. normal entries with the given standard deviation.
    static Tensor randn(Shape shape, util::Rng& rng, float stddev = 1.0f);
    /// He/Kaiming-normal initialization for a weight of the given fan-in.
    static Tensor he_init(Shape shape, std::int64_t fan_in, util::Rng& rng);
    /// 1-D tensor from explicit values.
    static Tensor from(std::initializer_list<float> values);

    [[nodiscard]] const Shape& shape() const { return shape_; }
    [[nodiscard]] std::int64_t dim(std::size_t i) const { return shape_[i]; }
    [[nodiscard]] std::size_t rank() const { return shape_.size(); }
    [[nodiscard]] std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
    [[nodiscard]] bool empty() const { return data_.empty(); }

    [[nodiscard]] float* data() { return data_.data(); }
    [[nodiscard]] const float* data() const { return data_.data(); }
    float& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
    float operator[](std::int64_t i) const { return data_[static_cast<std::size_t>(i)]; }

    /// Reinterprets the storage with a new shape of identical numel.
    [[nodiscard]] Tensor reshaped(Shape shape) const;

    /// Sets every element to \p value.
    void fill(float value);

    /// In-place scaling.
    void scale(float factor);

    /// this += other (same shape).
    void add_(const Tensor& other);
    /// this += alpha * other (same shape).
    void axpy_(float alpha, const Tensor& other);

    [[nodiscard]] float min() const;
    [[nodiscard]] float max() const;
    [[nodiscard]] float sum() const;
    [[nodiscard]] float mean() const;
    /// Square root of the mean of squares (useful for gradient diagnostics).
    [[nodiscard]] float rms() const;

    [[nodiscard]] std::string shape_str() const;

private:
    Shape shape_;
    std::vector<float> data_;
};

/// Geometry of a conv/im2col transform.
struct ConvGeom {
    std::int64_t batch = 0, in_ch = 0, in_h = 0, in_w = 0;
    std::int64_t kernel = 3, stride = 1, pad = 1;
    [[nodiscard]] std::int64_t out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
    [[nodiscard]] std::int64_t out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
    /// Patch length: in_ch * kernel * kernel.
    [[nodiscard]] std::int64_t patch() const { return in_ch * kernel * kernel; }
    /// Number of output positions: batch * out_h * out_w.
    [[nodiscard]] std::int64_t positions() const { return batch * out_h() * out_w(); }
};

// The im2col / col2im planners moved to src/kernels (kernels::im2col,
// kernels::col2im): they are layout transforms of the kernel layer, shared
// by the float, fake-quant and integer-inference paths.

} // namespace amret::tensor
