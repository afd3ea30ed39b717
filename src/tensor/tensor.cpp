#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace amret::tensor {

namespace {

std::int64_t shape_numel(const Shape& shape) {
    std::int64_t n = 1;
    for (const std::int64_t d : shape) {
        assert(d >= 0);
        n *= d;
    }
    return n;
}

} // namespace

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
    data_.assign(static_cast<std::size_t>(shape_numel(shape_)), 0.0f);
}

Tensor Tensor::full(Shape shape, float value) {
    Tensor t(std::move(shape));
    t.fill(value);
    return t;
}

Tensor Tensor::randn(Shape shape, util::Rng& rng, float stddev) {
    Tensor t(std::move(shape));
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>(rng.normal(0.0, stddev));
    return t;
}

Tensor Tensor::he_init(Shape shape, std::int64_t fan_in, util::Rng& rng) {
    assert(fan_in > 0);
    const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
    return randn(std::move(shape), rng, stddev);
}

Tensor Tensor::from(std::initializer_list<float> values) {
    Tensor t(Shape{static_cast<std::int64_t>(values.size())});
    std::copy(values.begin(), values.end(), t.data());
    return t;
}

Tensor Tensor::reshaped(Shape shape) const {
    assert(shape_numel(shape) == numel());
    Tensor t = *this;
    t.shape_ = std::move(shape);
    return t;
}

void Tensor::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

void Tensor::scale(float factor) {
    for (auto& v : data_) v *= factor;
}

void Tensor::add_(const Tensor& other) {
    assert(numel() == other.numel());
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::axpy_(float alpha, const Tensor& other) {
    assert(numel() == other.numel());
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

float Tensor::min() const {
    assert(!data_.empty());
    return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
    assert(!data_.empty());
    return *std::max_element(data_.begin(), data_.end());
}

float Tensor::sum() const { return std::accumulate(data_.begin(), data_.end(), 0.0f); }

float Tensor::mean() const {
    assert(!data_.empty());
    return sum() / static_cast<float>(data_.size());
}

float Tensor::rms() const {
    assert(!data_.empty());
    double acc = 0.0;
    for (const float v : data_) acc += static_cast<double>(v) * v;
    return static_cast<float>(std::sqrt(acc / static_cast<double>(data_.size())));
}

std::string Tensor::shape_str() const {
    std::ostringstream os;
    os << "(";
    for (std::size_t i = 0; i < shape_.size(); ++i) os << (i ? ", " : "") << shape_[i];
    os << ")";
    return os.str();
}

} // namespace amret::tensor
