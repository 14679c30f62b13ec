#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace gs {

std::size_t shape_numel(const Shape& shape) {
  if (shape.empty()) return 0;
  std::size_t n = 1;
  for (std::size_t d : shape) {
    GS_CHECK_MSG(!__builtin_mul_overflow(n, d, &n),
                 "shape " << shape_to_string(shape)
                          << " overflows the element count");
  }
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream oss;
  oss << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) oss << ", ";
    oss << shape[i];
  }
  oss << ']';
  return oss.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {
  for (std::size_t d : shape_) {
    GS_CHECK_MSG(d > 0, "zero-extent dimension in " << shape_to_string(shape_));
  }
}

Tensor::Tensor(Shape shape, float fill_value) : Tensor(std::move(shape)) {
  fill(fill_value);
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  GS_CHECK_MSG(data_.size() == shape_numel(shape_),
               "data size " << data_.size() << " != numel of "
                            << shape_to_string(shape_));
}

Tensor Tensor::matrix(std::size_t rows, std::size_t cols, float fill_value) {
  return Tensor(Shape{rows, cols}, fill_value);
}

Tensor Tensor::from_rows(
    std::initializer_list<std::initializer_list<float>> rows) {
  GS_CHECK(rows.size() > 0);
  const std::size_t r = rows.size();
  const std::size_t c = rows.begin()->size();
  GS_CHECK(c > 0);
  std::vector<float> data;
  data.reserve(r * c);
  for (const auto& row : rows) {
    GS_CHECK_MSG(row.size() == c, "ragged initializer list");
    data.insert(data.end(), row.begin(), row.end());
  }
  return Tensor(Shape{r, c}, std::move(data));
}

std::size_t Tensor::dim(std::size_t i) const {
  GS_CHECK_MSG(i < shape_.size(), "dim " << i << " out of rank " << rank());
  return shape_[i];
}

std::size_t Tensor::rows() const {
  GS_CHECK_MSG(rank() == 2, "rows() on rank-" << rank() << " tensor");
  return shape_[0];
}

std::size_t Tensor::cols() const {
  GS_CHECK_MSG(rank() == 2, "cols() on rank-" << rank() << " tensor");
  return shape_[1];
}

float& Tensor::at(std::size_t i) {
  GS_CHECK(rank() == 1 && i < shape_[0]);
  return data_[i];
}
float Tensor::at(std::size_t i) const {
  GS_CHECK(rank() == 1 && i < shape_[0]);
  return data_[i];
}
float& Tensor::at(std::size_t i, std::size_t j) {
  GS_CHECK(rank() == 2 && i < shape_[0] && j < shape_[1]);
  return data_[i * shape_[1] + j];
}
float Tensor::at(std::size_t i, std::size_t j) const {
  GS_CHECK(rank() == 2 && i < shape_[0] && j < shape_[1]);
  return data_[i * shape_[1] + j];
}
float& Tensor::at(std::size_t i, std::size_t j, std::size_t k) {
  GS_CHECK(rank() == 3 && i < shape_[0] && j < shape_[1] && k < shape_[2]);
  return data_[(i * shape_[1] + j) * shape_[2] + k];
}
float Tensor::at(std::size_t i, std::size_t j, std::size_t k) const {
  GS_CHECK(rank() == 3 && i < shape_[0] && j < shape_[1] && k < shape_[2]);
  return data_[(i * shape_[1] + j) * shape_[2] + k];
}
float& Tensor::at(std::size_t i, std::size_t j, std::size_t k, std::size_t l) {
  GS_CHECK(rank() == 4 && i < shape_[0] && j < shape_[1] && k < shape_[2] &&
           l < shape_[3]);
  return data_[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
}
float Tensor::at(std::size_t i, std::size_t j, std::size_t k,
                 std::size_t l) const {
  GS_CHECK(rank() == 4 && i < shape_[0] && j < shape_[1] && k < shape_[2] &&
           l < shape_[3]);
  return data_[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::reshape(Shape new_shape) {
  GS_CHECK_MSG(shape_numel(new_shape) == numel(),
               "reshape " << shape_to_string(shape_) << " -> "
                          << shape_to_string(new_shape));
  shape_ = std::move(new_shape);
}

Tensor Tensor::reshaped(Shape new_shape) const {
  Tensor copy = *this;
  copy.reshape(std::move(new_shape));
  return copy;
}

std::vector<float> Tensor::release() {
  shape_.clear();
  return std::move(data_);
}

void Tensor::fill_uniform(Rng& rng, float lo, float hi) {
  for (float& v : data_) {
    v = static_cast<float>(rng.uniform(lo, hi));
  }
}

void Tensor::fill_gaussian(Rng& rng, float mean, float stddev) {
  for (float& v : data_) {
    v = static_cast<float>(rng.gaussian(mean, stddev));
  }
}

void Tensor::apply(const std::function<float(float)>& f) {
  for (float& v : data_) v = f(v);
}

Tensor& Tensor::operator+=(const Tensor& other) {
  GS_CHECK_MSG(same_shape(other), "shape mismatch "
                                      << shape_to_string(shape_) << " vs "
                                      << shape_to_string(other.shape_));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  GS_CHECK_MSG(same_shape(other), "shape mismatch "
                                      << shape_to_string(shape_) << " vs "
                                      << shape_to_string(other.shape_));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float scalar) {
  for (float& v : data_) v *= scalar;
  return *this;
}

void Tensor::add_scaled(const Tensor& other, float alpha) {
  GS_CHECK(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

float Tensor::sum() const {
  double acc = 0.0;
  for (float v : data_) acc += v;
  return static_cast<float>(acc);
}

float Tensor::min() const {
  GS_CHECK(!data_.empty());
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  GS_CHECK(!data_.empty());
  return *std::max_element(data_.begin(), data_.end());
}

double Tensor::squared_norm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return acc;
}

double Tensor::norm() const { return std::sqrt(squared_norm()); }

std::size_t Tensor::argmax() const {
  GS_CHECK(!data_.empty());
  return static_cast<std::size_t>(
      std::max_element(data_.begin(), data_.end()) - data_.begin());
}

std::size_t Tensor::count_zeros(float tol) const {
  std::size_t n = 0;
  for (float v : data_) {
    if (std::fabs(v) <= tol) ++n;
  }
  return n;
}

Tensor operator+(Tensor lhs, const Tensor& rhs) {
  lhs += rhs;
  return lhs;
}

Tensor operator-(Tensor lhs, const Tensor& rhs) {
  lhs -= rhs;
  return lhs;
}

Tensor operator*(Tensor lhs, float scalar) {
  lhs *= scalar;
  return lhs;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  GS_CHECK(a.same_shape(b));
  float m = 0.0f;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

bool allclose(const Tensor& a, const Tensor& b, float tol) {
  if (!a.same_shape(b)) return false;
  return max_abs_diff(a, b) <= tol;
}

}  // namespace gs
