// Dense row-major float tensor.
//
// Design notes:
//  * Single element type (float) — weights/activations in the NCS context are
//    low-precision anyway; the linear-algebra module promotes to double
//    internally where accuracy matters (covariances, eigen solves).
//  * Always contiguous, row-major. Views are deliberately omitted; the few
//    places that would use them (im2col, tiling) copy instead, which keeps
//    aliasing rules trivial (C++ Core Guidelines P.1/ES.65 friendly).
//  * Shapes are std::vector<std::size_t>; rank is small (≤ 4 in practice:
//    N×C×H×W activations, (in,out) matrices).
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace gs {

/// Shape of a tensor: extent per dimension, row-major layout.
using Shape = std::vector<std::size_t>;

/// Returns the number of elements a shape spans (0 for the empty shape).
/// Throws gs::Error when the product overflows std::size_t.
std::size_t shape_numel(const Shape& shape);

/// Human-readable "[2, 3, 4]" form for diagnostics.
std::string shape_to_string(const Shape& shape);

/// Dense row-major float tensor with value semantics.
class Tensor {
 public:
  /// Empty tensor (rank 0, one element is NOT implied; numel()==0).
  Tensor() = default;

  /// Allocates a zero-filled tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Allocates and fills with a constant.
  Tensor(Shape shape, float fill_value);

  /// Builds from explicit data (size must match the shape).
  Tensor(Shape shape, std::vector<float> data);

  /// Convenience 2-D factory: `Tensor::matrix(rows, cols)`.
  static Tensor matrix(std::size_t rows, std::size_t cols,
                       float fill_value = 0.0f);

  /// 2-D factory from a nested initializer list (test convenience).
  static Tensor from_rows(
      std::initializer_list<std::initializer_list<float>> rows);

  // --- Shape queries ------------------------------------------------------
  const Shape& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t numel() const { return data_.size(); }
  std::size_t dim(std::size_t i) const;
  /// Rows/cols of a rank-2 tensor (checked).
  std::size_t rows() const;
  std::size_t cols() const;
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  // --- Element access -----------------------------------------------------
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// Checked multi-index access (rank must match argument count).
  float& at(std::size_t i);
  float at(std::size_t i) const;
  float& at(std::size_t i, std::size_t j);
  float at(std::size_t i, std::size_t j) const;
  float& at(std::size_t i, std::size_t j, std::size_t k);
  float at(std::size_t i, std::size_t j, std::size_t k) const;
  float& at(std::size_t i, std::size_t j, std::size_t k, std::size_t l);
  float at(std::size_t i, std::size_t j, std::size_t k, std::size_t l) const;

  // --- Mutation -----------------------------------------------------------
  void fill(float value);
  void set_zero() { fill(0.0f); }
  /// Reinterprets the data with a new shape of identical numel.
  void reshape(Shape new_shape);
  /// Returns a reshaped copy.
  Tensor reshaped(Shape new_shape) const;
  /// Moves the element storage out and leaves an empty tensor, so a caller
  /// can recycle the buffer.
  std::vector<float> release();

  /// Fills i.i.d. uniform in [lo, hi).
  void fill_uniform(Rng& rng, float lo, float hi);
  /// Fills i.i.d. normal.
  void fill_gaussian(Rng& rng, float mean, float stddev);

  /// Applies `f` elementwise in place.
  void apply(const std::function<float(float)>& f);

  // --- Elementwise arithmetic (shape-checked) ------------------------------
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(float scalar);

  /// this += alpha * other  (axpy).
  void add_scaled(const Tensor& other, float alpha);

  // --- Reductions ----------------------------------------------------------
  float sum() const;
  float min() const;
  float max() const;
  /// Euclidean (Frobenius) norm, accumulated in double.
  double norm() const;
  /// Sum of squares, accumulated in double.
  double squared_norm() const;
  /// Index of the maximum element (first on ties). Requires numel() > 0.
  std::size_t argmax() const;
  /// Count of elements with |x| <= tol.
  std::size_t count_zeros(float tol = 0.0f) const;

 private:
  Shape shape_;
  std::vector<float> data_;
};

/// Elementwise binary ops returning new tensors.
Tensor operator+(Tensor lhs, const Tensor& rhs);
Tensor operator-(Tensor lhs, const Tensor& rhs);
Tensor operator*(Tensor lhs, float scalar);

/// Max elementwise absolute difference; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);

/// True if all elements differ by at most `tol`.
bool allclose(const Tensor& a, const Tensor& b, float tol = 1e-5f);

}  // namespace gs
