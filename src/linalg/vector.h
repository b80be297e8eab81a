// Small dense vector used by the geometric-programming solver.
//
// Deliberately minimal: the GP instances this library solves have at most a
// few dozen variables (one period per security task), so a simple
// std::vector<double>-backed type with checked indexing is the right tool —
// no expression templates, no BLAS.  Hot loops check sizes once at entry and
// then walk `raw()` pointers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <vector>

#include "util/contracts.h"

namespace hydra::linalg {

class Vector {
 public:
  Vector() = default;
  explicit Vector(std::size_t n, double value = 0.0) : data_(n, value) {}
  Vector(std::initializer_list<double> values) : data_(values) {}

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Resizes to n entries all set to `value`, reusing the existing allocation
  /// when capacity allows — the reset path for caller-owned scratch buffers.
  void assign(std::size_t n, double value = 0.0) {
    if (n == data_.size()) {
      std::fill(data_.begin(), data_.end(), value);  // the common, inlined case
    } else {
      data_.assign(n, value);
    }
  }

  double& operator[](std::size_t i) {
    HYDRA_REQUIRE(i < data_.size(), "vector index out of range");
    return data_[i];
  }
  double operator[](std::size_t i) const {
    HYDRA_REQUIRE(i < data_.size(), "vector index out of range");
    return data_[i];
  }

  const std::vector<double>& data() const { return data_; }

  /// Unchecked element pointers for hot loops that validated sizes once at
  /// entry (the GP evaluation kernel, Cholesky); everything else indexes
  /// through the checked operator[].
  double* raw() { return data_.data(); }
  const double* raw() const { return data_.data(); }

  Vector& operator+=(const Vector& rhs) {
    HYDRA_REQUIRE(rhs.size() == size(), "vector size mismatch");
    for (std::size_t i = 0; i < size(); ++i) data_[i] += rhs.data_[i];
    return *this;
  }
  Vector& operator-=(const Vector& rhs) {
    HYDRA_REQUIRE(rhs.size() == size(), "vector size mismatch");
    for (std::size_t i = 0; i < size(); ++i) data_[i] -= rhs.data_[i];
    return *this;
  }
  Vector& operator*=(double s) {
    for (auto& v : data_) v *= s;
    return *this;
  }

  friend Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
  friend Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
  friend Vector operator*(double s, Vector v) { return v *= s; }
  friend Vector operator*(Vector v, double s) { return v *= s; }

  friend double dot(const Vector& a, const Vector& b) {
    HYDRA_REQUIRE(a.size() == b.size(), "vector size mismatch");
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) acc += a.data_[i] * b.data_[i];
    return acc;
  }

  double norm2() const { return std::sqrt(dot(*this, *this)); }

  double norm_inf() const {
    double m = 0.0;
    for (double v : data_) m = std::fmax(m, std::fabs(v));
    return m;
  }

  bool all_finite() const {
    for (double v : data_) {
      if (!std::isfinite(v)) return false;
    }
    return true;
  }

 private:
  std::vector<double> data_;
};

}  // namespace hydra::linalg
