// Small dense row-major matrix for the geometric-programming solver.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "linalg/vector.h"
#include "util/contracts.h"

namespace hydra::linalg {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double value = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Reshapes to rows×cols with every entry set to `value`, reusing the
  /// existing allocation when capacity allows — the reset path for
  /// caller-owned scratch buffers.
  void assign(std::size_t rows, std::size_t cols, double value = 0.0) {
    rows_ = rows;
    cols_ = cols;
    if (rows * cols == data_.size()) {
      std::fill(data_.begin(), data_.end(), value);  // the common, inlined case
    } else {
      data_.assign(rows * cols, value);
    }
  }

  /// Unchecked row-major storage for hot loops that validated the shape once
  /// at entry; entry (r, c) lives at raw()[r * cols() + c].
  double* raw() { return data_.data(); }
  const double* raw() const { return data_.data(); }

  double& operator()(std::size_t r, std::size_t c) {
    HYDRA_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    HYDRA_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  Matrix& operator+=(const Matrix& rhs) {
    HYDRA_REQUIRE(rhs.rows_ == rows_ && rhs.cols_ == cols_, "matrix size mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
    return *this;
  }
  Matrix& operator*=(double s) {
    for (auto& v : data_) v *= s;
    return *this;
  }

  /// this += scale * rhs, without materializing the scaled copy.
  Matrix& add_scaled(const Matrix& rhs, double scale) {
    HYDRA_REQUIRE(rhs.rows_ == rows_ && rhs.cols_ == cols_, "matrix size mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += scale * rhs.data_[i];
    return *this;
  }

  friend Vector operator*(const Matrix& m, const Vector& v) {
    HYDRA_REQUIRE(m.cols_ == v.size(), "matrix-vector size mismatch");
    Vector out(m.rows_);
    for (std::size_t r = 0; r < m.rows_; ++r) {
      double acc = 0.0;
      for (std::size_t c = 0; c < m.cols_; ++c) acc += m(r, c) * v[c];
      out[r] = acc;
    }
    return out;
  }

  /// Rank-1 update: this += scale * v * v^T (used to assemble Hessians).
  void add_outer(const Vector& v, double scale) {
    HYDRA_REQUIRE(rows_ == cols_ && rows_ == v.size(), "outer-product size mismatch");
    add_outer(v.raw(), scale);
  }

  /// Unchecked rank-1 update: `v` must hold rows() entries and the matrix
  /// must be square.  Rows whose scaled entry is zero are skipped.
  void add_outer(const double* v, double scale) {
    double* row = data_.data();
    for (std::size_t r = 0; r < rows_; ++r, row += cols_) {
      const double vr = scale * v[r];
      if (vr == 0.0) continue;
      for (std::size_t c = 0; c < cols_; ++c) row[c] += vr * v[c];
    }
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace hydra::linalg
