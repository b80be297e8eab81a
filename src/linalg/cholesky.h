// Symmetric positive-definite solves for Newton systems.
//
// `solve_spd` attempts a plain Cholesky factorization; if the matrix is not
// numerically positive definite (which happens for barely-curved barrier
// Hessians), it retries with increasing diagonal regularization — the
// standard modified-Newton fallback.  The solver only needs descent
// directions, so a regularized solve is acceptable.
#pragma once

#include <optional>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace hydra::linalg {

/// In-place Cholesky factorization result: L with A = L·Lᵀ (lower triangle).
/// Returns std::nullopt if A is not numerically positive definite.
std::optional<Matrix> cholesky(const Matrix& a);

/// Solves L·Lᵀ x = b given the Cholesky factor L.
Vector cholesky_solve(const Matrix& l, const Vector& b);

/// Solves A x = b for symmetric A, regularizing the diagonal if needed.
/// Throws std::runtime_error if the system cannot be solved even with heavy
/// regularization (indicates non-finite input).
Vector solve_spd(const Matrix& a, const Vector& b);

/// Caller-owned scratch for the workspace variants below.  A hot loop (one
/// Newton solve per iteration, dozens of iterations per barrier stage) holds
/// one of these and every solve reuses the same four buffers instead of
/// allocating a fresh Matrix/Vector quartet per call.  The buffers are
/// resized on demand, so one workspace serves systems of any (varying) size.
struct SpdWorkspace {
  Matrix work;  ///< regularized copy of A (shifted retries only)
  Matrix l;     ///< Cholesky factor
  Vector y;     ///< forward-substitution intermediate
  Vector x;     ///< solution (referenced by solve_spd_into's return)
};

/// Workspace variant of `cholesky`: factorizes `a` into `l` (reshaped as
/// needed; only the lower triangle is meaningful).  Returns false if `a` is
/// not numerically positive definite.  Same arithmetic as `cholesky`.
bool cholesky_factorize(const Matrix& a, Matrix& l);

/// Workspace variant of `cholesky_solve`: solves L·Lᵀ x = b into `x` using
/// `y` as forward-substitution scratch.  Same arithmetic as `cholesky_solve`.
void cholesky_solve_into(const Matrix& l, const Vector& b, Vector& y, Vector& x);

/// Workspace variant of `solve_spd`: identical arithmetic (same
/// regularization ladder), but every intermediate lives in `ws` and the
/// returned reference aliases `ws.x` — valid until the next call on `ws`.
const Vector& solve_spd_into(const Matrix& a, const Vector& b, SpdWorkspace& ws);

}  // namespace hydra::linalg
