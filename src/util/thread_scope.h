// RAII thread-local ambient values: the seam that reaches call sites without
// options plumbing.  The sweep layer installs one scope per unit (GP backend,
// controller policy, SCP warm-start hooks); code below reads the innermost
// scope on its own thread through `current()`.
//
// Scopes nest innermost-wins and restore the enclosing value on destruction.
// `Tag` separates scopes that share a value type (two std::string selections
// must not see each other).
#pragma once

#include <utility>

namespace hydra::util {

template <typename T, typename Tag = T>
class ThreadScope {
 public:
  explicit ThreadScope(T value) : value_(std::move(value)), previous_(current_) {
    current_ = &value_;
  }
  ~ThreadScope() { current_ = previous_; }
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

  /// The innermost scope's value on this thread, or nullptr when none.
  static const T* current() { return current_; }

 private:
  T value_;
  const T* previous_;
  static inline thread_local const T* current_ = nullptr;
};

}  // namespace hydra::util
