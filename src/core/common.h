// Common primitives: status/result types and assertion macros.
//
// The public API follows the storage-engine idiom of returning Status/Result
// for fallible user-facing paths (parsing, plan validation, evaluation of
// user-supplied plans); internal invariants use TQP_DCHECK.
#ifndef TQP_CORE_COMMON_H_
#define TQP_CORE_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace tqp {

/// Outcome of a fallible operation. Either OK or an error with a message.
class Status {
 public:
  Status() : ok_(true) {}

  static Status OK() { return Status(); }
  static Status Error(std::string msg) { return Status(false, std::move(msg)); }
  static Status InvalidArgument(std::string msg) {
    return Status(false, "invalid argument: " + std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(false, "not found: " + std::move(msg));
  }

  bool ok() const { return ok_; }
  const std::string& message() const { return message_; }

  std::string ToString() const { return ok_ ? "OK" : message_; }

 private:
  Status(bool ok, std::string msg) : ok_(ok), message_(std::move(msg)) {}

  bool ok_;
  std::string message_;
};

/// A value or an error. Minimal StatusOr-style wrapper.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}            // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {}    // NOLINT(runtime/explicit)

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return *std::move(value_); }

  const T& operator*() const& { return *value_; }
  const T* operator->() const { return &*value_; }

 private:
  std::optional<T> value_;
  Status status_ = Status::OK();
};

#define TQP_RETURN_IF_ERROR(expr)            \
  do {                                       \
    ::tqp::Status _st = (expr);              \
    if (!_st.ok()) return _st;               \
  } while (0)

#define TQP_ASSIGN_OR_RETURN(lhs, expr)      \
  auto lhs##_res = (expr);                   \
  if (!lhs##_res.ok()) return lhs##_res.status(); \
  auto& lhs = lhs##_res.value()

/// The failure path of TQP_CHECK, kept out of line so checks in hot code
/// cost one compare and branch. Flushes stdout first, so a failing bench
/// gate keeps the numbers it already printed.
[[noreturn]] __attribute__((cold, noinline)) inline void CheckFailed(
    const char* file, int line, const char* cond) {
  std::fflush(stdout);
  std::fprintf(stderr, "TQP_CHECK failed at %s:%d: %s\n", file, line, cond);
  std::abort();
}

/// Internal invariant check; aborts with a message on violation.
#define TQP_CHECK(cond)                                                        \
  do {                                                                         \
    if (!(cond)) ::tqp::CheckFailed(__FILE__, __LINE__, #cond);                \
  } while (0)

#ifdef NDEBUG
#define TQP_DCHECK(cond) \
  do {                   \
  } while (0)
#else
#define TQP_DCHECK(cond) TQP_CHECK(cond)
#endif

}  // namespace tqp

#endif  // TQP_CORE_COMMON_H_
