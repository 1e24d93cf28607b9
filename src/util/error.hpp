// Error handling primitives shared by every gangsched subsystem.
//
// The library reports precondition violations and numerical failures by
// throwing gs::Error (invalid user input, non-convergence, singularities)
// so callers can distinguish "your model is wrong" from programming bugs,
// which are guarded with GS_ASSERT and abort in every build type.
#pragma once

#include <stdexcept>
#include <string>

namespace gs {

/// Base exception for all errors raised by the gangsched library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised when a user-supplied model parameter is invalid
/// (e.g. a phase-type distribution whose generator has a positive row sum).
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Raised when an iterative numerical method fails to converge
/// (e.g. the R-matrix iteration on an unstable chain).
class NumericalError : public Error {
 public:
  explicit NumericalError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] void throw_check_failure(const char* expr, const char* file,
                                      int line, const std::string& msg);
[[noreturn]] void assert_failure(const char* expr, const char* file,
                                 int line);
}  // namespace detail

}  // namespace gs

/// Validate a user-facing precondition; throws gs::InvalidArgument with
/// location info and an explanatory message on failure.
#define GS_CHECK(expr, msg)                                              \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::gs::detail::throw_check_failure(#expr, __FILE__, __LINE__, msg); \
    }                                                                    \
  } while (0)

/// Internal invariant; aborts with a diagnostic. Active in all build types:
/// the chains we build are small enough that the checks are free relative
/// to the linear algebra they guard.
#define GS_ASSERT(expr)                                          \
  do {                                                           \
    if (!(expr)) {                                               \
      ::gs::detail::assert_failure(#expr, __FILE__, __LINE__);   \
    }                                                            \
  } while (0)
