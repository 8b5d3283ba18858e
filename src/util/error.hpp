#pragma once

/// \file error.hpp
/// Error types and check macros used across all OSPREY modules.

#include <stdexcept>
#include <string>

namespace osprey::util {

/// Base class for all errors raised by the OSPREY libraries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller violated an API precondition (bad argument, wrong state).
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// A referenced entity (file, data object, task, endpoint, ...) is missing.
class NotFound : public Error {
 public:
  explicit NotFound(const std::string& what) : Error(what) {}
};

/// An authorization check failed (missing/invalid token or scope).
class AuthError : public Error {
 public:
  explicit AuthError(const std::string& what) : Error(what) {}
};

/// A numerical routine failed to converge or met a singular system.
class NumericalError : public Error {
 public:
  explicit NumericalError(const std::string& what) : Error(what) {}
};

}  // namespace osprey::util

/// Precondition check: throws InvalidArgument when `cond` is false.
#define OSPREY_REQUIRE(cond, msg)                                     \
  do {                                                                \
    if (!(cond)) {                                                    \
      throw ::osprey::util::InvalidArgument(std::string(__func__) +  \
                                            ": " + (msg));           \
    }                                                                 \
  } while (0)

/// Internal invariant check: throws Error when `cond` is false.
#define OSPREY_CHECK(cond, msg)                                       \
  do {                                                                \
    if (!(cond)) {                                                    \
      throw ::osprey::util::Error(std::string(__func__) + ": " +     \
                                  (msg));                             \
    }                                                                 \
  } while (0)
