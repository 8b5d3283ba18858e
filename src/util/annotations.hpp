#pragma once

/// \file annotations.hpp
/// Clang thread-safety-analysis attribute macros. Under Clang the
/// OSPREY_THREAD_SAFETY CMake option builds with
/// `-Wthread-safety -Werror=thread-safety`, turning the annotations in
/// util::Mutex / util::Channel / emews::TaskDb / emews::WorkerPool into
/// compile-time lock-discipline checks. Under other compilers every
/// macro expands to nothing, so the annotated code stays portable.
///
/// The macro set mirrors the capability vocabulary of the Clang
/// analysis (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html);
/// only the subset the repository actually uses is defined here.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define OSPREY_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif

#ifndef OSPREY_THREAD_ANNOTATION
#define OSPREY_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

/// Marks a class as a capability (e.g. a mutex type). The string names
/// the capability kind in diagnostics.
#define OSPREY_CAPABILITY(x) OSPREY_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose lifetime acquires/releases a capability.
#define OSPREY_SCOPED_CAPABILITY OSPREY_THREAD_ANNOTATION(scoped_lockable)

/// Data member may only be read or written while holding `x`.
#define OSPREY_GUARDED_BY(x) OSPREY_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member: the *pointee* may only be accessed while holding `x`.
#define OSPREY_PT_GUARDED_BY(x) OSPREY_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the listed capabilities to be held on entry (and
/// they remain held on exit).
#define OSPREY_REQUIRES(...) \
  OSPREY_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the listed capabilities (not held on entry, held
/// on exit).
#define OSPREY_ACQUIRE(...) \
  OSPREY_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities.
#define OSPREY_RELEASE(...) \
  OSPREY_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Caller must NOT hold the listed capabilities (deadlock prevention;
/// also documents that the function locks internally).
#define OSPREY_EXCLUDES(...) \
  OSPREY_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the given capability.
#define OSPREY_RETURN_CAPABILITY(x) \
  OSPREY_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Use only where
/// the locking pattern is correct but inexpressible.
#define OSPREY_NO_THREAD_SAFETY_ANALYSIS \
  OSPREY_THREAD_ANNOTATION(no_thread_safety_analysis)
