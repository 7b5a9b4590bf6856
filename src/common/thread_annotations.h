// Clang Thread Safety Analysis annotations.
//
// These macros attach compile-time lock discipline to the concurrency layer:
// which mutex guards which field (GUARDED_BY), which methods must be called
// with a capability held (REQUIRES) or not held (EXCLUDES), and which
// functions acquire or release one (ACQUIRE / RELEASE). Under Clang with
// -Wthread-safety the analysis proves every annotated access is protected —
// a static complement to the TSan CI jobs, which only see the interleavings
// the tests happen to hit. A dedicated CI job builds all of src/ with
// -Wthread-safety -Wthread-safety-analysis promoted to errors.
//
// On compilers without the attribute (GCC builds everything here) the macros
// expand to nothing, so the annotations are free documentation. The runtime
// counterpart — the debug-build lock-rank registry — lives in
// src/common/mutex.h and works on every compiler.
//
// Naming follows the LLVM/abseil convention so the annotations read the same
// as in the upstream documentation:
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
#ifndef OODB_COMMON_THREAD_ANNOTATIONS_H_
#define OODB_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && (!defined(SWIG))
#define OODB_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define OODB_THREAD_ANNOTATION__(x)  // no-op on non-Clang
#endif

/// Declares a class to be a capability (e.g. "mutex").
#define CAPABILITY(x) OODB_THREAD_ANNOTATION__(capability(x))

/// Declares an RAII class whose lifetime equals a critical section.
#define SCOPED_CAPABILITY OODB_THREAD_ANNOTATION__(scoped_lockable)

/// The annotated field may only be accessed while holding `x`.
#define GUARDED_BY(x) OODB_THREAD_ANNOTATION__(guarded_by(x))

/// The pointee of the annotated pointer may only be accessed holding `x`
/// (the pointer itself is unguarded).
#define PT_GUARDED_BY(x) OODB_THREAD_ANNOTATION__(pt_guarded_by(x))

/// The function may only be called with the listed capabilities held
/// exclusively; they are held on return (caller locks, callee relies).
#define REQUIRES(...) \
  OODB_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// The function acquires the listed capabilities (held on return).
#define ACQUIRE(...) OODB_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// The function releases the listed capabilities (held on entry).
#define RELEASE(...) OODB_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns `b`.
#define TRY_ACQUIRE(b, ...) \
  OODB_THREAD_ANNOTATION__(try_acquire_capability(b, __VA_ARGS__))

/// The function may only be called with the listed capabilities NOT held
/// (deadlock prevention for non-reentrant locks).
#define EXCLUDES(...) OODB_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// The annotated function returns a reference to the named capability.
#define RETURN_CAPABILITY(x) OODB_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch: the function body is not analyzed. Every use must carry a
/// comment explaining why the analysis cannot see the invariant (e.g. locks
/// handed across threads, quiescence established by joining workers).
#define NO_THREAD_SAFETY_ANALYSIS \
  OODB_THREAD_ANNOTATION__(no_thread_safety_analysis)

#endif  // OODB_COMMON_THREAD_ANNOTATIONS_H_
