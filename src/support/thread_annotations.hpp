#pragma once

/// Portable spellings of Clang's thread-safety-analysis attributes.
///
/// The determinism contract (byte-identical results across thread counts,
/// zero re-hashing on the submit path) ultimately rests on a locking
/// discipline: every shared field has exactly one guarding mutex, every
/// function either takes that mutex or documents that its caller must. TSan
/// checks that discipline DYNAMICALLY -- only on the interleavings a test
/// happens to produce. These macros let clang check it STATICALLY, on every
/// build: fields declare their guard with MALSCHED_GUARDED_BY, locking
/// functions declare what they acquire/release, and `-Wthread-safety
/// -Wthread-safety-beta -Werror` (the MALSCHED_THREAD_SAFETY CMake option;
/// a dedicated CI job) turns any unguarded access, unbalanced lock, or
/// missing-precondition call into a compile error.
///
/// On compilers without the analysis (gcc, MSVC) every macro expands to
/// nothing, so the annotations are free documentation there. Use them
/// through support/mutex.hpp (the annotated Mutex/LockGuard/CondVar
/// wrapper) -- raw std::mutex is invisible to the analysis, and the repo
/// linter (tools/lint_repo.py, rule `raw-mutex`) rejects it outside that
/// wrapper.
///
/// The seeded-violation snippets under tests/static/ regression-test the
/// analysis itself: each compiles clean as written and is REJECTED when its
/// MALSCHED_STATIC_VIOLATE variant removes the discipline (see
/// tests/static/static_checks.cmake).

#if defined(__clang__)
#define MALSCHED_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define MALSCHED_THREAD_ANNOTATION__(x)  // no-op off clang
#endif

/// Marks a class as a lockable capability ("mutex" names the kind in
/// diagnostics).
#define MALSCHED_CAPABILITY(x) MALSCHED_THREAD_ANNOTATION__(capability(x))

/// Marks an RAII guard whose constructor acquires and destructor releases.
#define MALSCHED_SCOPED_CAPABILITY MALSCHED_THREAD_ANNOTATION__(scoped_lockable)

/// Field annotation: reads and writes require holding `x`.
#define MALSCHED_GUARDED_BY(x) MALSCHED_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer field annotation: the pointee's data requires holding `x`.
#define MALSCHED_PT_GUARDED_BY(x) MALSCHED_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Lock-ordering declarations (deadlock prevention between named mutexes).
#define MALSCHED_ACQUIRED_BEFORE(...) \
  MALSCHED_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define MALSCHED_ACQUIRED_AFTER(...) \
  MALSCHED_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/// Function precondition: the caller must hold the listed capabilities
/// (exclusively / shared) and the function does not release them.
#define MALSCHED_REQUIRES(...) \
  MALSCHED_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define MALSCHED_REQUIRES_SHARED(...) \
  MALSCHED_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// The function acquires the capability (caller must not already hold it).
#define MALSCHED_ACQUIRE(...) \
  MALSCHED_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define MALSCHED_ACQUIRE_SHARED(...) \
  MALSCHED_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))

/// The function releases the capability (caller must hold it).
#define MALSCHED_RELEASE(...) \
  MALSCHED_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define MALSCHED_RELEASE_SHARED(...) \
  MALSCHED_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))

/// Function precondition: the caller must NOT hold the listed capabilities
/// (the function acquires them itself -- self-deadlock prevention).
#define MALSCHED_EXCLUDES(...) MALSCHED_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (fatal if not); informs the
/// analysis without a visible acquire.
#define MALSCHED_ASSERT_CAPABILITY(x) \
  MALSCHED_THREAD_ANNOTATION__(assert_capability(x))

/// The function returns a reference to the named capability.
#define MALSCHED_RETURN_CAPABILITY(x) MALSCHED_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch: the function body is not analyzed. Every use must carry a
/// comment justifying why the analysis cannot see the invariant.
#define MALSCHED_NO_THREAD_SAFETY_ANALYSIS \
  MALSCHED_THREAD_ANNOTATION__(no_thread_safety_analysis)
