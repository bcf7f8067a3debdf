// FSD_CHECK family: fail-fast invariant checks for programmer errors.
//
// Unlike Status (expected, recoverable failures), a failed check indicates a
// bug; it prints a diagnostic and aborts. Checks are active in all build
// types — database-grade code does not strip invariant checks in release.
#ifndef FSD_COMMON_CHECK_H_
#define FSD_COMMON_CHECK_H_

#include <cstdio>
#include <cstdlib>

/// 1 when the translation unit is built under AddressSanitizer or
/// ThreadSanitizer (GCC defines __SANITIZE_*__, Clang answers
/// __has_feature), else 0. Kernels that switch stacks or pick SIMD paths
/// key their sanitizer fallbacks off this one definition.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FSD_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FSD_SANITIZED 1
#else
#define FSD_SANITIZED 0
#endif
#else
#define FSD_SANITIZED 0
#endif

namespace fsd::internal {

[[noreturn]] inline void CheckFailed(const char* file, int line,
                                     const char* expr) {
  std::fprintf(stderr, "FSD_CHECK failed at %s:%d: %s\n", file, line, expr);
  std::fflush(stderr);
  std::abort();
}

}  // namespace fsd::internal

#define FSD_CHECK(expr)                                       \
  do {                                                        \
    if (!(expr)) {                                            \
      ::fsd::internal::CheckFailed(__FILE__, __LINE__, #expr); \
    }                                                         \
  } while (0)

#define FSD_CHECK_OK(status_expr)                                          \
  do {                                                                     \
    ::fsd::Status _fsd_chk = (status_expr);                                \
    if (!_fsd_chk.ok()) {                                                  \
      ::fsd::internal::CheckFailed(__FILE__, __LINE__,                     \
                                   _fsd_chk.ToString().c_str());           \
    }                                                                      \
  } while (0)

#define FSD_CHECK_EQ(a, b) FSD_CHECK((a) == (b))
#define FSD_CHECK_NE(a, b) FSD_CHECK((a) != (b))
#define FSD_CHECK_LT(a, b) FSD_CHECK((a) < (b))
#define FSD_CHECK_LE(a, b) FSD_CHECK((a) <= (b))
#define FSD_CHECK_GT(a, b) FSD_CHECK((a) > (b))
#define FSD_CHECK_GE(a, b) FSD_CHECK((a) >= (b))

#endif  // FSD_COMMON_CHECK_H_
