// Compile-time sanitizer detection, shared by the fiber switch, the
// checkpoint facade and the job runner.  GCC announces a sanitizer with
// __SANITIZE_ADDRESS__ / __SANITIZE_THREAD__, Clang through
// __has_feature; each KOP_*_BUILD macro is defined to 1 under either.
#pragma once

#if defined(__SANITIZE_ADDRESS__)
#define KOP_ASAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define KOP_ASAN_BUILD 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define KOP_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define KOP_TSAN_BUILD 1
#endif
#endif

#if defined(__has_feature)
#if __has_feature(memory_sanitizer)
#define KOP_MSAN_BUILD 1
#endif
#endif
