#ifndef THALI_BASE_LOGGING_H_
#define THALI_BASE_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace thali {

enum class LogSeverity { kInfo = 0, kWarning = 1, kError = 2, kFatal = 3 };

namespace internal {

// Accumulates one log line and emits it (with file:line prefix) on
// destruction. kFatal aborts the process after emitting.
class LogMessage {
 public:
  LogMessage(const char* file, int line, LogSeverity severity);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
  LogSeverity severity_;
};

// Swallows the streamed expression when a log statement is compiled out.
struct NullStream {
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal

#define THALI_LOG(severity)                                        \
  ::thali::internal::LogMessage(__FILE__, __LINE__,                \
                                ::thali::LogSeverity::k##severity) \
      .stream()

// CHECK-style assertions for programmer errors (invariant violations). They
// are active in all build types: a detector silently computing garbage is
// worse than a crash.
#define THALI_CHECK(cond)                                             \
  (cond) ? (void)0                                                    \
         : ::thali::internal::CheckFailVoidify() &                    \
               ::thali::internal::LogMessage(                         \
                   __FILE__, __LINE__, ::thali::LogSeverity::kFatal)  \
                   .stream()                                          \
               << "Check failed: " #cond " "

#define THALI_CHECK_EQ(a, b) THALI_CHECK((a) == (b))
#define THALI_CHECK_NE(a, b) THALI_CHECK((a) != (b))
#define THALI_CHECK_LT(a, b) THALI_CHECK((a) < (b))
#define THALI_CHECK_LE(a, b) THALI_CHECK((a) <= (b))
#define THALI_CHECK_GT(a, b) THALI_CHECK((a) > (b))
#define THALI_CHECK_GE(a, b) THALI_CHECK((a) >= (b))

// Checks `expr` yields an OK thali::Status.
#define THALI_CHECK_OK(expr)                                   \
  do {                                                         \
    const ::thali::Status _st = (expr);                        \
    THALI_CHECK(_st.ok()) << _st.ToString();                   \
  } while (0)

namespace internal {
// Allows THALI_CHECK to be used in expression position with operator&.
struct CheckFailVoidify {
  void operator&(std::ostream&) {}
};
}  // namespace internal

}  // namespace thali

#endif  // THALI_BASE_LOGGING_H_
