#include "base/logging.h"

#include <cstring>

namespace thali {

namespace {
const char* SeverityTag(LogSeverity s) {
  switch (s) {
    case LogSeverity::kInfo:
      return "I";
    case LogSeverity::kWarning:
      return "W";
    case LogSeverity::kError:
      return "E";
    case LogSeverity::kFatal:
      return "F";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}
}  // namespace

namespace internal {

LogMessage::LogMessage(const char* file, int line, LogSeverity severity)
    : severity_(severity) {
  stream_ << "[" << SeverityTag(severity) << " " << Basename(file) << ":"
          << line << "] ";
}

LogMessage::~LogMessage() {
  std::cerr << stream_.str() << std::endl;
  if (severity_ == LogSeverity::kFatal) {
    std::abort();
  }
}

}  // namespace internal

}  // namespace thali
