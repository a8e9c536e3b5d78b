#include "util/status.h"

namespace qmqo {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kTimeout:
      return "Timeout";
    case StatusCode::kUnavailable:
      return "Unavailable";
  }
  return "Unknown";
}

const std::string& Status::EmptyMessage() {
  static const std::string kEmpty;
  return kEmpty;
}

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  std::string out = StatusCodeToString(code_);
  out += ": ";
  out += message();
  return out;
}

}  // namespace qmqo
