#include "tracer.hpp"

#include <cstdio>

namespace perfbench {

bool Tracer::WriteChromeTrace(const std::string& path, int64_t origin_ns) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const char* parent = span.parent >= 0 ? spans_[span.parent].name : "";
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":\"%s\"}}",
                 i == 0 ? "" : ",\n", span.name,
                 static_cast<double>(span.start_ns - origin_ns) * 1e-3,
                 static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
                 static_cast<unsigned long long>(span.group), parent);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
