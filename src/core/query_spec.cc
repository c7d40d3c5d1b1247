#include "core/query_spec.h"

#include <string>

namespace sj {

namespace {

template <typename Attachment>
Status CheckAttachments(
    const std::vector<std::pair<size_t, Attachment>>& attachments,
    const char* setter, size_t input_count) {
  for (const auto& attachment : attachments) {
    if (attachment.first >= input_count) {
      return Status::InvalidArgument(
          std::string(setter) + " index " + std::to_string(attachment.first) +
          " out of range: the query has " + std::to_string(input_count) +
          " inputs");
    }
  }
  return Status::OK();
}

}  // namespace

Status CheckMemoryFloor(size_t memory_bytes) {
  if (memory_bytes >= kMinMemoryBytes) return Status::OK();
  return Status::FailedPrecondition(
      "memory budget " + std::to_string(memory_bytes) +
      " B is below the supported floor of " +
      std::to_string(kMinMemoryBytes) +
      " B (kMinMemoryBytes, 64 KiB); raise the query's MemoryBytes / "
      "JoinOptions::memory_bytes");
}

Status QuerySpec::Validate() const {
  SJ_RETURN_IF_ERROR(CheckMemoryFloor(options.memory_bytes));
  SJ_RETURN_IF_ERROR(
      CheckAttachments(histograms, "WithHistogram", inputs.size()));
  return CheckAttachments(features, "WithFeatures", inputs.size());
}

std::shared_ptr<MemoryArbiter> QuerySpec::MakeArbiter() const {
  if (arbiter_override != nullptr) return arbiter_override;
  return std::make_shared<MemoryArbiter>(options.memory_bytes,
                                         options.strict_memory_accounting);
}

const GridHistogram* QuerySpec::HistogramFor(size_t index) const {
  const GridHistogram* found = nullptr;
  for (const auto& [i, hist] : histograms) {
    if (i == index) found = hist;
  }
  return found;
}

}  // namespace sj
