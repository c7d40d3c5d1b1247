#include "sort/sort_config.h"

#include <atomic>

namespace sj {
namespace {

std::atomic<bool> g_serial_forced{false};

}  // namespace

bool SortSerialOnly() {
#if defined(SJ_SORT_SERIAL_ONLY)
  return true;
#else
  return g_serial_forced.load(std::memory_order_relaxed);
#endif
}

void ForceSortSerialOnly(bool on) {
  g_serial_forced.store(on, std::memory_order_relaxed);
}

void ResetSortSerialOnly() {
  g_serial_forced.store(false, std::memory_order_relaxed);
}

}  // namespace sj
