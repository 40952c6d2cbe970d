#include "util/numa.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace bvc::util::numa {

namespace {

/// Parses the sysfs cpulist format ("0", "0-3", "0,2-3") into a node
/// count. Returns 1 on any malformed input.
int parse_node_list(const std::string& text) noexcept {
  int count = 0;
  std::istringstream in(text);
  std::string range;
  while (std::getline(in, range, ',')) {
    const std::size_t dash = range.find('-');
    try {
      if (dash == std::string::npos) {
        (void)std::stoi(range);
        ++count;
      } else {
        const int lo = std::stoi(range.substr(0, dash));
        const int hi = std::stoi(range.substr(dash + 1));
        if (hi < lo) {
          return 1;
        }
        count += hi - lo + 1;
      }
    } catch (...) {
      return 1;
    }
  }
  return std::max(1, count);
}

int probe_node_count() noexcept {
  std::ifstream online("/sys/devices/system/node/online");
  if (!online) {
    return 1;
  }
  std::string text;
  std::getline(online, text);
  if (text.empty()) {
    return 1;
  }
  return parse_node_list(text);
}

}  // namespace

int node_count() noexcept {
  static const int count = probe_node_count();
  return count;
}

bool interleave_pages(void* data, std::size_t bytes) noexcept {
#if defined(__linux__) && defined(SYS_mbind)
  const int nodes = node_count();
  if (nodes <= 1 || data == nullptr || bytes == 0 ||
      nodes >= static_cast<int>(sizeof(unsigned long) * 8)) {
    return false;
  }
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page <= 0) {
    return false;
  }
  // mbind wants a page-aligned range; shrink to the whole pages inside the
  // buffer (partial edge pages are shared with neighbors and stay put).
  const std::uintptr_t raw = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t begin =
      (raw + static_cast<std::uintptr_t>(page) - 1) &
      ~(static_cast<std::uintptr_t>(page) - 1);
  const std::uintptr_t end =
      (raw + bytes) & ~(static_cast<std::uintptr_t>(page) - 1);
  if (end <= begin) {
    return false;
  }
  // Raw syscall so we need neither libnuma nor <numaif.h>; the constants
  // are kernel ABI (uapi/linux/mempolicy.h) and cannot drift.
  constexpr int kMpolInterleave = 3;
  constexpr unsigned kMpolMfMove = 1u << 1;
  unsigned long nodemask = (1ul << nodes) - 1ul;
  const long rc = ::syscall(SYS_mbind, reinterpret_cast<void*>(begin),
                            static_cast<unsigned long>(end - begin),
                            kMpolInterleave, &nodemask,
                            static_cast<unsigned long>(nodes + 1),
                            kMpolMfMove);
  return rc == 0;
#else
  (void)data;
  (void)bytes;
  return false;
#endif
}

}  // namespace bvc::util::numa
