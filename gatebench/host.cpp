#include "host.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gatebench {

namespace {

volatile std::size_t g_sink = 0;

}  // namespace

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double kernel_ms() {
  const double start = now_ms();
  std::map<std::string, std::vector<std::string>> index;
  std::uint64_t x = 88172645463325252ULL;  // fixed: the work is the same on every call
  for (int i = 0; i < 2500; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::string key = "key_" + std::to_string(x % 1600);
    index[key].push_back(key + "_value_" + std::to_string(i));
  }
  std::size_t total = 0;
  for (const auto& [key, values] : index)
    for (const std::string& value : values) total += key.size() + value.size();
  g_sink = total;
  return now_ms() - start;
}

double sample_kernel_ms(int samples) {
  std::vector<double> ms;
  for (int i = 0; i < samples; ++i) ms.push_back(kernel_ms());
  std::nth_element(ms.begin(), ms.begin() + ms.size() / 2, ms.end());
  return ms[ms.size() / 2];
}

}  // namespace gatebench
