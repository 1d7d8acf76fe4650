#include "shard/zipf.h"

#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

namespace wfd {

std::shared_ptr<const ZipfianKeyGenerator::Table> ZipfianKeyGenerator::tableFor(
    std::uint64_t items, double theta) {
  WFD_ENSURE_MSG(items > 0, "empty key space");
  WFD_ENSURE_MSG(theta > 0.0 && theta < 1.0,
                 "theta in (0,1) — 1 needs the harmonic special case");
  // Keyed by theta's bit pattern: equal shapes are equal doubles, and a
  // theta in (0, 1) has exactly one pattern.
  static std::mutex mutex;
  static std::map<std::pair<std::uint64_t, std::uint64_t>, std::shared_ptr<const Table>>
      memo;
  const std::lock_guard<std::mutex> lock(mutex);
  std::shared_ptr<const Table>& slot = memo[{items, std::bit_cast<std::uint64_t>(theta)}];
  if (slot) return slot;

  auto table = std::make_shared<Table>();
  std::vector<double>& cdf = table->cdf;
  cdf.reserve(items);
  double sum = 0.0;
  for (std::uint64_t r = 0; r < items; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf.push_back(sum);
  }
  for (double& c : cdf) c /= sum;
  // The CDF is non-decreasing (a running sum divided by its total), so
  // one forward pass fills the guide table.
  table->guide.resize(std::size_t{1} << kGuideBits);
  std::uint64_t r = 0;
  for (std::size_t b = 0; b < table->guide.size(); ++b) {
    const double edge = std::ldexp(static_cast<double>(b), -kGuideBits);
    while (r + 1 < items && cdf[r] <= edge) ++r;
    table->guide[b] = r;
  }
  slot = std::move(table);
  return slot;
}

}  // namespace wfd
