#include "src/sim/stats.h"

#include <cstddef>
#include <cstdio>
#include <iterator>

namespace dilos {

double LatencyBreakdown::TotalMeanNs() const {
  double sum = 0.0;
  for (size_t i = 0; i < total_ns_.size(); ++i) {
    sum += MeanNs(static_cast<LatComp>(i));
  }
  return sum;
}

void LatencyBreakdown::Reset() {
  total_ns_.fill(0);
  events_ = 0;
}

std::string LatencyBreakdown::ToString() const {
  std::string out;
  char line[128];
  double total = TotalMeanNs();
  for (size_t i = 0; i < total_ns_.size(); ++i) {
    auto c = static_cast<LatComp>(i);
    double mean = MeanNs(c);
    if (mean == 0.0) {
      continue;
    }
    std::snprintf(line, sizeof(line), "  %-14s %8.0f ns  (%5.1f%%)\n",
                  std::string(LatCompName(c)).c_str(), mean,
                  total > 0 ? 100.0 * mean / total : 0.0);
    out += line;
  }
  std::snprintf(line, sizeof(line), "  %-14s %8.0f ns  over %llu events\n", "TOTAL", total,
                static_cast<unsigned long long>(events_));
  out += line;
  return out;
}

namespace {

struct CounterRow {
  const char* name;
  std::string_view section;
  uint64_t RuntimeStats::*field;
};

constexpr CounterRow kCounterRows[] = {
#define DILOS_STATS_ROW(field, section) {#field, #section, &RuntimeStats::field},
    DILOS_RUNTIME_STATS(DILOS_STATS_ROW)
#undef DILOS_STATS_ROW
};

// ToString prints a section's run of rows as one line, so a section that
// reappeared after another would print twice.
constexpr bool SectionsAreContiguous() {
  for (size_t i = 1; i < std::size(kCounterRows); ++i) {
    if (kCounterRows[i].section == kCounterRows[i - 1].section) {
      continue;
    }
    for (size_t j = 0; j < i; ++j) {
      if (kCounterRows[j].section == kCounterRows[i].section) {
        return false;
      }
    }
  }
  return true;
}
static_assert(SectionsAreContiguous(), "DILOS_RUNTIME_STATS: keep each section's rows adjacent");

}  // namespace

std::string RuntimeStats::ToString() const {
  std::string out;
  for (size_t begin = 0, end = 0; begin < std::size(kCounterRows); begin = end) {
    std::string_view section = kCounterRows[begin].section;
    bool print = section == "paging";
    for (end = begin; end < std::size(kCounterRows) && kCounterRows[end].section == section;
         ++end) {
      print = print || this->*kCounterRows[end].field != 0;
    }
    if (!print) {
      continue;
    }
    out += section;
    out += ':';
    for (size_t i = begin; i < end; ++i) {
      out += ' ';
      out += kCounterRows[i].name;
      out += '=';
      out += std::to_string(this->*kCounterRows[i].field);
    }
    out += '\n';
  }
  return out + fault_breakdown.ToString();
}

}  // namespace dilos
