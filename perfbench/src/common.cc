#include "common.h"

#include <cstring>

#include "shuffle/payload.h"

namespace perfbench {

uint64_t InboxDigest(const netshuffle::ProtocolResult& inbox) {
  uint64_t h = netshuffle::HashCombine(inbox.server_inbox.size(),
                                       inbox.dummy_reports);
  for (const netshuffle::FinalReport& fr : inbox.server_inbox) {
    h = netshuffle::HashCombine(h, (static_cast<uint64_t>(fr.id) << 32) |
                                       fr.final_holder);
    h = netshuffle::HashCombine(h, fr.origin);
    const netshuffle::PayloadSpan p = inbox.payloads->payload(fr.id);
    uint64_t word = 0;
    for (size_t i = 0; i < p.size(); ++i) {
      word = (word << 8) | p.data()[i];
      if ((i & 7) == 7 || i + 1 == p.size()) {
        h = netshuffle::HashCombine(h, word);
        word = 0;
      }
    }
  }
  return h;
}

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  if (got != 8) return t;
  for (unsigned long long x : v) t.total += x;
  t.steal = v[7];
  return t;
}

double StealFraction(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::nan("");
  double kb = std::nan("");
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
