#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "common.h"

namespace perfbench {
namespace {

// Shortest decimal form that reads back to the same double.
std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

// Fields of /proc/<pid>/stat after the parenthesised command name.
std::vector<std::string> StatFields(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  std::vector<std::string> fields;
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return fields;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  while (rest >> field) fields.push_back(field);
  return fields;  // fields[0] is the state, i.e. stat field 3
}

}  // namespace

std::string Result::ToJson() const {
  std::string out = "{\"correct\": true";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double g_before_main = 0.0;
double g_main_start = 0.0;
}  // namespace

void StartSetupClock() {
  g_main_start = NowSeconds();
  const std::vector<std::string> fields = StatFields("/proc/self/stat");
  std::ifstream uptime_in("/proc/uptime");
  double uptime = 0.0;
  uptime_in >> uptime;
  if (fields.size() < 20 || uptime <= 0.0) return;
  const double start_ticks = std::stod(fields[19]);  // stat field 22
  g_before_main =
      std::max(0.0, uptime - start_ticks / sysconf(_SC_CLK_TCK));
}

double SecondsSinceProcessStart() {
  return g_before_main + (NowSeconds() - g_main_start);
}

double SelfCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double ProcessCpuSeconds(pid_t pid) {
  const std::vector<std::string> fields =
      StatFields("/proc/" + std::to_string(pid) + "/stat");
  if (fields.size() < 13) return 0.0;
  // utime and stime are stat fields 14 and 15.
  const double ticks = std::stod(fields[11]) + std::stod(fields[12]);
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(
                                                    values.size()))) - 1;
  return values[index];
}

}  // namespace perfbench
