// The four perfbench workloads and the metric catalog they report into.
#pragma once

#include "common.hpp"

#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
    const char* name;
    const char* unit;
};

/// Every end-to-end metric; each workload reports all of them (README.md
/// gives the definition per workload).
extern const std::vector<MetricDef> kEndToEnd;
/// Every per-layer metric; a traced run reports all of them, with 0 for
/// layers the workload does not exercise.
extern const std::vector<MetricDef> kPerLayer;

void run_offline_profile(const Options& opts, Report& report);
void run_offline_timeseries(const Options& opts, Report& report);
void run_daemon_live(const Options& opts, Report& report);
void run_runtime_annotate(const Options& opts, Report& report);

// ---------------------------------------------------------- shared probes

/// Reset the program's obs registry and switch its metrics and its trace
/// on or off. A traced round runs with both on and an untraced round with
/// both off; between rounds a traced run keeps the trace on, so set-up,
/// probe and check spans are recorded too.
void obs_begin(bool metrics, bool trace);
/// Total seconds of an obs Timer (0 when absent).
double obs_timer_s(const char* name);
/// Value of an obs Counter/Gauge (0 when absent).
double obs_value(const char* name);

/// common.intern_ns.t1 / .tN: nanoseconds per string Variant constructed
/// from \a names, on one thread and on N threads at once.
void probe_intern(const Options& opts, const std::vector<std::string>& names,
                  Report& report);

} // namespace perfbench
