// perfbench: one command that runs a named calib workload from a seed,
// checks its outputs, and prints every metric with its unit.
//
//   perfbench --workload <name> --seconds <s> [--seed <n>] [--trace <0|1>]
//             [--smoke] [--work-dir <dir>]
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Each run also writes <work-dir>/BENCH_perfbench.json (a
// calib-benchdiff input with the meta stamp; the commit comes from the
// CALIB_GIT_SHA environment variable) and, when traced,
// <work-dir>/trace.json (the benchmark's and the program's spans as Chrome
// trace_event JSON, queryable with cali-query --json-input). Exit status:
// 0 when every check passed, 1 when a check failed, 2 on a usage error.
#include "workloads.hpp"

#include <common/variant.hpp>
#include <obs/metrics.hpp>
#include <obs/trace.hpp>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"records_per_s", "records/s"},
    {"serial_records_per_s", "records/s"},
    {"cpu_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"ingest_records_per_s", "records/s"},
    {"query_p50_ms", "ms"},
    {"query_p90_ms", "ms"},
    {"snapshots_per_s", "snapshots/s"},
    {"serial_snapshots_per_s", "snapshots/s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"io.parse_s", "s"},
    {"io.parse_mb_per_s.t1", "MB/s"},
    {"io.parse_mb_per_s.tN", "MB/s"},
    {"io.bytes", "bytes"},
    {"io.records", "count"},
    {"common.intern_ns.t1", "ns"},
    {"common.intern_ns.tN", "ns"},
    {"query.let_s", "s"},
    {"query.filter_s", "s"},
    {"query.filter_pass_ratio", "ratio"},
    {"query.result_s", "s"},
    {"query.format_s", "s"},
    {"query.output_bytes", "bytes"},
    {"q.paper_s", "s"},
    {"q.report_s", "s"},
    {"q.window_s", "s"},
    {"q.series_s", "s"},
    {"q.topk_s", "s"},
    {"aggregate.s", "s"},
    {"aggregate.lookups", "count"},
    {"aggregate.inserts", "count"},
    {"aggregate.probe_steps_per_lookup", "ratio"},
    {"aggregate.flush_s", "s"},
    {"engine.merge_s", "s"},
    {"engine.busy_s", "s"},
    {"engine.queue_wait_s", "s"},
    {"engine.morsels", "count"},
    {"engine.early_flushes", "count"},
    {"engine.early_flush_bytes", "bytes"},
    {"net.push_s", "s"},
    {"proxyd.barrier_ms", "ms"},
    {"proxyd.feed_records_per_s", "records/s"},
    {"proxyd.answer_ms", "ms"},
    {"proxyd.query_s", "s"},
    {"proxyd.query_lag_ms", "ms"},
    {"proxyd.scrape_ms", "ms"},
    {"proxyd.groups", "count"},
    {"proxyd.channel_bytes", "bytes"},
    {"proxyd.frames", "count"},
    {"proxyd.bytes", "bytes"},
    {"runtime.begin_end_ns", "ns"},
    {"runtime.snapshot_ns.p50", "ns"},
    {"runtime.snapshot_ns.p90", "ns"},
    {"runtime.cpu_s", "s"},
    {"runtime.flush_s", "s"},
    {"runtime.snapshots", "count"},
    {"runtime.updates", "count"},
    {"bench.trace_overhead_s", "s"},
};

// ------------------------------------------------------------ obs helpers

void obs_begin(bool metrics, bool trace) {
    calib::obs::MetricsRegistry::instance().reset();
    calib::obs::set_enabled(metrics);
    calib::obs::set_trace_enabled(trace);
}

double obs_timer_s(const char* name) {
    const auto s = calib::obs::MetricsRegistry::instance().find(name);
    return s ? static_cast<double>(s->total_ns) * 1e-9 : 0;
}

double obs_value(const char* name) {
    return static_cast<double>(calib::obs::MetricsRegistry::instance().value(name));
}

void probe_intern(const Options& opts, const std::vector<std::string>& names,
                  Report& report) {
    const std::size_t ops = opts.smoke ? 20000 : 2000000;
    auto loop = [&](std::uintptr_t& sink) {
        const std::uint64_t t0 = now_ns();
        for (std::size_t i = 0; i < ops; ++i) {
            const calib::Variant v{std::string_view(names[i % names.size()])};
            sink += reinterpret_cast<std::uintptr_t>(v.as_string().data());
        }
        return static_cast<double>(now_ns() - t0) / static_cast<double>(ops);
    };
    std::uintptr_t sink = 0;
    report.metric("common.intern_ns.t1", loop(sink), "ns");

    std::vector<double> per_thread(opts.threads, 0);
    std::vector<std::uintptr_t> sinks(opts.threads, 0);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < opts.threads; ++t)
        pool.emplace_back([&, t] { per_thread[t] = loop(sinks[t]); });
    for (std::thread& t : pool)
        t.join();
    double sum = 0;
    for (double v : per_thread)
        sum += v;
    report.metric("common.intern_ns.tN", sum / opts.threads, "ns");
    for (std::uintptr_t s : sinks)
        sink += s;
    report.check(sink != 0, "intern probe produced interned strings");
}

} // namespace perfbench

namespace {

using namespace perfbench;

int usage(const char* msg) {
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <offline-profile|offline-timeseries|"
                 "daemon-live|runtime-annotate>\n"
                 "                 --seconds s [--seed n] [--trace 0|1] [--smoke]\n"
                 "                 [--work-dir dir]\n",
                 msg);
    return 2;
}

std::string number(double v) {
    char buf[64];
    if (v == static_cast<double>(static_cast<long long>(v)) && std::fabs(v) < 1e15)
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string meta_json() {
    // run.py sets the commit on every run; a value fixed at build time
    // would go stale in a reused build directory
    const char* env          = std::getenv("CALIB_GIT_SHA");
    const std::string commit = env && *env ? env : "unknown";
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char stamp[32];
    std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &tm);
    char host[256] = {};
    if (gethostname(host, sizeof(host) - 1) != 0 || !host[0])
        std::snprintf(host, sizeof(host), "unknown");
    return "{\"commit\": \"" + commit + "\", \"timestamp\": \"" + stamp +
           "\", \"host\": \"" + host + "\", \"hardware_concurrency\": " +
           std::to_string(std::thread::hardware_concurrency()) + "}";
}

} // namespace

int main(int argc, char** argv) {
    Options opts;
    opts.threads = bench_threads();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        if (arg == "--workload") {
            const char* v = value();
            if (!v)
                return usage("missing --workload value");
            opts.workload = v;
        } else if (arg == "--seed") {
            const char* v = value();
            if (!v)
                return usage("missing --seed value");
            opts.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--seconds") {
            const char* v = value();
            if (!v || std::atof(v) <= 0)
                return usage("--seconds needs a positive number");
            opts.seconds = std::atof(v);
        } else if (arg == "--trace") {
            const char* v = value();
            if (!v || (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0))
                return usage("--trace takes 0 or 1");
            opts.trace = v[0] == '1';
        } else if (arg == "--smoke") {
            opts.smoke = true;
        } else if (arg == "--work-dir") {
            const char* v = value();
            if (!v)
                return usage("missing --work-dir value");
            opts.work_dir = v;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    void (*run)(const Options&, Report&) = nullptr;
    if (opts.workload == "offline-profile")
        run = run_offline_profile;
    else if (opts.workload == "offline-timeseries")
        run = run_offline_timeseries;
    else if (opts.workload == "daemon-live")
        run = run_daemon_live;
    else if (opts.workload == "runtime-annotate")
        run = run_runtime_annotate;
    else
        return usage("unknown workload");
    if (opts.seconds <= 0)
        return usage("missing --seconds");
    if (opts.work_dir.empty())
        opts.work_dir = ".bench_build/work/" + opts.workload;
    std::filesystem::create_directories(opts.work_dir);

    Report report;
    obs_begin(false, opts.trace);
    try {
        run(opts, report);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", opts.workload.c_str(), e.what());
        report.check(false, std::string("workload completed: ") + e.what());
    }
    if (!opts.trace)
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");

    // the printed set is the catalog: end-to-end metrics must all have been
    // measured; per-layer metrics of layers this workload does not
    // exercise read 0
    const std::vector<Report::Metric> measured = report.metrics();
    auto find = [&](const char* name) -> const Report::Metric* {
        for (const Report::Metric& m : measured)
            if (m.name == name)
                return &m;
        return nullptr;
    };
    std::ostringstream metrics;
    bool first = true;
    for (const MetricDef& def : opts.trace ? kPerLayer : kEndToEnd) {
        const Report::Metric* m = find(def.name);
        if (!opts.trace)
            report.check(m != nullptr && m->value > 0,
                         std::string("end-to-end metric ") + def.name + " measured");
        metrics << (first ? "" : ", ") << "\"" << def.name << "\": {\"value\": "
                << number(m ? m->value : 0) << ", \"unit\": \"" << def.unit << "\"}";
        first = false;
    }

    std::ostringstream bench;
    bench << "{\n  \"bench\": \"perfbench." << opts.workload << "\",\n  \"meta\": "
          << meta_json() << ",\n  \"seed\": " << opts.seed
          << ",\n  \"threads\": " << opts.threads << ",\n  \"traced\": " << opts.trace
          << ",\n  \"metrics\": {";
    first = true;
    for (const Report::Metric& m : measured) {
        bench << (first ? "\n" : ",\n") << "    \"" << m.name << "\": " << number(m.value);
        first = false;
    }
    bench << "\n  }\n}\n";
    const std::string bench_path = opts.work_dir + "/BENCH_perfbench.json";
    report.check(static_cast<bool>(std::ofstream(bench_path) << bench.str()),
                 "wrote " + bench_path);
    if (opts.trace) {
        calib::obs::set_trace_enabled(false);
        report.check(calib::obs::trace_dropped() == 0, "trace buffer held every span");
        report.check(calib::obs::write_trace_json_file(opts.work_dir + "/trace.json"),
                     "wrote " + opts.work_dir + "/trace.json");
    }

    const bool ok = report.correct();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                ok ? "true" : "false",
                static_cast<unsigned long long>(report.num_attempted()),
                static_cast<unsigned long long>(report.num_failed()),
                metrics.str().c_str());
    std::fflush(stdout);
    return ok ? 0 : 1;
}
