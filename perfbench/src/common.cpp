#include "common.hpp"

#include <obs/metrics.hpp>
#include <obs/trace.hpp>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <limits>
#include <sys/resource.h>
#include <thread>

namespace perfbench {

unsigned bench_threads() {
    const unsigned hc = std::thread::hardware_concurrency();
    return std::clamp(hc, 1u, 4u);
}

std::uint64_t now_ns() {
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

double since_s(std::uint64_t t0_ns) {
    return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

double process_cpu_s() {
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
    Rng r(seed ^ (a * 0xd1b54a32d192ed03ULL) ^ (b * 0x8cb92ba72f3d8dd7ULL));
    r.next();
    return r.next();
}

double quantile(std::vector<double> v, double q) {
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo    = static_cast<std::size_t>(std::floor(pos));
    const auto hi    = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ------------------------------------------------------------------ Report

void Report::metric(const std::string& name, double value, const std::string& unit) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!std::isfinite(value)) {
        ++bad_;
        std::fprintf(stderr, "perfbench: metric %s is not finite\n", name.c_str());
        value = 0;
    }
    for (Metric& m : metrics_)
        if (m.name == name) {
            m.value = value;
            m.unit  = unit;
            return;
        }
    metrics_.push_back({name, value, unit});
}

bool Report::check(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++checks_;
    if (!ok) {
        if (bad_ < 20)
            std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
        ++bad_;
    }
    return ok;
}

void Report::attempted(std::uint64_t n) {
    std::lock_guard<std::mutex> lock(mutex_);
    attempted_ += n;
}

void Report::failed(std::uint64_t n) {
    std::lock_guard<std::mutex> lock(mutex_);
    failed_ += n;
}

bool Report::correct() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return bad_ == 0 && checks_ > 0;
}

std::uint64_t Report::num_attempted() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return attempted_;
}

std::uint64_t Report::num_failed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return failed_;
}

std::vector<Report::Metric> Report::metrics() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return metrics_;
}

// -------------------------------------------------------------------- Span

Span::Span(std::string_view name, const Span* parent)
    : on_(calib::obs::trace_enabled()) {
    if (!on_)
        return;
    if (parent && !parent->path_.empty())
        path_.append(parent->path_).append(1, '/');
    path_.append(name);
    start_ns_ = calib::obs::now_ns();
}

Span::~Span() {
    if (!on_)
        return;
    const std::uint64_t dur = calib::obs::now_ns() - start_ns_;
    calib::obs::trace_record({std::move(path_), "bench", calib::obs::detail::thread_index(),
                              start_ns_, dur, dur});
}

// ------------------------------------------------------------------- Tally

namespace {
constexpr long double kEps  = std::numeric_limits<double>::epsilon();
constexpr long double kTiny = 1e-290L;
} // namespace

void Tally::add(double x) {
    const long double lx = x;
    const long double t  = sum + lx;
    if (std::fabs(sum) >= std::fabs(lx))
        comp += (sum - t) + lx;
    else
        comp += (lx - t) + sum;
    sum = t;
    abs += std::fabs(lx);
    if (n == 0 || x < min)
        min = x;
    if (n == 0 || x > max)
        max = x;
    ++n;
}

void Tally::merge(const Tally& o) {
    if (o.n == 0)
        return;
    if (n == 0 || o.min < min)
        min = o.min;
    if (n == 0 || o.max > max)
        max = o.max;
    sum += o.sum;
    comp += o.comp;
    abs += o.abs;
    n += o.n;
}

long double Tally::bound() const {
    return (static_cast<long double>(n) + 8.0L) * kEps * abs + kTiny;
}

// --------------------------------------------------------------------- CSV

int Csv::column(std::string_view name) const {
    for (std::size_t i = 0; i < header.size(); ++i)
        if (header[i] == name)
            return static_cast<int>(i);
    return -1;
}

namespace {

std::vector<std::string> split_csv_line(std::string_view line) {
    std::vector<std::string> cells(1);
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (quoted) {
            if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
                cells.back() += '"';
                ++i;
            } else if (c == '"') {
                quoted = false;
            } else {
                cells.back() += c;
            }
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            cells.emplace_back();
        } else {
            cells.back() += c;
        }
    }
    return cells;
}

} // namespace

Csv parse_csv(std::string_view text) {
    Csv csv;
    bool first = true;
    while (!text.empty()) {
        const std::size_t nl = text.find('\n');
        std::string_view line = text.substr(0, nl);
        text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
        if (first) {
            csv.header = split_csv_line(line);
            first      = false;
        } else {
            csv.rows.push_back(split_csv_line(line));
        }
    }
    return csv;
}

const std::string& cell(const Csv& csv, const std::vector<std::string>& row,
                        std::string_view col) {
    static const std::string none;
    const int c = csv.column(col);
    return c < 0 || c >= static_cast<int>(row.size()) ? none : row[c];
}

bool close_to(const std::string& shown, long double ref, long double bound) {
    if (shown.empty())
        return false;
    char* end      = nullptr;
    const double v = std::strtod(shown.c_str(), &end);
    if (end == shown.c_str() || *end != '\0')
        return false;
    // %.12g display rounding: half a unit in the 12th significant digit
    const long double display = 6e-12L * std::fabs(ref);
    return std::fabs(static_cast<long double>(v) - ref) <= bound + display;
}

} // namespace perfbench
