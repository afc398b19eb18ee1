// Shared pieces of the perfbench binary: options, clocks, the seeded
// generator, statistics, the result report, trace spans and the
// independent tally used to check query results.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds     = 0;     ///< required on the command line
    bool trace         = false;
    bool smoke         = false; ///< tiny inputs: every check, in seconds
    std::string work_dir;       ///< corpora, sockets, BENCH and trace files
    unsigned threads = 0;       ///< N: min(hardware_concurrency, 4)
};

/// min(hardware_concurrency, 4), at least 1.
unsigned bench_threads();

std::uint64_t now_ns();
double since_s(std::uint64_t t0_ns);
/// User + system CPU seconds of the whole process (all threads).
double process_cpu_s();
/// Peak resident set size of the process in MiB.
double peak_rss_mb();

/// splitmix64: the benchmark's only source of randomness; the same seed
/// gives the same inputs.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }
    std::uint64_t below(std::uint64_t n) { return next() % n; }

private:
    std::uint64_t state_;
};

/// Derive an independent stream seed from the run seed and some labels.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

/// Linear-interpolated quantile (q in [0,1]) of \a v; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The run's result: metrics with units, the operation counts and the
/// outcome of every correctness check. Thread-safe.
class Report {
public:
    void metric(const std::string& name, double value, const std::string& unit);
    /// Record one correctness check; a failing check makes the run
    /// incorrect and is printed to stderr (the first 20).
    bool check(bool ok, const std::string& what);
    void attempted(std::uint64_t n = 1);
    void failed(std::uint64_t n = 1);

    bool correct() const;
    std::uint64_t num_attempted() const;
    std::uint64_t num_failed() const;

    struct Metric {
        std::string name;
        double value = 0;
        std::string unit;
    };
    std::vector<Metric> metrics() const;

private:
    mutable std::mutex mutex_;
    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_    = 0;
    std::uint64_t checks_    = 0;
    std::uint64_t bad_       = 0;
};

/// A span of the benchmark's own in the program's obs trace buffer
/// (calib::obs::trace_record, cat "bench"), so it lands in one timeline
/// with the program's phase spans and calib::obs::write_trace_json_file
/// writes both. Its path is its parent's path plus its name, which keeps
/// the nesting. Records nothing unless obs tracing is on when it opens.
class Span {
public:
    explicit Span(std::string_view name, const Span* parent = nullptr);
    ~Span();
    Span(const Span&)            = delete;
    Span& operator=(const Span&) = delete;

private:
    std::string path_;
    std::uint64_t start_ns_ = 0;
    bool on_                = false;
};

// -------------------------------------------------------------- tallying

/// Exact-enough reference sum: Neumaier-compensated long double, with the
/// forward error bound of a double sum re-associated in any order (the
/// fuzz oracle's bound).
struct Tally {
    long double sum = 0, comp = 0, abs = 0;
    std::uint64_t n = 0;
    double min = 0, max = 0;

    void add(double x);
    void merge(const Tally& other);
    long double value() const { return sum + comp; }
    /// Largest distance the program's double sum may have from value().
    long double bound() const;
};

/// Parsed CSV report: header plus rows of cells.
struct Csv {
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
    int column(std::string_view name) const; ///< -1 when absent
};
Csv parse_csv(std::string_view text);

/// Cell of \a row in column \a col; "" when the column is absent (CSV
/// reports only columns some row has) or the row is too short.
const std::string& cell(const Csv& csv, const std::vector<std::string>& row,
                        std::string_view col);

/// True when the reported number \a shown (printed with 12 significant
/// digits) is within \a bound of the reference \a ref.
bool close_to(const std::string& shown, long double ref, long double bound);

} // namespace perfbench
