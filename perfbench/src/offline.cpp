// The offline workloads: a corpus of ParaDiS-shaped rank files written
// through CaliWriter, queried with ParallelQueryProcessor at N threads and
// again at 1 thread, every output checked against a tally made apart from
// the program.
//
//   offline-profile     a few large rank files, low-cardinality queries:
//                       parse, LET/WHERE, per-record aggregate updates and
//                       the pane ring do the work; the result tail is tiny
//   offline-timeseries  many small rank files grouped to about one group
//                       per record: merge, hash inserts, canonical sort,
//                       ORDER BY/LIMIT and formatting do the work
#include "corpus.hpp"
#include "workloads.hpp"

#include <engine/parallel_processor.hpp>
#include <io/calireader.hpp>
#include <obs/metrics.hpp>
#include <query/calql.hpp>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

using Checker = std::function<void(const std::string& output, Report& report)>;

struct OfflineQuery {
    std::string name;
    std::string text;
    Checker check;
};

struct QueryRun {
    std::string output;
    double result_s = 0; ///< QueryProcessor::result(): flush, order, limit
    double write_s  = 0; ///< write(): formatting
    double total_s  = 0;
    calib::engine::EngineStats stats;
    bool ok = false;
};

QueryRun run_query(const OfflineQuery& q, const std::vector<std::string>& files,
                   unsigned threads, const Span* parent) {
    QueryRun r;
    Span span("query." + q.name, parent);
    const std::uint64_t t0 = now_ns();
    try {
        calib::engine::EngineOptions eopts;
        eopts.threads = threads;
        calib::engine::ParallelQueryProcessor engine(calib::parse_calql(q.text), eopts);
        calib::QueryProcessor* proc = nullptr;
        {
            Span s("engine.run", &span);
            proc = &engine.run(files);
        }
        const std::uint64_t t1 = now_ns();
        {
            Span s("query.result", &span);
            proc->result();
        }
        const std::uint64_t t2 = now_ns();
        std::ostringstream os;
        {
            Span s("query.write", &span);
            proc->write(os);
        }
        const std::uint64_t t3 = now_ns();
        r.output   = os.str();
        r.result_s = static_cast<double>(t2 - t1) * 1e-9;
        r.write_s  = static_cast<double>(t3 - t2) * 1e-9;
        r.total_s  = static_cast<double>(t3 - t0) * 1e-9;
        r.stats    = engine.stats();
        r.ok       = true;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: query %s failed: %s\n", q.name.c_str(), e.what());
    }
    return r;
}

bool check_columns(const Csv& csv, std::initializer_list<const char*> cols,
                   const std::string& what, Report& report) {
    bool ok = true;
    for (const char* c : cols)
        ok &= report.check(csv.column(c) >= 0, what + ": column " + c + " present");
    return ok;
}

// -------------------------------------------------------------- probes

/// io.parse_mb_per_s.t<threads>: CaliReader::read_file_batches into a
/// discarding sink, the files split across \a threads readers sharing one
/// registry (as the engine's workers do). Median of three passes.
double probe_parse_mb_per_s(const std::vector<std::string>& files, std::uint64_t bytes,
                            unsigned threads) {
    std::vector<double> rates;
    for (int rep = 0; rep < 3; ++rep) {
        calib::AttributeRegistry registry;
        std::atomic<std::size_t> next{0};
        std::atomic<bool> failed{false};
        auto reader = [&] {
            try {
                for (std::size_t i; (i = next.fetch_add(1)) < files.size();)
                    calib::CaliReader::read_file_batches(files[i], registry, 1024,
                                                         [](calib::RecordBatch&) {});
            } catch (const std::exception& e) {
                std::fprintf(stderr, "perfbench: parse probe: %s\n", e.what());
                failed = true;
            }
        };
        const std::uint64_t t0 = now_ns();
        std::vector<std::thread> pool;
        for (unsigned t = 1; t < threads; ++t)
            pool.emplace_back(reader);
        reader();
        for (std::thread& t : pool)
            t.join();
        if (failed)
            throw std::runtime_error("parse probe failed");
        rates.push_back(static_cast<double>(bytes) / 1e6 / since_s(t0));
    }
    return median(rates);
}

// ------------------------------------------------------------ the passes

struct Corpus {
    ProfileShape shape;
    std::vector<std::string> files;
    std::uint64_t bytes = 0;
};

/// The shared offline flow: rounds of an N-thread pass and a 1-thread pass
/// over every query, the checks, and the metrics.
void run_offline(const Options& opts, Report& report, Corpus& corpus,
                 const std::vector<OfflineQuery>& queries,
                 const std::vector<std::string>& intern_names) {
    const unsigned n = opts.threads;
    const std::uint64_t records = corpus.shape.records();
    const double nq = static_cast<double>(queries.size());

    std::vector<std::string> first_output(queries.size());
    std::vector<bool> checked(queries.size(), false);

    struct Pass {
        double wall = 0, cpu = 0;
    };
    std::vector<Pass> plain_n, traced_n, plain_1;
    std::vector<std::vector<double>> latencies_ms(queries.size()); ///< tN, per query

    // traced-round accumulators (N-thread passes only)
    struct Layer {
        double result_s = 0, write_s = 0, output_bytes = 0, merge_s = 0;
        double morsels = 0, early_flushes = 0, early_flush_bytes = 0;
        std::vector<double> per_query;
        double parse_s = 0, let_s = 0, filter_s = 0, agg_s = 0, flush_s = 0;
        double busy_s = 0, wait_s = 0, lookups = 0, inserts = 0, probes = 0;
        double checked = 0, passed = 0, reader_bytes = 0, reader_records = 0;
    } layer;
    layer.per_query.assign(queries.size(), 0);

    auto pass = [&](unsigned threads, bool traced, const Span* round) -> Pass {
        Pass p;
        Span span(threads == 1 ? "pass.t1" : "pass.tN", round);
        const double cpu0     = process_cpu_s();
        const std::uint64_t t0 = now_ns();
        for (std::size_t i = 0; i < queries.size(); ++i) {
            report.attempted();
            QueryRun r = run_query(queries[i], corpus.files, threads, &span);
            if (!r.ok) {
                report.failed();
                continue;
            }
            if (threads == n && !traced)
                latencies_ms[i].push_back(r.total_s * 1e3);
            if (!checked[i]) {
                queries[i].check(r.output, report);
                checked[i]      = true;
                first_output[i] = r.output;
            } else {
                report.check(r.output == first_output[i],
                             queries[i].name + ": output bytes identical at t" +
                                 std::to_string(threads) + " and across rounds");
            }
            if (traced) {
                layer.result_s += r.result_s;
                layer.write_s += r.write_s;
                layer.output_bytes += static_cast<double>(r.output.size());
                layer.merge_s += static_cast<double>(r.stats.merge_ns) * 1e-9;
                layer.morsels += static_cast<double>(r.stats.morsels);
                layer.early_flushes += static_cast<double>(r.stats.early_flushes);
                layer.early_flush_bytes += static_cast<double>(r.stats.early_flush_bytes);
                layer.per_query[i] += r.total_s;
            }
        }
        p.wall = since_s(t0);
        p.cpu  = process_cpu_s() - cpu0;
        if (traced) {
            layer.parse_s += obs_timer_s("phase.read");
            layer.let_s += obs_timer_s("phase.let");
            layer.filter_s += obs_timer_s("phase.filter");
            layer.agg_s += obs_timer_s("phase.aggregate");
            layer.flush_s += obs_timer_s("aggdb.flush");
            layer.busy_s += obs_timer_s("pool.busy");
            layer.wait_s += obs_timer_s("pool.queue_wait");
            layer.lookups += obs_value("aggdb.lookups");
            layer.inserts += obs_value("aggdb.inserts");
            layer.probes += obs_value("aggdb.probe_steps");
            layer.checked += obs_value("filter.checked");
            layer.passed += obs_value("filter.passed");
            layer.reader_bytes += obs_value("reader.bytes");
            layer.reader_records += obs_value("reader.records");
        }
        return p;
    };

    // Traced runs alternate untraced and traced rounds; the traced rounds
    // give the per-layer split, the untraced ones the overhead baseline.
    const std::uint64_t t0 = now_ns();
    for (int round = 0;; ++round) {
        const bool traced = opts.trace && round % 2 == 1;
        obs_begin(traced, traced);
        {
            Span rspan("round");
            const Pass pn = pass(n, traced, &rspan);
            (traced ? traced_n : plain_n).push_back(pn);
            if (!traced)
                plain_1.push_back(pass(1, false, &rspan));
        }
        obs_begin(false, opts.trace);
        if (since_s(t0) >= opts.seconds && (!opts.trace || round >= 1))
            break;
    }

    for (std::size_t i = 0; i < queries.size(); ++i)
        report.check(checked[i], queries[i].name + ": ran and checked");

    if (!opts.trace) {
        // rates are medians over rounds: one pass is records x queries
        const double work = static_cast<double>(records) * nq;
        std::vector<double> rate_n, rate_1, cpus;
        for (const Pass& p : plain_n) {
            rate_n.push_back(work / p.wall);
            cpus.push_back(p.cpu);
        }
        for (const Pass& p : plain_1)
            rate_1.push_back(work / p.wall);
        report.metric("records_per_s", median(rate_n), "records/s");
        report.metric("serial_records_per_s", median(rate_1), "records/s");
        // offline input has no ingest stage apart from the query itself
        report.metric("ingest_records_per_s", median(rate_n), "records/s");
        report.metric("snapshots_per_s", median(rate_n), "snapshots/s");
        report.metric("serial_snapshots_per_s", median(rate_1), "snapshots/s");
        report.metric("cpu_s", median(cpus), "s");
        // p50: the median of each query's median latency (a median over a mix of
        // differently sized queries would jump between them); p90: over
        // every execution
        std::vector<double> medians, all;
        for (const std::vector<double>& l : latencies_ms) {
            medians.push_back(median(l));
            all.insert(all.end(), l.begin(), l.end());
        }
        report.metric("query_p50_ms", median(medians), "ms");
        report.metric("query_p90_ms", quantile(all, 0.9), "ms");
        return;
    }

    // ---- per-layer (traced N-thread passes, per pass)
    const double tp = static_cast<double>(traced_n.size());
    const double executions = tp * nq;
    report.metric("io.parse_s", layer.parse_s / tp, "s");
    report.metric("io.bytes", layer.reader_bytes / executions, "bytes");
    report.metric("io.records", layer.reader_records / executions, "count");
    report.check(layer.reader_records / executions == static_cast<double>(records),
                 "io.records per query equals the corpus records");
    report.check(layer.reader_bytes / executions == static_cast<double>(corpus.bytes),
                 "io.bytes per query equals the corpus bytes");
    report.metric("query.let_s", layer.let_s / tp, "s");
    report.metric("query.filter_s", layer.filter_s / tp, "s");
    report.metric("query.filter_pass_ratio",
                  layer.checked > 0 ? layer.passed / layer.checked : 0, "ratio");
    report.metric("query.result_s", layer.result_s / tp, "s");
    report.metric("query.format_s", layer.write_s / tp, "s");
    report.metric("query.output_bytes", layer.output_bytes / tp, "bytes");
    for (std::size_t i = 0; i < queries.size(); ++i)
        report.metric("q." + queries[i].name + "_s", layer.per_query[i] / tp, "s");
    report.metric("aggregate.s", layer.agg_s / tp, "s");
    report.metric("aggregate.lookups", layer.lookups / tp, "count");
    report.metric("aggregate.inserts", layer.inserts / tp, "count");
    report.metric("aggregate.probe_steps_per_lookup",
                  layer.lookups > 0 ? layer.probes / layer.lookups : 0, "ratio");
    report.metric("aggregate.flush_s", layer.flush_s / tp, "s");
    report.metric("engine.merge_s", layer.merge_s / tp, "s");
    report.metric("engine.busy_s", layer.busy_s / tp, "s");
    report.metric("engine.queue_wait_s", layer.wait_s / tp, "s");
    report.metric("engine.morsels", layer.morsels / tp, "count");
    report.metric("engine.early_flushes", layer.early_flushes / tp, "count");
    report.metric("engine.early_flush_bytes", layer.early_flush_bytes / tp, "bytes");

    std::vector<double> plain, traced;
    for (const Pass& p : plain_n)
        plain.push_back(p.wall);
    for (const Pass& p : traced_n)
        traced.push_back(p.wall);
    report.metric("bench.trace_overhead_s", median(traced) - median(plain), "s");

    {
        Span s("probe.parse");
        report.metric("io.parse_mb_per_s.t1", probe_parse_mb_per_s(corpus.files, corpus.bytes, 1),
                      "MB/s");
        report.metric("io.parse_mb_per_s.tN", probe_parse_mb_per_s(corpus.files, corpus.bytes, n),
                      "MB/s");
    }
    {
        Span s("probe.intern");
        probe_intern(opts, intern_names, report);
    }
}

/// Write the corpus \a reps times on \a writers threads (the set-up,
/// timed), each time into an emptied directory, and report the median as
/// setup_s.
void setup_corpus(const Options& opts, Report& report, Corpus& corpus, int reps,
                  unsigned writers) {
    reps = opts.trace ? 1 : reps;
    std::vector<double> times;
    for (int rep = 0; rep < reps; ++rep) {
        Span s("setup.corpus");
        std::filesystem::remove_all(opts.work_dir + "/corpus");
        const std::uint64_t t0 = now_ns();
        corpus.files = write_corpus(opts.work_dir + "/corpus", corpus.shape, opts.seed,
                                    writers, corpus.bytes);
        times.push_back(since_s(t0));
    }
    if (!opts.trace)
        report.metric("setup_s", median(times), "s");
}

std::vector<std::string> all_names(const KeyNames& names) {
    std::vector<std::string> out = names.kernels;
    out.insert(out.end(), names.mpi_functions.begin(), names.mpi_functions.end());
    return out;
}

std::string key_label(const KeyNames& names, int key) {
    return names.kernel(key) + "|" + names.mpi_function(key);
}

} // namespace

// ------------------------------------------------------- offline-profile

void run_offline_profile(const Options& opts, Report& report) {
    Corpus corpus;
    corpus.shape.ranks      = opts.smoke ? 2 : 4;
    corpus.shape.iterations = opts.smoke ? 24 : 2941; // 4 x 2941 x 85 = 999,940 records
    const ProfileShape& shape = corpus.shape;
    const KeyNames names(shape);
    const int keys  = shape.keys();
    const int ranks = shape.ranks;

    // one large file per writer thread
    setup_corpus(opts, report, corpus, 5, opts.threads);

    // ---- the independent tally, replayed from the generator's streams
    const int window_floor = shape.iterations - 5; // WINDOW 5 SLIDE 1: 5 live panes
    std::vector<Tally> paper(keys), window_excl(keys);
    std::vector<std::uint64_t> window_count(keys, 0);
    const int kgroups = shape.kernels + 1; // kernels, then "no kernel"
    std::vector<Tally> report_t(kgroups * ranks);
    std::vector<std::uint64_t> report_count(kgroups * ranks, 0);
    for (int r = 0; r < ranks; ++r) {
        RankStream stream(shape, opts.seed, r);
        ProfileRecord rec;
        while (stream.next(rec)) {
            paper[rec.key].add(rec.incl);
            if (rec.iteration >= window_floor) {
                window_count[rec.key] += rec.count;
                window_excl[rec.key].add(rec.excl);
            }
            if (rec.count > 4) {
                const int kg = names.is_kernel(rec.key) ? rec.key : shape.kernels;
                report_count[kg * ranks + r] += rec.count;
                report_t[kg * ranks + r].add(rec.excl * 0.001);
            }
        }
    }

    auto key_index = [&](const Csv& csv, const std::vector<std::string>& row) {
        const std::string label =
            cell(csv, row, "kernel") + "|" + cell(csv, row, "mpi.function");
        for (int k = 0; k < keys; ++k)
            if (key_label(names, k) == label)
                return k;
        return -1;
    };

    std::vector<OfflineQuery> queries;
    queries.push_back(
        {"paper",
         "AGGREGATE sum(sum#time.inclusive.duration) GROUP BY kernel,mpi.function FORMAT csv",
         [&](const std::string& out, Report& rep) {
             const Csv csv = parse_csv(out);
             if (!check_columns(csv, {"kernel", "mpi.function",
                                      "sum#sum#time.inclusive.duration"},
                                "paper", rep))
                 return;
             rep.check(csv.rows.size() == static_cast<std::size_t>(keys),
                       "paper: one row per kernel/MPI function");
             std::vector<bool> seen(keys, false);
             for (const auto& row : csv.rows) {
                 const int k = key_index(csv, row);
                 if (!rep.check(k >= 0 && !seen[k], "paper: row key in the tally, once"))
                     continue;
                 seen[k] = true;
                 rep.check(close_to(cell(csv, row, "sum#sum#time.inclusive.duration"),
                                    paper[k].value(), paper[k].bound()),
                           "paper: sum within bound for " + key_label(names, k));
             }
         }});
    queries.push_back(
        {"report",
         "LET t=scale(sum#time.duration,0.001) "
         "AGGREGATE sum(count),sum(t),min(t),max(t),avg(t) WHERE count>4 "
         "GROUP BY kernel,mpi.rank FORMAT csv",
         [&](const std::string& out, Report& rep) {
             const Csv csv = parse_csv(out);
             if (!check_columns(csv, {"kernel", "mpi.rank", "sum#count", "sum#t", "min#t",
                                      "max#t", "avg#t"},
                                "report", rep))
                 return;
             rep.check(csv.rows.size() == static_cast<std::size_t>(kgroups * ranks),
                       "report: one row per kernel (or none) and rank");
             std::vector<bool> seen(kgroups * ranks, false);
             for (const auto& row : csv.rows) {
                 const std::string& kernel = cell(csv, row, "kernel");
                 int kg                    = kernel.empty() ? shape.kernels : -1;
                 for (int k = 0; k < shape.kernels && kg < 0; ++k)
                     if (names.kernels[k] == kernel)
                         kg = k;
                 const int r = std::atoi(cell(csv, row, "mpi.rank").c_str());
                 if (!rep.check(kg >= 0 && r >= 0 && r < ranks && !seen[kg * ranks + r],
                                "report: row key in the tally, once"))
                     continue;
                 const int g = kg * ranks + r;
                 seen[g]     = true;
                 const Tally& t = report_t[g];
                 const std::string what = "report: " + kernel + "/" + std::to_string(r);
                 rep.check(cell(csv, row, "sum#count") == std::to_string(report_count[g]),
                           what + " sum(count) exact");
                 rep.check(close_to(cell(csv, row, "sum#t"), t.value(), t.bound()),
                           what + " sum(t) within bound");
                 rep.check(close_to(cell(csv, row, "min#t"), t.min, 0), what + " min(t)");
                 rep.check(close_to(cell(csv, row, "max#t"), t.max, 0), what + " max(t)");
                 const long double n = static_cast<long double>(t.n);
                 rep.check(close_to(cell(csv, row, "avg#t"), t.value() / n, t.bound() / n),
                           what + " avg(t) within bound");
             }
         }});
    queries.push_back(
        {"window",
         "AGGREGATE sum(count),sum(sum#time.duration) GROUP BY kernel,mpi.function "
         "WINDOW 5 BY iteration#mainloop SLIDE 1 FORMAT csv",
         [&](const std::string& out, Report& rep) {
             const Csv csv = parse_csv(out);
             if (!check_columns(csv, {"kernel", "mpi.function", "sum#count",
                                      "sum#sum#time.duration"},
                                "window", rep))
                 return;
             rep.check(csv.rows.size() == static_cast<std::size_t>(keys),
                       "window: one row per kernel/MPI function");
             std::vector<bool> seen(keys, false);
             for (const auto& row : csv.rows) {
                 const int k = key_index(csv, row);
                 if (!rep.check(k >= 0 && !seen[k], "window: row key in the tally, once"))
                     continue;
                 seen[k] = true;
                 rep.check(cell(csv, row, "sum#count") == std::to_string(window_count[k]),
                           "window: sum(count) over the trailing panes exact for " +
                               key_label(names, k));
                 rep.check(close_to(cell(csv, row, "sum#sum#time.duration"),
                                    window_excl[k].value(), window_excl[k].bound()),
                           "window: duration sum within bound for " + key_label(names, k));
             }
         }});

    run_offline(opts, report, corpus, queries, all_names(names));
}

// ---------------------------------------------------- offline-timeseries

void run_offline_timeseries(const Options& opts, Report& report) {
    Corpus corpus;
    corpus.shape.ranks      = opts.smoke ? 8 : 128;
    corpus.shape.iterations = opts.smoke ? 3 : 10; // 128 x 10 x 85 = 108,800 records
    const ProfileShape& shape = corpus.shape;
    const KeyNames names(shape);

    // one writer: 128 small files written on N threads took 60-150 ms and
    // followed the host's CPU steal far more than the passes did
    setup_corpus(opts, report, corpus, 9, 1);

    // every record is its own group: the tally is the record list
    std::vector<ProfileRecord> recs;
    recs.reserve(shape.records());
    std::unordered_map<std::string, std::size_t> by_key;
    by_key.reserve(shape.records());
    auto label = [&](int rank, int iter, const std::string& kernel, const std::string& mpi) {
        return std::to_string(rank) + "|" + std::to_string(iter) + "|" + kernel + "|" + mpi;
    };
    for (int r = 0; r < shape.ranks; ++r) {
        RankStream stream(shape, opts.seed, r);
        ProfileRecord rec;
        while (stream.next(rec)) {
            by_key.emplace(label(rec.rank, rec.iteration, names.kernel(rec.key),
                                 names.mpi_function(rec.key)),
                           recs.size());
            recs.push_back(rec);
        }
    }
    auto row_record = [&](const Csv& csv, const std::vector<std::string>& row) -> long {
        const auto it = by_key.find(label(std::atoi(cell(csv, row, "mpi.rank").c_str()),
                                          std::atoi(cell(csv, row, "iteration#mainloop").c_str()),
                                          cell(csv, row, "kernel"),
                                          cell(csv, row, "mpi.function")));
        return it == by_key.end() ? -1 : static_cast<long>(it->second);
    };
    auto single = [](double x) {
        Tally t;
        t.add(x);
        return t;
    };

    // top 20 by exclusive duration, the tally's order
    std::vector<std::size_t> top(recs.size());
    for (std::size_t i = 0; i < top.size(); ++i)
        top[i] = i;
    const std::size_t k = std::min<std::size_t>(20, top.size());
    std::partial_sort(top.begin(), top.begin() + k, top.end(),
                      [&](std::size_t a, std::size_t b) { return recs[a].excl > recs[b].excl; });
    top.resize(k);

    std::vector<OfflineQuery> queries;
    queries.push_back(
        {"series",
         "AGGREGATE sum(count),sum(sum#time.duration),sum(sum#time.inclusive.duration) "
         "GROUP BY mpi.rank,iteration#mainloop,kernel,mpi.function FORMAT csv",
         [&](const std::string& out, Report& rep) {
             const Csv csv = parse_csv(out);
             if (!check_columns(csv, {"mpi.rank", "iteration#mainloop", "kernel",
                                      "mpi.function", "sum#count", "sum#sum#time.duration",
                                      "sum#sum#time.inclusive.duration"},
                                "series", rep))
                 return;
             rep.check(csv.rows.size() == recs.size(), "series: one row per tallied group");
             std::vector<bool> seen(recs.size(), false);
             std::uint64_t bad = 0;
             for (const auto& row : csv.rows) {
                 const long i = row_record(csv, row);
                 if (i < 0 || seen[i]) {
                     ++bad;
                     continue;
                 }
                 seen[i]                = true;
                 const ProfileRecord& r = recs[i];
                 const Tally ex = single(r.excl), in = single(r.incl);
                 if (cell(csv, row, "sum#count") != std::to_string(r.count) ||
                     !close_to(cell(csv, row, "sum#sum#time.duration"), ex.value(), ex.bound()) ||
                     !close_to(cell(csv, row, "sum#sum#time.inclusive.duration"), in.value(),
                               in.bound()))
                     ++bad;
             }
             rep.check(bad == 0, "series: every row equals its tallied group (" +
                                     std::to_string(bad) + " differ)");
         }});
    queries.push_back(
        {"topk",
         "AGGREGATE sum(count),sum(sum#time.duration) "
         "GROUP BY mpi.rank,iteration#mainloop,kernel,mpi.function "
         "ORDER BY sum#sum#time.duration DESC LIMIT 20 FORMAT csv",
         [&, k](const std::string& out, Report& rep) {
             const Csv csv = parse_csv(out);
             if (!check_columns(csv, {"mpi.rank", "iteration#mainloop", "sum#count",
                                      "sum#sum#time.duration"},
                                "topk", rep))
                 return;
             if (!rep.check(csv.rows.size() == k, "topk: LIMIT rows returned"))
                 return;
             auto slack = [&](std::size_t i) {
                 const Tally t = single(recs[top[i]].excl);
                 return t.bound() + 6e-12L * std::fabs(t.value());
             };
             for (std::size_t i = 0; i < k; ++i) {
                 const ProfileRecord& want = recs[top[i]];
                 const Tally t             = single(want.excl);
                 rep.check(close_to(cell(csv, csv.rows[i], "sum#sum#time.duration"),
                                    t.value(), t.bound()),
                           "topk: rank " + std::to_string(i) + " duration");
                 // the key must match wherever the neighbours are further
                 // apart than the error bound (no tie to break)
                 const bool clear_above =
                     i == 0 || recs[top[i - 1]].excl - want.excl > 2 * (slack(i - 1) + slack(i));
                 const bool clear_below =
                     i + 1 >= k || want.excl - recs[top[i + 1]].excl > 2 * (slack(i) + slack(i + 1));
                 if (clear_above && clear_below)
                     rep.check(row_record(csv, csv.rows[i]) == static_cast<long>(top[i]),
                               "topk: rank " + std::to_string(i) + " key is the tally's");
             }
         }});

    run_offline(opts, report, corpus, queries, all_names(names));
}

} // namespace perfbench
