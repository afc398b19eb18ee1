// daemon-live: an in-process calib-proxyd on a unix socket with one
// reduced-mode channel. Set-up preloads every key once, so the channel's
// group count (and with it the cost of a query) stays flat for the run.
// Each round, N-2 pushers (at least 1) stream per-rank, per-iteration
// profile records and end with a query ack, today's fold barrier; then a
// single pusher streams the same number of records alone. All the while,
// one client sends the live report query on a fixed schedule (an open
// loop) and each query is timed from its due time. Frame decode, fold and
// query answer all run on the daemon's one epoll thread.
#include "corpus.hpp"
#include "workloads.hpp"

#include <net/client.hpp>
#include <net/frame.hpp>
#include <net/socket.hpp>
#include <obs/metrics.hpp>
#include <proxyd/daemon.hpp>
#include <proxyd/session.hpp>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <thread>

namespace perfbench {

namespace {

const char* kAggregate =
    "AGGREGATE sum(count),sum(sum#time.duration) "
    "GROUP BY kernel,mpi.function,mpi.rank,iteration#mainloop";
const char* kLiveQuery =
    "AGGREGATE sum(sum#count),sum(sum#sum#time.duration) "
    "GROUP BY kernel,mpi.function FORMAT csv";
const char* kAckQuery = "AGGREGATE count FORMAT csv";
const char* kChannel  = "bench";

/// The daemon key space: ranks x iterations x (kernels, MPI functions, none).
ProfileShape daemon_shape(bool smoke) {
    ProfileShape shape;
    shape.ranks      = 4;
    shape.iterations = smoke ? 2 : 16;
    return shape;
}

struct KeySpace {
    ProfileShape shape;
    KeyNames names;
    std::vector<calib::Variant> kernel_values, mpi_values; ///< interned once

    explicit KeySpace(bool smoke) : shape(daemon_shape(smoke)), names(shape) {
        for (const std::string& k : names.kernels)
            kernel_values.emplace_back(std::string_view(k));
        for (const std::string& m : names.mpi_functions)
            mpi_values.emplace_back(std::string_view(m));
    }
    std::uint64_t size() const { return shape.records(); }
};

/// Expected final answer, per key (kernel / MPI function / neither).
struct DaemonTally {
    std::vector<std::uint64_t> count;
    std::vector<Tally> excl;
    std::uint64_t records = 0;

    explicit DaemonTally(int keys) : count(keys, 0), excl(keys) {}
    void merge(const DaemonTally& o) {
        for (std::size_t k = 0; k < count.size(); ++k) {
            count[k] += o.count[k];
            excl[k].merge(o.excl[k]);
        }
        records += o.records;
    }
};

/// One pusher connection's traffic: \a records records cycling over the
/// given ranks x iterations x keys, values from a seeded stream.
struct Session {
    std::vector<int> ranks;
    std::uint64_t records = 0;
    std::uint64_t seed    = 0;
};

struct SessionResult {
    double push_s = 0; ///< time inside ProxyClient::push / flush (traced)
    double ack_ms = 0; ///< the final query ack: the fold barrier
};

class Pusher {
public:
    Pusher(const KeySpace& ks, const std::string& address, const std::string& name)
        : ks_(ks), client_(options(address, name)) {
        kernel_ = registry_.create("kernel", calib::Variant::Type::String, 0).id();
        mpi_    = registry_.create("mpi.function", calib::Variant::Type::String, 0).id();
        rank_   = registry_.create("mpi.rank", calib::Variant::Type::Int, 0).id();
        iter_   = registry_.create("iteration#mainloop", calib::Variant::Type::Int, 0).id();
        count_  = registry_.create("count", calib::Variant::Type::UInt, 0).id();
        excl_   = registry_.create("sum#time.duration", calib::Variant::Type::Double, 0).id();
    }

    /// Stream the session, tally it, and end with the ack.
    SessionResult run(const Session& s, DaemonTally& tally, bool time_push) {
        SessionResult res;
        Rng rng(s.seed);
        const int keys        = ks_.shape.keys();
        const std::uint64_t per_rank =
            static_cast<std::uint64_t>(ks_.shape.iterations) * keys;
        const std::uint64_t cycle = per_rank * s.ranks.size();
        calib::IdRecord rec;
        std::uint64_t push_ns = 0;
        for (std::uint64_t i = 0; i < s.records; ++i) {
            const std::uint64_t c = i % cycle;
            const int rank        = s.ranks[c / per_rank];
            const int iter        = static_cast<int>((c % per_rank) / keys);
            const int key         = static_cast<int>(c % keys);
            const std::uint64_t visits = 1 + rng.below(64);
            const double excl = (0.5 + rng.uniform()) * 150.0 * static_cast<double>(visits);
            rec.clear();
            if (ks_.names.is_kernel(key))
                rec.append(kernel_, ks_.kernel_values[key]);
            else if (ks_.names.is_mpi(key))
                rec.append(mpi_, ks_.mpi_values[key - ks_.shape.kernels]);
            rec.append(rank_, calib::Variant(static_cast<long long>(rank)));
            rec.append(iter_, calib::Variant(static_cast<long long>(iter)));
            rec.append(count_, calib::Variant(static_cast<unsigned long long>(visits)));
            rec.append(excl_, calib::Variant(excl));
            if (time_push) {
                const std::uint64_t t0 = now_ns();
                client_.push(registry_, rec);
                push_ns += now_ns() - t0;
            } else {
                client_.push(registry_, rec);
            }
            tally.count[key] += visits;
            tally.excl[key].add(excl);
        }
        tally.records += s.records;
        const std::uint64_t t0 = now_ns();
        client_.flush();
        const std::uint64_t t1 = now_ns();
        client_.query(kAckQuery);
        res.ack_ms = static_cast<double>(now_ns() - t1) * 1e-6;
        res.push_s = static_cast<double>(push_ns + (t1 - t0)) * 1e-9;
        client_.close();
        return res;
    }

private:
    static calib::net::ProxyClient::Options options(const std::string& address,
                                                    const std::string& name) {
        calib::net::ProxyClient::Options o;
        o.address     = address;
        o.channel     = kChannel;
        o.client_name = name;
        return o;
    }

    const KeySpace& ks_;
    calib::AttributeRegistry registry_;
    calib::net::ProxyClient client_;
    calib::id_t kernel_, mpi_, rank_, iter_, count_, excl_;
};

/// A running daemon and its event-loop thread.
struct Daemon {
    calib::proxyd::ProxyDaemon daemon;
    std::thread loop;

    explicit Daemon(calib::proxyd::DaemonOptions o) : daemon(std::move(o)) {
        daemon.start();
        loop = std::thread([this] { daemon.run(); });
    }
    ~Daemon() { stop(); }
    Daemon(const Daemon&)            = delete;
    Daemon& operator=(const Daemon&) = delete;
    void stop() {
        if (loop.joinable()) {
            daemon.stop();
            loop.join();
        }
    }
};

/// One HTTP GET of the daemon's /metrics endpoint; returns the body.
std::string scrape(const std::string& address) {
    calib::net::Socket s = calib::net::connect_to(address);
    const std::string req = "GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n";
    if (!s.send_all(req.data(), req.size()))
        throw std::runtime_error("scrape: send failed");
    std::string resp;
    char buf[65536];
    for (ssize_t n; (n = s.recv_some(buf, sizeof(buf))) > 0;)
        resp.append(buf, static_cast<std::size_t>(n));
    const std::size_t body = resp.find("\r\n\r\n");
    if (resp.rfind("HTTP/1.0 200", 0) != 0 || body == std::string::npos)
        throw std::runtime_error("scrape: bad response");
    return resp.substr(body + 4);
}

/// Value of the series "<name>{channel="bench"}" in a scrape body.
double series(const std::string& body, const std::string& name) {
    const std::string key = name + "{channel=\"" + kChannel + "\"} ";
    const std::size_t at  = body.find(key);
    return at == std::string::npos ? -1 : std::atof(body.c_str() + at + key.size());
}

/// Total of the sum#sum#count column of a live-query answer; false when
/// the column or a cell of it is missing or not a number.
bool answer_total(const std::string& csv_text, std::uint64_t& total) {
    const Csv csv = parse_csv(csv_text);
    if (csv.column("sum#sum#count") < 0)
        return false;
    total = 0;
    for (const auto& row : csv.rows) {
        const std::string& v = cell(csv, row, "sum#sum#count");
        char* end            = nullptr;
        const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
        if (v.empty() || *end != '\0')
            return false;
        total += n;
    }
    return true;
}

/// proxyd.feed_records_per_s and proxyd.answer_ms: frames pre-encoded with
/// the net/frame.hpp builders fed straight into an IngestSession over a
/// fresh channel (no socket), then ProxyChannel::answer on the loaded
/// channel.
void probe_channel(const KeySpace& ks, std::uint64_t seed, Report& report) {
    const int keys = ks.shape.keys();
    std::vector<std::byte> wire;
    calib::net::append_hello(wire, "probe", "probe");
    const char* names[] = {"kernel", "mpi.function", "mpi.rank", "iteration#mainloop",
                           "count", "sum#time.duration"};
    const calib::Variant::Type types[] = {
        calib::Variant::Type::String, calib::Variant::Type::String, calib::Variant::Type::Int,
        calib::Variant::Type::Int,    calib::Variant::Type::UInt,   calib::Variant::Type::Double};
    for (std::uint32_t i = 0; i < 6; ++i)
        calib::net::append_attr(wire, i, names[i], types[i], 0);
    const std::uint64_t records = ks.size() * 4;
    Rng rng(seed);
    calib::net::RecordsBuilder batch;
    for (std::uint64_t i = 0; i < records; ++i) {
        const std::uint64_t c = i % ks.size();
        const int key         = static_cast<int>(c % keys);
        const std::uint64_t visits = 1 + rng.below(64);
        batch.begin_record();
        if (ks.names.is_kernel(key))
            batch.entry(0, ks.kernel_values[key]);
        else if (ks.names.is_mpi(key))
            batch.entry(1, ks.mpi_values[key - ks.shape.kernels]);
        batch.entry(2, calib::Variant(static_cast<long long>(c / (ks.shape.iterations * keys))));
        batch.entry(3, calib::Variant(static_cast<long long>((c / keys) % ks.shape.iterations)));
        batch.entry(4, calib::Variant(static_cast<unsigned long long>(visits)));
        batch.entry(5, calib::Variant((0.5 + rng.uniform()) * 150.0 * static_cast<double>(visits)));
        batch.end_record();
        if (batch.num_records() == 512)
            batch.frame(wire);
    }
    if (batch.num_records() > 0)
        batch.frame(wire);

    std::vector<double> rates, answers;
    for (int rep = 0; rep < 3; ++rep) {
        calib::proxyd::ProxyChannel channel("probe", kAggregate);
        calib::proxyd::IngestSession::Hooks hooks;
        hooks.open_channel = [&](const std::string&, bool) { return &channel; };
        hooks.respond      = [](std::uint8_t, std::string_view) {};
        calib::proxyd::IngestSession session(hooks);
        const std::uint64_t t0 = now_ns();
        for (std::size_t off = 0; off < wire.size(); off += 65536)
            if (session.feed(wire.data() + off, std::min<std::size_t>(65536, wire.size() - off)) !=
                calib::proxyd::IngestSession::Status::Ok)
                break;
        rates.push_back(static_cast<double>(records) / since_s(t0));
        report.check(channel.records() == records && channel.groups() == ks.size(),
                     "probe channel folded every fed record into the key space");
        for (int q = 0; q < 5; ++q) {
            bool ok                = false;
            const std::uint64_t a0 = now_ns();
            channel.answer(kLiveQuery, &ok);
            answers.push_back(static_cast<double>(now_ns() - a0) * 1e-6);
            report.check(ok, "probe channel answered the live query");
        }
    }
    report.metric("proxyd.feed_records_per_s", median(rates), "records/s");
    report.metric("proxyd.answer_ms", median(answers), "ms");
}

} // namespace

void run_daemon_live(const Options& opts, Report& report) {
    const KeySpace ks(opts.smoke);
    const int keys        = ks.shape.keys();
    const unsigned pushers = opts.threads > 2 ? opts.threads - 2 : 1;
    // records per pusher connection: 128 sweeps of a phase-A pusher's ranks,
    // so one phase spans many live queries
    const std::uint64_t per_session =
        ks.size() / pushers * (opts.smoke ? 1 : 128);
    const auto period = std::chrono::microseconds(opts.smoke ? 10000 : 40000);

    DaemonTally tally(keys);
    std::unique_ptr<Daemon> d;
    std::string address, http;

    // ---- set-up: daemon start plus preload of every key, timed, repeated
    {
        std::vector<double> times;
        const int reps = opts.trace ? 1 : 25;
        for (int rep = 0; rep < reps; ++rep) {
            Span span("setup.daemon");
            d.reset();
            tally = DaemonTally(keys);
            const std::uint64_t t0 = now_ns();
            calib::proxyd::DaemonOptions o;
            o.listen    = opts.work_dir + "/proxyd-" + std::to_string(rep) + ".sock";
            o.http      = "127.0.0.1:0";
            o.aggregate = kAggregate;
            d           = std::make_unique<Daemon>(o);
            address     = d->daemon.ingest_address();
            http        = d->daemon.http_address();
            Session preload;
            for (int r = 0; r < ks.shape.ranks; ++r)
                preload.ranks.push_back(r);
            preload.records = ks.size();
            preload.seed    = mix_seed(opts.seed, 0x9e10ad);
            Pusher(ks, address, "preload").run(preload, tally, false);
            times.push_back(since_s(t0));
        }
        if (!opts.trace)
            report.metric("setup_s", median(times), "s");
    }

    // ---- the live query generator: open loop, timed from the due time
    std::atomic<bool> stop_queries{false};
    std::vector<double> latency_ms, lag_ms;
    std::uint64_t query_failures = 0, last_total = 0;
    bool monotone = true, parsed = true;
    std::thread querier([&] {
        calib::net::ProxyClient::Options o;
        o.address     = address;
        o.channel     = kChannel;
        o.client_name = "live-query";
        o.query_only  = true;
        calib::net::ProxyClient client(o);
        auto due = std::chrono::steady_clock::now();
        while (!stop_queries.load()) {
            due += period;
            // sleep to just short of the due time, then spin: waking a
            // halted vCPU is the host's latency, not the daemon's
            std::this_thread::sleep_until(due - std::chrono::milliseconds(2));
            while (std::chrono::steady_clock::now() < due)
                std::this_thread::yield();
            const auto sent = std::chrono::steady_clock::now();
            std::string answer;
            try {
                answer = client.query(kLiveQuery);
            } catch (const std::exception& e) {
                ++query_failures;
                std::fprintf(stderr, "perfbench: live query failed: %s\n", e.what());
                continue;
            }
            const auto done = std::chrono::steady_clock::now();
            latency_ms.push_back(std::chrono::duration<double, std::milli>(done - due).count());
            lag_ms.push_back(std::chrono::duration<double, std::milli>(sent - due).count());
            std::uint64_t total = 0;
            if (!answer_total(answer, total))
                parsed = false;
            else if (total < last_total)
                monotone = false;
            last_total = std::max(last_total, total);
        }
        client.close();
    });

    // ---- rounds: N-2 pushers together, then one pusher alone
    struct Phase {
        double wall = 0, cpu = 0;
        std::uint64_t records = 0;
    };
    std::vector<Phase> multi, single;
    std::vector<double> round_traced, round_plain, barrier_ms;
    double push_s = 0, query_s = 0, frames = 0, bytes = 0;
    int traced_rounds = 0;

    auto phase = [&](const std::vector<Session>& sessions, bool traced, const Span& parent) {
        Phase p;
        std::vector<DaemonTally> tallies(sessions.size(), DaemonTally(keys));
        std::vector<SessionResult> results(sessions.size());
        std::vector<std::unique_ptr<Pusher>> clients;
        for (std::size_t i = 0; i < sessions.size(); ++i)
            clients.push_back(
                std::make_unique<Pusher>(ks, address, "pusher-" + std::to_string(i)));
        std::barrier start(static_cast<std::ptrdiff_t>(sessions.size() + 1));
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < sessions.size(); ++i)
            threads.emplace_back([&, i] {
                start.arrive_and_wait();
                Span span("pusher", &parent);
                try {
                    results[i] = clients[i]->run(sessions[i], tallies[i], traced);
                } catch (const std::exception& e) {
                    report.failed();
                    std::fprintf(stderr, "perfbench: pusher failed: %s\n", e.what());
                }
            });
        const double cpu0 = process_cpu_s();
        start.arrive_and_wait();
        const std::uint64_t t0 = now_ns();
        for (std::thread& t : threads)
            t.join();
        p.wall = since_s(t0);
        p.cpu  = process_cpu_s() - cpu0;
        for (std::size_t i = 0; i < sessions.size(); ++i) {
            report.attempted();
            tally.merge(tallies[i]);
            p.records += sessions[i].records;
            if (traced) {
                push_s += results[i].push_s;
                barrier_ms.push_back(results[i].ack_ms);
            }
        }
        return p;
    };

    // the query thread must be joined on every path out of the rounds
    try {
        const std::uint64_t t0 = now_ns();
        for (int round = 0;; ++round) {
            const bool traced = opts.trace && round % 2 == 1;
            obs_begin(traced, traced);
            Span rspan("round");

            std::vector<Session> sessions(pushers);
            for (unsigned j = 0; j < pushers; ++j) {
                for (int r = static_cast<int>(j); r < ks.shape.ranks; r += static_cast<int>(pushers))
                    sessions[j].ranks.push_back(r);
                sessions[j].records = per_session;
                sessions[j].seed    = mix_seed(opts.seed, static_cast<std::uint64_t>(round), j);
            }
            Phase pm;
            {
                Span span("phase.pushers", &rspan);
                pm = phase(sessions, traced, span);
            }
            Session alone;
            for (int r = 0; r < ks.shape.ranks; ++r)
                alone.ranks.push_back(r);
            alone.records = per_session;
            alone.seed    = mix_seed(opts.seed, static_cast<std::uint64_t>(round), 0x51);
            Phase ps;
            {
                Span span("phase.single", &rspan);
                ps = phase({alone}, traced, span);
            }

            if (traced) {
                ++traced_rounds;
                round_traced.push_back(pm.wall + ps.wall);
                query_s += obs_timer_s("proxyd.query");
                frames += obs_value("proxyd.frames");
                bytes += obs_value("proxyd.bytes");
            } else {
                multi.push_back(pm);
                single.push_back(ps);
                round_plain.push_back(pm.wall + ps.wall);
            }
            if (since_s(t0) >= opts.seconds && (!opts.trace || round >= 1))
                break;
        }
    } catch (...) {
        stop_queries = true;
        querier.join();
        throw;
    }
    obs_begin(false, opts.trace);
    stop_queries = true;
    querier.join();
    report.attempted(latency_ms.size() + query_failures);
    report.failed(query_failures);

    // ---- checks: record count, final answer vs tally, monotone totals
    {
        calib::net::ProxyClient::Options o;
        o.address     = address;
        o.channel     = kChannel;
        o.client_name = "final";
        o.query_only  = true;
        calib::net::ProxyClient client(o);
        const Csv csv = parse_csv(client.query(kLiveQuery));
        client.close();
        report.check(csv.column("sum#sum#count") >= 0 &&
                         csv.column("sum#sum#sum#time.duration") >= 0,
                     "final answer has the count and duration columns");
        report.check(csv.rows.size() == static_cast<std::size_t>(keys),
                     "final answer has one row per kernel/MPI function");
        std::vector<bool> seen(keys, false);
        for (const auto& row : csv.rows) {
            const std::string& kernel = cell(csv, row, "kernel");
            const std::string& mpi    = cell(csv, row, "mpi.function");
            int key                  = -1;
            for (int k = 0; k < keys && key < 0; ++k)
                if (ks.names.kernel(k) == kernel && ks.names.mpi_function(k) == mpi)
                    key = k;
            if (!report.check(key >= 0 && !seen[key], "final answer row key in the tally, once"))
                continue;
            seen[key] = true;
            report.check(cell(csv, row, "sum#sum#count") == std::to_string(tally.count[key]),
                         "final sum(count) exact for " + kernel + mpi);
            report.check(close_to(cell(csv, row, "sum#sum#sum#time.duration"),
                                  tally.excl[key].value(), tally.excl[key].bound()),
                         "final duration sum within bound for " + kernel + mpi);
        }
        report.check(parsed, "every live answer has the sum#sum#count column");
        report.check(monotone, "live sum(count) totals never decrease");

        const std::string body = scrape(http);
        report.check(series(body, "calib_channel_records_total") ==
                         static_cast<double>(tally.records),
                     "channel record count equals the records pushed");
        report.check(series(body, "calib_channel_groups") == static_cast<double>(ks.size()),
                     "channel groups equal the preloaded key space");
        if (opts.trace) {
            std::vector<double> scrapes;
            for (int i = 0; i < 5; ++i) {
                const std::uint64_t s0 = now_ns();
                scrape(http);
                scrapes.push_back(static_cast<double>(now_ns() - s0) * 1e-6);
            }
            report.metric("proxyd.scrape_ms", median(scrapes), "ms");
            report.metric("proxyd.groups", series(body, "calib_channel_groups"), "count");
            report.metric("proxyd.channel_bytes", series(body, "calib_channel_bytes"), "bytes");
        }
    }
    d->stop();
    report.check(d->daemon.stats().records == tally.records,
                 "daemon folded every pushed record after the drain");

    if (!opts.trace) {
        // rates are medians over rounds
        std::vector<double> rate_m, rate_s, cpus;
        for (const Phase& p : multi) {
            rate_m.push_back(static_cast<double>(p.records) / p.wall);
            cpus.push_back(p.cpu);
        }
        for (const Phase& p : single)
            rate_s.push_back(static_cast<double>(p.records) / p.wall);
        const double ingest = median(rate_m);
        const double serial = median(rate_s);
        report.metric("ingest_records_per_s", ingest, "records/s");
        report.metric("records_per_s", ingest, "records/s");
        report.metric("snapshots_per_s", ingest, "snapshots/s");
        report.metric("serial_records_per_s", serial, "records/s");
        report.metric("serial_snapshots_per_s", serial, "snapshots/s");
        report.metric("cpu_s", median(cpus), "s");
        report.check(latency_ms.size() >= (opts.smoke ? 1u : 100u),
                     "at least 100 live queries in the run");
        report.metric("query_p50_ms", quantile(latency_ms, 0.5), "ms");
        report.metric("query_p90_ms", quantile(latency_ms, 0.9), "ms");
        return;
    }

    const double tr = traced_rounds;
    report.metric("net.push_s", push_s / tr, "s");
    report.metric("proxyd.barrier_ms", median(barrier_ms), "ms");
    report.metric("proxyd.query_s", query_s / tr, "s");
    double lag = 0;
    for (double l : lag_ms)
        lag += l;
    report.metric("proxyd.query_lag_ms", lag_ms.empty() ? 0 : lag / lag_ms.size(), "ms");
    report.metric("proxyd.frames", frames / tr, "count");
    report.metric("proxyd.bytes", bytes / tr, "bytes");
    report.metric("bench.trace_overhead_s", median(round_traced) - median(round_plain), "s");
    {
        Span s("probe.channel");
        probe_channel(ks, mix_seed(opts.seed, 0xfeed), report);
    }
    {
        Span s("probe.intern");
        std::vector<std::string> names = ks.names.kernels;
        names.insert(names.end(), ks.names.mpi_functions.begin(), ks.names.mpi_functions.end());
        probe_intern(opts, names, report);
    }
}

} // namespace perfbench
