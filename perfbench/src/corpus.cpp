#include "corpus.hpp"

#include "common.hpp"

#include <apps/paradis/generator.hpp>
#include <common/recordmap.hpp>
#include <io/caliwriter.hpp>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

KeyNames::KeyNames(const ProfileShape& s)
    : kernels(calib::paradis::kernel_names(s.kernels)),
      mpi_functions(calib::paradis::mpi_function_names(s.mpi_functions)) {}

const std::string& KeyNames::kernel(int key) const {
    static const std::string none;
    return is_kernel(key) ? kernels[key] : none;
}

const std::string& KeyNames::mpi_function(int key) const {
    static const std::string none;
    return is_mpi(key) ? mpi_functions[key - num_kernels()] : none;
}

RankStream::RankStream(const ProfileShape& shape, std::uint64_t seed, int rank)
    : shape_(shape), state_(mix_seed(seed, 0x5eed, static_cast<std::uint64_t>(rank))),
      rank_(rank), order_(shape.keys()) {
    Rng rng(state_ ^ 0x0de7ULL);
    for (int i = 0; i < shape.keys(); ++i)
        order_[i] = i;
    for (int i = shape.keys() - 1; i > 0; --i)
        std::swap(order_[i], order_[rng.below(static_cast<std::uint64_t>(i) + 1)]);
}

bool RankStream::next(ProfileRecord& out) {
    if (iteration_ >= shape_.iterations)
        return false;
    Rng rng(state_);
    out.key       = order_[pos_];
    out.iteration = iteration_;
    out.rank      = rank_;
    out.count     = 1 + rng.below(64);
    out.excl      = (0.5 + rng.uniform()) * 150.0 * static_cast<double>(out.count);
    out.incl      = out.excl * (1.0 + rng.uniform());
    state_        = rng.next();
    if (++pos_ == shape_.keys()) {
        pos_ = 0;
        ++iteration_;
    }
    return true;
}

std::vector<std::string> write_corpus(const std::string& dir, const ProfileShape& shape,
                                      std::uint64_t seed, unsigned threads,
                                      std::uint64_t& bytes) {
    std::filesystem::create_directories(dir);
    const KeyNames names(shape);
    std::vector<std::string> paths(shape.ranks);
    for (int r = 0; r < shape.ranks; ++r)
        paths[r] = dir + "/rank-" + std::to_string(r) + ".cali";

    std::atomic<int> next_rank{0};
    std::atomic<std::uint64_t> total_bytes{0};
    std::exception_ptr error;
    std::mutex error_mutex;
    auto worker = [&] {
        try {
            for (int r; (r = next_rank.fetch_add(1)) < shape.ranks;) {
                std::ofstream os(paths[r], std::ios::binary);
                if (!os)
                    throw std::runtime_error("cannot write " + paths[r]);
                calib::CaliWriter writer(os);
                RankStream stream(shape, seed, r);
                ProfileRecord rec;
                calib::RecordMap map;
                while (stream.next(rec)) {
                    map.clear();
                    if (names.is_kernel(rec.key))
                        map.append("kernel", calib::Variant(names.kernel(rec.key)));
                    else if (names.is_mpi(rec.key))
                        map.append("mpi.function",
                                   calib::Variant(names.mpi_function(rec.key)));
                    map.append("iteration#mainloop",
                               calib::Variant(static_cast<long long>(rec.iteration)));
                    map.append("mpi.rank", calib::Variant(static_cast<long long>(rec.rank)));
                    map.append("count",
                               calib::Variant(static_cast<unsigned long long>(rec.count)));
                    map.append("sum#time.duration", calib::Variant(rec.excl));
                    map.append("sum#time.inclusive.duration", calib::Variant(rec.incl));
                    writer.write_record(map);
                }
                os.flush();
                if (!os)
                    throw std::runtime_error("write failed: " + paths[r]);
                total_bytes += writer.num_bytes();
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!error)
                error = std::current_exception();
        }
    };
    std::vector<std::thread> pool;
    const unsigned n = std::max(1u, std::min<unsigned>(threads, shape.ranks));
    for (unsigned i = 1; i < n; ++i)
        pool.emplace_back(worker);
    worker();
    for (std::thread& t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
    bytes = total_bytes.load();
    return paths;
}

} // namespace perfbench
