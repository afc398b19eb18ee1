// Seeded generator of ParaDiS-shaped profile records (the shape of
// calib::paradis::write_rank_file): one record per (iteration, key) per
// rank, where a key is a kernel, an MPI function, or neither, with a visit
// count and exclusive and inclusive durations. The seed sets the values
// and the key order; ranks x iterations x keys set the cardinality.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct ProfileShape {
    int ranks         = 4;
    int iterations    = 2941;
    int kernels       = 60;
    int mpi_functions = 24;

    /// Keys per iteration: kernels, MPI functions, and one record with
    /// neither.
    int keys() const { return kernels + mpi_functions + 1; }
    std::uint64_t records_per_rank() const {
        return static_cast<std::uint64_t>(iterations) * keys();
    }
    std::uint64_t records() const { return records_per_rank() * ranks; }
};

struct ProfileRecord {
    int key       = 0; ///< [0,kernels) kernel, then MPI functions, last = neither
    int iteration = 0;
    int rank      = 0;
    std::uint64_t count = 0; ///< visits
    double excl = 0;         ///< sum#time.duration
    double incl = 0;         ///< sum#time.inclusive.duration
};

/// Interned-once key names (calib::paradis::kernel_names and friends).
struct KeyNames {
    explicit KeyNames(const ProfileShape& shape);
    std::vector<std::string> kernels;
    std::vector<std::string> mpi_functions;

    int num_kernels() const { return static_cast<int>(kernels.size()); }
    bool is_kernel(int key) const { return key < num_kernels(); }
    bool is_mpi(int key) const {
        return key >= num_kernels() &&
               key < num_kernels() + static_cast<int>(mpi_functions.size());
    }
    /// "kernel" column value of \a key ("" when not a kernel).
    const std::string& kernel(int key) const;
    /// "mpi.function" column value of \a key ("" when not one).
    const std::string& mpi_function(int key) const;
};

/// One rank's record stream: iteration-major, every key once per iteration
/// in a seeded per-rank order.
class RankStream {
public:
    RankStream(const ProfileShape& shape, std::uint64_t seed, int rank);
    /// Fill \a out with the next record; false at the end.
    bool next(ProfileRecord& out);

private:
    const ProfileShape& shape_;
    std::uint64_t state_;
    int rank_;
    std::vector<int> order_;
    int iteration_ = 0;
    int pos_       = 0;
};

/// Write every rank's file (<dir>/rank-<r>.cali) through CaliWriter on up
/// to \a threads threads. Returns the file paths in rank order and sets
/// \a bytes to the bytes written. The expected query results are tallied
/// apart from the program, by replaying the same RankStreams.
std::vector<std::string> write_corpus(const std::string& dir, const ProfileShape& shape,
                                      std::uint64_t seed, unsigned threads,
                                      std::uint64_t& bytes);

} // namespace perfbench
