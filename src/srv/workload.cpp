#include "srv/workload.hpp"

#include <algorithm>
#include <stdexcept>

namespace agtram::srv {

SyntheticWorkload::SyntheticWorkload(const drp::Problem& problem,
                                     WorkloadConfig config)
    : problem_(&problem), config_(config), rng_(config.seed) {
  const drp::AccessMatrix& access = problem.access;
  const std::size_t n = problem.object_count();
  const std::size_t nnz = access.nonzeros();
  if (nnz == 0) {
    throw std::invalid_argument("SyntheticWorkload: instance has no demand");
  }
  read_rate_.assign(nnz, 0.0);
  write_rate_.assign(nnz, 0.0);
  cell_object_.resize(nnz);
  for (drp::ObjectIndex k = 0; k < n; ++k) {
    const std::size_t base = access.accessor_base(k);
    const auto reads = access.accessor_reads_d(k);
    const auto writes = access.accessor_writes_d(k);
    for (std::size_t slot = 0; slot < reads.size(); ++slot) {
      read_rate_[base + slot] = reads[slot];
      write_rate_[base + slot] = writes[slot];
      cell_object_[base + slot] = k;
    }
    if (access.readers(k).size() >= 2) readable_.push_back(k);
  }
  rebuild_cumulative();
  if (total_rate_ <= 0.0) {
    throw std::invalid_argument("SyntheticWorkload: instance demand is zero");
  }
}

void SyntheticWorkload::rebuild_cumulative() {
  const std::size_t nnz = read_rate_.size();
  cum_.resize(2 * nnz);
  double acc = 0.0;
  for (std::size_t i = 0; i < nnz; ++i) {
    acc += read_rate_[i];
    cum_[i] = acc;
  }
  for (std::size_t i = 0; i < nnz; ++i) {
    acc += write_rate_[i];
    cum_[nnz + i] = acc;
  }
  total_rate_ = acc;
}

void SyntheticWorkload::drift_step() {
  if (readable_.empty()) return;
  ++drift_steps_;
  const drp::AccessMatrix& access = problem_->access;
  std::uniform_int_distribution<std::size_t> pick_obj(0,
                                                      readable_.size() - 1);
  for (std::size_t d = 0; d < config_.drift_objects; ++d) {
    const drp::ObjectIndex k = readable_[pick_obj(rng_)];
    const std::size_t base = access.accessor_base(k);
    const auto readers = access.readers(k);
    // Reads concentrate onto one hot reader; its slot is found by id (the
    // readers list is a subset of the sorted accessor row).
    const drp::ServerId hot =
        readers[std::uniform_int_distribution<std::size_t>(
            0, readers.size() - 1)(rng_)];
    const std::size_t hot_idx = base + access.accessor_slot(hot, k);
    const auto servers = access.accessor_servers(k);
    double moved_reads = 0.0;
    double moved_writes = 0.0;
    for (std::size_t slot = 0; slot < servers.size(); ++slot) {
      const std::size_t idx = base + slot;
      if (idx == hot_idx) continue;
      const double dr = read_rate_[idx] * config_.drift_fraction;
      read_rate_[idx] -= dr;
      moved_reads += dr;
      const double dw = write_rate_[idx] * config_.drift_fraction;
      write_rate_[idx] -= dw;
      moved_writes += dw;
    }
    // The hot cell is a structural reader, so both kinds may land on it.
    read_rate_[hot_idx] += moved_reads;
    write_rate_[hot_idx] += moved_writes;
  }
  rebuild_cumulative();
}

void SyntheticWorkload::next_batch(std::vector<Request>& out) {
  out.clear();
  out.reserve(config_.requests_per_batch);
  const std::size_t nnz = read_rate_.size();
  std::uniform_real_distribution<double> pick(0.0, total_rate_);
  const std::uint32_t count_span =
      config_.mean_count > 1 ? 2 * config_.mean_count - 1 : 1;
  std::uniform_int_distribution<std::uint32_t> pick_count(1, count_span);
  for (std::size_t r = 0; r < config_.requests_per_batch; ++r) {
    const double u = pick(rng_);
    const std::size_t i = static_cast<std::size_t>(
        std::upper_bound(cum_.begin(), cum_.end(), u) - cum_.begin());
    const std::size_t idx = i < nnz ? i : i - nnz;
    // Degenerate draw past the last positive rate (floating-point edge):
    // clamp to the final cell.
    const std::size_t cell = idx < nnz ? idx : nnz - 1;
    const drp::ObjectIndex k = cell_object_[cell];
    Request req;
    req.object = k;
    req.slot = static_cast<std::uint32_t>(
        cell - problem_->access.accessor_base(k));
    req.count = pick_count(rng_);
    req.write = i >= nnz;
    out.push_back(req);
  }
  ++batches_;
  if (config_.drift_interval > 0 && batches_ % config_.drift_interval == 0) {
    drift_step();
  }
}

}  // namespace agtram::srv
