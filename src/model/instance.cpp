#include "model/instance.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace malsched {

Instance::Instance(int machines) : machines_(machines) {
  if (machines_ < 1) throw std::invalid_argument("Instance: machines must be >= 1");
}

void Instance::reserve(int tasks) {
  const auto more = static_cast<std::size_t>(std::max(tasks, 0));
  times_.reserve(times_.size() + more * static_cast<std::size_t>(machines_));
  offsets_.reserve(offsets_.size() + more);
  seq_times_.reserve(seq_times_.size() + more);
  name_offsets_.reserve(name_offsets_.size() + more);
}

void Instance::add_task(std::span<const double> times, std::string_view name) {
  // Validated in the array itself: the copy is checked and overwritten with
  // its running minimum in one pass, and a rejected profile is cut off again.
  const std::size_t begin = times_.size();
  times_.insert(times_.end(), times.begin(), times.end());
  const std::span<double> stored(times_.data() + begin, times.size());
  auto problem = MalleableTask::check_profile(stored, stored.data());
  if (!problem && stored.size() < static_cast<std::size_t>(machines_)) {
    problem = "profile shorter than machine count";
  }
  if (problem) {
    times_.resize(begin);
    throw std::invalid_argument("Instance: " + *problem +
                                (name.empty() ? std::string{}
                                              : " (task " + std::string(name) + ")"));
  }
  offsets_.push_back(times_.size());
  seq_times_.push_back(stored.front());
  names_.append(name);
  name_offsets_.push_back(names_.size());
}

void Instance::throw_bad_index(int index) const {
  throw std::out_of_range("Instance::task: index " + std::to_string(index) + " outside [0, " +
                          std::to_string(size()) + ")");
}

double Instance::total_sequential_work() const {
  double total = 0.0;
  for (const double seq : seq_times_) total += seq;
  return total;
}

bool operator==(const Instance& a, const Instance& b) noexcept {
  // The offsets fix every task boundary, so equal arrays under equal
  // offsets are equal tasks; memcmp compares the times bit for bit.
  return a.machines_ == b.machines_ && a.offsets_ == b.offsets_ &&
         a.name_offsets_ == b.name_offsets_ &&
         std::memcmp(a.times_.data(), b.times_.data(), a.times_.size() * sizeof(double)) == 0 &&
         std::memcmp(a.names_.data(), b.names_.data(), a.names_.size()) == 0;
}

}  // namespace malsched
