#include "mcsn/serve/batcher.hpp"

namespace mcsn {

BatchGroup MicroBatcher::drain_shard(Shard& shard, FlushCause cause) {
  BatchGroup group;
  // Move, don't copy: an empty shard must not pin the compiled program — a
  // lingering reference would make the sorter pool's LRU see the shape as
  // busy forever and never evict it. add() re-pins on the next request.
  group.sorter = std::move(shard.sorter);
  group.requests = std::move(shard.requests);
  group.flat = std::move(shard.flat);
  group.cause = cause;
  shard.requests.clear();  // moved-from: guarantee a valid empty state
  shard.flat.clear();
  if (pending_rounds_ != nullptr) {
    std::size_t rounds = 0;
    for (const PendingSort& p : group.requests) rounds += p.request.rounds;
    pending_rounds_->sub(static_cast<std::int64_t>(rounds));
    open_shards_->sub(1);
  }
  return group;
}

MicroBatcher::AddResult MicroBatcher::add(
    std::shared_ptr<const McSorter> sorter, PendingSort pending,
    std::chrono::steady_clock::time_point now) {
  const std::pair<int, std::size_t> key{sorter->channels(), sorter->bits()};
  AddResult result;
  Shard& shard = shards_[key];
  if (shard.requests.empty()) {
    shard.sorter = std::move(sorter);
    shard.oldest = now;
    result.window_started = true;
  }
  // Stage the payload contiguously; from here on the group owns the trits,
  // so a view request's backing buffer is released before the caller even
  // sees its future. A batched request stages all of its rounds at once
  // and counts as that many lanes toward the flush threshold.
  const std::size_t round_trits = pending.request.shape.trits();
  const std::size_t rounds = pending.request.rounds;
  shard.flat.insert(shard.flat.end(), pending.request.payload.begin(),
                    pending.request.payload.end());
  pending.request.payload = {};
  pending.request.storage.reset();
  shard.requests.push_back(std::move(pending));
  if (pending_rounds_ != nullptr) {
    pending_rounds_->add(static_cast<std::int64_t>(rounds));
    if (result.window_started) open_shards_->add(1);
    staged_total_->add(rounds);
  }
  if (round_trits == 0 || shard.flat.size() / round_trits >= max_lanes_) {
    result.full = drain_shard(shard, FlushCause::lane_full);
    result.window_started = false;  // the window closed with the group
  }
  return result;
}

std::vector<BatchGroup> MicroBatcher::take_expired(
    std::chrono::steady_clock::time_point now) {
  std::vector<BatchGroup> groups;
  for (auto& [key, shard] : shards_) {
    if (!shard.requests.empty() && shard.oldest + window_ <= now) {
      groups.push_back(drain_shard(shard, FlushCause::window));
    }
  }
  return groups;
}

std::vector<BatchGroup> MicroBatcher::take_all() {
  std::vector<BatchGroup> groups;
  for (auto& [key, shard] : shards_) {
    if (!shard.requests.empty()) {
      groups.push_back(drain_shard(shard, FlushCause::drain));
    }
  }
  return groups;
}

std::optional<std::chrono::steady_clock::time_point>
MicroBatcher::next_deadline() const {
  std::optional<std::chrono::steady_clock::time_point> deadline;
  for (const auto& [key, shard] : shards_) {
    if (shard.requests.empty()) continue;
    const auto d = shard.oldest + window_;
    if (!deadline || d < *deadline) deadline = d;
  }
  return deadline;
}

bool MicroBatcher::empty() const { return pending() == 0; }

std::size_t MicroBatcher::pending() const {
  std::size_t n = 0;
  for (const auto& [key, shard] : shards_) n += shard.requests.size();
  return n;
}

}  // namespace mcsn
