// Storage of one micro lane's vehicles: a single heap block.
//
// The block holds four arrays of `cap` slots each — pos, speed, waiting
// (the doubles first, so every array is aligned), then the VehicleIds — and
// the lane's vehicles fill slots [head, head + count) of all four, head
// (largest pos) first. With one allocation, one head and one count, a lane
// visit reaches its first vehicle through one pointer.
//
// The four arrays stay index-aligned because they are mutated only through
// push() and pop_head(), which move all four together:
//   * push() writes at head + count. When that slot is past the end, the block
//     compacts in place if fewer than half its slots are live, and otherwise
//     doubles (minimum 4 slots), copying the live slots to slot 0.
//   * pop_head() advances head, and resets it to 0 when the lane empties, so
//     the first push after that lands in slot 0.
// The block only grows when at least half its slots are live, so its capacity
// never exceeds max(4, 4 x the lane's peak occupancy).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

#include "src/util/ids.hpp"

namespace abp::microsim {

class LaneStore {
 public:
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::uint32_t size() const noexcept { return count_; }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return cap_; }
  // Block slot of the head vehicle.
  [[nodiscard]] std::uint32_t head() const noexcept { return head_; }

  // Each array starts at the head vehicle and holds size() entries. The
  // pointers stay valid until the next push().
  [[nodiscard]] double* pos() noexcept { return array(0) + head_; }
  [[nodiscard]] double* speed() noexcept { return array(1) + head_; }
  [[nodiscard]] double* waiting() noexcept { return array(2) + head_; }
  [[nodiscard]] VehicleId* ids() noexcept { return id_array() + head_; }
  [[nodiscard]] const double* pos() const noexcept { return array(0) + head_; }
  [[nodiscard]] const double* speed() const noexcept { return array(1) + head_; }
  [[nodiscard]] const double* waiting() const noexcept { return array(2) + head_; }
  [[nodiscard]] const VehicleId* ids() const noexcept { return id_array() + head_; }

  // Appends a vehicle behind the current tail.
  void push(VehicleId id, double pos, double speed, double waiting) {
    if (head_ + count_ == cap_) make_room();
    const std::uint32_t slot = head_ + count_;
    array(0)[slot] = pos;
    array(1)[slot] = speed;
    array(2)[slot] = waiting;
    id_array()[slot] = id;
    ++count_;
  }

  // Removes the head vehicle; the lane must not be empty.
  void pop_head() noexcept {
    ++head_;
    if (--count_ == 0) head_ = 0;
  }

 private:
  static constexpr std::size_t kSlotBytes = 3 * sizeof(double) + sizeof(VehicleId);

  [[nodiscard]] double* array(std::size_t k) const noexcept {
    return reinterpret_cast<double*>(block_.get()) + k * cap_;
  }
  [[nodiscard]] VehicleId* id_array() const noexcept {
    return reinterpret_cast<VehicleId*>(array(3));
  }

  // Called when the slot after the tail is past the end of the block.
  void make_room() {
    if (count_ * 2 < cap_) {
      // Fewer than half the slots are live: slide them down to slot 0. The
      // live range starts past the middle, so source and target are disjoint.
      for (std::size_t k = 0; k < 3; ++k) {
        std::memcpy(array(k), array(k) + head_, count_ * sizeof(double));
      }
      std::memcpy(id_array(), id_array() + head_, count_ * sizeof(VehicleId));
      head_ = 0;
      return;
    }
    LaneStore grown;
    grown.cap_ = std::max<std::uint32_t>(4, cap_ * 2);
    grown.block_.reset(new std::byte[grown.cap_ * kSlotBytes]);
    if (count_ > 0) {
      for (std::size_t k = 0; k < 3; ++k) {
        std::memcpy(grown.array(k), array(k) + head_, count_ * sizeof(double));
      }
      std::memcpy(grown.id_array(), id_array() + head_, count_ * sizeof(VehicleId));
    }
    grown.count_ = count_;
    *this = std::move(grown);
  }

  // cap_ * kSlotBytes bytes. An array of std::byte implicitly creates the
  // double and VehicleId objects that push() stores into it.
  std::unique_ptr<std::byte[]> block_;
  std::uint32_t head_ = 0;
  std::uint32_t count_ = 0;
  std::uint32_t cap_ = 0;
};

}  // namespace abp::microsim
