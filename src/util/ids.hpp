// Strong identifier types used across the library.
//
// The network model indexes roads, links, phases, intersections and vehicles.
// Raw integers invite silent cross-indexing bugs (passing a road index where a
// link index is expected); per the C++ Core Guidelines (I.4 "make interfaces
// precisely and strongly typed") we wrap each index in a distinct type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>

namespace abp {

// A type-tagged integer id. `Tag` is an empty struct that only serves to make
// two instantiations incompatible. Ids are trivially copyable and ordered so
// they can key vectors and maps.
template <typename Tag>
class StrongId {
 public:
  using value_type = std::uint32_t;

  // An invalid id (sentinel). Default-constructed ids are invalid so that a
  // forgotten assignment is caught by `valid()` checks and asserts, instead of
  // silently aliasing id 0.
  static constexpr value_type kInvalid = std::numeric_limits<value_type>::max();

  constexpr StrongId() noexcept = default;
  constexpr explicit StrongId(value_type v) noexcept : v_(v) {}

  [[nodiscard]] constexpr value_type value() const noexcept { return v_; }
  [[nodiscard]] constexpr bool valid() const noexcept { return v_ != kInvalid; }

  // Index into contiguous storage. Same as value(); spelled differently at
  // call sites that use the id as a vector subscript.
  [[nodiscard]] constexpr std::size_t index() const noexcept { return v_; }

  friend constexpr bool operator==(StrongId a, StrongId b) noexcept { return a.v_ == b.v_; }
  friend constexpr bool operator!=(StrongId a, StrongId b) noexcept { return a.v_ != b.v_; }
  friend constexpr bool operator<(StrongId a, StrongId b) noexcept { return a.v_ < b.v_; }
  friend constexpr bool operator>(StrongId a, StrongId b) noexcept { return a.v_ > b.v_; }
  friend constexpr bool operator<=(StrongId a, StrongId b) noexcept { return a.v_ <= b.v_; }
  friend constexpr bool operator>=(StrongId a, StrongId b) noexcept { return a.v_ >= b.v_; }

 private:
  value_type v_ = kInvalid;
};

struct RoadTag {};
struct LinkTag {};
struct IntersectionTag {};
struct VehicleTag {};

// A directed road segment (a node N_i of the paper's queueing graph).
using RoadId = StrongId<RoadTag>;
// A feasible movement L_i^{i'} from an incoming to an outgoing road.
using LinkId = StrongId<LinkTag>;
// A signalized junction.
using IntersectionId = StrongId<IntersectionTag>;
// A simulated vehicle.
using VehicleId = StrongId<VehicleTag>;

}  // namespace abp

namespace std {
template <typename Tag>
struct hash<abp::StrongId<Tag>> {
  size_t operator()(abp::StrongId<Tag> id) const noexcept {
    return std::hash<typename abp::StrongId<Tag>::value_type>{}(id.value());
  }
};
}  // namespace std
