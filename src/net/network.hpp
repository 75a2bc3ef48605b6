// The traffic network: a directed graph of roads joined by signalized
// intersections, per the queueing-network model of Section II of the paper.
//
// Usage: add intersections, add roads (with their from/to junctions and
// compass sides), then call finalize() once. finalize() wires each junction's
// approach arrays, derives the feasible movements (links), and installs the
// standard Fig.-1 phase table. After finalize() the structure is immutable.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/net/geometry.hpp"
#include "src/net/intersection.hpp"
#include "src/net/link.hpp"
#include "src/net/phase.hpp"
#include "src/net/road.hpp"
#include "src/util/ids.hpp"

namespace abp::net {

class Network {
 public:
  // Registers a new junction; returns its id.
  IntersectionId add_intersection(std::string name, int grid_row = -1, int grid_col = -1);

  // Registers a road. `road.id` is assigned by the network; all other fields
  // must be filled in by the caller. Returns the assigned id.
  RoadId add_road(Road road);

  // Builds approach arrays, links and the standard phase plan for every
  // junction. `default_service_rate` is mu for every created link.
  // Must be called exactly once, after all roads and intersections are added.
  // Guarantees that ascending link id is the (junction, phase-link) order:
  // each junction's links ascend past the previous junction's, and every
  // phase lists its links in ascending order (throws std::logic_error
  // otherwise). Both simulators serve green links in that order.
  void finalize(Handedness handedness, double default_service_rate = 1.0);

  [[nodiscard]] bool finalized() const noexcept { return finalized_; }
  [[nodiscard]] Handedness handedness() const noexcept { return handedness_; }

  [[nodiscard]] const std::vector<Road>& roads() const noexcept { return roads_; }
  [[nodiscard]] const std::vector<Link>& links() const noexcept { return links_; }
  [[nodiscard]] const std::vector<Intersection>& intersections() const noexcept {
    return intersections_;
  }

  [[nodiscard]] const Road& road(RoadId id) const { return roads_.at(id.index()); }
  [[nodiscard]] const Link& link(LinkId id) const { return links_.at(id.index()); }
  [[nodiscard]] const Intersection& intersection(IntersectionId id) const {
    return intersections_.at(id.index());
  }

  // Mutable access for configuration tweaks (service rates, capacities)
  // between finalize() and simulation start.
  [[nodiscard]] Road& road_mut(RoadId id) { return roads_.at(id.index()); }
  [[nodiscard]] Link& link_mut(LinkId id) { return links_.at(id.index()); }

  // Topology queries. All of them are O(1) reads of index tables built once
  // by finalize(); calling them on a non-finalized network throws
  // std::logic_error. The simulators hit these on every tick, so none of
  // them may scan or allocate.

  // All roads on which vehicles enter the network (no upstream junction).
  [[nodiscard]] const std::vector<RoadId>& entry_roads() const;
  // Entry roads whose junction approach is on boundary side `s` (i.e. traffic
  // entering "from the North" arrives on the North side of its junction).
  [[nodiscard]] const std::vector<RoadId>& entry_roads_on(Side s) const;
  // All roads on which vehicles leave the network.
  [[nodiscard]] const std::vector<RoadId>& exit_roads() const;

  // The movement leaving `from_road` with the given geometric turn, if it
  // exists. traffic::route_link resolves each junction's movement with it.
  [[nodiscard]] std::optional<LinkId> find_link(RoadId from_road, Turn turn) const;
  // All movements whose incoming road is `from_road`, in turn order
  // (Left, Straight, Right). Points into the CSR index; valid as long as the
  // network lives.
  [[nodiscard]] std::span<const LinkId> links_from(RoadId from_road) const;

  // Junction at the given grid coordinates, if the network was grid-built.
  [[nodiscard]] std::optional<IntersectionId> at_grid(int row, int col) const;

 private:
  void build_links_for(Intersection& node, double default_service_rate);
  void build_standard_phases(Intersection& node) const;
  // Builds the runtime topology index (link table, CSR spans, cached road
  // lists, grid lookup). Called once, at the end of finalize().
  void build_topology_index();
  void require_finalized(const char* what) const;

  std::vector<Road> roads_;
  std::vector<Link> links_;
  std::vector<Intersection> intersections_;
  Handedness handedness_ = Handedness::LeftHand;
  bool finalized_ = false;

  // --- finalized-time topology index ---
  // road x turn -> link id; invalid when the movement does not exist.
  std::vector<LinkId> link_by_road_turn_;
  // CSR layout of "links leaving road r": links_from_flat_[links_from_offset_[r]
  // .. links_from_offset_[r+1]) in turn order.
  std::vector<LinkId> links_from_flat_;
  std::vector<std::uint32_t> links_from_offset_;
  std::vector<RoadId> entry_roads_;
  std::array<std::vector<RoadId>, 4> entry_roads_by_side_;
  std::vector<RoadId> exit_roads_;
  // Dense (row, col) -> junction lookup for grid-built networks.
  int grid_rows_ = 0;
  int grid_cols_ = 0;
  std::vector<IntersectionId> grid_lookup_;
};

}  // namespace abp::net
