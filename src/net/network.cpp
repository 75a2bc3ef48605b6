#include "src/net/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace abp::net {

IntersectionId Network::add_intersection(std::string name, int grid_row, int grid_col) {
  if (finalized_) throw std::logic_error("Network::add_intersection after finalize");
  Intersection node;
  node.id = IntersectionId(static_cast<std::uint32_t>(intersections_.size()));
  node.name = std::move(name);
  node.grid_row = grid_row;
  node.grid_col = grid_col;
  node.incoming.fill(RoadId{});
  node.outgoing.fill(RoadId{});
  intersections_.push_back(std::move(node));
  return intersections_.back().id;
}

RoadId Network::add_road(Road road) {
  if (finalized_) throw std::logic_error("Network::add_road after finalize");
  if (road.length_m <= 0.0) throw std::invalid_argument("road length must be positive");
  if (road.capacity <= 0) throw std::invalid_argument("road capacity must be positive");
  if (road.speed_limit_mps <= 0.0) throw std::invalid_argument("speed limit must be positive");
  if (!road.from.valid() && !road.to.valid()) {
    throw std::invalid_argument("road must touch at least one junction");
  }
  road.id = RoadId(static_cast<std::uint32_t>(roads_.size()));
  roads_.push_back(std::move(road));
  return roads_.back().id;
}

void Network::finalize(Handedness handedness, double default_service_rate) {
  if (finalized_) throw std::logic_error("Network::finalize called twice");
  if (default_service_rate <= 0.0) {
    throw std::invalid_argument("service rate must be positive");
  }
  handedness_ = handedness;

  // Wire approach arrays from the road endpoints.
  for (const Road& r : roads_) {
    if (r.to.valid()) {
      Intersection& node = intersections_.at(r.to.index());
      RoadId& slot = node.incoming[static_cast<std::size_t>(r.arrival_side)];
      if (slot.valid()) {
        throw std::logic_error("two incoming roads on the same side of " + node.name);
      }
      slot = r.id;
    }
    if (r.from.valid()) {
      Intersection& node = intersections_.at(r.from.index());
      RoadId& slot = node.outgoing[static_cast<std::size_t>(r.departure_side)];
      if (slot.valid()) {
        throw std::logic_error("two outgoing roads on the same side of " + node.name);
      }
      slot = r.id;
    }
  }

  for (Intersection& node : intersections_) {
    build_links_for(node, default_service_rate);
    build_standard_phases(node);
  }
  // The link order finalize() guarantees: build_links_for numbers links
  // junction by junction and build_standard_phases builds every phase as a
  // subsequence of its junction's links; this checks that they still do.
  const auto descending = [](LinkId a, LinkId b) { return a.index() >= b.index(); };
  std::size_t next_link = 0;  // the lowest id the next junction link may have
  for (const Intersection& node : intersections_) {
    bool ordered = true;
    for (LinkId lid : node.links) {
      ordered = ordered && lid.index() >= next_link;
      next_link = lid.index() + 1;
    }
    for (const Phase& phase : node.phases) {
      ordered = ordered && std::adjacent_find(phase.links.begin(), phase.links.end(),
                                              descending) == phase.links.end();
    }
    if (!ordered) {
      throw std::logic_error("links must ascend by junction and within every phase");
    }
  }
  build_topology_index();
  finalized_ = true;
}

void Network::build_topology_index() {
  // road x turn -> link table and CSR "links leaving road r" spans. Links are
  // created in ascending id order and, within one approach, in kAllTurns
  // order, so filling in id order yields turn-ordered per-road spans.
  link_by_road_turn_.assign(roads_.size() * kAllTurns.size(), LinkId{});
  links_from_offset_.assign(roads_.size() + 1, 0);
  for (const Link& l : links_) {
    link_by_road_turn_[l.from_road.index() * kAllTurns.size() +
                       static_cast<std::size_t>(l.turn)] = l.id;
    links_from_offset_[l.from_road.index() + 1] += 1;
  }
  for (std::size_t r = 0; r < roads_.size(); ++r) {
    links_from_offset_[r + 1] += links_from_offset_[r];
  }
  links_from_flat_.resize(links_.size());
  std::vector<std::uint32_t> cursor(links_from_offset_.begin(),
                                    links_from_offset_.end() - 1);
  for (const Link& l : links_) {
    links_from_flat_[cursor[l.from_road.index()]++] = l.id;
  }

  for (const Road& r : roads_) {
    if (r.is_entry()) {
      entry_roads_.push_back(r.id);
      entry_roads_by_side_[static_cast<std::size_t>(r.arrival_side)].push_back(r.id);
    }
    if (r.is_exit()) exit_roads_.push_back(r.id);
  }

  // Dense grid lookup; first registration wins on duplicate coordinates,
  // matching the old linear scan. Callers may pass arbitrary coordinates to
  // add_intersection, so only build the dense table when it stays reasonably
  // packed; degenerate sparse coordinates fall back to a linear-scan
  // at_grid (a cold path — the simulators never call it per tick).
  for (const Intersection& node : intersections_) {
    if (node.grid_row < 0 || node.grid_col < 0) continue;
    grid_rows_ = std::max(grid_rows_, node.grid_row + 1);
    grid_cols_ = std::max(grid_cols_, node.grid_col + 1);
  }
  const std::size_t cells = static_cast<std::size_t>(grid_rows_) *
                            static_cast<std::size_t>(grid_cols_);
  const std::size_t dense_cap = std::max<std::size_t>(1024, intersections_.size() * 16);
  if (cells > dense_cap) {
    grid_rows_ = 0;
    grid_cols_ = 0;
    return;
  }
  grid_lookup_.assign(cells, IntersectionId{});
  for (const Intersection& node : intersections_) {
    if (node.grid_row < 0 || node.grid_col < 0) continue;
    IntersectionId& slot =
        grid_lookup_[static_cast<std::size_t>(node.grid_row) *
                         static_cast<std::size_t>(grid_cols_) +
                     static_cast<std::size_t>(node.grid_col)];
    if (!slot.valid()) slot = node.id;
  }
}

void Network::require_finalized(const char* what) const {
  if (!finalized_) {
    throw std::logic_error(std::string("Network::") + what + " before finalize");
  }
}

void Network::build_links_for(Intersection& node, double default_service_rate) {
  for (Side from : kAllSides) {
    const RoadId in = node.incoming_on(from);
    if (!in.valid()) continue;
    for (Turn turn : kAllTurns) {
      const Side out_side = exit_side(from, turn);
      const RoadId out = node.outgoing_on(out_side);
      if (!out.valid()) continue;
      Link link;
      link.id = LinkId(static_cast<std::uint32_t>(links_.size()));
      link.owner = node.id;
      link.from_road = in;
      link.to_road = out;
      link.from_side = from;
      link.turn = turn;
      link.service_rate = default_service_rate;
      links_.push_back(link);
      node.links.push_back(link.id);
    }
  }
}

void Network::build_standard_phases(Intersection& node) const {
  // Fig. 1 phase table, generalized to junctions that may miss approaches:
  //   c1: North/South axis, straight + easy turn
  //   c2: North/South axis, crossing turn (protected)
  //   c3: East/West axis, straight + easy turn
  //   c4: East/West axis, crossing turn (protected)
  node.phases.clear();
  Phase transition;
  transition.name = "c0-transition";
  node.phases.push_back(std::move(transition));

  const Turn crossing = crossing_turn(handedness_);
  struct Group {
    std::array<Side, 2> sides;
    bool protected_turns;
    const char* name;
  };
  const Group groups[] = {
      {{Side::North, Side::South}, false, "c-NS-through"},
      {{Side::North, Side::South}, true, "c-NS-protected"},
      {{Side::East, Side::West}, false, "c-EW-through"},
      {{Side::East, Side::West}, true, "c-EW-protected"},
  };
  for (const Group& g : groups) {
    Phase phase;
    phase.name = g.name;
    for (LinkId lid : node.links) {
      const Link& l = links_.at(lid.index());
      const bool on_axis = (l.from_side == g.sides[0] || l.from_side == g.sides[1]);
      if (!on_axis) continue;
      const bool is_crossing = (l.turn == crossing);
      if (is_crossing == g.protected_turns) phase.links.push_back(lid);
    }
    if (!phase.links.empty()) node.phases.push_back(std::move(phase));
  }
}

const std::vector<RoadId>& Network::entry_roads() const {
  require_finalized("entry_roads");
  return entry_roads_;
}

const std::vector<RoadId>& Network::entry_roads_on(Side s) const {
  require_finalized("entry_roads_on");
  return entry_roads_by_side_[static_cast<std::size_t>(s)];
}

const std::vector<RoadId>& Network::exit_roads() const {
  require_finalized("exit_roads");
  return exit_roads_;
}

std::optional<LinkId> Network::find_link(RoadId from_road, Turn turn) const {
  require_finalized("find_link");
  const LinkId id = link_by_road_turn_[from_road.index() * kAllTurns.size() +
                                       static_cast<std::size_t>(turn)];
  if (!id.valid()) return std::nullopt;
  return id;
}

std::span<const LinkId> Network::links_from(RoadId from_road) const {
  require_finalized("links_from");
  const std::uint32_t begin = links_from_offset_[from_road.index()];
  const std::uint32_t end = links_from_offset_[from_road.index() + 1];
  return {links_from_flat_.data() + begin, links_from_flat_.data() + end};
}

std::optional<IntersectionId> Network::at_grid(int row, int col) const {
  require_finalized("at_grid");
  if (grid_lookup_.empty()) {
    // Sparse-coordinate fallback (dense table was skipped at finalize).
    for (const Intersection& node : intersections_) {
      if (node.grid_row == row && node.grid_col == col) return node.id;
    }
    return std::nullopt;
  }
  if (row < 0 || col < 0 || row >= grid_rows_ || col >= grid_cols_) return std::nullopt;
  const IntersectionId id = grid_lookup_[static_cast<std::size_t>(row) *
                                             static_cast<std::size_t>(grid_cols_) +
                                         static_cast<std::size_t>(col)];
  if (!id.valid()) return std::nullopt;
  return id;
}

}  // namespace abp::net
