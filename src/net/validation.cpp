#include "src/net/validation.hpp"

#include <set>
#include <sstream>
#include <stdexcept>

namespace abp::net {
namespace {

void check_roads(const Network& net, std::vector<std::string>& problems) {
  for (const Road& r : net.roads()) {
    if (r.length_m <= 0.0) problems.push_back("road " + r.name + ": non-positive length");
    if (r.capacity <= 0) problems.push_back("road " + r.name + ": non-positive capacity");
    if (r.speed_limit_mps <= 0.0) {
      problems.push_back("road " + r.name + ": non-positive speed limit");
    }
    if (r.to.valid()) {
      const Intersection& node = net.intersection(r.to);
      if (node.incoming_on(r.arrival_side) != r.id) {
        problems.push_back("road " + r.name + ": arrival wiring mismatch at " + node.name);
      }
      if (net.links_from(r.id).empty()) {
        problems.push_back("road " + r.name + ": no movement leaves it at " + node.name);
      }
    }
    if (r.from.valid()) {
      const Intersection& node = net.intersection(r.from);
      if (node.outgoing_on(r.departure_side) != r.id) {
        problems.push_back("road " + r.name + ": departure wiring mismatch at " + node.name);
      }
    }
  }
}

void check_links(const Network& net, std::vector<std::string>& problems) {
  for (const Link& l : net.links()) {
    std::ostringstream tag;
    tag << "link " << l.id.value();
    if (l.service_rate <= 0.0) problems.push_back(tag.str() + ": non-positive service rate");
    if (!l.owner.valid()) {
      problems.push_back(tag.str() + ": no owner");
      continue;
    }
    const Intersection& node = net.intersection(l.owner);
    if (node.incoming_on(l.from_side) != l.from_road) {
      problems.push_back(tag.str() + ": from_road is not the incoming road on its side at " +
                         node.name);
    }
    const Side out_side = exit_side(l.from_side, l.turn);
    if (node.outgoing_on(out_side) != l.to_road) {
      problems.push_back(tag.str() + ": to_road does not match turn geometry at " + node.name);
    }
    const Road& from = net.road(l.from_road);
    const Road& to = net.road(l.to_road);
    if (from.to != l.owner) {
      problems.push_back(tag.str() + ": incoming road does not end at owner");
    }
    if (to.from != l.owner) {
      problems.push_back(tag.str() + ": outgoing road does not start at owner");
    }
  }
}

void check_phases(const Network& net, std::vector<std::string>& problems) {
  for (const Intersection& node : net.intersections()) {
    if (node.phases.empty()) {
      problems.push_back(node.name + ": no phases");
      continue;
    }
    if (!node.phases.front().is_transition()) {
      problems.push_back(node.name + ": phases[0] must be the empty transition phase");
    }
    std::set<LinkId> covered;
    for (std::size_t p = 1; p < node.phases.size(); ++p) {
      const Phase& phase = node.phases[p];
      if (phase.links.empty()) {
        problems.push_back(node.name + ": control phase " + phase.name + " is empty");
      }
      for (LinkId lid : phase.links) {
        const Link& l = net.link(lid);
        if (l.owner != node.id) {
          problems.push_back(node.name + ": phase " + phase.name +
                             " activates a foreign link");
        }
        covered.insert(lid);
      }
      // Pairwise movement compatibility within the phase.
      for (std::size_t a = 0; a < phase.links.size(); ++a) {
        for (std::size_t b = a + 1; b < phase.links.size(); ++b) {
          const Link& la = net.link(phase.links[a]);
          const Link& lb = net.link(phase.links[b]);
          if (!movements_compatible(la.from_side, la.turn, lb.from_side, lb.turn,
                                    net.handedness())) {
            problems.push_back(node.name + ": phase " + phase.name +
                               " combines conflicting movements " +
                               std::string(side_name(la.from_side)) + "-" +
                               std::string(turn_name(la.turn)) + " and " +
                               std::string(side_name(lb.from_side)) + "-" +
                               std::string(turn_name(lb.turn)));
          }
        }
      }
    }
    for (LinkId lid : node.links) {
      if (!covered.contains(lid)) {
        const Link& l = net.link(lid);
        problems.push_back(node.name + ": movement " + std::string(side_name(l.from_side)) +
                           "-" + std::string(turn_name(l.turn)) +
                           " is not served by any phase");
      }
    }
  }
}

}  // namespace

std::vector<std::string> validate(const Network& net) {
  std::vector<std::string> problems;
  if (!net.finalized()) {
    problems.push_back("network is not finalized");
    return problems;
  }
  check_roads(net, problems);
  check_links(net, problems);
  check_phases(net, problems);
  return problems;
}

void validate_or_throw(const Network& net) {
  const std::vector<std::string> problems = validate(net);
  if (problems.empty()) return;
  std::string message = "network validation failed:";
  for (const std::string& p : problems) {
    message += "\n  - " + p;
  }
  throw std::runtime_error(message);
}

}  // namespace abp::net
