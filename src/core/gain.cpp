#include "src/core/gain.hpp"

#include <stdexcept>

namespace abp::core {

std::string pressure_kind_name(PressureKind kind) {
  switch (kind) {
    case PressureKind::Identity:
      return "identity";
    case PressureKind::Sqrt:
      return "sqrt";
    case PressureKind::Quadratic:
      return "quadratic";
    case PressureKind::Normalized:
      return "normalized";
  }
  return "?";
}

Pressure::Pressure(PressureKind kind, double capacity) : kind(kind), capacity(capacity) {
  if (kind == PressureKind::Normalized && !(capacity > 0.0)) {
    throw std::invalid_argument("normalized pressure needs a positive capacity");
  }
}

}  // namespace abp::core
