#pragma once

/// \file platform.hpp
/// The use cases' name for the OSPREY stack (aero/platform.hpp).

#include "aero/platform.hpp"

namespace osprey::core {

using osprey::aero::OspreyPlatform;

}  // namespace osprey::core
