// Thermal network presets for the two boards, using the node convention
// from platform/presets.h (0 little, 1 big, 2 gpu, 3 memory, 4 board).
//
// Calibration targets (shape, not absolute accuracy):
//  * Odroid-XU3, fan disabled: lumped ambient conductance ~0.07 W/K so a
//    3DMark-class load (~3-4 W) plateaus in the 80-95 degC band of Fig. 8,
//    with a board time constant of ~1 minute.
//  * Nexus 6P: ~0.18 W/K, so a sustained game (~4 W) climbs toward ~50 degC
//    over the 140 s window of Figs. 1/3/5.
#pragma once

#include "thermal/lumped.h"
#include "thermal/network.h"

namespace mobitherm::thermal {

/// Nexus 6P (phone form factor, no active cooling).
ThermalNetworkSpec nexus6p_network(util::Kelvin t_ambient = util::kelvin(298.15));

/// Odroid-XU3 with the fan disabled (as in Sec. IV-C: "we disable the fan
/// on the board since it is not feasible for mobile platforms").
ThermalNetworkSpec odroidxu3_network(
    util::Kelvin t_ambient = util::kelvin(298.15));

/// Reduce a network to the lumped form used by the stability analyzer:
/// G = total ambient conductance, C = total capacitance, plus the given
/// leakage coefficients.
LumpedParams lumped_equivalent(const ThermalNetworkSpec& spec,
                               util::WattPerKelvin2 leak_a,
                               util::Kelvin leak_theta);

}  // namespace mobitherm::thermal
