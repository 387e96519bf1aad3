// Safe-power budgeting on top of the fixed-point analysis.
//
// The paper's conclusions point at using the stability analysis to drive
// power budgets ("Theoretical analysis ... can guide the utilization of
// different resources"), and ref. [1] (Bhat et al., TVLSI'18) derives
// budgets from temperature predictions. This module provides the inverse
// queries a budget-based governor needs:
//
//  * safe_power(limit): the largest dynamic power whose *stable fixed
//    point* stays at/below a temperature limit — the sustainable budget;
//  * power_headroom: distance between a measured power and that budget.
#pragma once

#include "stability/fixed_point.h"

namespace mobitherm::stability {

/// Largest dynamic power whose stable fixed point is <= `temp_limit_k`.
/// Returns 0 if even idle exceeds the limit. The result is capped by the
/// critical power (beyond it there is no fixed point at all). `tol_w`
/// controls the bisection resolution.
double safe_power(const Params& p, double temp_limit_k, double tol_w = 1e-6);

/// safe_power(limit) - p_dyn_w: positive = headroom, negative = the amount
/// of power that must be shed to make the limit sustainable.
double power_headroom(const Params& p, double temp_limit_k, double p_dyn_w);

}  // namespace mobitherm::stability
