// Fixture: non-SI magnitudes stored in model internals. Datasheet units
// (MHz, mV, mAh) belong at explicit ingest/presentation edges only.
// LINT-EXPECT: si-units
// LINT-EXPECT: si-units
#pragma once

struct BadOpp {
  double freq_mhz = 0.0;
  double volt_mv = 0.0;
};
