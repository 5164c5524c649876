// kdash-lint-fixture: expect=fault-site-unarmed
// A fixture with its own fault-site registry is checked as its own tree:
// "fixture.unarmed" is named only in a comment below, which arms nothing.
#include <string_view>

#include "common/fault.h"

inline constexpr std::string_view kKnownFaultSites[] = {
    "fixture.armed",
    "fixture.unarmed",
};

void ArmAll(const kdash::fault::FaultSpec& spec) {
  kdash::fault::ScopedFault armed("fixture.armed", spec);
  // fixture.unarmed would go here.
}
