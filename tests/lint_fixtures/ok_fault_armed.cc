// kdash-lint-fixture: expect=clean
// Every entry of this fixture's own fault-site registry is armed: a whole
// name, and a `<N>` family through one member built at runtime.
#include <string>
#include <string_view>

#include "common/fault.h"

inline constexpr std::string_view kKnownFaultSites[] = {
    "fixture.armed",
    "fixture.family.s<N>",
};

void ArmAll(const kdash::fault::FaultSpec& spec, int shard) {
  kdash::fault::ScopedFault armed("fixture.armed", spec);
  kdash::fault::ScopedFault member(
      "fixture.family.s" + std::to_string(shard), spec);
}
