// kdash-lint-fixture: expect=fault-site-unarmed
// "fixture.site" appears only as the head of longer names, which arm
// other sites, not it.
#include <string_view>

#include "common/fault.h"

inline constexpr std::string_view kKnownFaultSites[] = {
    "fixture.site",
};

void ArmOthers(const kdash::fault::FaultSpec& spec) {
  kdash::fault::ScopedFault member("fixture.site.s1", spec);
  kdash::fault::ScopedFault longer("fixture.site_extra", spec);
}
