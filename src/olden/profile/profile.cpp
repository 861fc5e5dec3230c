// RunProfile accumulation.
#include "olden/profile/profile.hpp"

namespace olden::profile {

void RunProfile::add_access(SiteId site, AccessClass cls) {
  SiteProfile& s = sites[site];
  switch (cls) {
    case AccessClass::kLocalRead:
      ++s.local_reads;
      break;
    case AccessClass::kLocalWrite:
      ++s.local_writes;
      break;
    case AccessClass::kWriteThrough:
      ++s.write_throughs;
      break;
  }
}

void RunProfile::on_event(trace::EventKind k, SiteId site) {
  if (site == trace::kNoSite) return;
  switch (k) {
    case trace::EventKind::kMigrationDepart:
      // One dereference that moved the computation to the data; the
      // post-migration local completion is not re-counted.
      ++sites[site].migrations;
      break;
    case trace::EventKind::kCacheHit:
      ++sites[site].cache_hits;
      break;
    case trace::EventKind::kCacheMiss:
      ++sites[site].cache_misses;
      break;
    default:
      break;
  }
}

}  // namespace olden::profile
