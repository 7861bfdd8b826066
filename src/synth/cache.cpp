#include "synth/cache.hpp"

namespace qc::synth {

SynthCacheStats synth_cache_stats() {
  SynthCacheStats out;
  for (SynthTool tool : kSynthTools) {
    const common::LruStats s = with_result_type(
        tool, []<class R>(std::type_identity<R>) { return synth_cache<R>().stats(); });
    out.hits += s.hits;
    out.misses += s.misses;
    out.evictions += s.evictions;
    out.entries += s.entries;
    out.cap += s.cap;
  }
  return out;
}

void clear_synth_cache() {
  for (SynthTool tool : kSynthTools)
    with_result_type(tool, []<class R>(std::type_identity<R>) { synth_cache<R>().clear(); });
}

}  // namespace qc::synth
