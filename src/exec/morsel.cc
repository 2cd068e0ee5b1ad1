#include "exec/morsel.h"

#include "obs/trace.h"

namespace n2j {

Status RunMorsels(int workers, size_t num_morsels, const char* phase,
                  TraceCollector* trace, const MorselBody& body,
                  size_t* first_error_morsel) {
  MorselSink sink;
  if (trace != nullptr) {
    sink = [trace](int w, size_t m, const char* p, int64_t t0, int64_t t1) {
      trace->AddWorkerSpan(w, m, p, t0, t1);
    };
  }
  return ThreadPool::Shared().RunMorsels(
      workers, num_morsels, body, phase, trace != nullptr ? &sink : nullptr,
      first_error_morsel);
}

}  // namespace n2j
