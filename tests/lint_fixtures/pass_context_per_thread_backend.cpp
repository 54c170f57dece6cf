// detlint-path: src/fuzz/backend.cpp
// Fixture: ordinary member ownership passes anywhere, the backend
// included: one ExecutionContext per object, no static storage, and no
// thread spawn naming the type.
#include <vector>

namespace mabfuzz::fuzz {

class Backend {
  ExecutionContext scratch_;  // one context per backend
};

void run_all(std::vector<Backend>& backends) {
  for (Backend& backend : backends) {
    (void)backend;  // each driven by the calling thread
  }
}

}  // namespace mabfuzz::fuzz
