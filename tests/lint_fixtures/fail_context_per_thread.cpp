// detlint-path: src/core/scheduler.cpp
// Fixture: an ExecutionContext belongs to the thread driving its backend.
// A static-storage instance is reachable from every thread in the
// process, and naming the type inside a thread-spawn expression hands one
// to another thread.
#include <thread>

namespace mabfuzz::core {

static fuzz::ExecutionContext g_scratch;  // detlint-expect: context-per-thread

template <typename ExecutionContext>
void bad_handoff(ExecutionContext& cx) {
  std::thread t(&ExecutionContext::reset, &cx);  // detlint-expect: context-per-thread
  t.join();
}

}  // namespace mabfuzz::core
