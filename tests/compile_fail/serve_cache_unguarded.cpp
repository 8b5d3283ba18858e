// NEGATIVE compile check — this file must NOT compile under
// -Werror=thread-safety. Mirrors the serve::ResultCache internals
// pattern (an entries map owned by the cache): if the cache ever grows
// a mutex for concurrent lookups, an access that bypasses it must be
// rejected by the analysis, not silently accepted.

#include <string>
#include <unordered_map>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace {

struct ResultCacheShape {
  struct Entry {
    std::string payload;
    long version = 0;
  };

  mutable osprey::util::Mutex mutex;
  std::unordered_map<std::string, Entry> entries OSPREY_GUARDED_BY(mutex);

  // error: reading 'entries' requires holding mutex 'mutex'
  std::size_t size_unguarded() const { return entries.size(); }

  std::size_t size_guarded() const {
    osprey::util::MutexLock lock(mutex);
    return entries.size();  // correct access, must stay warning-free
  }
};

}  // namespace

int main() {
  ResultCacheShape cache;
  return static_cast<int>(cache.size_unguarded() + cache.size_guarded());
}
