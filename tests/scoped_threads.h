// A test helper that pins common/parallel.h's DefaultThreads().
#ifndef UTK_TESTS_SCOPED_THREADS_H_
#define UTK_TESTS_SCOPED_THREADS_H_

#include <cstdlib>
#include <optional>
#include <string>

namespace utk {

// Sets UTK_THREADS for one scope and restores the prior value, so the cases
// that need real concurrency get it whatever the host's core count.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) {
    if (const char* prev = std::getenv("UTK_THREADS")) saved_ = prev;
    setenv("UTK_THREADS", std::to_string(n).c_str(), 1);
  }
  ~ScopedThreads() {
    if (saved_.has_value()) {
      setenv("UTK_THREADS", saved_->c_str(), 1);
    } else {
      unsetenv("UTK_THREADS");
    }
  }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  std::optional<std::string> saved_;
};

}  // namespace utk

#endif  // UTK_TESTS_SCOPED_THREADS_H_
