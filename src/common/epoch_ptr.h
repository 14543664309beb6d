// EpochPtr<T>: RCU-style single-writer publication of immutable snapshots.
//
// The writer builds a fully-formed immutable T and publishes it by swapping
// one shared_ptr; readers copy the current pointer and keep the whole
// snapshot alive for as long as they hold it. Both sides hold the lock only
// for a pointer copy or swap, so readers never wait for a writer's
// in-progress work (the expensive part — rendering the next snapshot —
// happens before the swap), and a published snapshot can never be
// observed half-built or torn. A mutex rather than
// std::atomic<std::shared_ptr>: the thread sanitizer reports a race inside
// libstdc++ 12's atomic shared_ptr, which would fail every TSan run that
// reads snapshots during commits.

#ifndef EVE_COMMON_EPOCH_PTR_H_
#define EVE_COMMON_EPOCH_PTR_H_

#include <memory>
#include <mutex>

namespace eve {

template <typename T>
class EpochPtr {
 public:
  EpochPtr() = default;
  explicit EpochPtr(std::shared_ptr<const T> initial)
      : current_(std::move(initial)) {}

  EpochPtr(const EpochPtr&) = delete;
  EpochPtr& operator=(const EpochPtr&) = delete;

  // Reader side: pin the current snapshot. The returned shared_ptr keeps
  // the snapshot (and everything it owns) alive; a concurrent Publish only
  // swaps the pointer, so the pinned snapshot stays byte-stable.
  std::shared_ptr<const T> Pin() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  // Writer side: publish a new immutable snapshot. The previous snapshot
  // stays alive until its last pinned reader releases it; if no reader
  // holds it, it is destroyed with `next`, after the lock is released.
  void Publish(std::shared_ptr<const T> next) {
    std::lock_guard<std::mutex> lock(mu_);
    current_.swap(next);
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const T> current_;
};

}  // namespace eve

#endif  // EVE_COMMON_EPOCH_PTR_H_
