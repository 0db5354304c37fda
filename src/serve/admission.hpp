#pragma once
// Admission control for neuro::serve — the layer between request intake
// and the worker pool that decides, for every queued item, whether it is
// still worth a session slot. Replaces the blunt Block/Shed pair (which
// only acts at the queue *tail*) with three head-of-queue disciplines:
//
//   * CoDel controlled delay (Nichols & Jacobson): every entry is stamped
//     with its enqueue time; when the sojourn time of dequeued entries
//     stays above `target_us` for longer than `interval_us`, the queue
//     enters a drop state and sheds from the HEAD on a decreasing
//     interval schedule (interval / sqrt(drop count)) until sojourn falls
//     back under target. Head drops shed the *stalest* work — the work
//     whose response nobody is still waiting for — which is exactly the
//     energy a neuromorphic deployment cannot afford to burn.
//   * Weighted priority classes: Interactive / Batch / Feedback sub-queues
//     with weighted-round-robin dequeue (weight = consecutive dequeues
//     while non-empty; work-conserving, FIFO within a class).
//   * Deadline-aware drop: an entry may carry an absolute SLO deadline; a
//     dequeue never dispatches an entry whose deadline has passed — it is
//     handed back as a DeadlineExceeded drop instead.
//
// Drops are never silent: every dequeue operation surfaces the entries it
// dropped to the caller (serve::ModelRouter resolves their futures as
// Rejected{Overload|DeadlineExceeded}), so the accepted-implies-completed
// guarantee survives — "completed" now includes "explicitly rejected at
// the head", which is the whole point of admission control.
//
// All time flows through the injected Clock (serve/clock.hpp), so every
// state transition here is deterministically unit-testable with a
// ManualClock — see tests/admission_test.cpp. Default-constructed config
// disables CoDel and carries no deadlines, in which case a single-class
// queue degenerates to plain FIFO and the server behaves bit-identically
// to the pre-admission engine.

#include <array>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "serve/clock.hpp"

namespace neuro::serve {

/// Request classes, highest priority first. Weights (AdmissionConfig) give
/// Interactive traffic most of the dequeue bandwidth while Batch and
/// Feedback still make progress under load (no starvation).
enum class Priority : std::uint8_t { Interactive = 0, Batch = 1, Feedback = 2 };
inline constexpr std::size_t kPriorityClasses = 3;
const char* to_string(Priority p);

/// Why an accepted entry was dropped at the head instead of dispatched.
enum class DropCause : std::uint8_t {
    Overload,          ///< CoDel drop state: standing queue above target
    DeadlineExceeded,  ///< the entry's SLO deadline passed while it queued
};
const char* to_string(DropCause c);

struct CoDelConfig {
    bool enabled = false;           ///< off => sojourn is tracked but never drops
    std::uint64_t target_us = 5'000;    ///< acceptable standing sojourn time
    std::uint64_t interval_us = 100'000;///< how long above target before dropping
};

/// Shared admission configuration (RouterOptions::admission).
struct AdmissionConfig {
    CoDelConfig codel;
    /// Weighted-round-robin quanta per class, indexed by Priority. Every
    /// weight must be >= 1 (a class can be de-prioritized, not disabled).
    std::array<std::uint32_t, kPriorityClasses> weights{8, 2, 1};
    /// Capacity of the labeled-feedback intake (the Feedback class drained
    /// by online::OnlineEngine); 0 disables it. Lives here — not as a
    /// top-level server knob — because feedback is just the lowest
    /// priority class of the same admission layer: its queue runs the same
    /// CoDel discipline, so stale feedback is shed instead of trained on.
    std::size_t feedback_capacity = 0;
};

/// Per-class disposition counters, snapshot under the queue mutex.
struct AdmissionCounters {
    std::array<std::uint64_t, kPriorityClasses> accepted{};
    std::array<std::uint64_t, kPriorityClasses> dispatched{};
    std::array<std::uint64_t, kPriorityClasses> codel_dropped{};
    std::array<std::uint64_t, kPriorityClasses> deadline_dropped{};
    /// Times the CoDel state machine entered the drop state.
    std::uint64_t drop_state_entries = 0;
};

/// CoDel state, exposed for tests (tests/admission_test.cpp pins the
/// enter/exit transitions and the sqrt-decreasing drop schedule).
struct CoDelState {
    bool dropping = false;
    std::uint32_t count = 0;           ///< drops in the current drop state
    std::uint64_t first_above_us = 0;  ///< when sojourn first crossed target
    std::uint64_t drop_next_us = 0;    ///< next scheduled head drop
};

/// Micro-batch policy (collect_admitted below). A batch is whatever is
/// already queued when a worker frees up, capped at max_batch; nothing
/// waits for company. A batch runs as one predict per request on one
/// session, so a wait would add latency and save no compute.
struct BatchPolicy {
    /// Upper bound on requests per dispatch; 1 disables coalescing.
    std::size_t max_batch = 8;
};

/// A dequeued entry the caller may dispatch.
template <typename T>
struct Admitted {
    T value{};
    Priority cls = Priority::Interactive;
    std::uint64_t enqueued_at_us = 0;  ///< Clock time at acceptance
    std::uint64_t sojourn_us = 0;      ///< time spent queued
};

/// A dequeued entry the caller must reject (it was accepted, so its future
/// still has to resolve — the queue cannot do that for a generic T).
template <typename T>
struct Dropped {
    T value{};
    Priority cls = Priority::Interactive;
    std::uint64_t sojourn_us = 0;
    DropCause cause = DropCause::Overload;
};

/// Bounded MPMC queue with admission control at the head: blocking push,
/// shedding try_push, non-blocking try_pop and close-drains-accepted, plus
/// per-entry class + deadline metadata and the CoDel state machine.
/// Entries live in per-class deques (admission reorders across classes by
/// design; FIFO holds within a class).
template <typename T>
class AdmissionQueue {
public:
    enum class Push { Ok, Full, Closed };

    explicit AdmissionQueue(std::size_t capacity, AdmissionConfig config = {},
                            std::shared_ptr<Clock> clock = nullptr)
        : capacity_(capacity),
          config_(config),
          clock_(clock ? std::move(clock) : default_clock()) {
        if (capacity_ == 0)
            throw std::invalid_argument("AdmissionQueue: zero capacity");
        for (const std::uint32_t w : config_.weights)
            if (w == 0)
                throw std::invalid_argument(
                    "AdmissionQueue: class weights must be >= 1");
        if (config_.codel.enabled &&
            (config_.codel.target_us == 0 || config_.codel.interval_us == 0))
            throw std::invalid_argument(
                "AdmissionQueue: CoDel target/interval must be > 0");
        rr_left_ = config_.weights[0];
    }

    AdmissionQueue(const AdmissionQueue&) = delete;
    AdmissionQueue& operator=(const AdmissionQueue&) = delete;

    std::size_t capacity() const { return capacity_; }
    const AdmissionConfig& config() const { return config_; }
    const std::shared_ptr<Clock>& clock() const { return clock_; }

    std::size_t size() const {
        std::lock_guard<std::mutex> lock(m_);
        return total_;
    }

    bool closed() const {
        std::lock_guard<std::mutex> lock(m_);
        return closed_;
    }

    /// Blocks while full; returns false iff the queue is (or becomes)
    /// closed. The value is moved out of `v` only on success. `deadline_us`
    /// is an absolute Clock time (0 = no deadline).
    bool push(T& v, Priority cls = Priority::Interactive,
              std::uint64_t deadline_us = 0) {
        std::unique_lock<std::mutex> lock(m_);
        cv_space_.wait(lock, [&] { return closed_ || total_ < capacity_; });
        if (closed_) return false;
        place(std::move(v), cls, deadline_us);
        lock.unlock();
        cv_items_.notify_one();
        return true;
    }

    /// Non-blocking push; on Full/Closed the value stays in `v`.
    Push try_push(T& v, Priority cls = Priority::Interactive,
                  std::uint64_t deadline_us = 0) {
        std::unique_lock<std::mutex> lock(m_);
        if (closed_) return Push::Closed;
        if (total_ == capacity_) return Push::Full;
        place(std::move(v), cls, deadline_us);
        lock.unlock();
        cv_items_.notify_one();
        return Push::Ok;
    }

    /// Blocks until something leaves a head: returns true with `out` filled
    /// when an entry was ADMITTED. Entries dropped on the way (CoDel /
    /// deadline) are appended to `drops` — the caller must resolve them
    /// whatever pop returns. A pop NEVER blocks while holding undelivered
    /// drops: when everything available was dropped it returns false with
    /// `drops` non-empty so the caller can resolve their futures promptly,
    /// then call pop again. False with `drops` untouched means closed and
    /// fully drained — the terminal state.
    bool pop(Admitted<T>& out, std::vector<Dropped<T>>& drops) {
        std::unique_lock<std::mutex> lock(m_);
        cv_items_.wait(lock, [&] { return closed_ || total_ > 0; });
        return take(lock, out, drops);  // empty here: closed and drained
    }

    /// pop() that never blocks: works the head only if something is queued
    /// now. Same contract for `drops` as pop(); false with `drops`
    /// untouched means the queue was empty.
    bool try_pop(Admitted<T>& out, std::vector<Dropped<T>>& drops) {
        std::unique_lock<std::mutex> lock(m_);
        return take(lock, out, drops);
    }

    /// Refuses all future pushes and wakes every blocked producer and
    /// consumer. Idempotent. Accepted entries remain poppable — each is
    /// still individually admitted or dropped, so a drain under standing
    /// delay sheds stale work instead of dispatching it.
    void close() {
        {
            std::lock_guard<std::mutex> lock(m_);
            closed_ = true;
        }
        cv_items_.notify_all();
        cv_space_.notify_all();
    }

    AdmissionCounters counters() const {
        std::lock_guard<std::mutex> lock(m_);
        return counters_;
    }

    CoDelState codel_state() const {
        std::lock_guard<std::mutex> lock(m_);
        CoDelState s;
        s.dropping = dropping_;
        s.count = count_;
        s.first_above_us = first_above_us_;
        s.drop_next_us = drop_next_us_;
        return s;
    }

private:
    struct Entry {
        T value{};
        std::uint64_t enqueued_at_us = 0;
        std::uint64_t deadline_us = 0;  // 0 = none
    };

    /// Shared tail of pop/try_pop: admit (or drop) from the head if the
    /// queue holds anything, then release the lock and wake producers.
    bool take(std::unique_lock<std::mutex>& lock, Admitted<T>& out,
              std::vector<Dropped<T>>& drops) {
        if (total_ == 0) return false;
        const bool admitted = admit_locked(out, drops);
        lock.unlock();
        cv_space_.notify_all();  // drops may have freed several slots
        return admitted;
    }

    void place(T&& v, Priority cls, std::uint64_t deadline_us) {
        const auto c = static_cast<std::size_t>(cls);
        queues_[c].push_back(Entry{std::move(v), clock_->now_us(), deadline_us});
        ++total_;
        ++counters_.accepted[c];
    }

    /// Next class to serve under weighted round robin: the current class
    /// while it has quantum left and entries; otherwise advance (a class
    /// that empties forfeits the rest of its quantum — work conserving).
    /// Pre: total_ > 0, so a non-empty class always exists.
    std::size_t pick_class_locked() {
        for (;;) {
            if (rr_left_ > 0 && !queues_[rr_cls_].empty()) return rr_cls_;
            rr_cls_ = (rr_cls_ + 1) % kPriorityClasses;
            rr_left_ = config_.weights[rr_cls_];
        }
    }

    static std::uint64_t control_law(std::uint64_t t, std::uint64_t interval_us,
                                     std::uint32_t count) {
        return t + static_cast<std::uint64_t>(
                       static_cast<double>(interval_us) /
                       std::sqrt(static_cast<double>(count)));
    }

    /// The CoDel sojourn test on one dequeued entry (classic dodequeue):
    /// updates first_above_us_ and answers "may this entry be dropped?".
    /// Called after the entry left its sub-queue, so total_ is the number
    /// of entries still waiting — an empty queue cannot hold a standing
    /// delay and resets the above-target tracking.
    bool codel_ok_to_drop(std::uint64_t sojourn_us, std::uint64_t now_us) {
        if (!config_.codel.enabled) return false;
        if (sojourn_us < config_.codel.target_us || total_ == 0) {
            first_above_us_ = 0;
            return false;
        }
        if (first_above_us_ == 0) {
            first_above_us_ = now_us + config_.codel.interval_us;
            return false;
        }
        return now_us >= first_above_us_;
    }

    /// Works the head until one entry is admitted (true) or the queue runs
    /// dry through drops (false). Drops go to `drops`; WRR quantum is
    /// consumed by dispatches only — a drop is not service.
    bool admit_locked(Admitted<T>& out, std::vector<Dropped<T>>& drops) {
        while (total_ > 0) {
            const std::uint64_t now = clock_->now_us();
            const std::size_t cls = pick_class_locked();
            Entry e = std::move(queues_[cls].front());
            queues_[cls].pop_front();
            --total_;
            const std::uint64_t sojourn =
                now >= e.enqueued_at_us ? now - e.enqueued_at_us : 0;

            // Deadline first: expired work never costs a session slot, and
            // never feeds the CoDel estimator (it is not "served" traffic).
            if (e.deadline_us != 0 && now > e.deadline_us) {
                ++counters_.deadline_dropped[cls];
                drops.push_back(Dropped<T>{std::move(e.value),
                                           static_cast<Priority>(cls), sojourn,
                                           DropCause::DeadlineExceeded});
                continue;
            }

            const bool ok_to_drop = codel_ok_to_drop(sojourn, now);
            if (dropping_) {
                if (!ok_to_drop) {
                    dropping_ = false;  // sojourn back under target: exit
                } else if (now >= drop_next_us_) {
                    ++count_;
                    ++counters_.codel_dropped[cls];
                    drops.push_back(Dropped<T>{std::move(e.value),
                                               static_cast<Priority>(cls),
                                               sojourn, DropCause::Overload});
                    drop_next_us_ = control_law(
                        drop_next_us_, config_.codel.interval_us, count_);
                    continue;
                }
            } else if (ok_to_drop) {
                // Enter drop state: shed this head entry, then restart the
                // control law — near the previous drop rate when the last
                // drop state was recent (classic CoDel hysteresis), else
                // from one drop per interval.
                ++counters_.codel_dropped[cls];
                drops.push_back(Dropped<T>{std::move(e.value),
                                           static_cast<Priority>(cls), sojourn,
                                           DropCause::Overload});
                dropping_ = true;
                ++counters_.drop_state_entries;
                count_ = (count_ > 2 &&
                          now - drop_next_us_ < 16 * config_.codel.interval_us)
                             ? count_ - 2
                             : 1;
                drop_next_us_ =
                    control_law(now, config_.codel.interval_us, count_);
                continue;
            }

            --rr_left_;
            ++counters_.dispatched[cls];
            out = Admitted<T>{std::move(e.value), static_cast<Priority>(cls),
                              e.enqueued_at_us, sojourn};
            return true;
        }
        return false;
    }

    const std::size_t capacity_;
    const AdmissionConfig config_;
    const std::shared_ptr<Clock> clock_;

    mutable std::mutex m_;
    std::condition_variable cv_items_;
    std::condition_variable cv_space_;
    std::array<std::deque<Entry>, kPriorityClasses> queues_;
    std::size_t total_ = 0;
    bool closed_ = false;

    // Weighted round robin.
    std::size_t rr_cls_ = 0;
    std::uint32_t rr_left_ = 0;

    // CoDel state machine.
    bool dropping_ = false;
    std::uint32_t count_ = 0;
    std::uint64_t first_above_us_ = 0;
    std::uint64_t drop_next_us_ = 0;

    AdmissionCounters counters_;
};

/// Micro-batch collection over an AdmissionQueue: block for the first
/// admitted entry, then take what is already queued, up to max_batch,
/// without waiting for more. `on_drop` is invoked outside the queue lock
/// for every entry shed by admission, and is called for trailing drops
/// even when the collect itself returns false. Returns false only when the
/// queue is closed and drained.
template <typename T, typename OnDrop>
bool collect_admitted(AdmissionQueue<T>& q, const BatchPolicy& policy,
                      std::vector<Admitted<T>>& out, OnDrop&& on_drop) {
    out.clear();
    std::vector<Dropped<T>> drops;
    Admitted<T> next;
    for (;;) {
        drops.clear();
        const bool alive = q.pop(next, drops);
        for (Dropped<T>& d : drops) on_drop(std::move(d));
        if (alive) break;
        // False + drops means "all available entries were shed, resolve
        // them and keep waiting"; false without drops is the real drain.
        if (drops.empty()) return false;
    }
    out.push_back(std::move(next));
    while (out.size() < policy.max_batch) {
        drops.clear();
        const bool more = q.try_pop(next, drops);
        for (Dropped<T>& d : drops) on_drop(std::move(d));
        if (more)
            out.push_back(std::move(next));
        else if (drops.empty())
            break;  // nothing more is queued
        // else: a drop round; what followed the drops may still be queued
    }
    return true;
}

}  // namespace neuro::serve
