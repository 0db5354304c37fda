#include "online/engine.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/trainer.hpp"
#include "obs/flight_recorder.hpp"
#include "serve/admission.hpp"
#include "serve/clock.hpp"

namespace neuro::online {

OnlineEngine::OnlineEngine(std::shared_ptr<const runtime::CompiledModel> model,
                           std::shared_ptr<serve::FeedbackQueue> feedback,
                           data::Dataset holdout, OnlineOptions opt)
    : model_(std::move(model)), feedback_(std::move(feedback)),
      holdout_(std::move(holdout)), opt_(opt) {
    if (!model_) throw std::invalid_argument("OnlineEngine: null model");
    if (!feedback_)
        throw std::invalid_argument(
            "OnlineEngine: null feedback queue (enable "
            "ServerOptions::admission.feedback_capacity)");
    if (holdout_.size() == 0)
        throw std::invalid_argument("OnlineEngine: empty holdout set");
    if (opt_.publish_interval == 0)
        throw std::invalid_argument("OnlineEngine: zero publish_interval");
    if (!opt_.registry_dir.empty())
        registry_ = std::make_unique<ModelRegistry>(opt_.registry_dir);
}

OnlineEngine::~OnlineEngine() { stop(); }

void OnlineEngine::start() {
    if (started_) return;
    started_ = true;

    learner_ = model_->open_session();
    eval_ = model_->open_session();
    replay_ = std::make_unique<ReplayPool>(
        model_->spec().classes, opt_.replay_per_class, opt_.seed);

    // Restart path: when the model has nothing published but the registry
    // remembers an accepted version, republish it before any feedback is
    // consumed — a crash never quietly reverts the fleet to initial weights.
    if (registry_) {
        if (const auto good = registry_->last_good()) {
            registry_next_ = good->version;
            if (model_->published_version() == 0) {
                model_->publish_weights(registry_->load(good->version));
                std::lock_guard<std::mutex> lock(stats_m_);
                stats_.last_good_accuracy = good->accuracy;
            }
        }
    }

    // The learner continues from whatever is serving now (published image,
    // or the model's initial weights when nothing was published).
    learner_->refresh();
    learner_->set_learning_shift_offset(opt_.learning_shift_offset);
    last_good_ = learner_->weights();

    // Shadow-eval baseline: what today's weights score on the held-out set.
    eval_->load_weights(last_good_);
    last_good_acc_ = core::evaluate(*eval_, holdout_);
    {
        std::lock_guard<std::mutex> lock(stats_m_);
        stats_.baseline_accuracy = last_good_acc_;
        stats_.last_good_accuracy = last_good_acc_;
        stats_.current_version = model_->published_version();
    }

    thread_ = std::thread([this] { learner_loop(); });
}

void OnlineEngine::stop() {
    if (!started_ || joined_) return;
    joined_ = true;
    feedback_->close();  // end of intake; the loop drains and exits
    if (thread_.joinable()) thread_.join();
}

bool OnlineEngine::running() const { return started_ && !joined_; }

OnlineStats OnlineEngine::stats() const {
    std::lock_guard<std::mutex> lock(stats_m_);
    return stats_;
}

void OnlineEngine::learner_loop() {
    // One sample at a time, in queue order, as the paper learns (Sec.
    // IV-A): the trajectory depends only on the order of the feedback.
    serve::Admitted<serve::FeedbackSample> next;
    std::vector<serve::Dropped<serve::FeedbackSample>> drops;
    for (;;) {
        // Shed samples are discarded: the queue already counted them
        // (AdmissionCounters), and stale feedback needs no resolution.
        drops.clear();
        if (!feedback_->pop(next, drops)) {
            if (drops.empty()) return;  // closed and drained
            continue;
        }
        const serve::FeedbackSample& sample = next.value;
        // This engine trains the DEFAULT model only; a sample addressed
        // to a fleet entry is another tenant's learning material
        // (serve/feedback.hpp) — skip it without charging the stats.
        if (!sample.model.empty()) continue;
        // A bad sample (or a failing registry disk) must never
        // std::terminate the process that is also serving traffic:
        // count it, skip it, keep learning.
        try {
            replay_->add(sample.image, sample.label);
            const bool hit =
                core::train_prequential(*learner_, sample.image, sample.label);
            std::uint64_t replay_trained = 0;
            for (const auto& r : replay_->draw(opt_.replay_per_sample)) {
                learner_->train(r.image, r.label);
                ++replay_trained;
            }
            std::lock_guard<std::mutex> lock(stats_m_);
            ++stats_.feedback_seen;
            stats_.trained += 1 + replay_trained;
            if (hit) ++stats_.prequential_hits;
        } catch (const std::exception&) {
            std::lock_guard<std::mutex> lock(stats_m_);
            ++stats_.feedback_seen;
            ++stats_.errors;
            continue;
        }
        if (++since_candidate_ >= opt_.publish_interval) {
            since_candidate_ = 0;
            try {
                evaluate_candidate();
            } catch (const std::exception&) {
                // Unpublished by construction (persist-before-publish);
                // the learner keeps its weights and the next interval
                // retries the gate.
                std::lock_guard<std::mutex> lock(stats_m_);
                ++stats_.errors;
            }
        }
    }
}

void OnlineEngine::evaluate_candidate() {
    runtime::WeightSnapshot candidate = learner_->weights();
    eval_->load_weights(candidate);
    const double acc = core::evaluate(*eval_, holdout_);

    const bool passes =
        acc >= opt_.min_accuracy && acc >= last_good_acc_ - opt_.max_regression;
    if (passes) {
        // Persist BEFORE publishing: if recording throws, traffic never saw
        // a version the registry cannot restore.
        if (registry_) registry_->record(++registry_next_, acc, candidate);
        last_good_ = candidate;
        const std::uint64_t version =
            model_->publish_weights(std::move(candidate));
        last_good_acc_ = acc;
        if (opt_.recorder)
            opt_.recorder->record(obs::EventKind::WeightPublish,
                                  serve::default_clock()->now_us(), "online",
                                  version, obs::accuracy_ppm(acc));
        std::lock_guard<std::mutex> lock(stats_m_);
        ++stats_.candidates;
        ++stats_.published;
        stats_.current_version = version;
        stats_.last_eval_accuracy = acc;
        stats_.last_good_accuracy = acc;
    } else {
        // Rollback: the candidate was never published — the last good
        // version keeps serving untouched; the learner restarts from it so
        // a bad feedback burst cannot compound across intervals.
        learner_->load_weights(last_good_);
        if (opt_.recorder)
            opt_.recorder->record(obs::EventKind::Rollback,
                                  serve::default_clock()->now_us(), "online",
                                  0, obs::accuracy_ppm(acc));
        std::lock_guard<std::mutex> lock(stats_m_);
        ++stats_.candidates;
        ++stats_.rollbacks;
        stats_.last_eval_accuracy = acc;
    }
}

}  // namespace neuro::online
