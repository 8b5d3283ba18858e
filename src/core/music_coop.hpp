#pragma once

/// \file music_coop.hpp
/// MUSIC as a cooperative EMEWS algorithm instance (§3.2): the workflow
/// runs 10 such instances (one per stochastic replicate), interleaved so
/// that the worker pool stays busy while individual instances wait for
/// their single-point refinement evaluations.
///
/// Task protocol on the queue: payload {"x": [..], "replicate": k}
/// evaluated by the worker pool's model function into {"y": <double>}.

#include <cstdint>
#include <string>
#include <vector>

#include "emews/interleave.hpp"
#include "emews/task_api.hpp"
#include "gsa/music.hpp"

namespace osprey::core {

// The science (MusicEngine) lives in gsa; only this EMEWS adapter sits
// in core, which is the one module allowed to couple the two layers.
using osprey::gsa::Matrix;
using osprey::gsa::MusicConfig;
using osprey::gsa::MusicEngine;
using osprey::gsa::MusicResult;
using osprey::gsa::Vector;

class MusicCoop final : public osprey::emews::CoopAlgorithm {
 public:
  /// `replicate` is carried in every task payload so the worker's model
  /// can select the replicate's random stream (aleatoric uncertainty
  /// separation, §3.1.2).
  MusicCoop(std::string name, osprey::emews::TaskQueue queue,
            MusicConfig config, std::uint64_t replicate);

  std::string name() const override { return name_; }
  void start() override;
  osprey::emews::PollResult poll() override;

  bool finished() const { return finished_; }
  MusicResult result() const { return engine_.result(); }
  std::uint64_t replicate() const { return replicate_; }

 private:
  struct Pending {
    osprey::emews::TaskFuture future;
    Vector x;
    double y = 0.0;          // buffered result
    bool collected = false;
  };

  void submit_point(const Vector& x_box);
  bool all_collected() const;
  /// Runs engine.advance() and submits the next point (or finishes).
  void advance_engine();

  std::string name_;
  osprey::emews::TaskQueue queue_;
  MusicEngine engine_;
  std::uint64_t replicate_;
  std::vector<Pending> pending_;
  std::size_t cursor_ = 0;   // round-robin position over pending_
  bool finished_ = false;
};

}  // namespace osprey::core
